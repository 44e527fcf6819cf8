"""Acceptance gate.  One test per numbered shipping criterion, so
`pytest -v` prints exactly one verdict line for each.

Criterion 6 is expected to fail: its composition clause asserts that
chaining the two one-step distortion displays reproduces the direct
closed form within 1e-9 relative, and the chained value provably sits at
the fraction (2b+1)/(2b+2) of the direct one.  The test states the
identity as written and reports the measured ratio when it fails; the
other two clauses of that criterion are asserted first and pass.
"""

import math
import time

import numpy as np
import pytest

from reebscope.complexes import ScalarField
from reebscope.complexes.generators import generate_space
from reebscope.metric import (MorseBoundParams, bound_ratio,
                              composed_intermediate_bound,
                              distance_function_bound, gh_delta_bounds,
                              morse_bound_B)
from reebscope.reeb import build_reeb, isomorphic, reeb_oracle
from reebscope.spaces import base_table
from reebscope.suites import (chain_suite, ex66_suite, rules_suite,
                              thickness_checks, thm31_suite, thm52_suite,
                              thm62_suite)
from reebscope.width import (GlobalGeometry, LocalGeometry, reeb_width_global,
                             reeb_width_local, simplified_bounds)

from test_reeb import random_tied_field, small_fixtures


def _all_pass(reports):
    bad = [r.name for r in reports if not r.passed]
    assert not bad, f"failing checks: {bad}"


def test_criterion_01_corank_table_is_exact_and_fast():
    t0 = time.perf_counter()
    for n in range(1, 11):
        rec = base_table("torus_n", n=n)
        assert (rec.b1_prime, rec.b1) == (1, n)
    for g in range(0, 11):
        rec = base_table("orientable_surface_g", g=g)
        assert (rec.b1_prime, rec.b1) == (g, 2 * g)
    for g in range(1, 11):
        rec = base_table("nonorientable_surface_g", g=g)
        assert (rec.b1_prime, rec.b1) == (g // 2, g - 1)
    for g in range(0, 11):
        for h in range(1, 11):
            rec = base_table("orientable_surface_g_h_boundary", g=g, h=h)
            assert rec.b1_prime == rec.b1 == 2 * g + h - 1
    for g in range(1, 11):
        for h in range(1, 11):
            rec = base_table("nonorientable_surface_g_h_boundary", g=g, h=h)
            assert rec.b1_prime == rec.b1 == g + h - 1
    _all_pass(chain_suite())
    _all_pass(rules_suite())
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_cycle_rank_between_corank_and_b1():
    t0 = time.perf_counter()
    _all_pass(thm31_suite())
    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_height_rank_is_genus_and_distance_rank_zero():
    for name, g in (("torus", 1), ("genus", 2), ("genus", 3)):
        params = {"g": g} if name == "genus" else {}
        space = generate_space(name, 0.1, **params)
        graph, _ = build_reeb(space.complex, space.field)
        assert graph.cycle_rank == g, (name, g, graph.cycle_rank)
    flat = generate_space("flat_torus", 0.05)
    graph, _ = build_reeb(flat.complex, flat.field)
    assert graph.cycle_rank == 0


def test_criterion_04_sweep_matches_the_slab_oracle():
    t0 = time.perf_counter()
    pool = small_fixtures()
    assert all(cx.n_vertices <= 50 for cx in pool)
    rng = np.random.default_rng(404)
    for trial in range(200):
        cx = pool[trial % len(pool)]
        field = random_tied_field(cx, rng)
        graph, _ = build_reeb(cx, field)
        assert isomorphic(graph, reeb_oracle(cx, field), with_levels=True), \
            f"trial {trial} on {cx.name}"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_distance_field_distortion_bound():
    t0 = time.perf_counter()
    _all_pass(thm52_suite())
    assert time.perf_counter() - t0 < 15.0
    for D in (0.5, 1.0, 2.75):
        assert distance_function_bound(1, D) == (4.0 * D, 2.0 * D)
        for g in range(0, 6):
            dis, gh = distance_function_bound(g, D)
            assert dis == 2.0 * (g + 1) * D
            assert gh == (g + 1) * D


def test_criterion_06_morse_bound_closed_form_and_composition():
    # clause one: the volume-only specialization of the closed form
    for b in range(0, 6):
        for area in (0.5, 1.0, 7.0):
            p = MorseBoundParams(b=b, L=1.0, n=2, volume=area, thickness=1.0,
                                 diameter=3.0, eps_p=0.0)
            B, half = morse_bound_B(p)
            want = 4.0 * math.sqrt(2.0) * (b + 1) ** 1.5 * math.sqrt(area)
            assert B == pytest.approx(want, rel=1e-12)
            assert half == pytest.approx(0.5 * want, rel=1e-12)
    # clause two: the improvement ratios
    for n in range(2, 8):
        assert bound_ratio(n, 1, n) == pytest.approx(
            ((n + 1) / 2.0) ** (2.0 - 1.0 / n), rel=1e-12)
    for g in range(1, 8):
        assert bound_ratio(2 * g, g, 2) == pytest.approx(
            (2.0 - 1.0 / (g + 1)) ** 1.5, rel=1e-12)
    # clause three: composing the two one-step displays is claimed to land
    # back on the closed form within 1e-9 relative
    for b in range(0, 4):
        for n in (2, 3):
            p = MorseBoundParams(b=b, L=1.0, n=n, volume=3.0, thickness=0.7,
                                 diameter=2.0, eps_p=0.0)
            composed = composed_intermediate_bound(p)
            direct, _ = morse_bound_B(p)
            assert abs(composed - direct) <= 1e-9 * direct, (
                "closed-form and ratio clauses passed; the composed "
                f"bound reaches {composed / direct:.12f} of the direct "
                f"form at b={b}, n={n} (the measured fraction is "
                f"(2b+1)/(2b+2) = {(2 * b + 1) / (2 * b + 2):.12f})")


def test_criterion_07_approximation_pinch_values():
    for rho in (0.0, 0.125, 1.0, 3.5):
        assert gh_delta_bounds(1, 1, rho) == (rho / 28.0, rho)


def test_criterion_08_every_disk_field_shows_a_wide_boundary_pair():
    t0 = time.perf_counter()
    _all_pass(thm62_suite())
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_hemisphere_width_value():
    _all_pass(ex66_suite())
    assert reeb_width_local(math.pi / 2, 1.0, 2) == pytest.approx(
        2.0 * math.pi / 3.0, rel=1e-12)
    for r in (0.4, 1.0, 2.3):
        assert abs(reeb_width_local(r, 1e-9, 2)
                   - reeb_width_local(r, -1e-9, 2)) < 1e-6


def test_criterion_10_global_bound_is_the_local_bound_at_the_safe_radius():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        inj = float(rng.uniform(0.001, 20.0))
        K = float(rng.uniform(-10.0, 10.0))
        dim = int(rng.integers(2, 7))
        if K > 0:
            r = min(inj / 2.0, math.pi / (2.0 * math.sqrt(K)))
        else:
            r = inj / 2.0
        lhs = reeb_width_global(inj, K, dim)
        rhs = reeb_width_local(r, K, dim)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
    for r in np.linspace(0.05, 4.0, 20):
        for K in np.linspace(-3.0, 3.0, 21):
            for n in (2, 3):
                g = LocalGeometry(float(r), float(K), n)
                assert float(simplified_bounds(g)) <= \
                    reeb_width_local(g) + 1e-12
                gg = GlobalGeometry(2.0 * float(r), float(K), n)
                assert float(simplified_bounds(gg)) <= \
                    reeb_width_global(gg) + 1e-12


def test_criterion_11_smooth_fields_are_thick():
    _all_pass(thickness_checks())
