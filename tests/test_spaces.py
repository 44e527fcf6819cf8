"""Symbolic corank and isotropy calculus: base table, composition rules,
cup-product bounds, expression parsing."""

import math

import pytest

from reebscope.metric import BoundReport
from reebscope.spaces import (Base, ConnSum, InvariantRecord, Product,
                              SpaceParseError,
                              UnionSimplyConnectedIntersection, Wedge,
                              base_table, chain_check, evaluate, h_bounds,
                              parse_space)
from reebscope.spaces import VACUOUS_NOTE, _FLAG_NAMES


# ----------------------------------------------------------------- base table

def test_torus_family():
    for n in range(1, 11):
        r = base_table("torus_n", n=n)
        assert (r.b1, r.b1_prime) == (n, 1)
        assert r.b2 == n * (n - 1) // 2
        assert r.h == 1
        assert r.k == (1 if n == 1 else 0)


def test_orientable_surfaces():
    for g in range(0, 11):
        r = base_table("orientable_surface_g", g=g)
        assert (r.b1, r.b1_prime, r.h) == (2 * g, g, g)
        assert r.b2 == 1
        assert r.flags["closed_orientable_surface"]


def test_nonorientable_surfaces():
    for g in range(1, 11):
        r = base_table("nonorientable_surface_g", g=g)
        assert (r.b1, r.b1_prime) == (g - 1, g // 2)
        assert r.h is None and r.notes


def test_bordered_surfaces():
    for g in range(0, 11):
        for h in range(1, 11):
            r = base_table("orientable_surface_g_h_boundary", g=g, h=h)
            m = 2 * g + h - 1
            assert (r.b1, r.b1_prime, r.h, r.k) == (m, m, m, m)
            assert r.flags["boundary_nonempty"]
    for g in range(1, 11):
        for h in range(1, 11):
            r = base_table("nonorientable_surface_g_h_boundary", g=g, h=h)
            m = g + h - 1
            assert (r.b1, r.b1_prime, r.h, r.k) == (m, m, m, m)


def test_remaining_base_spaces():
    assert base_table("point").b1 == 0
    c = base_table("circle")
    assert (c.b1, c.b1_prime, c.h, c.k) == (1, 1, 1, 1)
    s2 = base_table("sphere_n", n=2)
    assert (s2.b1, s2.b2) == (0, 1)
    assert s2.flags["closed_orientable_surface"]
    s3 = base_table("sphere_n", n=3)
    assert (s3.b1, s3.b2) == (0, 0)
    assert not s3.flags["closed_orientable_surface"]
    p = base_table("projective_plane")
    assert (p.b1, p.b1_prime, p.h) == (0, 0, 0)
    w = base_table("wedge_of_r_circles", r=4)
    assert (w.b1, w.b1_prime, w.h, w.k) == (4, 4, 4, 4)


def test_base_table_validation():
    with pytest.raises(ValueError, match="unknown base space"):
        base_table("moebius")
    with pytest.raises(ValueError, match="takes parameters"):
        base_table("circle", n=1)
    with pytest.raises(ValueError, match="must be an integer"):
        base_table("torus_n", n=2.0)
    with pytest.raises(ValueError, match="n >= 2"):
        base_table("sphere_n", n=1)
    with pytest.raises(ValueError, match="g >= 1"):
        base_table("nonorientable_surface_g", g=0)
    with pytest.raises(ValueError, match="h >= 1"):
        base_table("orientable_surface_g_h_boundary", g=1, h=0)


def test_invariant_record_needs_all_flags():
    with pytest.raises(ValueError, match="missing flags"):
        InvariantRecord(0, 0, 0, 0, 0, {"manifold_dim": 2})
    assert len(_FLAG_NAMES) == 5


def test_json_doc_encodes_infinity():
    flags = {name: None for name in _FLAG_NAMES}
    r = InvariantRecord(math.inf, None, 0, 0, 0, flags)
    doc = r.to_json_doc()
    assert doc["b1"] == "infinite"
    assert doc["b1_prime"] is None


# ----------------------------------------------------------- composition rules

def test_product_takes_max_of_coranks():
    r = evaluate(Product(Base("torus_n", (("n", 3),)),
                         Base("orientable_surface_g", (("g", 2),))))
    assert r.b1 == 3 + 4
    assert r.b1_prime == max(1, 2)
    assert r.h == max(1, 2)
    assert r.b2 == 3 + 3 * 4 + 1
    assert r.flags["manifold_dim"] == 5


def test_product_with_point_is_identity():
    t = Base("torus_n", (("n", 2),))
    assert evaluate(Product(t, Base("point"))) == evaluate(t)
    assert evaluate(Product(Base("point"), t)) == evaluate(t)


def test_two_circles_make_the_torus():
    r = evaluate(Product(Base("circle"), Base("circle")))
    t = base_table("torus_n", n=2)
    assert (r.b1, r.b1_prime, r.h, r.b2) == (t.b1, t.b1_prime, t.h, t.b2)
    assert r.flags["closed_orientable_surface"]


def test_wedge_and_union_add():
    for op in (Wedge, UnionSimplyConnectedIntersection):
        r = evaluate(op(Base("circle"), Base("orientable_surface_g",
                                             (("g", 2),))))
        assert (r.b1, r.b1_prime, r.h) == (5, 3, 3)
        assert r.b2 == 1
        assert r.k == 1 + 0


def test_wedge_of_circles_matches_table():
    expr = Base("circle")
    for _ in range(3):
        expr = Wedge(expr, Base("circle"))
    r = evaluate(expr)
    t = base_table("wedge_of_r_circles", r=4)
    assert (r.b1, r.b1_prime, r.h, r.b2, r.k) \
        == (t.b1, t.b1_prime, t.h, t.b2, t.k)


def test_connected_sum_of_surfaces():
    r = evaluate(ConnSum(Base("orientable_surface_g", (("g", 1),)),
                         Base("orientable_surface_g", (("g", 2),))))
    t = base_table("orientable_surface_g", g=3)
    assert (r.b1, r.b1_prime, r.h, r.b2) == (t.b1, t.b1_prime, t.h, t.b2)
    assert r.flags["closed_orientable_surface"]


def test_connected_sum_high_dimension():
    r = evaluate(ConnSum(Base("torus_n", (("n", 3),)),
                         Base("torus_n", (("n", 3),))))
    assert (r.b1, r.b1_prime, r.h) == (6, 2, 2)
    assert r.b2 is None  # not determined by the sum rule


def test_connected_sum_needs_its_preconditions():
    # dimension mismatch: no rule applies, unknowns with an explanation
    r = evaluate(ConnSum(Base("torus_n", (("n", 2),)),
                         Base("torus_n", (("n", 3),))))
    assert r.b1 is None and r.b1_prime is None
    assert any("connected sum rule needs" in note for note in r.notes)


def test_nonorientable_unknown_propagates():
    r = evaluate(ConnSum(Base("nonorientable_surface_g", (("g", 1),)),
                         Base("nonorientable_surface_g", (("g", 1),))))
    assert r.b1_prime is None
    assert r.notes


def test_corank_and_isotropy_of_a_product():
    expr = Product(Base("torus_n", (("n", 4),)), Base("circle"))
    assert evaluate(expr).b1_prime == 1
    assert evaluate(expr).h == 1


def test_evaluate_type_error():
    with pytest.raises(TypeError, match="not a space expression"):
        evaluate("torus")


# -------------------------------------------------------------- chain checks

def test_chain_check_passes_on_table_rows():
    for name, params in (("circle", {}), ("torus_n", {"n": 3}),
                         ("orientable_surface_g", {"g": 2}),
                         ("wedge_of_r_circles", {"r": 5})):
        rep = chain_check(base_table(name, **params))
        assert rep.passed


def test_chain_check_flags_a_fabricated_violation():
    flags = {name: None for name in _FLAG_NAMES}
    bad = InvariantRecord(1, 2, None, 0, 0, flags)  # corank above b1
    rep = chain_check(bad)
    assert not rep.passed
    assert rep.name == "chain:b1_prime<=b1"
    assert (rep.lhs, rep.rhs) == (2, 1)


def test_chain_check_needs_two_values():
    flags = {name: None for name in _FLAG_NAMES}
    with pytest.raises(ValueError, match="two known values"):
        chain_check(InvariantRecord(1, None, None, 0, 0, flags))


# ------------------------------------------------------------ h bounds

def test_h_bounds_vacuous_when_cup_product_trivial():
    hb = h_bounds(b1=3, b2=0, k=2)
    assert (hb.lower, hb.upper) == (3.0, 2.0)  # literal formulas, as written
    assert hb.note == VACUOUS_NOTE


def test_h_bounds_formulas():
    hb = h_bounds(b1=4, b2=2, k=1)
    assert hb.lower == pytest.approx((4 + 1 * 2) / 3, rel=1e-15)
    assert hb.upper == pytest.approx((4 * 2 + 1) / 3, rel=1e-15)
    lo, up = hb
    assert (lo, up) == (hb.lower, hb.upper)


def test_h_bounds_surjective_refinement():
    hb = h_bounds(b1=6, b2=2, k=1, cup_surjective=True)
    refined = 1 + 0.5 + math.sqrt((6 - 1 - 0.5) ** 2 - 4)
    assert hb.surjective_upper == pytest.approx(refined, rel=1e-15)
    assert hb.upper <= refined
    narrow = h_bounds(b1=2, b2=5, k=1, cup_surjective=True)
    assert not narrow.surjective_applicable
    assert "not applicable" in narrow.note


def test_h_bounds_validation():
    with pytest.raises(ValueError):
        h_bounds(-1, 0, 0)


# ------------------------------------------------------------------- parsing

def test_parse_simple_and_nested():
    assert parse_space("circle") == Base("circle", ())
    assert parse_space("torus(3)") == Base("torus_n", (("n", 3),))
    assert parse_space("sphere") == Base("sphere_n", (("n", 2),))
    expr = parse_space("product(torus(3), surface(g=2))")
    assert expr == Product(Base("torus_n", (("n", 3),)),
                           Base("orientable_surface_g", (("g", 2),)))


def test_parse_variadic_folds_left():
    expr = parse_space("wedge(circle, circle, circle)")
    assert expr == Wedge(Wedge(Base("circle", ()), Base("circle", ())),
                         Base("circle", ()))


def test_parse_bordered_alias():
    expr = parse_space("surface(g=2, h=1)")
    assert expr == Base("orientable_surface_g_h_boundary",
                        (("g", 2), ("h", 1)))
    expr = parse_space("nonorientable(g=3, h=2)")
    assert expr == Base("nonorientable_surface_g_h_boundary",
                        (("g", 3), ("h", 2)))


def test_parse_whitespace_insensitive():
    a = parse_space("connsum( torus( 2 ),torus(2) )")
    b = parse_space("connsum(torus(2), torus(2))")
    assert a == b


@pytest.mark.parametrize("text,what", [
    ("klein", "unknown space"),
    ("torus(2) trailing", "unexpected trailing text"),
    ("product(circle)", "at least two operands"),
    ("torus(1, 2)", "too many arguments"),
    ("torus(", "expected an integer"),
    ("", "expected a name"),
])
def test_parse_errors_carry_position(text, what):
    with pytest.raises(SpaceParseError, match=what) as err:
        parse_space(text)
    assert isinstance(err.value.position, int)
    assert 0 <= err.value.position <= len(text)
    assert "position" in str(err.value)


def test_stray_keyword_is_a_table_error_not_a_parse_error():
    # the parser only checks syntax; the base table rejects the parameter
    expr = parse_space("torus(x=2)")
    with pytest.raises(ValueError, match="takes parameters"):
        evaluate(expr)


def test_parsed_expression_evaluates():
    r = evaluate(parse_space("product(torus(3), surface(g=2))"))
    assert (r.b1, r.b1_prime) == (7, 2)
    assert isinstance(chain_check(r), BoundReport)
