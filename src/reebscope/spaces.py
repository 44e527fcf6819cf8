"""Symbolic calculus of corank, isotropy index and Betti numbers.

Expressions are trees over a small table of base spaces, combined by
product, union (with simply connected intersection), wedge and connected
sum.  Every composition rule carries preconditions; when they cannot be
certified from the operand flags the result is unknown (`None`) with an
explanation, never a guess.  Values are exact integers.

Conventions: `b1_prime` is the corank of the fundamental group (largest
free quotient rank), `h` the isotropy index (largest subgroup of first
integral cohomology with trivial cup product), `k` the dimension of the
radical of the cup-product pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from .metric import BoundReport

_FLAG_NAMES = ("closed_orientable_surface", "manifold_dim",
               "locally_contractible_at_basepoint", "boundary_nonempty",
               "fundamental_group_fg")


@dataclass(frozen=True)
class InvariantRecord:
    """Known invariants of a space; None marks an unknown."""
    b1: int | float | None
    b1_prime: int | None
    h: int | None
    b2: int | None
    k: int | None
    flags: dict
    notes: tuple = ()

    def __post_init__(self):
        missing = [f for f in _FLAG_NAMES if f not in self.flags]
        if missing:
            raise ValueError(f"missing flags: {missing}")

    def to_json_doc(self) -> dict:
        def enc(x):
            if x is None:
                return None
            if isinstance(x, float) and math.isinf(x):
                return "infinite"
            return x
        return {
            "b1": enc(self.b1),
            "b1_prime": enc(self.b1_prime),
            "h": enc(self.h),
            "b2": enc(self.b2),
            "k": enc(self.k),
            "flags": dict(self.flags),
            "notes": list(self.notes),
        }


def _record(b1, b1_prime, h, b2, k, *, surface=False, dim=None, lc=True,
            boundary=False, fg=True, notes=()):
    return InvariantRecord(b1, b1_prime, h, b2, k, {
        "closed_orientable_surface": surface,
        "manifold_dim": dim,
        "locally_contractible_at_basepoint": lc,
        "boundary_nonempty": boundary,
        "fundamental_group_fg": fg,
    }, tuple(notes))


def base_table(name: str, **params) -> InvariantRecord:
    """Exact invariants of the named base space."""
    def need(*keys):
        if set(params) != set(keys):
            raise ValueError(f"{name} takes parameters {keys}, "
                             f"got {sorted(params)}")
        out = []
        for key in keys:
            v = params[key]
            if not isinstance(v, int):
                raise ValueError(f"{name}: parameter {key} must be an integer")
            out.append(v)
        return out

    if name == "point":
        need()
        return _record(0, 0, 0, 0, 0, dim=0)
    if name == "circle":
        need()
        return _record(1, 1, 1, 0, 1, dim=1)
    if name == "sphere_n":
        (n,) = need("n")
        if n < 2:
            raise ValueError("sphere_n needs n >= 2")
        return _record(0, 0, 0, 1 if n == 2 else 0, 0,
                       surface=(n == 2), dim=n)
    if name == "torus_n":
        (n,) = need("n")
        if n < 1:
            raise ValueError("torus_n needs n >= 1")
        return _record(n, 1, 1, n * (n - 1) // 2, 0 if n >= 2 else 1,
                       surface=(n == 2), dim=n)
    if name == "orientable_surface_g":
        (g,) = need("g")
        if g < 0:
            raise ValueError("orientable_surface_g needs g >= 0")
        return _record(2 * g, g, g, 1, 0, surface=True, dim=2)
    if name == "nonorientable_surface_g":
        (g,) = need("g")
        if g < 1:
            raise ValueError("nonorientable_surface_g needs g >= 1")
        return _record(g - 1, g // 2, None, 0, None, dim=2,
                       notes=("isotropy index and cup radical of "
                              "nonorientable surfaces are not tabulated",))
    if name == "orientable_surface_g_h_boundary":
        g, holes = need("g", "h")
        if g < 0 or holes < 1:
            raise ValueError("orientable bordered surface needs g >= 0, "
                             "h >= 1")
        m = 2 * g + holes - 1
        return _record(m, m, m, 0, m, dim=2, boundary=True)
    if name == "nonorientable_surface_g_h_boundary":
        g, holes = need("g", "h")
        if g < 1 or holes < 1:
            raise ValueError("nonorientable bordered surface needs g >= 1, "
                             "h >= 1")
        m = g + holes - 1
        return _record(m, m, m, 0, m, dim=2, boundary=True)
    if name == "projective_plane":
        need()
        return _record(0, 0, 0, 0, 0, dim=2)
    if name == "wedge_of_r_circles":
        (r,) = need("r")
        if r < 1:
            raise ValueError("wedge_of_r_circles needs r >= 1")
        return _record(r, r, r, 0, r)
    raise ValueError(f"unknown base space {name!r}")


# ---------------------------------------------------------------------------
# expression trees

@dataclass(frozen=True)
class Base:
    name: str
    params: tuple = ()


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class UnionSimplyConnectedIntersection:
    left: object
    right: object


@dataclass(frozen=True)
class Wedge:
    left: object
    right: object


@dataclass(frozen=True)
class ConnSum:
    left: object
    right: object


def _is_point(r: InvariantRecord) -> bool:
    return r.flags["manifold_dim"] == 0


def _add(a, b):
    if a is None or b is None:
        return None
    return a + b


def _max(a, b):
    if a is None or b is None:
        return None
    return max(a, b)


def _both(a: InvariantRecord, b: InvariantRecord, flag: str) -> bool:
    return bool(a.flags[flag]) and bool(b.flags[flag])


def _product(a: InvariantRecord, b: InvariantRecord) -> InvariantRecord:
    if _is_point(a):
        return b
    if _is_point(b):
        return a
    notes = list(a.notes + b.notes)
    dims = (a.flags["manifold_dim"], b.flags["manifold_dim"])
    dim = None if None in dims else dims[0] + dims[1]
    closed = not (a.flags["boundary_nonempty"] or b.flags["boundary_nonempty"])
    surface = dims == (1, 1) and closed
    b2 = None
    if None not in (a.b2, a.b1, b.b1, b.b2):
        b2 = a.b2 + a.b1 * b.b1 + b.b2
    if a.b1_prime is None or b.b1_prime is None:
        notes.append("product corank unknown: an operand corank is unknown")
    if a.h is None or b.h is None:
        notes.append("product isotropy index unknown: an operand is unknown")
    return _record(
        _add(a.b1, b.b1), _max(a.b1_prime, b.b1_prime), _max(a.h, b.h),
        b2, None, surface=surface, dim=dim,
        lc=_both(a, b, "locally_contractible_at_basepoint"),
        boundary=not closed, fg=_both(a, b, "fundamental_group_fg"),
        notes=notes)


def _glue(a: InvariantRecord, b: InvariantRecord, kind: str):
    """Shared sum rule for wedge and for union over a simply connected
    intersection; the wedge form additionally needs local contractibility
    at both basepoints."""
    if _is_point(a):
        return b
    if _is_point(b):
        return a
    notes = list(a.notes + b.notes)
    if kind == "wedge" and not _both(a, b,
                                     "locally_contractible_at_basepoint"):
        notes.append("wedge rule needs local contractibility at both "
                     "basepoints")
        return _record(None, None, None, None, None, dim=None, lc=False,
                       fg=_both(a, b, "fundamental_group_fg"), notes=notes)
    bp = _add(a.b1_prime, b.b1_prime)
    hh = _add(a.h, b.h)
    if bp is None:
        notes.append(f"{kind} corank unknown: an operand corank is unknown")
    if hh is None:
        notes.append(f"{kind} isotropy index unknown: an operand is unknown")
    return _record(_add(a.b1, b.b1), bp, hh, _add(a.b2, b.b2),
                   _add(a.k, b.k), dim=None,
                   lc=_both(a, b, "locally_contractible_at_basepoint"),
                   fg=_both(a, b, "fundamental_group_fg"), notes=notes)


def _connsum(a: InvariantRecord, b: InvariantRecord) -> InvariantRecord:
    notes = list(a.notes + b.notes)
    surfaces = _both(a, b, "closed_orientable_surface")
    dims = (a.flags["manifold_dim"], b.flags["manifold_dim"])
    high = (dims[0] is not None and dims[0] == dims[1] and dims[0] >= 3
            and not a.flags["boundary_nonempty"]
            and not b.flags["boundary_nonempty"]
            and _both(a, b, "fundamental_group_fg"))
    if not surfaces and not high:
        notes.append("connected sum rule needs closed orientable surfaces, "
                     "or closed manifolds of equal dimension >= 3 with "
                     "finitely generated fundamental groups")
        return _record(None, None, None, None, None, dim=dims[0], lc=True,
                       fg=_both(a, b, "fundamental_group_fg"), notes=notes)
    bp = _add(a.b1_prime, b.b1_prime)
    hh = _add(a.h, b.h)
    if bp is None:
        notes.append("connected sum corank unknown: an operand corank is "
                     "unknown")
    if hh is None:
        notes.append("connected sum isotropy index unknown: an operand is "
                     "unknown")
    if surfaces:
        return _record(_add(a.b1, b.b1), bp, hh, 1, _add(a.k, b.k),
                       surface=True, dim=2, notes=notes)
    return _record(_add(a.b1, b.b1), bp, hh, None, None, dim=dims[0],
                   fg=True, notes=notes)


def evaluate(expr) -> InvariantRecord:
    """Invariant record of an expression, with unknowns explained."""
    if isinstance(expr, Base):
        return base_table(expr.name, **dict(expr.params))
    if isinstance(expr, Product):
        return _product(evaluate(expr.left), evaluate(expr.right))
    if isinstance(expr, UnionSimplyConnectedIntersection):
        return _glue(evaluate(expr.left), evaluate(expr.right), "union")
    if isinstance(expr, Wedge):
        return _glue(evaluate(expr.left), evaluate(expr.right), "wedge")
    if isinstance(expr, ConnSum):
        return _connsum(evaluate(expr.left), evaluate(expr.right))
    raise TypeError(f"not a space expression: {expr!r}")


# ---------------------------------------------------------------------------
# cup-product bounds on the isotropy index

VACUOUS_NOTE = "bounds vacuous, cup product trivial => h=b1"


@dataclass(frozen=True)
class HBounds:
    """Two-sided bounds on h from b1, b2 and the cup radical k.

    Iterates as (lower, upper).  With b2 = 0 the literal formulas give
    lower > upper; they are returned as written with `note` explaining
    that the trivial cup product forces h = b1.  The surjectivity
    refinement appears in `surjective_upper` when its radicand is
    nonnegative, else `surjective_applicable` is False.
    """
    lower: float
    upper: float
    note: str | None = None
    surjective_upper: float | None = None
    surjective_applicable: bool = True

    def __iter__(self):
        return iter((self.lower, self.upper))


def h_bounds(b1: int, b2: int, k: int,
             cup_surjective: bool = False) -> HBounds:
    if b1 < 0 or b2 < 0 or k < 0:
        raise ValueError("b1, b2, k must be nonnegative")
    if b2 == 0:
        return HBounds(float(b1), float(k), note=VACUOUS_NOTE)
    lower = (b1 + k * b2) / (b2 + 1)
    upper = (b1 * b2 + k) / (b2 + 1)
    if not cup_surjective:
        return HBounds(lower, upper)
    radicand = (b1 - k - 0.5) ** 2 - 2 * b2
    if radicand < 0:
        return HBounds(lower, upper, surjective_applicable=False,
                       note="surjectivity refinement not applicable: "
                            "negative radicand")
    refined = k + 0.5 + math.sqrt(radicand)
    return HBounds(lower, min(upper, refined), surjective_upper=refined)


def chain_check(r: InvariantRecord) -> BoundReport:
    """Check b1_prime <= h <= b1 over the known values of a record.

    Reports the worst of the applicable pairwise inequalities; needs at
    least two of the three values.
    """
    known = {name: val for name, val in
             (("b1_prime", r.b1_prime), ("h", r.h), ("b1", r.b1))
             if val is not None}
    if len(known) < 2:
        raise ValueError("chain check needs at least two known values")
    order = ("b1_prime", "h", "b1")
    worst = None
    for i, lo in enumerate(order):
        for hi in order[i + 1:]:
            if lo in known and hi in known:
                gap = known[lo] - known[hi]
                if worst is None or gap > worst[0]:
                    worst = (gap, lo, hi)
    _, lo, hi = worst
    return BoundReport.check(
        f"chain:{lo}<={hi}", known[lo], known[hi], tolerance=0.0,
        **{name: val for name, val in known.items()})


# ---------------------------------------------------------------------------
# expression text syntax

class SpaceParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = {
    "product": Product,
    "union": UnionSimplyConnectedIntersection,
    "wedge": Wedge,
    "connsum": ConnSum,
}

# alias -> (canonical name, positional parameter order, defaults)
_BASE_SYNTAX = {
    "point": ("point", (), {}),
    "circle": ("circle", (), {}),
    "projective_plane": ("projective_plane", (), {}),
    "sphere": ("sphere_n", ("n",), {"n": 2}),
    "sphere_n": ("sphere_n", ("n",), {"n": 2}),
    "torus": ("torus_n", ("n",), {"n": 2}),
    "torus_n": ("torus_n", ("n",), {"n": 2}),
    "surface": ("orientable_surface_g", ("g",), {}),
    "orientable_surface_g": ("orientable_surface_g", ("g",), {}),
    "nonorientable": ("nonorientable_surface_g", ("g",), {}),
    "nonorientable_surface_g": ("nonorientable_surface_g", ("g",), {}),
    "orientable_surface_g_h_boundary":
        ("orientable_surface_g_h_boundary", ("g", "h"), {}),
    "nonorientable_surface_g_h_boundary":
        ("nonorientable_surface_g_h_boundary", ("g", "h"), {}),
    "wedge_of_r_circles": ("wedge_of_r_circles", ("r",), {}),
}

# bordered variants when h= is passed to the closed-surface aliases
_BORDERED = {
    "orientable_surface_g": "orientable_surface_g_h_boundary",
    "nonorientable_surface_g": "nonorientable_surface_g_h_boundary",
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise SpaceParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum()
                    or self.text[self.pos] == "_")):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("-"):
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def expr(self):
        start = self.pos
        word = self.name()
        if word in _OPS:
            self.expect("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.expr())
            self.expect(")")
            if len(args) < 2:
                self.pos = start
                self.error(f"{word} needs at least two operands")
            node = args[0]
            for arg in args[1:]:
                node = _OPS[word](node, arg)
            return node
        if word not in _BASE_SYNTAX:
            self.pos = start
            self.error(f"unknown space {word!r}")
        canonical, positional, defaults = _BASE_SYNTAX[word]
        params = dict(defaults)
        if self.peek() == "(":
            self.pos += 1
            index = 0
            while self.peek() != ")":
                if index > 0:
                    self.expect(",")
                mark = self.pos
                key = None
                if self.peek().isalpha():
                    key = self.name()
                    if self.peek() == "=":
                        self.pos += 1
                    else:
                        self.pos = mark
                        key = None
                if key is None:
                    if index >= len(positional):
                        self.error(f"too many arguments for {word}")
                    key = positional[index]
                params[key] = self.integer()
                index += 1
            self.expect(")")
        if "h" in params and canonical in _BORDERED:
            canonical = _BORDERED[canonical]
        return Base(canonical, tuple(sorted(params.items())))


def parse_space(text: str):
    """Parse expression text like `product(torus(3), surface(g=2))`."""
    p = _Parser(text)
    node = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing text")
    return node
