"""Independent oracles shared by the test modules.

Everything here is computed by a route that does not touch the code under
test: classical Runge-Kutta elementary weights by their textbook recursion,
closed-form moments of iterated integrals by isometry and Fubini,
hand-written derivative tables of the built-in problems' coefficients,
mixed central finite differences in place of :mod:`sbseries.jets`, the
sorting tree enumeration and recursive-descent tree parser that the
in-order ones replaced, the ``Fraction`` accumulator that the integer
pair accumulator of :mod:`sbseries.expr` replaced, a term-by-term
product with its own monomial product, the ``isinstance``
chains that the facts stored on each node label replaced, and the Wiener
row drawn level by level from a ``SeedSequence`` of the seed tuple itself,
which the batched sampler and its entropy words replaced.
"""

import bisect
import re
from fractions import Fraction

import numpy as np

from sbseries import expr as E
from sbseries.trees import (
    ALabel,
    EmptyLabel,
    FLabel,
    GeneralLabel,
    GeneralPartitioned,
    GLabel,
    InvalidLabel,
    MAX_G_COLOR,
    ParseError,
    SemiLinearArity,
    TLabel,
    Tree,
    WLabel,
    a_node_children,
    canonicalize,
    rho2,
    tree_key,
)


def label_facts(label) -> tuple[tuple[int, int, int, int], int, int, str | None]:
    """(order key, color, partition, bracket token) of a node label, decided
    class by class; the token is None for a g-node color the one-digit
    grammar cannot write."""
    if isinstance(label, EmptyLabel):
        return (0, label.q, 0, 0), 0, label.q, "()" if label.q == 1 else f"(){label.q}"
    if isinstance(label, TLabel):
        return (1, 0, 0, 0), 0, 1, "t"
    if isinstance(label, WLabel):
        return (2, label.i, 0, 0), label.i, 1, f"W{label.i}"
    if isinstance(label, ALabel):
        return (3, 0, 0, 0), 0, 1, "A"
    if isinstance(label, GLabel):
        text = str(label.m) if label.m <= MAX_G_COLOR else None
        return (4, label.m, 0, 0), label.m, 1, text
    if isinstance(label, GeneralLabel):
        return ((5, label.q, label.v, label.m), label.m, label.q,
                f"g({label.q},{label.v},{label.m})")
    if isinstance(label, FLabel):
        return (6, 0, 0, 0), 0, 1, "f"
    raise TypeError(f"unknown label {label!r}")


def validate_tree(tree: Tree, model) -> None:
    """Raises :class:`sbseries.trees.TreeError` unless ``tree`` is a member
    of the model's tree family."""
    if isinstance(tree.label, (TLabel, WLabel)) and not isinstance(model, GeneralPartitioned):
        # child-only leaves are not members of T themselves
        raise InvalidLabel(f"{tree.label!r} is child-only in this model")
    canonicalize(tree, model)


def rk_elementary_weight(tree: Tree, a, b, step_scale: Fraction) -> E.WeightExpr:
    """Elementary weight of a Runge-Kutta tableau scaled to step
    ``step_scale * h``: stage weights multiply A-weighted child weights,
    the tree weight is b dotted with the stage weights times H^n."""

    def stage(i: int, t: Tree) -> Fraction:
        out = Fraction(1)
        for child in t.children:
            out *= sum((a[i][j] * stage(j, child) for j in range(len(b))),
                       Fraction(0))
        return out

    n = _nodes(tree)
    total = sum((b[i] * stage(i, tree) for i in range(len(b))), Fraction(0))
    return E.h_power(n, total * step_scale ** n)


def _nodes(tree: Tree) -> int:
    return 1 + sum(_nodes(c) for c in tree.children)


def oracle_atom_key(atom: E.IntAtom):
    return (atom.color, oracle_mono_key(atom.integrand))


def oracle_mono_key(mono: E.Mono):
    return (mono.hpow, mono.dws, tuple((oracle_atom_key(a), p) for a, p in mono.ints))


def oracle_mono_mul(a: E.Mono, b: E.Mono) -> E.Mono:
    """The product of two monomials, exponents added afresh (no memo)."""
    if a.is_one:
        return b
    if b.is_one:
        return a
    dws: dict[int, int] = {}
    for m, p in a.dws + b.dws:
        dws[m] = dws.get(m, 0) + p
    ints: dict[E.IntAtom, int] = {}
    for atom, p in a.ints + b.ints:
        ints[atom] = ints.get(atom, 0) + p
    return E.Mono(a.hpow + b.hpow,
                  tuple(sorted(dws.items())),
                  tuple(sorted(ints.items(), key=lambda ap: oracle_atom_key(ap[0]))))


def rational_hpoly(expr: E.WeightExpr) -> dict[int, Fraction]:
    """Coefficients of a deterministic expression by power of h; raises for
    stochastic expressions."""
    if not expr.is_deterministic:
        raise E.ExprError("expression is not deterministic")
    return {mono.hpow: c for c, mono in expr.terms}


def fraction_product(factors, scale=1) -> E.WeightExpr:
    """``scale * f1 * .. * fk`` expanded term by term on ``Fraction``
    coefficients and :func:`oracle_mono_mul` monomials: it calls neither
    ``expr.accumulate`` (nor ``WeightExpr.__mul__``, which does) nor
    ``expr.mono_mul``."""
    terms = {E.ONE_MONO: Fraction(scale)}
    for f in factors:
        product: dict = {}
        for m1, c1 in terms.items():
            for c2, m2 in f.terms:
                m = oracle_mono_mul(m1, m2)
                product[m] = product.get(m, 0) + c1 * c2
        terms = product
    return E.WeightExpr(tuple(sorted(((c, m) for m, c in terms.items() if c != 0),
                                     key=lambda cm: oracle_mono_key(cm[1]))))


def fraction_accumulate(acc: dict, factors, scale=Fraction(1)) -> None:
    """``expr.accumulate`` with one ``Fraction`` per coefficient product and
    sum, into a ``dict[Mono, Fraction]``."""
    if any(f.is_zero for f in factors):
        return
    terms = [(Fraction(scale), E.ONE_MONO)]
    for f in factors:
        terms = [(c1 * c2, E.mono_mul(m1, m2))
                 for c1, m1 in terms for c2, m2 in f.terms]
    for c, mono in terms:
        acc[mono] = acc.get(mono, 0) + c


def fraction_from_acc(acc: dict) -> E.WeightExpr:
    return E.WeightExpr(tuple(sorted(((c, m) for m, c in acc.items() if c != 0),
                                     key=lambda cm: cm[1]._key)))


def fraction_integral(color: int, factors) -> E.WeightExpr:
    """``expr.integral`` on ``Fraction`` coefficients, each integral
    monomial built anew."""
    product: dict = {}
    fraction_accumulate(product, list(factors))
    out: dict = {}
    for mono, c in product.items():
        if mono.is_deterministic and color == 0:
            c, mono = c * Fraction(1, mono.hpow + 1), E.Mono(hpow=mono.hpow + 1)
        elif mono.is_deterministic and mono.hpow == 0:
            mono = E.Mono(dws=((color, 1),))
        else:
            mono = E.Mono(ints=((E.IntAtom(color, mono), 1),))
        out[mono] = out.get(mono, 0) + c
    return fraction_from_acc(out)


# Second moment of the weight (1/3) * int_0^h s X(s) ds with
# X(s) = int_0^s u^4 dW(u) (deterministic integrand, so the two stochastic
# calculi agree).  By isometry E[X(s)X(t)] = min(s,t)^9 / 9, and by Fubini
#   E[phi^2] = (1/81) * 2 * int_0^h t int_0^t s * s^9 ds dt
#            = (2/81) * int_0^h t^12 / 11 dt = 2 h^13 / 11583.
EXAMPLE_WEIGHT_SECOND_MOMENT = Fraction(2, 11583)


def example_weight_second_moment(h: float) -> float:
    return float(EXAMPLE_WEIGHT_SECOND_MOMENT) * h ** 13


# ---------------------------------------------------------------------------
# Hand-written derivative tables of the built-in problems
# ---------------------------------------------------------------------------

# first, second and third time derivatives of each semi-linear A(t)
A_DERIVATIVES = {
    "langevin": (
        lambda t: np.array([[0.0, 0.0], [0.0, -0.5 * t]]),
        lambda t: np.array([[0.0, 0.0], [0.0, -0.5]]),
        lambda t: np.zeros((2, 2)),
    ),
    "noncomm-2x2": (
        lambda t: np.array([[0.0, 0.5], [0.25 * t, -0.25]]),
        lambda t: np.array([[0.0, 0.0], [0.25, 0.0]]),
        lambda t: np.zeros((2, 2)),
    ),
    "scalar-semilinear": (
        lambda t: np.array([[-0.25]]),
        lambda t: np.zeros((1, 1)),
        lambda t: np.zeros((1, 1)),
    ),
}

_TABLE_ORDER = 8


def _poly(*coeffs):
    """Derivative table [f, f', f'', ...] of the polynomial sum c_k s^k."""
    out = []
    current = list(coeffs)
    for _ in range(_TABLE_ORDER):
        cur = list(current)
        out.append(lambda s, cur=cur: sum(c * s ** k for k, c in enumerate(cur)))
        current = [k * c for k, c in enumerate(current)][1:] or [0.0]
    return out


_TRIG = [np.sin, np.cos, lambda s: -np.sin(s), lambda s: -np.cos(s)]
_SIN = [_TRIG[k % 4] for k in range(_TABLE_ORDER)]
_COS = [_TRIG[(k + 1) % 4] for k in range(_TABLE_ORDER)]
_ONE = _poly(1.0)
_ID = _poly(0.0, 1.0)


class _Separable:
    """Scalar c * phi(r) * psi(v) * chi(t) with tabulated derivatives."""

    def __init__(self, c, phi, psi, chi):
        self.c = c
        self.tables = (phi, psi, chi)

    def dderiv(self, r, v, t, dirs):
        """Sum over variable assignments of mixed partials times direction
        components; ``dirs`` holds (dr, dv, dt) triples."""
        phi, psi, chi = self.tables
        total = 0.0
        for assign in np.ndindex(*(3,) * len(dirs)):
            counts = [0, 0, 0]
            weight = 1.0
            for j, var in enumerate(assign):
                counts[var] += 1
                weight *= dirs[j][var]
            total += weight * self.c * phi[counts[0]](r) * psi[counts[1]](v) \
                * chi[counts[2]](t)
        return total


def langevin_coefficient_derivative(v_dependent: bool, key, x, directions):
    """Mixed derivative of the partitioned Langevin coefficient ``key`` =
    (q, v, m) at the flat state ``x`` = (r, v, t) along (partition,
    vector) directions, from the separable hand tables."""
    r, v, t = x
    dirs = [(float(vec[0]) if part == 1 else 0.0,
             float(vec[1]) if part == 1 else 0.0,
             float(vec[0]) if part == 2 else 0.0)
            for part, vec in directions]
    if key == (2, 1, 0):
        return np.array([0.0])
    if key == (1, 2, 0):
        friction = _Separable(-1.0, _ONE, _ID, _poly(1.0, 0.0, 0.25))
        first = dirs[0][1] if len(dirs) == 1 else 0.0
        return np.array([first, friction.dderiv(r, v, t, dirs)])
    if key == (1, 1, 0):
        scalar = _Separable(-1.0, _SIN, _ONE, _poly(1.0, 1.0))
    else:
        psi = _poly(1.0, 0.0, 0.125) if v_dependent else _ONE
        scalar = _Separable(0.2, _COS, psi, _poly(1.0, 0.5))
    return np.array([0.0, scalar.dderiv(r, v, t, dirs)])


# ---------------------------------------------------------------------------
# Mixed central finite differences
# ---------------------------------------------------------------------------


class DerivativeOrderUnsupported(Exception):
    """The central-difference oracle takes mixed derivatives up to order 3."""


_EPS = float(np.finfo(float).eps)


def fd_steps(order: int, x: np.ndarray, directions) -> list[float]:
    """Step sizes of the order-``order`` central difference at ``x``, one
    per direction."""
    base = {1: _EPS ** (1 / 3), 2: 4.0 * _EPS ** (1 / 4), 3: 4.0 * _EPS ** (1 / 5)}[order]
    scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
    return [base * scale / max(1.0, float(np.max(np.abs(u), initial=0.0)))
            for u in directions]


def central_difference(fn, x: np.ndarray, directions) -> np.ndarray:
    """Mixed central finite difference of ``fn`` at the flat point ``x``
    along the flat ``directions``, 1 <= |directions| <= 3: exact on
    polynomials of degree |directions|.  It takes the place of
    ``jets.derivative`` through the ``derivative=`` parameter of
    :mod:`sbseries.elementary`."""
    k = len(directions)
    if k > 3:
        raise DerivativeOrderUnsupported(
            f"the finite-difference oracle takes mixed derivatives up to "
            f"order 3, not {k}; the default jets take any order")
    eps = fd_steps(k, x, directions)
    values = {}  # fn at each distinct computed point: repeated directions repeat points
    total = None
    for signs in np.ndindex(*(2,) * k):
        s = [1.0 if b == 0 else -1.0 for b in signs]
        point = x.astype(float).copy()
        for sj, ej, uj in zip(s, eps, directions):
            point += sj * ej * uj
        key = point.tobytes()
        if key not in values:
            values[key] = np.asarray(fn(point), dtype=float)
        value = values[key] * float(np.prod(s))
        total = value if total is None else total + value
    return total / float(np.prod([2 * e for e in eps]))


# ---------------------------------------------------------------------------
# Tree enumeration by sorting, and the recursive-descent tree parser
# ---------------------------------------------------------------------------


def sorted_enumeration(model, rho_max) -> list[Tree]:
    """The trees of ``enumerate_trees``, with the child pool re-sorted by
    ``tree_key`` after every half-order and the result sorted at the end
    (no cap)."""
    budget = rho_max.twice
    if budget < 1:
        return []
    levels: list[list[Tree]] = []
    pool: list[Tree] = sorted(model.adjoined_leaves(), key=tree_key)
    leaves = [Tree(label) for label in model.node_labels()]
    for b in range(1, budget + 1):
        level: list[Tree] = []
        levels.append(level)
        for leaf in leaves:
            label, rem = leaf.label, b - rho2(leaf)
            if rem < 0:
                continue
            prefix = pool[:bisect.bisect_right(pool, rem, key=rho2)]
            for combo in _multisets(prefix, rem):
                if isinstance(label, ALabel):
                    try:
                        a_node_children(combo)
                    except SemiLinearArity:
                        continue
                level.append(Tree(label, combo))
        pool = sorted(pool + level, key=tree_key)
    out = [t for level in levels for t in level]
    out.sort(key=tree_key)
    return out


def _multisets(pool: list[Tree], budget: int, start: int = 0):
    """Nondecreasing tuples over ``pool[start:]`` (sorted by weight) whose
    2*rho weights sum to ``budget``."""
    if budget == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        if rho2(pool[i]) > budget:
            break
        for rest in _multisets(pool, budget - rho2(pool[i]), i):
            yield (pool[i],) + rest


_GENERAL_RE = re.compile(r"g\(([0-9]+),([0-9]+),([0-9]+)\)")


class RecursiveParser:
    """The bracket grammar read by recursive descent into interned trees,
    then canonicalized (:func:`oracle_parse_tree`)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(f"{msg} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _peek_is_ascii_digit(self) -> bool:
        ch = self.peek()
        return len(ch) == 1 and ch in "0123456789"

    def parse_tree(self) -> Tree:
        if self.peek() == "[":
            self.pos += 1
            children = [self.parse_tree()]
            while self.peek() == ",":
                self.pos += 1
                children.append(self.parse_tree())
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            label = self.parse_label()
            return Tree(label, tuple(children))
        return Tree(self.parse_label())

    def parse_label(self):
        ch = self.peek()
        if ch == "g":
            match = _GENERAL_RE.match(self.text, self.pos)
            if not match:
                self.error("malformed g(q,v,m) label")
            self.pos = match.end()
            return GeneralLabel(int(match.group(1)), int(match.group(2)),
                                int(match.group(3)))
        if ch == "W":
            self.pos += 1
            start = self.pos
            while self._peek_is_ascii_digit():
                self.pos += 1
            if start == self.pos:
                self.error("W-label needs an index")
            return WLabel(int(self.text[start:self.pos]))
        if ch == "t":
            self.pos += 1
            return TLabel()
        if ch == "A":
            self.pos += 1
            return ALabel()
        if ch == "f":
            self.pos += 1
            return FLabel()
        if ch == "(":
            if self.text.startswith("()", self.pos):
                self.pos += 2
                start = self.pos
                while self._peek_is_ascii_digit():
                    self.pos += 1
                q = int(self.text[start:self.pos]) if self.pos > start else 1
                return EmptyLabel(q)
            self.error("malformed empty-tree token")
        if len(ch) == 1 and ch in "0123456789":
            self.pos += 1
            return GLabel(int(ch))
        self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")


def oracle_parse_tree(text: str, model=None) -> Tree:
    parser = RecursiveParser(text.strip())
    tree = parser.parse_tree()
    if parser.pos != len(parser.text):
        parser.error("trailing input")
    return canonicalize(tree, model)


def oracle_wiener_row(seed: tuple, h: float, n_steps: int) -> np.ndarray:
    """One Wiener path over [0, h] from ``SeedSequence(seed)``, numpy coercing
    the seed tuple, drawn level by level as paths were sampled before they
    were batched."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w = np.zeros(n_steps + 1)
    if n_steps & (n_steps - 1) == 0:
        w[n_steps] = np.sqrt(h) * rng.standard_normal()
        span = n_steps
        while span > 1:
            half = span // 2
            scale = np.sqrt((span / n_steps) * h / 4.0)
            mids = np.arange(half, n_steps, span)
            z = rng.standard_normal(mids.size)
            w[mids] = 0.5 * (w[mids - half] + w[mids + half]) + scale * z
            span = half
    else:
        dw = np.sqrt(h / n_steps) * rng.standard_normal(n_steps)
        w[1:] = np.cumsum(dw)
    return w
