"""Symbolic weight expressions: exact sums of terms

    rational * h^a * prod_m dW_m^b_m * prod Int_m[...]^c

where ``Int_m[f1, .., fk]`` denotes the integral over [0, h] of the product
of the factors against the driver of color m (color 0 integrates against
time).  Factors inside an integrand are functions of the integration
variable: the symbol that reads ``h`` at top level denotes the upper limit
of the enclosing integral one level down, so nesting needs no named
variables.  Integrals against either stochastic calculus share one symbolic
form; the Ito/Stratonovich choice is made at evaluation time.

Normalization is applied by every constructor:

* integrands are distributed over sums and merged into a single monomial
  per atom, with the rational coefficient pulled out;
* ``Int_0`` of a pure power of the time variable integrates exactly, so
  purely deterministic expressions collapse to rational multiples of
  powers of h;
* ``Int_m[1]`` for m > 0 becomes the increment atom ``dW_m``;
* equal atom structures merge, zero terms vanish.

Sums of many products are accumulated, then normalized once: callers add
``scale * f1 * .. * fk`` (``scale`` an int or a ``Fraction``) into a
``dict[Mono, tuple[int, int]]`` with :func:`accumulate` and call
:func:`from_acc` once per output weight, never ``total = total + term``.
The accumulator holds one (numerator, denominator) pair of Python ints per
monomial: products multiply the pairs, and a sum over two different
denominators is taken over their lcm, so the coefficient arithmetic runs
on ints.  :func:`from_acc` builds the only ``Fraction`` of the sum, one
normalized coefficient per nonzero term; :func:`integral`, ``scaled``,
``+``, ``-`` and the sums of :func:`parse_expr` go through the same
accumulator.  A one-term weight folds to (numerator, denominator, monomial)
(:func:`fold`), and a product of folded factors is one running triple
(:func:`add_folded`); a caller that reads the same weights many times, as
the series operations do, folds each once.

The work of expanding products is bounded: one product forms at most
``MAX_TERM_PAIRS`` term pairs, and the products of one :func:`parse_expr`
call at most ``MAX_PARSE_PAIRS`` together (counting those with a factor of
several terms), so that a text of a few kilobytes cannot expand for minutes.

``Mono`` and ``IntAtom`` are interned (:class:`sbseries.memo.Interned`):
the constructor returns the one instance with the field values given, so
equal monomials are one object, and an accumulator or memo looks them up
by identity.  Every pure result is computed once: each instance sets its
sort key ``_key`` when it is interned, :func:`mono_mul` is memoized, the
monomial and divisor of an integral of a monomial are memoized per
(color, integrand), and the text of a monomial is built once per depth
class (top level or inside an integrand).  The three memos are declared
through :mod:`sbseries.memo` and listed in ``memo.CACHES`` with the
package's other process-global caches; the identity tables are not, and
``memo.clear()`` keeps them.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from sbseries.memo import Interned, cached


class ExprError(ValueError):
    pass


class ExprParseError(ExprError):
    pass


ITO = "ito"
STRATONOVICH = "stratonovich"


def normalize_interpretation(name: str) -> str:
    """``ITO`` or ``STRATONOVICH`` for a name or short name of that calculus,
    in any case; any other name, or a value that is not a string, raises
    ValueError."""
    low = name.lower() if isinstance(name, str) else None
    if low in (ITO, "i"):
        return ITO
    if low in (STRATONOVICH, "strat", "s"):
        return STRATONOVICH
    raise ValueError(f"unknown interpretation {name!r}")


class _Keyed(Interned):
    """Base of the interned expression types: the slot of the sort key
    ``_key`` that every output order comes from, set by ``_derive``."""

    __slots__ = ("_key",)


class IntAtom(_Keyed):
    """Irreducible integral of a monomial integrand against driver ``color``.
    Its sort key ``_key`` is ``(color, integrand._key)``."""

    __slots__ = ("color", "integrand")

    def __new__(cls, color: int, integrand: "Mono") -> "IntAtom":
        return cls._intern((color, integrand))

    def _derive(self) -> None:
        object.__setattr__(self, "_key", (self.color, self.integrand._key))


class Mono(_Keyed):
    """Coefficient-free monomial: time power, increment powers, integral powers.
    Its sort key ``_key`` is ``(hpow, dws, ((atom._key, power), ..))``."""

    __slots__ = ("hpow", "dws", "ints")

    def __new__(cls, hpow: int = 0, dws: tuple[tuple[int, int], ...] = (),
                ints: tuple[tuple[IntAtom, int], ...] = ()) -> "Mono":
        return cls._intern((hpow, dws, ints))

    def _derive(self) -> None:
        object.__setattr__(self, "_key", (self.hpow, self.dws,
                                          tuple((a._key, p) for a, p in self.ints)))

    @property
    def is_one(self) -> bool:
        return self.hpow == 0 and not self.dws and not self.ints

    @property
    def is_deterministic(self) -> bool:
        return not self.dws and not self.ints


ONE_MONO = Mono()


@cached
def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomials, memoized: a series operation multiplies
    the same few hundred monomials for every decomposition pair."""
    if a.is_one:
        return b
    if b.is_one:
        return a
    dws: dict[int, int] = {}
    for m, p in a.dws + b.dws:
        dws[m] = dws.get(m, 0) + p
    ints: dict[IntAtom, int] = {}
    for atom, p in a.ints + b.ints:
        ints[atom] = ints.get(atom, 0) + p
    return Mono(a.hpow + b.hpow,
                tuple(sorted(dws.items())),
                tuple(sorted(ints.items(), key=lambda ap: ap[0]._key)))


def power(base: WeightExpr, n: int, mul=operator.mul) -> WeightExpr:
    """``base ** n`` by squaring, each product formed by ``mul``; it is
    ``WeightExpr.__pow__``."""
    if n < 0:
        raise ExprError("negative powers are not defined")
    out = ONE
    while n:  # exponentiation by squaring: exact, so any grouping agrees
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


@dataclass(frozen=True)
class WeightExpr:
    """Normalized sum of (rational, monomial) terms."""

    terms: tuple[tuple[Fraction, Mono], ...] = ()

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_deterministic(self) -> bool:
        return all(mono.is_deterministic for _, mono in self.terms)

    def colors(self) -> set[int]:
        """All stochastic colors referenced anywhere in the expression."""
        out: set[int] = set()
        for _, mono in self.terms:
            _add_colors(mono, out)
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "WeightExpr") -> "WeightExpr":
        if not isinstance(other, WeightExpr):
            return NotImplemented
        return _signed_sum(self, other, 1)

    def __neg__(self) -> "WeightExpr":
        return WeightExpr(tuple((-c, m) for c, m in self.terms))

    def __sub__(self, other: "WeightExpr") -> "WeightExpr":
        if not isinstance(other, WeightExpr):
            return NotImplemented
        return _signed_sum(self, other, -1)

    def __mul__(self, other):
        if isinstance(other, WeightExpr):
            acc: dict[Mono, tuple[int, int]] = {}
            accumulate(acc, (self, other))
            return from_acc(acc)
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def scaled(self, c: int | Fraction) -> "WeightExpr":
        acc: dict[Mono, tuple[int, int]] = {}
        accumulate(acc, (self,), c)
        return from_acc(acc)

    __pow__ = power

    def __str__(self) -> str:
        return format_expr(self)


def _add_colors(mono: Mono, out: set[int]) -> None:
    # a module-level function: a nested recursive one would be a reference
    # cycle, garbage that only the cyclic collector frees
    out.update(m for m, _ in mono.dws)
    for atom, _ in mono.ints:
        if atom.color > 0:
            out.add(atom.color)
        _add_colors(atom.integrand, out)


# the most term pairs one product may form, so that an input such as
# (h+dW1+dW2)^160 fails at once instead of expanding for minutes; the
# largest product of the tests, acceptance runs and benchmark jobs forms
# under a thousand
MAX_TERM_PAIRS = 200_000
# the most term pairs the products of one parse may form together, so that
# a chain such as (h+dW1+dW2)*(h+dW1+dW2)*.., each product under the bound
# above, fails at once too; a parse in the tests, acceptance runs, benchmark
# jobs or method files forms at most 2, as in 2*(h+dW1)
MAX_PARSE_PAIRS = 50_000


def accumulate(acc: dict[Mono, tuple[int, int]], factors,
               scale: int | Fraction = 1) -> None:
    """Add ``scale * f1 * .. * fk`` to the accumulator ``acc`` without
    normalizing; a zero factor adds nothing and multiplies nothing.  When
    every factor has one term, as every exact-series weight does, the
    product is folded by :func:`add_folded`.  Otherwise it is expanded term
    by term, and a product that would form more than ``MAX_TERM_PAIRS``
    term pairs raises ExprError before it forms them and leaves ``acc``
    unchanged."""
    folds = list(map(fold, factors))
    if None not in folds:
        add_folded(acc, folds, scale.numerator, scale.denominator)
        return
    if any(f.is_zero for f in factors):
        return
    terms, pairs = [(scale.numerator, scale.denominator, ONE_MONO)], 0
    for f in factors:
        pairs += len(terms) * len(f.terms)
        if pairs > MAX_TERM_PAIRS:
            raise ExprError(f"product too large to expand: more than {MAX_TERM_PAIRS:,} term pairs")
        terms = [(n * c.numerator, d * c.denominator, mono_mul(m1, m2))
                 for n, d, m1 in terms for c, m2 in f.terms]
    for n, d, mono in terms:
        _add_pair(acc, mono, n, d)


def fold(expr: WeightExpr) -> tuple[int, int, Mono] | None:
    """The one term of ``expr`` as (numerator, denominator, monomial), or
    None when ``expr`` is zero or has several terms."""
    if len(expr.terms) != 1:
        return None
    (c, mono), = expr.terms
    return (*c.as_integer_ratio(), mono)


def add_folded(acc: dict[Mono, tuple[int, int]], folds, n: int = 1, d: int = 1) -> None:
    """Add ``n/d`` times the product of the one-term factors ``folds``, each
    a :func:`fold`, to ``acc``: the coefficients multiply as ints and the
    monomials through :func:`mono_mul`, starting from the unit."""
    mono = ONE_MONO
    for fn, fd, fm in folds:
        n, d, mono = n * fn, d * fd, mono_mul(mono, fm)
    _add_pair(acc, mono, n, d)


def _add_pair(acc: dict[Mono, tuple[int, int]], mono: Mono, n: int, d: int) -> None:
    """Add n/d to the pair at ``mono``, over the lcm of the two denominators."""
    old = acc.get(mono)
    if old is None:
        acc[mono] = (n, d)
    else:
        g = math.gcd(old[1], d)
        acc[mono] = (old[0] * (d // g) + n * (old[1] // g), old[1] // g * d)


def from_acc(acc: dict[Mono, tuple[int, int]]) -> WeightExpr:
    """The normalized sum held by an accumulator: one normalized ``Fraction``
    per nonzero pair, terms sorted by their monomial's ``_key``."""
    return WeightExpr(tuple(sorted(((Fraction(n, d), m) for m, (n, d) in acc.items() if n),
                                   key=lambda cm: cm[1]._key)))


def _signed_sum(a: WeightExpr, b: WeightExpr, sign: int) -> WeightExpr:
    """``a + sign * b`` for a sign of 1 or -1: the terms of ``b`` enter the
    accumulator with their numerators times ``sign``."""
    acc: dict[Mono, tuple[int, int]] = {}
    for c, mono in a.terms:
        _add_pair(acc, mono, c.numerator, c.denominator)
    for c, mono in b.terms:
        _add_pair(acc, mono, sign * c.numerator, c.denominator)
    return from_acc(acc)


ZERO = WeightExpr(())
ONE = WeightExpr(((Fraction(1), ONE_MONO),))


def rational(c) -> WeightExpr:
    c = Fraction(c)
    return ZERO if c == 0 else WeightExpr(((c, ONE_MONO),))


def h_power(a: int, coeff=1) -> WeightExpr:
    return WeightExpr(((Fraction(coeff), Mono(hpow=a)),)) if coeff else ZERO


H = h_power(1)


def dw(m: int) -> WeightExpr:
    if m <= 0:
        raise ExprError("increment atoms exist for stochastic colors only")
    return WeightExpr(((Fraction(1), Mono(dws=((m, 1),))),))


def integral(color: int, factors) -> WeightExpr:
    """The integral over [0, h] of the product of ``factors`` against the
    color-``color`` driver, normalized."""
    if color < 0:
        raise ExprError(f"invalid color {color}")
    product: dict[Mono, tuple[int, int]] = {}
    accumulate(product, list(factors))
    out: dict[Mono, tuple[int, int]] = {}
    for mono, (n, d) in product.items():
        result, divisor = _integral_mono(color, mono)
        _add_pair(out, result, n, d * divisor)
    return from_acc(out)


@cached
def _integral_mono(color: int, mono: Mono) -> tuple[Mono, int]:
    """``Int_color[mono]`` as (monomial, divisor of the coefficient),
    memoized so that equal integrals share one result instance."""
    if mono.is_deterministic:
        a = mono.hpow
        if color == 0:
            return Mono(hpow=a + 1), a + 1
        if a == 0:
            return Mono(dws=((color, 1),)), 1
    return Mono(ints=((IntAtom(color, mono), 1),)), 1


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


@cached
def _mono_text(mono: Mono, inner: bool) -> str:
    """Factor text of a monomial: at top level the factors joined by ``*``
    (time power, increments, integrals; empty for the unit), inside an
    integrand joined by ``,`` and read innermost integral first, time power
    last, with ``s`` for the time variable and ``1`` for the unit."""
    var = "s" if inner else "h"
    hpow = [var if mono.hpow == 1 else f"{var}^{mono.hpow}"] if mono.hpow else []
    dws = [f"dW{m}" if p == 1 else f"dW{m}^{p}" for m, p in mono.dws]
    ints = []
    for atom, p in mono.ints:
        body = f"Int{atom.color}[{_mono_text(atom.integrand, True)}]"
        ints.append(body if p == 1 else f"{body}^{p}")
    if inner:
        return ",".join(ints + dws + hpow) or "1"
    return "*".join(hpow + dws + ints)


def format_expr(expr: WeightExpr) -> str:
    """Documented text form, e.g. ``1/3*Int0[Int1[s^4],s]`` or ``3/8*h^2*dW1``."""
    if expr.is_zero:
        return "0"
    pieces = []
    for i, (coeff, mono) in enumerate(expr.terms):
        n, d = coeff.numerator, coeff.denominator
        sign = "-" if n < 0 else "+"
        mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        factors = _mono_text(mono, False)
        if not factors:
            body = mag
        elif mag == "1":
            body = factors
        else:
            body = mag + "*" + factors
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


_TOKEN_RE = re.compile(r"\s*(Int\d+|dW\d+|\d+(?:/\d+)?|[hs]|\^|\*|\+|-|\[|\]|,|\(|\))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ExprParseError(f"bad token at {text[pos:]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.pairs = 0

    def mul(self, a: WeightExpr, b: WeightExpr) -> WeightExpr:
        """``a * b``, its term pairs counted against ``MAX_PARSE_PAIRS`` unless
        both factors have one term; a product over ``MAX_TERM_PAIRS`` raises
        its own error."""
        pairs = len(a.terms) * len(b.terms)
        self.pairs += pairs if 1 < pairs <= MAX_TERM_PAIRS else 0
        if self.pairs > MAX_PARSE_PAIRS:
            raise ExprError(f"expression too large to expand: more than "
                            f"{MAX_PARSE_PAIRS:,} term pairs")
        return a * b

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> WeightExpr:
        # one accumulator for all the terms, normalized once: a sum of n
        # terms costs time linear in n, not quadratic
        acc: dict[Mono, tuple[int, int]] = {}
        op = self.take() if self.peek() in ("+", "-") else "+"
        while op:
            for c, mono in self.parse_term().terms:
                _add_pair(acc, mono, c.numerator if op == "+" else -c.numerator, c.denominator)
            op = self.take() if self.peek() in ("+", "-") else None
        return from_acc(acc)

    def parse_term(self) -> WeightExpr:
        out = self.parse_power()
        while self.peek() == "*":
            self.take()
            out = self.mul(out, self.parse_power())
        return out

    def parse_power(self) -> WeightExpr:
        base = self.parse_factor()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ExprParseError(f"exponent must be an integer, got {tok!r}")
            return power(base, int(tok), self.mul)
        return base

    def parse_factor(self) -> WeightExpr:
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            if self.take() != ")":
                raise ExprParseError("expected ')'")
            return inner
        if tok in ("h", "s"):
            return H
        if tok.startswith("dW"):
            return dw(int(tok[2:]))
        if tok.startswith("Int"):
            color = int(tok[3:])
            if self.take() != "[":
                raise ExprParseError("expected '[' after Int")
            integrand = self.parse_expr()  # the product of the factors
            while self.peek() == ",":
                self.take()
                integrand = self.mul(integrand, self.parse_expr())
            if self.take() != "]":
                raise ExprParseError("expected ']'")
            return integral(color, [integrand])
        if re.fullmatch(r"\d+(/\d+)?", tok):
            try:
                return rational(Fraction(tok))
            except ZeroDivisionError:
                raise ExprParseError(f"zero denominator in {tok!r}") from None
        raise ExprParseError(f"unexpected token {tok!r}")


def parse_expr(text: str) -> WeightExpr:
    """Parse the documented text form back into a normalized expression."""
    parser = _ExprParser(_tokenize(text))
    out = parser.parse_expr()
    if parser.peek() is not None:
        raise ExprParseError(f"trailing tokens from {parser.peek()!r}")
    return out
