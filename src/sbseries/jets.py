"""Truncated Taylor jets: mixed directional derivatives of any order.

A jet stands for ``f(x + e_1 u_1 + .. + e_k u_k)`` expanded in nilpotent
symbols (``e_i^2 = 0``), with one coefficient per subset of the symbols,
keyed by bitmask.  The coefficient of ``e_1 .. e_k`` is the mixed
directional derivative ``f^(k)(x)[u_1, .., u_k]`` (Griewank & Walther 2008,
"Evaluating Derivatives", ch. 13).  Coefficients are numpy values; jets
support ``+ - *``, division by a number, integer powers, indexing and
``np.sin``/``np.cos``/``np.exp``, so a coefficient function written with
numpy differentiates as written.  Absent keys are zero coefficients; the
empty subset (the value) is always present.
"""

from __future__ import annotations

import functools
import operator

import numpy as np


def _jet(value) -> Jet:
    return value if isinstance(value, Jet) else Jet({0: value})


class Jet:
    """Coefficients ``c``: a dict from subset bitmask to numpy value."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict):
        self.c = coeffs

    def __add__(self, other):
        out = dict(self.c)
        for mask, value in _jet(other).c.items():
            out[mask] = out[mask] + value if mask in out else value
        return Jet(out)

    __radd__ = __add__

    def __neg__(self):
        return Jet({mask: -value for mask, value in self.c.items()})

    def __sub__(self, other):
        return self + -_jet(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out, coeffs = {}, _jet(other).c
        for ma, a in self.c.items():
            for mb, b in coeffs.items():
                if not ma & mb:
                    mask = ma | mb
                    out[mask] = out[mask] + a * b if mask in out else a * b
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, number):
        if isinstance(number, Jet):
            return NotImplemented
        return Jet({mask: value / number for mask, value in self.c.items()})

    def __pow__(self, n: int):
        return functools.reduce(operator.mul, [self] * n)

    def __getitem__(self, index):
        return Jet({mask: value[index] for mask, value in self.c.items()})

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # numpy hands arithmetic with arrays and numpy scalars to this hook
        op = _UFUNCS.get(ufunc) if method == "__call__" and not kwargs else None
        return NotImplemented if op is None else op(_jet(inputs[0]), *inputs[1:])


def _chain(u: Jet, values: list, derivs: list) -> list[Jet]:
    """Jets of ``f_j(u)`` for functions closed under differentiation, from
    ``f_j(u0) = values[j]`` and ``f_j' = sign * f_i`` for ``(i, sign) =
    derivs[j]``.  By ``d f(u) / d e = f'(u) * d u / d e`` for the lowest
    symbol e of a subset S, the coefficient of S sums ``u[T] * f'(u)[S - T]``
    over the subsets T of S that hold e; smaller masks come first."""
    out = [{0: value} for value in values]
    full = 0
    for mask in u.c:
        full |= mask
    for s in range(1, full + 1):
        low = s & -s
        parts = [(coef, s ^ t) for t, coef in u.c.items() if t & low and t & s == t]
        for f, (i, sign) in zip(out, derivs):
            terms = [coef * out[i][rest] for coef, rest in parts if rest in out[i]]
            if terms:
                f[s] = sign * sum(terms[1:], terms[0])
    return [Jet(f) for f in out]


def _sin_cos(u: Jet) -> list[Jet]:
    return _chain(u, [np.sin(u.c[0]), np.cos(u.c[0])], [(1, 1.0), (0, -1.0)])


_UFUNCS = {np.sin: lambda u: _sin_cos(u)[0], np.cos: lambda u: _sin_cos(u)[1],
           np.exp: lambda u: _chain(u, [np.exp(u.c[0])], [(0, 1.0)])[0],
           np.negative: operator.neg, np.add: operator.add,
           np.subtract: operator.sub, np.multiply: operator.mul,
           np.true_divide: operator.truediv}


def _top(value, full: int):
    """Coefficient of the full subset in a jet, an object array of jets and
    numbers, or a constant (zero)."""
    if isinstance(value, Jet):
        top = value.c.get(full)
        return np.zeros(np.shape(value.c[0])) if top is None else top
    if isinstance(value, np.ndarray) and value.dtype == object:
        tops = [np.asarray(_top(v, full), dtype=float) for v in value.flat]
        return np.array(tops).reshape(value.shape + tops[0].shape)
    return np.zeros(np.shape(value))


def derivative(fn, x: np.ndarray, directions) -> np.ndarray:
    """Mixed directional derivative of ``fn`` at ``x`` along ``directions``,
    exact up to rounding at any order."""
    seed = {0: x}
    for i, u in enumerate(directions):
        seed[1 << i] = u
    return np.asarray(_top(fn(Jet(seed)), (1 << len(directions)) - 1), dtype=float)
