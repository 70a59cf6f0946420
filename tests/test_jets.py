"""Truncated Taylor jets against closed-form directional derivatives."""

import math

import numpy as np
import pytest

from sbseries.jets import Jet, derivative

C = np.array([0.5, -1.25])


def fn(x):
    s = x[0] * C[0] + x[1] * C[1]
    return np.array([np.exp(s), np.sin(s), np.cos(s), x[0] ** 3, 2.0 - x[1] / 4.0,
                     x[0] ** 3 - x[1] / 4.0])


def closed_form(x, directions):
    k = len(directions)
    s = float(C @ x)
    along = math.prod(float(C @ u) for u in directions)
    cube = math.perm(3, k) * x[0] ** (3 - k) * math.prod(u[0] for u in directions) \
        if k <= 3 else 0.0
    linear = -directions[0][1] / 4.0 if k == 1 else 0.0
    return np.array([np.exp(s) * along, np.sin(s + k * np.pi / 2) * along,
                     np.cos(s + k * np.pi / 2) * along, cube, linear, cube + linear])


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_mixed_derivatives_match_closed_form(order):
    rng = np.random.default_rng(order)
    for _ in range(5):
        x = rng.standard_normal(2)
        directions = [rng.standard_normal(2) for _ in range(order)]
        got = derivative(fn, x, directions)
        want = closed_form(x, directions)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_repeated_direction_is_the_univariate_derivative():
    # d^k/dt^k (t^2 + 3 t^3): 2 t + 9 t^2, 2 + 18 t, 18, 0
    t = np.array([0.7])
    poly = lambda s: s[0] * s[0] + 3.0 * s[0] ** 3
    wants = [2 * 0.7 + 9 * 0.7 ** 2, 2 + 18 * 0.7, 18.0, 0.0]
    for k, want in enumerate(wants, start=1):
        assert derivative(poly, t, [np.ones(1)] * k) == pytest.approx(want, rel=1e-14)


def test_division_by_a_jet_is_refused():
    jet = Jet({0: 2.0, 1: 1.0})
    with pytest.raises(TypeError):
        1.0 / jet
    with pytest.raises(TypeError):
        np.float64(1.0) / jet
