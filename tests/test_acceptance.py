"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are fixed
here and nowhere else; the statistical criteria use frozen seeds, so every
run is reproducible bit for bit.
"""

import contextlib
import io
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import central_difference, example_weight_second_moment, rk_elementary_weight

from sbseries import expr as E
from sbseries import trees as T
from sbseries.cli import main as cli_main
from sbseries.elementary import eval_elementary, get_problem
from sbseries.expr import parse_expr
from sbseries.forest_ops import split_pairs
from sbseries.paths import mc_moments
from sbseries.series import (
    BSeries,
    compose,
    exact_solution_series,
    exact_weight,
    identity_weights,
)
from sbseries.serk import (
    builtin_exponential_midpoint,
    erk_weight_at,
    order_residuals,
    residual_at,
    residual_is_pathwise_zero,
)
from sbseries.sim import ms_order_estimate
from sbseries.trees import HalfInt, alpha, enumerate_trees, parse_tree, rho

EX2 = "[[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1),g(2,1,0)]g(1,2,0)"
EX4 = "[[[t,t]A,0]1,t]A"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_01_combinatorics_exactness():
    with criterion(1, "alpha = 1/2 and rho = 13/2 on the reference tree"):
        tree = parse_tree(EX2, T.langevin_model())
        assert alpha(tree) == Fraction(1, 2)
        assert rho(tree) == HalfInt(13)
        tree_b = parse_tree(EX4)
        assert alpha(tree_b) == Fraction(1, 2)
        assert rho(tree_b) == HalfInt(13)


def test_02_split_pair_cardinality():
    with criterion(2, "exactly the 6 expected single-remainder splits"):
        tau = parse_tree(EX2)
        pairs = split_pairs(tau)
        assert len(pairs) == 6
        a = parse_tree("g(2,1,0)")
        b = parse_tree("g(1,1,0)")
        c11 = parse_tree("[g(2,1,0),g(2,1,0)]g(1,2,0)")
        c1 = parse_tree("[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1)")
        got = {(p.subtree, p.remainder) for p in pairs}
        want = {
            (T.empty_tree(1), (tau,)),
            (parse_tree("[g(2,1,0)]g(1,2,0)"), (c1,)),
            (T.canonicalize(T.Tree(tau.label, (c1,))), (a,)),
            (parse_tree("[g(2,1,0),[g(1,1,0)]g(1,1,1)]g(1,2,0)"), (c11,)),
            (parse_tree("[g(2,1,0),[g(1,1,0),[g(2,1,0)]g(1,2,0)]g(1,1,1)]g(1,2,0)"),
             (a,)),
            (parse_tree("[g(2,1,0),[[g(2,1,0),g(2,1,0)]g(1,2,0)]g(1,1,1)]g(1,2,0)"),
             (b,)),
        }
        assert got == want


def test_03_weight_recursion_reproduction():
    with criterion(3, "midpoint weight of the reference tree is 3h^6 dW/768"):
        method = builtin_exponential_midpoint()
        got = erk_weight_at(method, parse_tree(EX4))
        want = E.dw(1) * E.h_power(6) * Fraction(3, 768)
        assert got == want
        assert got == parse_expr("1/256*h^6*dW1")


def test_04_composition_identity_laws():
    with criterion(4, "identity weights are neutral for composition, "
                      "order <= 3, both sides, exact"):
        for model in (T.SemiLinear(1), T.langevin_model()):
            cap = HalfInt(6)
            phi = exact_solution_series(model, cap)
            ident = identity_weights(model, cap)
            left = compose(ident, phi)
            right = compose(phi, ident)
            for tree in enumerate_trees(model, cap):
                assert left.weight(tree) == phi.weight(tree), str(tree)
                assert right.weight(tree) == phi.weight(tree), str(tree)


def test_05_deterministic_subalgebra():
    with criterion(5, "Euler composed with Euler equals the classical "
                      "two-step tableau weights, order <= 3, exact"):
        model = T.GeneralPartitioned.from_table(Q=1, M=0, table={(0, 1): 1})
        cap = HalfInt(6)
        weights = {t: E.H for t in enumerate_trees(model, cap) if t.is_leaf}
        euler = BSeries(model, cap, weights, E.ONE)
        composite = compose(euler, euler)
        a = [[Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(0)]]
        b = [Fraction(1, 2), Fraction(1, 2)]
        for tree in enumerate_trees(model, cap):
            want = rk_elementary_weight(tree, a, b, Fraction(2))
            assert composite.weight(tree) == want, str(tree)


def test_06_elementary_differentials():
    with criterion(6, "hand values of the reference elementary differentials "
                      "(analytic 1e-8, finite differences 1e-6)"):
        prob = get_problem("langevin-partitioned")
        v = prob.x0[1]
        hand = np.array([0.0, -0.5 * v])
        appendix = parse_tree("[g(2,1,0),g(2,1,0)]g(1,2,0)")
        got = eval_elementary(prob, appendix)
        assert np.max(np.abs(got - hand)) <= 1e-8 * np.max(np.abs(hand))
        got_fd = eval_elementary(prob, appendix, derivative=central_difference)
        assert np.max(np.abs(got_fd - hand)) <= 1e-6 * np.max(np.abs(hand))
        # the full tree vanishes because the noise ignores the velocity
        ex2 = parse_tree(EX2)
        assert np.max(np.abs(eval_elementary(prob, ex2))) <= 1e-12
        got_fd = eval_elementary(prob, ex2, derivative=central_difference)
        assert np.max(np.abs(got_fd)) <= 1e-6


def test_07_exact_weight_statistics():
    with criterion(7, "Monte-Carlo mean and second moment of the reference "
                      "weight match the isometry value within 3 SE, under 60 s"):
        start = time.monotonic()
        h, n_steps, n_paths = 0.25, 4096, 10_000
        phi = exact_weight(parse_tree(EX2))
        mean_stats = mc_moments(phi, h, n_steps, n_paths, "stratonovich", seed=2024)
        assert abs(mean_stats.mean) <= 3 * mean_stats.stderr
        second = mc_moments(phi * phi, h, n_steps, n_paths, "stratonovich",
                            seed=2024)
        target = example_weight_second_moment(h)
        assert abs(second.mean - target) <= 3 * second.stderr
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_08_mean_square_order():
    with criterion(8, "mean-square slope in [0.85, 1.15] on both fixtures, "
                      "1000 paths, under 5 minutes"):
        start = time.monotonic()
        ladder = [2.0 ** -k for k in range(4, 9)]
        for name in ("langevin", "noncomm-2x2"):
            report = ms_order_estimate(get_problem(name), ladder,
                                       n_paths=1000, T=1.0, seed=7,
                                       n_fine=2 ** 12)
            assert 0.85 <= report.slope <= 1.15, (name, report.slope)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_09_residual_structure():
    with criterion(9, "zero residuals through order 1, nonzero residual on "
                      "the reference order-13/2 tree"):
        method = builtin_exponential_midpoint()
        rows = order_residuals(method, HalfInt(2))
        assert len(rows) == 4
        for row in rows:
            assert residual_is_pathwise_zero(row.residual,
                                             method.interpretation), str(row.tree)
        res = residual_at(method, parse_tree(EX4))
        assert res.tree_order == HalfInt(13)
        assert not res.residual.is_zero
        assert not residual_is_pathwise_zero(res.residual, method.interpretation)


def _cli(*argv) -> bytes:
    buf = io.StringIO()
    code = cli_main(list(argv), out=buf)
    assert code == 0, argv
    return buf.getvalue().encode()


def test_10_cli_determinism():
    with criterion(10, "bit-identical CLI output across repeats and thread "
                       "settings for fixed seeds"):
        commands = [
            ("trees", "enum", "--model", "semilinear", "--M", "1", "--cap", "2"),
            ("series", "exact", "--model", "semilinear", "--M", "1", "--cap", "2"),
            ("erk", "residuals", "--method", "builtin:midpoint", "--cap", "3/2"),
            ("weights", "mc", "--expr", "1/3*Int0[Int1[s^4],s]", "--h", "0.25",
             "--N", "256", "--paths", "400", "--seed", "7"),
        ]
        for cmd in commands:
            assert _cli(*cmd) == _cli(*cmd), cmd
        threaded = ("weights", "mc", "--expr", "dW1^2", "--h", "0.5", "--N",
                    "64", "--paths", "200", "--seed", "3")
        assert _cli(*threaded, "--threads", "1") == _cli(*threaded, "--threads", "8")
        conv = ("converge", "--problem", "scalar-semilinear", "--paths", "50",
                "--seed", "11", "--h-coarse", "4", "--h-fine", "6",
                "--n-fine", "1024")
        assert _cli(*conv, "--threads", "1") == _cli(*conv, "--threads", "4")
