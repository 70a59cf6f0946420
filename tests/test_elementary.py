"""Elementary differentials, series evaluation, and the FD machinery."""

import re

import numpy as np
import pytest

from oracles import (
    A_DERIVATIVES,
    DerivativeOrderUnsupported,
    central_difference,
    fd_steps,
    langevin_coefficient_derivative,
)

from sbseries import expr as E
from sbseries import trees as T
from sbseries.elementary import (
    ModelMismatch,
    SDEProblem,
    _directional_derivative,
    eval_bseries,
    eval_elementary,
    get_problem,
    problem_names,
    value_partition,
)
from sbseries.paths import eval_weight, sample_path
from sbseries.series import BSeries, derivative_product, exact_solution_series
from sbseries.serk import builtin_exponential_midpoint, erk_weights
from sbseries.sim import (
    _solve_stage,
    exponential_midpoint_step,
    midpoint_step_operators,
    reference_solution,
)
from sbseries.trees import HalfInt, Tree, empty_tree, enumerate_trees, parse_tree

EX2 = "[[[g(2,1,0),g(2,1,0)]g(1,2,0),g(1,1,0)]g(1,1,1),g(2,1,0)]g(1,2,0)"
APPENDIX_TREE = "[g(2,1,0),g(2,1,0)]g(1,2,0)"


def fd_directional(problem, q, v, m, x, directions):
    """Mixed central finite difference of the (q, v, m) coefficient along
    the given (partition, vector) directions; |directions| <= 3."""
    return _directional_derivative(problem, q, v, m, x, directions, central_difference)


@pytest.fixture(scope="module")
def langevin():
    return get_problem("langevin-partitioned")


@pytest.fixture(scope="module")
def langevin_vdep():
    return get_problem("langevin-vdep")


class TestBuiltins:
    def test_registry(self):
        assert "langevin" in problem_names()
        assert "scalar-semilinear" in problem_names()
        with pytest.raises(KeyError):
            get_problem("nope")


class TestElementary:
    def test_empty_tree_returns_block(self, langevin):
        assert np.allclose(eval_elementary(langevin, empty_tree(1)), [0.5, 0.3])
        assert np.allclose(eval_elementary(langevin, empty_tree(2)), [0.4])

    def test_leaves_are_coefficients(self, langevin):
        r, v, t = langevin.x0
        got = eval_elementary(langevin, parse_tree("g(1,2,0)"))
        assert np.allclose(got, [v, -(1 + t * t / 4) * v])
        assert np.allclose(eval_elementary(langevin, parse_tree("g(2,1,0)")), [1.0])

    def test_appendix_tree_hand_formula(self, langevin):
        # second t-derivative of the friction coefficient: (0, -alpha'' v)
        v = langevin.x0[1]
        want = np.array([0.0, -0.5 * v])
        got = eval_elementary(langevin, parse_tree(APPENDIX_TREE))
        assert np.allclose(got, want, rtol=1e-12)
        got_fd = eval_elementary(langevin, parse_tree(APPENDIX_TREE),
                                 derivative=central_difference)
        assert np.allclose(got_fd, want, rtol=1e-6)

    def test_example_tree_zero_when_noise_ignores_velocity(self, langevin):
        got = eval_elementary(langevin, parse_tree(EX2))
        assert np.allclose(got, 0.0, atol=1e-12)
        got_fd = eval_elementary(langevin, parse_tree(EX2), derivative=central_difference)
        assert np.allclose(got_fd, 0.0, atol=1e-6)

    def test_example_tree_hand_formula_velocity_variant(self, langevin_vdep):
        r, v, t = langevin_vdep.x0
        alpha_dot, alpha_ddot = 0.5 * t, 0.5
        f_d = -np.sin(r) * (1 + t)
        d2fs_dv2 = 0.2 * np.cos(r) * (1 + 0.5 * t) * 0.25
        want = np.array([0.0, -alpha_dot * d2fs_dv2 * (-alpha_ddot * v) * f_d])
        got = eval_elementary(langevin_vdep, parse_tree(EX2))
        assert np.allclose(got, want, rtol=1e-8)
        got_fd = eval_elementary(langevin_vdep, parse_tree(EX2),
                                 derivative=central_difference)
        assert np.allclose(got_fd, want, rtol=1e-6)

    def test_child_symmetry(self, langevin_vdep):
        rng = np.random.default_rng(5)
        for tree in enumerate_trees(T.langevin_model(), HalfInt(6)):
            if len(tree.children) < 2:
                continue
            kids = list(tree.children)
            rng.shuffle(kids)
            permuted = Tree(tree.label, tuple(kids))
            a = eval_elementary(langevin_vdep, tree)
            b = eval_elementary(langevin_vdep, permuted)
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_semilinear_a_chain_case_split(self):
        prob = get_problem("noncomm-2x2")
        x, t = prob.x0_state, prob.t0
        # all-time children: k-th derivative of A times the state
        got = eval_elementary(prob, parse_tree("[t,t]A"))
        table = A_DERIVATIVES["noncomm-2x2"]
        assert np.allclose(got, table[1](t) @ x)
        # one non-time child: derivative order drops by the non-time child
        inner = eval_elementary(prob, parse_tree("0"))
        got = eval_elementary(prob, parse_tree("[0,t]A"))
        assert np.allclose(got, table[0](t) @ inner)

    def test_semilinear_fd_matches_analytic_a(self):
        prob = get_problem("noncomm-2x2")
        for ts in ["[t]A", "[t,t]A", "[0,t]A"]:
            a = eval_elementary(prob, parse_tree(ts))
            b = eval_elementary(prob, parse_tree(ts), derivative=central_difference)
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("name", ["noncomm-2x2", "langevin", "scalar-semilinear"])
    def test_semilinear_fd_matches_analytic_a_to_order_three(self, name):
        prob = get_problem(name)
        for ts in ["[t,t,t]A", "[[t]A,t,t]A"]:
            a = eval_elementary(prob, parse_tree(ts))
            b = eval_elementary(prob, parse_tree(ts), derivative=central_difference)
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8)
        with pytest.raises(DerivativeOrderUnsupported):
            eval_elementary(prob, parse_tree("[t,t,t,t]A"), derivative=central_difference)

    @pytest.mark.parametrize("name", ["noncomm-2x2", "langevin", "scalar-semilinear"])
    def test_a_jets_match_hand_tables(self, name):
        prob = get_problem(name)
        for t in (0.0, 0.4, -1.3):
            for k, table in enumerate(A_DERIVATIVES[name], start=1):
                got, want = prob.a_derivative(k, t), table(t)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", ["langevin-partitioned", "langevin-vdep"])
    def test_coefficient_jets_match_hand_tables(self, name):
        rng = np.random.default_rng(11)
        prob = get_problem(name)
        for key in [(1, 1, 0), (1, 2, 0), (1, 1, 1), (2, 1, 0)]:
            for order in (1, 2, 3):
                for _ in range(10):
                    x = prob.x0 + rng.standard_normal(3)
                    dirs = [(1, rng.standard_normal(2)) if rng.random() < 0.6
                            else (2, rng.standard_normal(1)) for _ in range(order)]
                    got = _directional_derivative(prob, *key, x, dirs)
                    want = langevin_coefficient_derivative(
                        name == "langevin-vdep", key, x, dirs)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) \
                        <= 1e-12 * np.max(np.abs(want), initial=0.0)

    def test_reassigned_coefficients_change_derivatives(self):
        # derivatives come from the coefficient functions themselves, so a
        # reassigned A or coefficient is differentiated as it now reads
        prob = get_problem("noncomm-2x2")
        prob.A = lambda t: np.zeros((2, 2))
        assert eval_elementary(prob, parse_tree("[t]A")).tolist() == [0.0, 0.0]
        langevin = get_problem("langevin-partitioned")
        langevin.coeffs[(1, 2, 0)] = lambda x1, x2: np.array([x1[1], -x1[1]])
        got = eval_elementary(langevin, parse_tree(APPENDIX_TREE))
        assert got.tolist() == [0.0, 0.0]

    def test_model_mismatch(self, langevin):
        with pytest.raises(ModelMismatch):
            eval_elementary(langevin, parse_tree("A"))

    @pytest.mark.parametrize("text", ["W1", "[W1]g(1,1,0)", "t"])
    def test_leaf_without_a_block_raises(self, langevin, text):
        # a partitioned problem has no time block, and no problem has a
        # block for a Wiener leaf
        with pytest.raises(ModelMismatch, match="^cannot evaluate "):
            eval_elementary(langevin, parse_tree(text))

    def test_high_order_needs_analytic(self):
        prob = get_problem("scalar-semilinear")
        tree = parse_tree("[0,0,0,0]1")
        with pytest.raises(DerivativeOrderUnsupported):
            eval_elementary(prob, tree, derivative=central_difference)


class TestCentralDifference:
    @pytest.mark.parametrize("order, calls", [(1, 2), (2, 3), (3, 4)])
    def test_repeated_time_direction_evaluates_each_point_once(self, order, calls):
        prob = get_problem("langevin")
        seen, A = [], prob.A
        prob.A = lambda t: seen.append(t) or A(t)
        tree = parse_tree("[" + ",".join(["t"] * order) + "]A")
        eval_elementary(prob, tree, derivative=central_difference)
        assert len(seen) == len(set(seen)) == calls

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_one_evaluation_per_sign_pattern(self, order):
        fn = lambda p: np.array([np.sin(p[0]) * p[1] ** 3, np.exp(p[0] * p[1])])
        x = np.array([0.4, -0.7])
        directions = [np.array([1.0, 0.5]), np.array([1.0, 0.5]), np.array([0.0, 1.0])]
        directions = directions[:order]
        got = central_difference(fn, x, directions)
        eps = fd_steps(order, x, directions)
        total = None
        for signs in np.ndindex(*(2,) * order):
            s = [1.0 if b == 0 else -1.0 for b in signs]
            point = x.copy()
            for sj, ej, uj in zip(s, eps, directions):
                point += sj * ej * uj
            value = fn(point) * float(np.prod(s))
            total = value if total is None else total + value
        want = total / float(np.prod([2 * e for e in eps]))
        assert got.tobytes() == want.tobytes()


class TestFDDirectional:
    def test_linear_map_exact(self, langevin):
        # the friction coefficient is linear in the state block
        u = np.array([0.3, -0.7])
        got = fd_directional(langevin, 1, 2, 0, langevin.x0, [(1, u)])
        alpha0 = 1 + langevin.x0[2] ** 2 / 4
        assert np.allclose(got, [u[1], -alpha0 * u[1]], atol=1e-10)

    def test_quadratic_two_directions_exact(self):
        # v^2-dependent coefficient: second v-derivative is exactly constant
        prob = get_problem("langevin-vdep")
        u = np.array([0.0, 1.0])
        got = fd_directional(prob, 1, 1, 1, prob.x0, [(1, u), (1, u)])
        r, _, t = prob.x0
        want = 0.2 * np.cos(r) * (1 + 0.5 * t) * 0.25
        assert got[1] == pytest.approx(want, abs=1e-8)

    def test_directional_derivative_linear_in_each_slot(self, langevin_vdep):
        rng = np.random.default_rng(3)
        prob = langevin_vdep

        def jet(dirs):
            return _directional_derivative(prob, 1, 1, 1, prob.x0, dirs)

        for _ in range(20):
            u = (1, rng.standard_normal(2))
            v = (1, rng.standard_normal(2))
            w = (2, rng.standard_normal(1))
            c = float(rng.standard_normal())
            combined = (1, u[1] + c * v[1])
            got = fd_directional(prob, 1, 1, 1, prob.x0, [combined, w])
            want = fd_directional(prob, 1, 1, 1, prob.x0, [u, w]) \
                + c * fd_directional(prob, 1, 1, 1, prob.x0, [v, w])
            assert np.allclose(got, want, atol=1e-6)
            got_a = jet([combined, w])
            want_a = jet([u, w]) + c * jet([v, w])
            assert np.allclose(got_a, want_a, atol=1e-12)

    def test_matches_analytic_on_langevin(self, langevin_vdep):
        def fd_applicable(tree):
            return all(len(c.children) <= 3 and fd_applicable(c)
                       for c in tree.children) and len(tree.children) <= 3

        for tree in enumerate_trees(T.langevin_model(), HalfInt(5)):
            if tree.is_leaf or not fd_applicable(tree):
                continue
            a = eval_elementary(langevin_vdep, tree)
            b = eval_elementary(langevin_vdep, tree, derivative=central_difference)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.allclose(a, b, atol=1e-6 * scale)


class TestEvalBSeries:
    def test_empty_series_returns_state(self, langevin):
        series = BSeries(T.langevin_model(), HalfInt(2), {}, E.ONE)
        path = sample_path(0.25, 32, 1, 1)
        out = eval_bseries(langevin, series, langevin.x0, 0.25, path)
        assert np.allclose(out, langevin.x0)

    def test_exact_series_strong_order(self):
        # cap-2 truncation error shrinks like h^(5/2) in RMS as h halves
        prob = get_problem("langevin")
        model = T.SemiLinear(1)
        series = exact_solution_series(model, HalfInt(4))
        rms = []
        for h in (2 ** -6, 2 ** -5):
            errs = []
            for k in range(160):
                path = sample_path(h, 64, 1, (99, k))
                approx = eval_bseries(prob, series, prob.x0, h, path)
                ref = reference_solution(prob, h, 64, path)
                errs.append(np.sum((approx[:2] - ref) ** 2))
            rms.append(np.sqrt(np.mean(errs)))
        ratio = rms[1] / rms[0]  # coarse / fine
        assert 2.0 ** 2.0 < ratio < 2.0 ** 3.2

    def test_deterministic_matches_ode_taylor(self):
        # no-noise problem: the cap-3 series matches a fine ODE solve to O(h^4)
        base = get_problem("scalar-semilinear")
        prob = SDEProblem(
            name="scalar-ode", model=T.SemiLinear(0), dims=base.dims,
            x0=base.x0, interpretation="stratonovich",
            A=base.A,
            g={0: base.g[0], 1: lambda x, t: np.zeros_like(x)})
        series = exact_solution_series(T.SemiLinear(0), HalfInt(6))
        errs = []
        for h in (2 ** -4, 2 ** -5):
            path = sample_path(h, 256, 1, 1)
            approx = eval_bseries(prob, series, prob.x0, h, path)
            ref = reference_solution(prob, h, 2 ** 14, sample_path(h, 2 ** 14, 1, 1))
            errs.append(abs(approx[0] - ref[0]))
        assert errs[0] / errs[1] > 2 ** 3.2

    def test_time_block_advances(self):
        prob = get_problem("scalar-semilinear")
        series = exact_solution_series(T.SemiLinear(1), HalfInt(2))
        path = sample_path(0.25, 32, 1, 2)
        out = eval_bseries(prob, series, prob.x0, 0.25, path)
        assert out[-1] == pytest.approx(prob.t0 + 0.25)


    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2", "scalar-semilinear"])
    def test_midpoint_series_finite_at_cap_seven_halves(self, name):
        # jets differentiate at any order, so the whole 7/2 series evaluates
        prob = get_problem(name)
        solution, _ = erk_weights(builtin_exponential_midpoint(), HalfInt(7))
        out = eval_bseries(prob, solution, prob.x0, 0.125,
                           sample_path(0.125, 64, 1, (13, 1)))
        assert out.shape == prob.x0.shape and np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2", "scalar-semilinear"])
    def test_midpoint_series_matches_midpoint_step(self, name):
        # the symbolic midpoint series at cap 2 against one numerical step:
        # the difference is the series truncation, O(h^(5/2)) in RMS
        prob = get_problem(name)
        solution, _ = erk_weights(builtin_exponential_midpoint(), HalfInt(4))

        def step(h, dw):
            return exponential_midpoint_step(prob, prob.t0, h, prob.x0_state, dw)

        assert _truncation_slope(prob, solution, step) > 2.25

    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2", "scalar-semilinear"])
    def test_midpoint_stage_series_matches_stage_solve(self, name):
        # the same for the stage: its series at cap 2 against the implicit
        # stage the step solves
        prob = get_problem(name)
        _, (stage_series,) = erk_weights(builtin_exponential_midpoint(), HalfInt(4))

        def stage(h, dw):
            stage_op, _, _ = midpoint_step_operators(prob, prob.t0, h)
            return _solve_stage(prob, stage_op @ prob.x0_state, prob.t0 + 0.5 * h, h, dw)

        assert _truncation_slope(prob, stage_series, stage) > 2.25

    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2", "scalar-semilinear"])
    def test_equals_sum_of_per_tree_differentials(self, name):
        # one differential per distinct subtree changes no bit of the sum
        prob = get_problem(name)
        series = exact_solution_series(T.SemiLinear(1), HalfInt(4))
        path = sample_path(0.25, 64, 1, (5, 1))
        got = eval_bseries(prob, series, prob.x0, 0.25, path)
        assert got.tobytes() == _per_tree_sum(prob, series, prob.x0, 0.25, path).tobytes()

    @pytest.mark.parametrize("case", ["fresh problem", "second call", "after another state",
                                      "after the caller's state changed", "two problems",
                                      "after a coefficient changed"])
    def test_kept_differentials_change_no_bit(self, case):
        # each call of ``check`` equals the sum of differentials each built
        # from scratch
        path = sample_path(0.25, 64, 1, (5, 3))
        small, full = (exact_solution_series(T.langevin_model(), HalfInt(cap))
                       for cap in (2, 4))
        prob, other = get_problem("langevin-partitioned"), get_problem("langevin-vdep")
        x = prob.x0 + 0.0625

        def check(problem, state, series=full):
            want = _per_tree_sum(problem, series, state.copy(), 0.25, path)
            got = eval_bseries(problem, series, state, 0.25, path)
            assert got.tobytes() == want.tobytes()

        if case == "fresh problem":
            check(prob, x)
        elif case == "second call":
            check(prob, x)
            check(prob, x.copy())
        elif case == "after another state":
            check(prob, x)
            check(prob, prob.x0)
            check(prob, x)
        elif case == "after the caller's state changed":
            # the first call builds some differentials; the changed array
            # must not reach the ones built later at the first state
            check(prob, x, small)
            first = x.copy()
            x += 0.125
            check(prob, first)
            check(prob, x)
        elif case == "two problems":
            # the two problems share their initial state, not their fields
            for problem in (prob, other, prob, other):
                check(problem, problem.x0)
        else:
            check(prob, x)
            prob.coeffs[1, 1, 1] = other.coeffs[1, 1, 1]
            check(prob, x)

    def test_stored_zero_weight_is_skipped(self):
        # a tree stored with the weight ZERO adds nothing, not even the +0.0
        # that would turn a negative zero of the state positive
        prob = get_problem("scalar-semilinear")
        x, path = -0.0 * prob.x0, sample_path(0.25, 64, 1, (5, 2))
        got, want = (eval_bseries(prob, BSeries(T.SemiLinear(1), HalfInt(2), weights),
                                  x, 0.25, path)
                     for weights in ({parse_tree("1"): E.ZERO}, {}))
        assert got.tobytes() == want.tobytes()


def _per_tree_sum(prob, series, x, h, path):
    """``eval_bseries`` as a sum over the trees, each differential built from
    scratch by ``eval_elementary``."""
    step_path = path.restrict(h)
    want = eval_weight(series.empty_weight, step_path, prob.interpretation) * x
    for tree in series.trees():
        weight = series.weight(tree)
        if weight.is_zero:
            continue
        scale = float(T.alpha(tree)) * eval_weight(weight, step_path, prob.interpretation)
        if scale == 0.0:
            continue
        off = prob.block_offset(value_partition(tree.label))
        value = eval_elementary(prob, tree, x)
        want[off:off + value.size] += scale * value
    return want


def _truncation_slope(prob, series, numeric) -> float:
    """Fitted log2 slope of the RMS gap between ``series`` over one step
    and ``numeric(h, dw)``, the value a numerical step gives for the
    Wiener increment dw, over h = 2^-3 .. 2^-7 with 8 paths each."""
    ladder = [2.0 ** -k for k in range(3, 8)]
    rms = []
    for h in ladder:
        errs = []
        for k in range(8):
            path = sample_path(h, 64, 1, (41, k))
            approx = eval_bseries(prob, series, prob.x0, h, path)
            w = path.wiener(1)
            errs.append(np.sum((approx[:prob.dim] - numeric(h, w[-1] - w[0])) ** 2))
        rms.append(np.sqrt(np.mean(errs)))
    return np.polyfit(np.log2(ladder), np.log2(rms), 1)[0]


class TestBuiltinCoefficients:
    @pytest.mark.parametrize("shape", [(), (5,)], ids=["state", "batch"])
    def test_equal_stacked_components(self, shape):
        rng = np.random.default_rng(3)
        r, v, t = rng.standard_normal(shape), rng.standard_normal(shape), 0.7
        x = np.array([r, v])
        stacked = {
            "langevin": (np.stack([np.zeros_like(r), -np.sin(r) * (1.0 + t)]),
                         np.stack([np.zeros_like(r), 0.2 * np.cos(r) * (1.0 + 0.5 * t)])),
            "noncomm-2x2": (np.stack([0.3 * np.sin(v),
                                      0.2 * np.cos(r) * (1.0 + 0.25 * t)]),
                            np.stack([0.15 * np.cos(r),
                                      0.1 * np.sin(r + v) * (1.0 + 0.125 * t)])),
        }
        for name, (g0, g1) in stacked.items():
            prob = get_problem(name)
            for got, want in ((prob.g[0](x, t), g0), (prob.g[1](x, t), g1)):
                assert got.shape == want.shape == (2,) + shape
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2", "scalar-semilinear"])
    def test_linear_part_bytes(self, name):
        # A(t) as the steppers call it: scalar times and the nodes of the
        # three Simpson rules of one exponential-midpoint step
        written = {
            "langevin": lambda t: np.array([[0.0, 1.0], [0.0, -(1.0 + 0.25 * t * t)]]),
            "noncomm-2x2": lambda t: np.array([[0.0, 1.0 + 0.5 * t],
                                               [-1.0 + 0.125 * t * t, -0.5 - 0.25 * t]]),
            "scalar-semilinear": lambda t: np.array([[-0.5 - 0.25 * t]]),
        }[name]
        prob = get_problem(name)
        times = [0.0, -0.0, 0.4, -1.3, 1e-3]
        t, h = prob.t0, 0.25
        for lo, hi in ((t, t + 0.5 * h), (t + 0.5 * h, t + h), (t, t + h)):
            times += [lo, 0.5 * (lo + hi), hi]
        for s in times:
            got, want = prob.A(s), written(s)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [0.0, -0.0, np.pi], ids=["zero", "minus-zero", "pi"])
    @pytest.mark.parametrize("t", [0.7, -2.0], ids=["t", "root"])
    def test_langevin_signed_zeros(self, r, t):
        # the stacked np.zeros_like form is the oracle, signed zeros included
        prob = get_problem("langevin")
        for x in (np.array([r, 0.3, t]), np.array([[r, r], [0.3, 0.3], [t, t]])):
            rr = x[0]
            want = (np.array([np.zeros_like(rr), -np.sin(rr) * (1.0 + t)]),
                    np.array([np.zeros_like(rr), 0.2 * np.cos(rr) * (1.0 + 0.5 * t)]))
            for got, w in zip((prob.g[0](x, t), prob.g[1](x, t)), want):
                assert got.shape == w.shape and got.dtype == w.dtype
                assert got.tobytes() == w.tobytes()

class TestDerivativeProductOracle:
    def test_fd_of_series_matches_derivative_product(self):
        # directional finite difference of the series map against the
        # bilinear operator, on a concrete problem and a fixed path
        prob = get_problem("scalar-semilinear")
        model = T.SemiLinear(1)
        cap = HalfInt(4)
        phi = exact_solution_series(model, cap)
        incr = BSeries(model, cap, dict(phi.weights), E.ZERO)
        prod = derivative_product(incr, phi)
        errs = []
        ladder = [2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6]
        for h in ladder:
            path = sample_path(h, 128, 1, (31, 7))
            direction = eval_bseries(prob, incr, prob.x0, h, path)
            eps = 1e-5
            up = eval_bseries(prob, phi, prob.x0 + eps * direction, h, path)
            down = eval_bseries(prob, phi, prob.x0 - eps * direction, h, path)
            fd = (up - down) / (2 * eps)
            series_val = eval_bseries(prob, prod, prob.x0, h, path)
            errs.append(float(np.max(np.abs(fd - series_val))))
        # truncation decays at least like h^(cap + 1/2)
        fit = np.polyfit(np.log2(ladder), np.log2(errs), 1)[0]
        assert fit > 2.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: SDEProblem("x", T.SemiLinear(1), (1, 1), np.zeros(3)), ValueError,
     "x0 must be the flat concatenation of the blocks"),
    (lambda: get_problem("langevin-partitioned").t0, ValueError,
     "t0 is defined for semi-linear problems"),
    (lambda: get_problem("scalar-semilinear").coefficient(1, 1, 2), ModelMismatch,
     "no coefficient (1,1,2) on scalar-semilinear"),
    (lambda: get_problem("langevin-partitioned").coefficient(1, 1, 5), ModelMismatch,
     "no coefficient (1,1,5) on langevin-partitioned"),
    (lambda: get_problem("langevin-partitioned").a_derivative(0, 0.0), ModelMismatch,
     "langevin-partitioned has no linear part"),
    (lambda: eval_elementary(get_problem("scalar-semilinear"), parse_tree("[1]g(1,1,0)")),
     ModelMismatch, "scalar-semilinear is semi-linear"),
    (lambda: SDEProblem("x", T.SemiLinear(1), (1, 1), np.zeros(2), interpretation=None),
     ValueError, "unknown interpretation None"),
], ids=["x0-shape", "partitioned-t0", "semilinear-coefficient", "partitioned-coefficient",
        "no-linear-part", "general-label-on-semilinear", "interpretation"])
def test_problem_error_class_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
