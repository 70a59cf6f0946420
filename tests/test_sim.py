"""Time stepping and convergence estimation."""

import numpy as np
import pytest

from sbseries.elementary import SDEProblem, _semilinear, get_problem
from sbseries.paths import sample_path
from sbseries.sim import (
    ConvergenceReport,
    SimulationError,
    StageDivergence,
    exponential_midpoint_step,
    integrate_erk,
    midpoint_step_operators,
    ms_order_estimate,
    reference_solution,
)
from sbseries import trees as T


def _zero_g(problem: SDEProblem) -> SDEProblem:
    problem.g = {0: lambda x, t: np.zeros_like(x),
                 1: lambda x, t: np.zeros_like(x)}
    return problem


def _count_A(problem: SDEProblem) -> list:
    """Wrap the problem's A so that every evaluation appends its time."""
    calls, A = [], problem.A
    problem.A = lambda t: calls.append(t) or A(t)
    return calls


class TestStepper:
    def test_pure_linear_flow_matches_exponential(self):
        prob = _zero_g(get_problem("noncomm-2x2"))
        path = sample_path(0.25, 16, 1, 3)
        traj = integrate_erk(prob, 0.25, 1, path)
        _, _, full = midpoint_step_operators(prob, prob.t0, 0.25)
        assert np.max(np.abs(traj[-1] - full @ prob.x0_state)) < 1e-10

    def test_deterministic_reduces_to_implicit_midpoint_order_two(self):
        # A = 0 and drift only: classical implicit midpoint, second order
        prob = get_problem("scalar-semilinear")
        prob.A = lambda t: np.zeros((1, 1))
        prob.g = {0: prob.g[0], 1: lambda x, t: np.zeros_like(x)}
        path = sample_path(1.0, 2 ** 12, 1, 5)
        ref = reference_solution(prob, 1.0, 2 ** 12, path)
        errs = []
        for steps in (8, 16, 32):
            traj = integrate_erk(prob, 1.0 / steps, steps, path)
            errs.append(abs(traj[-1][0] - ref[0]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.35)

    def test_one_step_hand_expansion_constant_scalar_part(self):
        # constant scalar linear part: one step agrees with the hand
        # expansion through the h^(3/2)-order terms, so the remainder
        # shrinks like h^2 along a fixed driving draw
        a = -0.4
        prob = get_problem("scalar-semilinear")
        prob.A = lambda t: np.array([[a]])
        x, t = float(prob.x0_state[0]), prob.t0
        g0 = lambda s: 0.4 * np.sin(s) * (1.0 + t / 3.0)
        dg0 = lambda s: 0.4 * np.cos(s) * (1.0 + t / 3.0)
        g1 = lambda s: 0.25 * np.cos(s) * (1.0 + 0.2 * t)
        dg1 = lambda s: -0.25 * np.sin(s) * (1.0 + 0.2 * t)
        d2g1 = lambda s: -0.25 * np.cos(s) * (1.0 + 0.2 * t)
        dtg1 = lambda s: 0.25 * np.cos(s) * 0.2

        def hand(h, dw):
            out = x + a * h * x + h * g0(x) + dw * g1(x)
            out += 0.5 * dw * dw * dg1(x) * g1(x)
            out += 0.5 * h * dw * (a * dg1(x) * x + dg1(x) * g0(x) + dtg1(x)
                                   + a * g1(x) + dg0(x) * g1(x))
            out += dw ** 3 * (d2g1(x) * g1(x) ** 2 / 8
                              + dg1(x) ** 2 * g1(x) / 4)
            return out

        errs, hs = [], [2.0 ** -k for k in range(4, 9)]
        for h in hs:
            path = sample_path(h, 64, 1, (9, 1))
            dw = path.wiener(1)[-1]
            got = exponential_midpoint_step(prob, prob.t0, h, prob.x0_state, dw)
            errs.append(abs(float(got[0]) - hand(h, dw)))
        slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
        assert slope > 1.8

    def test_stage_divergence_raises(self):
        prob = get_problem("scalar-semilinear")
        prob.g = {0: lambda x, t: 50.0 * x, 1: lambda x, t: np.zeros_like(x)}
        path = sample_path(1.0, 4, 1, 1)
        with pytest.raises(StageDivergence):
            integrate_erk(prob, 1.0, 1, path)

    def test_slow_stage_contraction_does_not_converge(self):
        # with h = 0.5 the stage map contracts by 0.5 * h * c = 0.999 per
        # iteration: it never stalls, and after the iteration limit it is
        # still far from its fixed point
        prob = get_problem("scalar-semilinear")
        c = 0.999 / (0.5 * 0.5)
        prob.g = {0: lambda x, t: c * x, 1: lambda x, t: np.zeros_like(x)}
        path = sample_path(0.5, 4, 1, 1)
        with pytest.raises(StageDivergence, match=r"^stage iteration did not converge at t=0\.0$"):
            integrate_erk(prob, 0.5, 1, path)


class TestAEvaluations:
    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2"])
    def test_midpoint_operators_evaluate_A_at_five_times(self, name):
        prob = get_problem(name)
        calls = _count_A(prob)
        for t, h in [(prob.t0, 0.25), (0.4, 2 ** -8), (0.0, 2 ** -4)]:
            calls.clear()
            midpoint_step_operators(prob, t, h)
            assert len(calls) == len(set(calls)) == 5

    @pytest.mark.parametrize("name", ["langevin", "noncomm-2x2"])
    @pytest.mark.parametrize("n_fine", [16, 4096])
    def test_reference_evaluates_A_once_per_fine_step(self, name, n_fine):
        prob = get_problem(name)
        calls = _count_A(prob)
        reference_solution(prob, 1.0, n_fine, sample_path(1.0, n_fine, 1, 8))
        assert len(calls) == n_fine + 1

    @pytest.mark.parametrize("t0, T, n_fine", [(0.4, 1.0, 64), (0.1, 0.7, 7), (0.0, 1.0, 3)])
    def test_reference_equals_two_evaluations_per_step(self, t0, T, n_fine):
        # reusing the corrector's A changes no bit, also where t + dt and
        # the next step's time differ as floats
        prob = get_problem("noncomm-2x2")
        prob.x0 = np.array([0.6, 0.4, t0])
        w = np.array([sample_path(T, n_fine, 1, (2, k)).wiener(1) for k in range(3)])
        g0, g1 = prob.g[0], prob.g[1]

        def drift(x, t):
            return prob.a_derivative(0, t) @ x + g0(x, t)

        x, dt = np.repeat(prob.x0_state[:, None], 3, axis=1), T / n_fine
        for k in range(n_fine):
            t = t0 + k * dt
            dw = w[:, k + 1] - w[:, k]
            f, g = drift(x, t), g1(x, t)
            pred = x + dt * f + dw * g
            x = x + 0.5 * dt * (f + drift(pred, t + dt)) \
                + 0.5 * dw * (g + g1(pred, t + dt))
        assert reference_solution(prob, T, n_fine, w).tobytes() == x.tobytes()


class TestDrivingValues:
    @pytest.mark.parametrize("shape", [(3,), (5, 3)], ids=["one-path", "batch"])
    def test_short_wiener_array_raises_before_stepping(self, shape):
        prob = get_problem("langevin")
        calls = _count_A(prob)
        with pytest.raises(SimulationError):
            integrate_erk(prob, 0.25, 4, np.zeros(shape))
        with pytest.raises(SimulationError):
            reference_solution(prob, 1.0, 4, np.zeros(shape))
        assert calls == []


def _ito(problem: SDEProblem) -> SDEProblem:
    problem.interpretation = "ito"
    return problem


def _two_colors(problem: SDEProblem) -> SDEProblem:
    problem.model = T.SemiLinear(2)
    problem.g = {**problem.g, 2: lambda x, t: 5.0 * np.cos(x)}
    return problem


UNSUPPORTED = [
    lambda: _ito(get_problem("scalar-semilinear")),
    lambda: _two_colors(get_problem("scalar-semilinear")),
    lambda: get_problem("langevin-partitioned"),
]
UNSUPPORTED_IDS = ["ito", "two-colors", "partitioned"]


class TestSupportedProblems:
    """The stepper and the reference solve the semi-linear Stratonovich
    equation with one noise color; any other problem raises ValueError."""

    @pytest.mark.parametrize("make", UNSUPPORTED, ids=UNSUPPORTED_IDS)
    def test_stepper_and_reference_raise(self, make):
        path = sample_path(1.0, 16, 2, 3)
        with pytest.raises(ValueError, match="semi-linear Stratonovich"):
            integrate_erk(make(), 0.25, 4, path)
        with pytest.raises(ValueError, match="semi-linear Stratonovich"):
            reference_solution(make(), 1.0, 16, path)

    @pytest.mark.parametrize("make", UNSUPPORTED, ids=UNSUPPORTED_IDS)
    def test_order_estimate_raises_before_drawing_a_path(self, make, monkeypatch):
        import sbseries.sim as sim
        drawn = []
        monkeypatch.setattr(sim, "_sample_wiener_rows",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="semi-linear Stratonovich"):
            ms_order_estimate(make(), [2 ** -2, 2 ** -3], 4, 1.0, 5, n_fine=64)
        assert drawn == []

    def test_noise_free_problem_runs(self):
        zero_g1 = get_problem("scalar-semilinear")
        zero_g1.model = T.SemiLinear(0)
        zero_g1.g = {0: zero_g1.g[0], 1: lambda x, t: np.zeros_like(x)}
        # the same equation declared with its one field g_0 only
        g0_only = _semilinear("det", [0.8], 0.0, zero_g1.A, [zero_g1.g[0]])
        assert g0_only.model == T.SemiLinear(0) and set(g0_only.g) == {0}
        path = sample_path(1.0, 16, 1, 3)
        for prob in (zero_g1, g0_only):
            assert np.all(np.isfinite(integrate_erk(prob, 0.25, 4, path)))
            assert np.all(np.isfinite(reference_solution(prob, 1.0, 16, path)))
            report = ms_order_estimate(prob, [2 ** -2, 2 ** -3], 4, 1.0, 5, n_fine=64)
            assert np.all(np.isfinite(report.rms_errors))
            assert abs(report.slope - 2.0) < 0.1  # the midpoint rule on an ODE


class TestReference:
    def test_zero_coefficients_stay_at_x0(self):
        prob = _zero_g(get_problem("scalar-semilinear"))
        prob.A = lambda t: np.zeros((1, 1))
        path = sample_path(1.0, 256, 1, 2)
        assert np.allclose(reference_solution(prob, 1.0, 256, path), prob.x0_state)

    def test_self_refinement_below_method_error(self):
        prob = get_problem("langevin")
        path = sample_path(1.0, 2 ** 13, 1, 21)
        ref_a = reference_solution(prob, 1.0, 2 ** 12, path)
        ref_b = reference_solution(prob, 1.0, 2 ** 13, path)
        self_err = np.max(np.abs(ref_a - ref_b))
        traj = integrate_erk(prob, 2 ** -8, 2 ** 8, path)
        method_err = np.max(np.abs(traj[-1] - ref_b))
        assert self_err < method_err

    def test_deterministic_against_ode(self):
        prob = get_problem("scalar-semilinear")
        prob.g = {0: prob.g[0], 1: lambda x, t: np.zeros_like(x)}
        path = sample_path(1.0, 2 ** 12, 1, 4)
        got = reference_solution(prob, 1.0, 2 ** 12, path)
        from scipy.integrate import solve_ivp
        sol = solve_ivp(
            lambda t, x: prob.a_derivative(0, t) @ x + prob.g[0](x, t),
            (prob.t0, prob.t0 + 1.0), prob.x0_state, rtol=1e-11, atol=1e-12)
        assert abs(got[0] - sol.y[0, -1]) < 1e-6


class TestOrderEstimate:
    def test_langevin_slope_near_one(self):
        prob = get_problem("langevin")
        report = ms_order_estimate(prob, [2 ** -4, 2 ** -5, 2 ** -6],
                                   n_paths=200, T=1.0, seed=77, n_fine=2 ** 11)
        assert 0.85 <= report.slope <= 1.15

    def test_error_monotone_on_dyadic_ladder(self):
        prob = get_problem("scalar-semilinear")
        report = ms_order_estimate(prob, [2 ** -4, 2 ** -5, 2 ** -6, 2 ** -7],
                                   n_paths=200, T=1.0, seed=5, n_fine=2 ** 11)
        assert all(a > b for a, b in zip(report.rms_errors,
                                         report.rms_errors[1:]))

    def test_shared_paths_deterministic(self):
        prob = get_problem("scalar-semilinear")
        kwargs = dict(n_paths=50, T=1.0, seed=9, n_fine=2 ** 10)
        a = ms_order_estimate(prob, [2 ** -4, 2 ** -5], **kwargs)
        b = ms_order_estimate(prob, [2 ** -4, 2 ** -5], **kwargs)
        assert a == b

    def test_step_ladder_shares_one_brownian_path(self):
        # the increments used at every h are partial sums of the fine ones
        path = sample_path(1.0, 2 ** 10, 1, (4, 0))
        w = path.wiener(1)
        fine_increments = np.diff(w)
        for h_exp in (4, 5, 6):
            per = 2 ** 10 // 2 ** h_exp
            coarse = w[::per]
            sums = fine_increments.reshape(-1, per).sum(axis=1)
            assert np.allclose(np.diff(coarse), sums, rtol=0, atol=1e-15)

    def test_sample_equals_single_paths(self, monkeypatch):
        # 250 rows are drawn in chunks through one sampler; row p is the
        # path seeded (seed, p), bit for bit
        import sbseries.sim as sim
        seen, reference = [], sim.reference_solution
        monkeypatch.setattr(sim, "reference_solution",
                            lambda problem, T, n_fine, w: seen.append(w.copy())
                            or reference(problem, T, n_fine, w))
        ms_order_estimate(get_problem("scalar-semilinear"), [2 ** -2, 2 ** -3],
                          250, 1.0, 12, n_fine=64)
        (w,) = seen
        assert w.shape == (250, 65)
        for p in range(250):
            assert w[p].tobytes() == sample_path(1.0, 64, 1, (12, p)).wiener(1).tobytes()

    def test_validates_ladder(self):
        prob = get_problem("scalar-semilinear")
        with pytest.raises(ValueError):
            ms_order_estimate(prob, [2 ** -5, 2 ** -4], 10, 1.0, 1)
        with pytest.raises(ValueError):
            ms_order_estimate(prob, [0.3], 10, 1.0, 1)

    def test_needs_a_path_and_two_step_sizes(self):
        prob = get_problem("scalar-semilinear")
        with pytest.raises(ValueError):
            ms_order_estimate(prob, [2 ** -2, 2 ** -3], 0, 1.0, 1, n_fine=64)
        with pytest.raises(ValueError):
            ms_order_estimate(prob, [2 ** -2], 4, 1.0, 1, n_fine=64)

    def test_batch_equals_single_paths(self):
        # the batched reference and stepper give each path's own result
        prob = get_problem("noncomm-2x2")
        w = np.array([sample_path(1.0, 64, 1, (3, k)).wiener(1) for k in range(5)])
        ref = reference_solution(prob, 1.0, 64, w)
        traj = integrate_erk(prob, 2 ** -3, 8, w[:, ::8])
        for k in range(5):
            path = sample_path(1.0, 64, 1, (3, k))
            assert np.allclose(ref[:, k], reference_solution(prob, 1.0, 64, path),
                               rtol=0, atol=1e-13)
            assert np.allclose(traj[-1][:, k], integrate_erk(prob, 2 ** -3, 8, path)[-1],
                               rtol=0, atol=1e-13)

    def test_report_rows(self):
        report = ConvergenceReport((0.5, 0.25), (0.1, 0.05), (0.01, 0.005), 1.0)
        assert report.rows() == [(0.5, 0.1, 0.01), (0.25, 0.05, 0.005)]


@pytest.mark.parametrize("h, n_steps", [(0.3, 2), (0.5, 4), (0.1, 2)],
                         ids=["off-grid", "past-the-path", "finer-than-the-grid"])
def test_path_grid_must_resolve_the_steps(h, n_steps):
    path = sample_path(1.0, 4, 1, 0)
    with pytest.raises(SimulationError,
                       match=f"^path grid does not resolve {n_steps} steps of {h}$") as info:
        integrate_erk(get_problem("scalar-semilinear"), h, n_steps, path)
    assert type(info.value) is SimulationError
