"""Path sampling and pathwise weight evaluation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import oracle_wiener_row

from sbseries import expr as E
from sbseries import paths as P
from sbseries.expr import parse_expr
from sbseries.paths import (
    ITO,
    ColorMissing,
    MCStats,
    PathTooShort,
    _sample_wiener_rows,
    _Workspace,
    eval_weight,
    eval_weights,
    mc_moments,
    sample_path,
)


def _full_eval_rows(expr, times, w, interp):
    """Reference evaluator: every monomial's full (P, N + 1) profile, of
    which the last column is kept, as expressions were evaluated before the
    top-level factors moved to the endpoint."""
    total = np.zeros(w.shape[1])
    for coeff, mono in expr.terms:
        total += float(coeff) * _full_mono_profile(mono, times, w, interp)[:, -1]
    return total


def _full_mono_profile(mono, times, w, interp):
    atoms = [(_full_atom_profile(atom, times, w, interp), p) for atom, p in mono.ints]
    out = np.ones(w.shape[1:])
    if mono.hpow:
        out *= times ** mono.hpow
    for m, p in mono.dws:
        out *= w[m - 1] if p == 1 else w[m - 1] ** p
    for a, p in atoms:
        out *= a if p == 1 else a ** p
    return out


def _full_atom_profile(atom, times, w, interp):
    f = _full_mono_profile(atom.integrand, times, w, interp)
    driver = w[atom.color - 1] if atom.color else times
    step = driver[..., 1:] - driver[..., :-1]
    if atom.color and interp == ITO and not atom.integrand.is_deterministic:
        incr = f[:, :-1] * step
    else:
        incr = f[:, :-1] + f[:, 1:]
        incr *= 0.5
        incr *= step
    f[:, 0] = 0.0
    np.cumsum(incr, axis=1, out=f[:, 1:])
    return f


# integrands nest up to three levels, some of them a single integral (to a
# power); top-level terms carry dW1^p, p >= 3
_INTEGRAND = st.recursive(
    st.sampled_from(["1", "s", "s^3", "dW1", "dW2^2", "dW1^3"]),
    lambda inner: st.one_of(
        st.builds(lambda c, f, g: f"Int{c}[{f},{g}]", st.integers(0, 2), inner, inner),
        st.builds(lambda c, f, p: f"Int{c}[{f}]^{p}", st.integers(0, 2), inner,
                  st.integers(1, 2))),
    max_leaves=4)
_ATOM = st.builds(lambda c, f: f"Int{c}[{f}]", st.integers(0, 2), _INTEGRAND)
_TERM = st.builds(lambda c, a, p, atom, q: f"{c}*h^{a}*dW1^{p}*{atom}^{q}",
                  st.sampled_from(["1", "1/64", "3/7"]), st.integers(0, 3),
                  st.integers(3, 7), _ATOM, st.integers(1, 3))


class TestSamplePath:
    def test_starts_at_zero(self):
        path = sample_path(0.25, 64, 2, 1)
        assert path.values[1, 0] == 0.0
        assert path.values[2, 0] == 0.0
        assert path.times[0] == 0.0
        assert path.times[-1] == 0.25

    def test_same_seed_identical(self):
        a = sample_path(0.5, 128, 1, 42)
        b = sample_path(0.5, 128, 1, 42)
        assert np.array_equal(a.values, b.values)

    def test_refinement_consistency(self):
        for n in [4, 32, 256]:
            coarse = sample_path(1.0, n, 2, 9)
            fine = sample_path(1.0, 2 * n, 2, 9)
            assert np.array_equal(coarse.values[1], fine.values[1][::2])
            assert np.array_equal(coarse.values[2], fine.values[2][::2])

    def test_colors_independent_of_count(self):
        one = sample_path(1.0, 64, 1, 5)
        three = sample_path(1.0, 64, 3, 5)
        assert np.array_equal(one.values[1], three.values[1])

    def test_increment_variance(self):
        # Var[W(h)] ~ h over many paths, within 3 standard errors
        h, n_paths = 0.7, 20000
        samples = np.array([sample_path(h, 4, 1, (123, k)).wiener(1)[-1]
                            for k in range(n_paths)])
        var = samples.var(ddof=1)
        se = var * np.sqrt(2.0 / (n_paths - 1))  # SE of a Gaussian variance
        assert abs(var - h) < 3 * se

    def test_restrict(self):
        path = sample_path(1.0, 64, 1, 3)
        sub = path.restrict(0.5)
        assert sub.n_steps == 32
        assert np.array_equal(sub.wiener(1), path.wiener(1)[:33])
        for h_sub in (2.0, 0.3, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(PathTooShort) as err:
                path.restrict(h_sub)
            assert len(str(err.value)) < 80  # no grid values in the message
        assert "h=1.0, n_steps=64" in str(err.value)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_path(1.0, 0, 1, 1)
        with pytest.raises(ValueError):
            sample_path(-1.0, 4, 1, 1)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_horizon_not_finite_and_positive(self, h):
        with pytest.raises(ValueError):
            sample_path(h, 4, 1, 1)
        with pytest.raises(ValueError):
            mc_moments(parse_expr("dW1"), h, 4, 2, seed=1)

    @given(h=st.sampled_from([0.25, 0.3, 1.0, 7.5]),
           n_steps=st.one_of(st.sampled_from([1, 2, 64, 4096]),
                             st.integers(1, 300)),
           n_colors=st.integers(0, 3),
           seed=st.tuples(st.integers(0, 2 ** 32), st.integers(0, 50)),
           n_rows=st.sampled_from([1, 17, 250]))
    @settings(max_examples=60, deadline=None)
    def test_equals_level_by_level_oracle(self, h, n_steps, n_colors, seed, n_rows):
        path = sample_path(h, n_steps, n_colors, seed)
        for m in range(1, n_colors + 1):
            assert np.array_equal(path.wiener(m), oracle_wiener_row(seed + (m,), h, n_steps))
        # many rows reuse one sampler over chunks, the last one ragged
        seeds = [seed + (i,) for i in range(n_rows)]
        rows = np.empty((n_rows, n_steps + 1))
        _sample_wiener_rows(rows, h, seeds)
        for row, row_seed in zip(rows, seeds):
            assert np.array_equal(row, oracle_wiener_row(row_seed, h, n_steps))

    # each seed spans one, two or three 32-bit entropy words
    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
    def test_seed_words_draw_what_the_seed_tuple_draws(self, seed):
        seeds = [(seed,), (seed, 0, 1), (seed, 9, 2), (0, seed, 1), (3, 1, seed)]
        rows = np.empty((len(seeds), 65))
        _sample_wiener_rows(rows, 0.5, seeds)
        for row, row_seed in zip(rows, seeds):
            assert row.tobytes() == oracle_wiener_row(row_seed, 0.5, 64).tobytes()
        path = sample_path(0.5, 64, 2, (seed, 4))
        for m in (1, 2):
            assert path.wiener(m).tobytes() == \
                oracle_wiener_row((seed, 4, m), 0.5, 64).tobytes()


class TestEvalWeight:
    def test_h_exact(self):
        path = sample_path(0.25, 16, 1, 1)
        assert eval_weight(E.H, path) == 0.25

    def test_nested_time_integral_exact(self):
        path = sample_path(0.25, 16, 1, 1)
        got = eval_weight(parse_expr("Int0[Int0[1]]"), path)
        assert abs(got - 0.25 ** 2 / 2) < 1e-12

    def test_deterministic_quadratic_convergence(self):
        # trapezoid error O(N^-2) on a surviving deterministic atom
        from sbseries.expr import IntAtom, Mono, WeightExpr
        from fractions import Fraction
        # int_0^h s^2 ds kept as an atom (bypasses normalization on purpose)
        atom = IntAtom(0, Mono(hpow=2))
        raw = WeightExpr(((Fraction(1), Mono(ints=((atom, 1),))),))
        exact = 0.5 ** 3 / 3
        errs = [abs(eval_weight(raw, sample_path(0.5, n, 1, 1)) - exact)
                for n in (8, 16, 32)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_normalization_soundness_pathwise(self):
        # unnormalized atom vs its reduced form agree on random paths
        from sbseries.expr import IntAtom, Mono, WeightExpr
        from fractions import Fraction
        atom = IntAtom(0, Mono(hpow=1))
        raw = WeightExpr(((Fraction(1), Mono(ints=((atom, 1),))),))
        reduced = E.integral(0, [E.H])
        assert reduced == E.h_power(2, Fraction(1, 2))
        for k in range(100):
            path = sample_path(0.3, 64, 1, (77, k))
            assert eval_weight(raw, path) == pytest.approx(
                eval_weight(reduced, path), abs=1e-12)

    def test_ito_vs_stratonovich_deterministic_integrand(self):
        # the calculi agree for deterministic integrands, bit for bit
        for text in ["Int1[s^2]", "Int1[s^4]", "Int0[Int1[s^4],s]"]:
            expr = parse_expr(text)
            path = sample_path(0.5, 128, 1, 11)
            assert eval_weight(expr, path, "ito") == \
                eval_weight(expr, path, "stratonovich")

    def test_ito_vs_stratonovich_differ_on_stochastic_integrand(self):
        expr = parse_expr("Int1[dW1]")
        path = sample_path(0.5, 256, 1, 11)
        assert eval_weight(expr, path, "ito") != \
            eval_weight(expr, path, "stratonovich")

    def test_stratonovich_chain_rule_exact_on_grid(self):
        expr = parse_expr("Int1[dW1] - 1/2*dW1^2")
        for k in range(5):
            path = sample_path(0.5, 64, 1, (5, k))
            assert abs(eval_weight(expr, path, "stratonovich")) < 1e-14

    def test_ito_left_sums(self):
        # Ito integral of W dW = (W^2 - h)/2 + O(mesh) pathwise
        path = sample_path(0.5, 4096, 1, 13)
        got = eval_weight(parse_expr("Int1[dW1]"), path, "ito")
        w = path.wiener(1)[-1]
        assert got == pytest.approx((w * w - 0.5) / 2, abs=0.05)

    def test_color_missing(self):
        path = sample_path(0.5, 8, 1, 1)
        with pytest.raises(ColorMissing):
            eval_weight(parse_expr("dW2"), path)


class TestEndpointEvaluation:
    @given(terms=st.lists(_TERM, min_size=1, max_size=3),
           interp=st.sampled_from(["ito", "stratonovich"]),
           n_paths=st.sampled_from([1, 7, 8, 9]),
           n_steps=st.sampled_from([1, 8, 37, 64]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_equals_full_profile_evaluator(self, terms, interp, n_paths, n_steps, seed):
        expr = parse_expr(" - ".join(terms))
        rng = np.random.default_rng(seed)
        w = np.zeros((2, n_paths, n_steps + 1))
        w[..., 1:] = np.cumsum(0.3 * rng.standard_normal((2, n_paths, n_steps)), axis=2)
        times = np.linspace(0.0, 0.3, n_steps + 1)
        got = _Workspace(times, w.shape[1], interp).eval([expr], w)[0]
        assert got.tobytes() == _full_eval_rows(expr, times, w, interp).tobytes()

    # integrals of powers of s take the workspace's trapezoid rows and time
    # powers; the last one asks for the same power on the grid and at the end
    @pytest.mark.parametrize("interp", ["ito", "stratonovich"])
    def test_deterministic_integrands_equal_full_profile_evaluator(self, interp):
        exprs = [parse_expr(text) for text in ["Int1[s^4]", "Int1[s^4]^2", "Int0[Int1[s^2],s]",
                                               "Int2[s^3]", "h^2*Int0[Int1[s^2],s^2]"]]
        path = sample_path(0.3, 64, 2, 17)
        for expr in exprs:
            want = _full_eval_rows(expr, path.times, path.values[1:, None, :], interp)
            assert np.array(eval_weights([expr], path, interp)).tobytes() == want.tobytes()
        # several weights in one workspace, on a chunk of paths
        w = np.stack([sample_path(0.3, 64, 2, (17, i)).values[1:] for i in range(8)], axis=1)
        got = _Workspace(path.times, 8, interp).eval(exprs, w)
        for expr, value in zip(exprs, got):
            assert value.tobytes() == _full_eval_rows(expr, path.times, w, interp).tobytes()


class TestManyWeights:
    @given(terms=st.lists(_TERM, min_size=1, max_size=4),
           interp=st.sampled_from(["ito", "stratonovich"]),
           n_steps=st.sampled_from([1, 8, 37]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_each_value_is_its_own_evaluation(self, terms, interp, n_steps, seed):
        # the expressions share atoms: every term is one expression, and
        # pairs of terms are more
        exprs = [parse_expr(t) for t in terms]
        exprs += [parse_expr(f"{a} - {b}") for a, b in zip(terms, terms[1:])]
        path = sample_path(0.3, n_steps, 2, seed)
        got = eval_weights(exprs, path, interp)
        want = [eval_weight(e, path, interp) for e in exprs]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_a_repeated_top_level_integral_is_integrated_once(self, monkeypatch):
        calls = []
        original = P._Workspace._atom_profile

        def counted(self, atom, depth):
            calls.append(atom)
            return original(self, atom, depth)

        monkeypatch.setattr(P._Workspace, "_atom_profile", counted)
        expr = parse_expr("Int1[Int0[dW1]]^2*dW1 + 3*Int1[Int0[dW1]]")
        path = sample_path(0.25, 16, 1, 3)
        once = eval_weights([expr], path)
        n_once = len(calls)
        assert n_once == 2  # the atom and its integrand's atom
        assert eval_weights([expr, expr, expr], path) == once * 3
        assert len(calls) == 2 * n_once

    def test_missing_color_in_any_expression_raises(self):
        with pytest.raises(ColorMissing):
            eval_weights([parse_expr("dW1"), parse_expr("dW2")], sample_path(0.5, 4, 1, 1))


class TestMCMoments:
    def test_mean_of_increment_is_zero(self):
        stats = mc_moments(parse_expr("dW1"), 0.25, 8, 20000, "ito", seed=3)
        assert abs(stats.mean) < 3 * stats.stderr

    def test_second_moment_is_h(self):
        stats = mc_moments(parse_expr("dW1^2"), 0.25, 8, 20000, "ito", seed=4)
        assert abs(stats.mean - 0.25) < 3 * stats.stderr

    def test_zero_expression(self):
        stats = mc_moments(E.ZERO, 0.25, 8, 100, "ito", seed=5)
        assert stats == MCStats(100, 0.0, 0.0)

    def test_deterministic_given_seed(self):
        a = mc_moments(parse_expr("Int1[s]"), 0.5, 32, 500, "stratonovich", seed=6)
        b = mc_moments(parse_expr("Int1[s]"), 0.5, 32, 500, "stratonovich", seed=6)
        assert a == b

    def test_mc_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            mc_moments(parse_expr("dW1"), 0.5, 0, 2, seed=1)
        with pytest.raises(ValueError):
            mc_moments(parse_expr("dW1"), 0.5, 4, 0, seed=1)

    @pytest.mark.parametrize("interp", [None, 1, "bogus"])
    def test_unknown_interpretation_is_a_value_error(self, interp):
        with pytest.raises(ValueError, match=f"^unknown interpretation {interp!r}$"):
            mc_moments(parse_expr("dW1"), 0.5, 4, 2, interp, seed=1)

    @given(text=st.sampled_from([
               "dW1", "h", "0", "dW1^7 - 1/3*h*dW2", "Int1[dW1]", "Int0[dW1]",
               "Int1[Int1[dW1]]*dW2 - 1/2*Int0[dW1]", "Int2[s^2] + Int0[Int1[s^4],s]",
               "Int1[Int1[Int1[Int1[dW1]]]] - 1/64*dW1^7", "Int1[Int1[dW1]]*dW1",
               "Int1[Int1[Int1[Int1[Int1[Int1[dW1]]]]]] - 1/64*dW1^7",
               "Int1[Int1[dW1]^2] + Int0[Int1[s]^3]",
               "Int2[Int1[dW2^2]^2*dW1] + Int1[Int2[s]]^2"]),
           interp=st.sampled_from(["ito", "stratonovich"]),
           n_paths=st.sampled_from([1, 7, 8, 9, 17, 203, 250]),
           n_steps=st.sampled_from([1, 8, 37, 64, 100]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    @example(text="Int2[Int1[dW2^2]^2*dW1] + Int1[Int2[s]]^2", interp="ito",
             n_paths=17, n_steps=100, seed=3)
    @example(text="Int1[Int1[dW1]]*dW1", interp="stratonovich",
             n_paths=250, n_steps=64, seed=4)
    @example(text="Int1[Int1[Int1[Int1[Int1[Int1[dW1]]]]]] - 1/64*dW1^7", interp="ito",
             n_paths=9, n_steps=37, seed=5)
    @example(text="Int1[Int1[dW1]^2] + Int0[Int1[s]^3]", interp="stratonovich",
             n_paths=9, n_steps=64, seed=6)
    def test_equals_per_path_loop(self, text, interp, n_paths, n_steps, seed):
        expr = parse_expr(text)
        # a call on another grid and color count first: nothing may carry over
        mc_moments(parse_expr("Int3[Int1[dW2]]"), 0.7, n_steps + 3, 5, interp, seed)
        colors = max(expr.colors(), default=0)
        values = np.array([
            eval_weight(expr, sample_path(0.3, n_steps, colors, (seed, i)), interp)
            for i in range(n_paths)])
        mean = float(np.sum(values) / n_paths)
        variance = float(np.sum((values - mean) ** 2) / (n_paths - 1)) \
            if n_paths > 1 else 0.0
        stats = mc_moments(expr, 0.3, n_steps, n_paths, interp, seed)
        assert stats == MCStats(n_paths, mean, variance)


@pytest.mark.parametrize("m", [0, 2])
def test_wiener_of_a_color_the_path_lacks(m):
    path = sample_path(0.5, 4, 1, 0)
    with pytest.raises(ColorMissing, match=f"^path carries colors 1..1, not {m}$") as info:
        path.wiener(m)
    assert type(info.value) is ColorMissing
