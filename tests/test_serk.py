"""Exponential-integrator coefficient series and order-condition residuals."""

import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction

import pytest

from oracles import validate_tree
from test_imports import run_python

import sbseries.paths
from sbseries import cli
from sbseries import expr as E
from sbseries import memo, serk
from sbseries.elementary import eval_elementary, get_problem
from sbseries.expr import parse_expr
from sbseries.forest_ops import split_pairs
from sbseries.paths import eval_weight, sample_path
from sbseries.series import BSeries, identity_weights
from sbseries.serk import (
    CapUnsupported,
    ERKMethodSpec,
    NoAdmissibleSplit,
    _admissible_split,
    builtin_exponential_midpoint,
    erk_weight_at,
    erk_weights,
    exp_integral_series,
    is_a_tree,
    method_from_json,
    method_to_json,
    order_residuals,
    residual_at,
    residual_is_pathwise_zero,
    residuals_are_pathwise_zero,
    resolve_method,
    semilinear_trees,
)
from sbseries.trees import (
    ALabel,
    EMPTY,
    GLabel,
    HalfInt,
    SemiLinear,
    SemiLinearArity,
    T_LEAF,
    Tree,
    canonicalize,
    iter_trees,
    parse_tree,
    rho,
    tree_key,
)

EX4 = "[[[t,t]A,0]1,t]A"


@pytest.fixture(scope="module")
def midpoint():
    return builtin_exponential_midpoint()


def exponential_euler(cap: HalfInt = HalfInt(7)) -> ERKMethodSpec:
    """The explicit exponential Euler method: one stage at c = 0 with Z = 0;
    the output propagates the state by exp of the integral of the linear
    part over the step, to total order three in h, and the coefficients by
    that series times h and dW1."""
    model = SemiLinear(1)
    full = exp_integral_series(Fraction(0), Fraction(1), 3)
    zero = BSeries(model, cap, {}, E.ZERO)
    return ERKMethodSpec(
        name="exponential-euler",
        stages=1,
        c=(Fraction(0),),
        n_colors=1,
        cap=cap,
        Z0=(identity_weights(model, cap),),
        Z={0: ((zero,),), 1: ((zero,),)},
        z0=BSeries(model, cap, full),
        z={0: (BSeries(model, cap, {t: w * E.H for t, w in full.items()}, E.H),),
           1: (BSeries(model, cap, {t: w * E.dw(1) for t, w in full.items()}, E.dw(1)),)},
    )


@pytest.fixture(scope="module")
def euler():
    return exponential_euler()


class TestSemilinearTrees:
    def test_order_one_set(self):
        got = {str(t) for t in semilinear_trees(1, HalfInt(2))}
        assert got == {"1", "0", "A", "[1]1"}

    def test_example_tree_is_a_member(self):
        # the 540,237th of the 1,983,172 trees: the stream stops there
        member = parse_tree(EX4)
        trees = iter_trees(SemiLinear(1), HalfInt(13), cap=2_000_000)
        assert member in trees

    def test_a_node_arity_respected(self):
        for tree in semilinear_trees(1, HalfInt(6)):
            stack = [tree]
            while stack:
                node = stack.pop()
                if str(node.label) == "ALabel()":
                    non_t = [c for c in node.children
                             if not str(c.label) == "TLabel()"]
                    assert len(non_t) <= 1
                stack.extend(node.children)


def st_admissible_splits(tau):
    """Oracle: the decompositions of ST(tau) with an A-tree prefix and a
    coefficient-rooted single remainder."""
    return [
        (p.subtree, p.remainder[0])
        for p in split_pairs(tau)
        if not p.remainder[0].is_empty
        and isinstance(p.remainder[0].label, GLabel)
        and is_a_tree(p.subtree)
    ]


class TestSplitUniqueness:
    def test_unique_admissible_split_up_to_seven_halves(self):
        # for every tree with coefficient nodes there is exactly one
        # decomposition with an A-tree prefix and a coefficient-rooted
        # single remainder
        for tau in semilinear_trees(1, HalfInt(7)):
            if is_a_tree(tau):
                continue
            found = st_admissible_splits(tau)
            assert len(found) == 1, str(tau)

    @pytest.mark.parametrize("M,cap", [(1, HalfInt(7)), (2, HalfInt(6))],
                             ids=["M1-7/2", "M2-3"])
    def test_a_chain_walk_matches_st_oracle(self, M, cap):
        checked = 0
        for tau in semilinear_trees(M, cap):
            if is_a_tree(tau):
                continue
            [(theta, delta)] = st_admissible_splits(tau)
            got_theta, got_delta = _admissible_split(tau)
            assert (got_theta, got_delta) == (theta, delta), str(tau)
            assert hash(got_theta) == hash(theta)
            assert tree_key(got_theta) == tree_key(theta)
            checked += 1
        assert checked == {1: 963, 2: 2923}[M]

    def test_a_trees_have_no_split(self):
        for ts in ["A", "[t,t]A", "[[t]A]A"]:
            with pytest.raises(NoAdmissibleSplit):
                _admissible_split(parse_tree(ts))


def test_a_node_arity_violation_raises_one_exception(midpoint):
    # the raw A-node [0,1]A has two children outside the time family
    raw = Tree(ALabel(), (Tree(GLabel(0)), Tree(GLabel(1))))
    problem = get_problem("scalar-semilinear")
    for check in (lambda: canonicalize(raw),
                  lambda: validate_tree(raw, SemiLinear(1)),
                  lambda: erk_weight_at(midpoint, raw),
                  lambda: eval_elementary(problem, raw)):
        with pytest.raises(SemiLinearArity):
            check()


class TestBuiltinMidpoint:
    # the closed-form operator expansions, frozen term by term
    FRONT = {"A": "1/2*h", "[t]A": "1/8*h^2", "[A]A": "1/8*h^2",
             "[t,t]A": "1/48*h^3", "[[t]A]A": "1/32*h^3",
             "[A,t]A": "1/32*h^3", "[[A]A]A": "1/48*h^3"}
    FULL = {"A": "h", "[t]A": "1/2*h^2", "[A]A": "1/2*h^2",
            "[t,t]A": "1/6*h^3", "[[t]A]A": "1/4*h^3",
            "[A,t]A": "1/4*h^3", "[[A]A]A": "1/6*h^3"}
    OUT0 = {"A": "1/2*h^2", "[t]A": "3/8*h^3", "[A]A": "1/8*h^3"}
    OUT1 = {"A": "1/2*h*dW1", "[t]A": "3/8*h^2*dW1", "[A]A": "1/8*h^2*dW1"}

    def test_stage_propagator_terms(self, midpoint):
        assert midpoint.Z0[0].empty_weight == E.ONE
        for ts, want in self.FRONT.items():
            assert midpoint.Z0[0].weight(parse_tree(ts)) == parse_expr(want), ts

    def test_solution_propagator_terms(self, midpoint):
        assert midpoint.z0.empty_weight == E.ONE
        for ts, want in self.FULL.items():
            assert midpoint.z0.weight(parse_tree(ts)) == parse_expr(want), ts

    def test_output_weights(self, midpoint):
        assert midpoint.z[0][0].empty_weight == E.H
        assert midpoint.z[1][0].empty_weight == E.dw(1)
        for ts, want in self.OUT0.items():
            assert midpoint.z[0][0].weight(parse_tree(ts)) == parse_expr(want), ts
        for ts, want in self.OUT1.items():
            assert midpoint.z[1][0].weight(parse_tree(ts)) == parse_expr(want), ts

    def test_stage_inner_coefficients_are_constants(self, midpoint):
        assert midpoint.Z[0][0][0].empty_weight == parse_expr("1/2*h")
        assert midpoint.Z[1][0][0].empty_weight == parse_expr("1/2*dW1")
        assert not midpoint.Z[0][0][0].weights
        assert not midpoint.Z[1][0][0].weights

    def test_noncommutative_orderings_are_distinct_keys(self, midpoint):
        left = midpoint.z0.weight(parse_tree("[[t]A]A"))
        right = midpoint.z0.weight(parse_tree("[A,t]A"))
        assert left == right == parse_expr("1/4*h^3")
        assert parse_tree("[[t]A]A") != parse_tree("[A,t]A")

    def test_residuals_and_weights_refuse_orders_past_the_cap(self, midpoint):
        with pytest.raises(CapUnsupported):
            order_residuals(midpoint, HalfInt(8))
        with pytest.raises(CapUnsupported):
            erk_weights(midpoint, HalfInt(8))
        assert len(order_residuals(midpoint, HalfInt(7))) == 970

    def test_builtin_json_is_pinned(self):
        text = method_to_json(builtin_exponential_midpoint())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f5bd510cf7d92b30fe62d8da8cf29055408640fe543412529ea6a8e58d5aeb96")

    def test_resolve_builtin(self):
        assert resolve_method("builtin:midpoint").stages == 1


class TestExpIntegralSeries:
    def test_plain_exponential_of_constant_part(self):
        # over [0, h]: the A-chain of length n carries h^n/n!
        weights = exp_integral_series(Fraction(0), Fraction(1), 3)
        assert weights[parse_tree("A")] == E.H
        assert weights[parse_tree("[A]A")] == parse_expr("1/2*h^2")
        assert weights[parse_tree("[[A]A]A")] == parse_expr("1/6*h^3")

    def test_subinterval_scaling(self):
        weights = exp_integral_series(Fraction(1, 2), Fraction(1), 2)
        assert weights[parse_tree("A")] == parse_expr("1/2*h")
        assert weights[parse_tree("[t]A")] == parse_expr("3/8*h^2")

    @pytest.mark.parametrize("lo, hi", [(Fraction(0), Fraction(1, 2)),
                                        (Fraction(1, 2), Fraction(1)),
                                        (Fraction(0), Fraction(1)),
                                        (Fraction(1, 3), Fraction(3, 4))])
    @pytest.mark.parametrize("order", range(7))
    def test_closed_form_equals_power_series(self, lo, hi, order):
        assert exp_integral_series(lo, hi, order) == _power_loop_exp_series(lo, hi, order)


def _power_loop_exp_series(lo, hi, order):
    """Oracle: exp of the letter sum by explicit powers X^n / n!, each word's
    coefficient accumulated over the powers and merged per chain."""
    letters = {(k,): Fraction(hi ** (k + 1) - lo ** (k + 1), 1) / math.factorial(k + 1)
               for k in range(order)}

    def word_order(word):
        return sum(word) + len(word)

    out = {(): Fraction(1)}
    current = {(): Fraction(1)}
    n = 0
    while True:
        n += 1
        nxt = {}
        for w1, c1 in current.items():
            for w2, c2 in letters.items():
                w = w1 + w2
                if word_order(w) <= order:
                    nxt[w] = nxt.get(w, Fraction(0)) + c1 * c2
        if not nxt:
            break
        current = nxt
        for w, c in nxt.items():
            out[w] = out.get(w, Fraction(0)) + c * Fraction(1, math.factorial(n))
    weights = {}
    for word, coeff in out.items():
        if not word:
            continue
        tree = None
        for k in reversed(word):
            children = ((tree,) if tree is not None else ()) + (T_LEAF,) * k
            tree = canonicalize(Tree(ALabel(), children))
        weights[tree] = weights.get(tree, E.ZERO) + E.h_power(word_order(word), coeff)
    return weights


class TestWeightRecursion:
    def test_empty_and_time_leaf(self, midpoint):
        solution, stages = erk_weights(midpoint, HalfInt(2))
        assert solution.empty_weight == E.ONE
        assert stages[0].empty_weight == E.ONE
        assert solution.weight(parse_tree("t")) == E.H
        assert stages[0].weight(parse_tree("t")) == parse_expr("1/2*h")

    def test_stage_and_solution_base_cases(self, midpoint):
        solution, stages = erk_weights(midpoint, HalfInt(2))
        assert stages[0].weight(parse_tree("0")) == parse_expr("1/2*h")
        assert stages[0].weight(parse_tree("1")) == parse_expr("1/2*dW1")
        assert solution.weight(parse_tree("0")) == E.H
        assert solution.weight(parse_tree("1")) == E.dw(1)

    def test_weight_of_reference_tree(self, midpoint):
        got = erk_weight_at(midpoint, parse_tree(EX4))
        # 3 h^6 dW / 768 in lowest terms
        assert got == parse_expr("1/256*h^6*dW1")

    def test_weight_of_the_empty_tree_is_one(self, midpoint):
        for method in (midpoint, method_from_json(method_to_json(midpoint))):
            assert erk_weight_at(method, EMPTY) == E.ONE

    def test_a_tree_weights_pass_through(self, midpoint):
        solution, stages = erk_weights(midpoint, HalfInt(6))
        assert solution.weight(parse_tree("[t,t]A")) == parse_expr("1/6*h^3")
        assert stages[0].weight(parse_tree("[t,t]A")) == parse_expr("1/48*h^3")

    def test_no_admissible_split_unreachable_on_members(self, midpoint):
        for tau in semilinear_trees(1, HalfInt(6)):
            erk_weight_at(midpoint, tau)  # must not raise

    def test_point_queries_stop_at_the_coefficient_cap(self, midpoint):
        # of the rho-4 trees, exactly the 8 A-trees look up a coefficient
        # above the 7/2 cap of the built-in series; a truncated lookup would
        # read 0 there and give [t,[t]A]A the residual 1/8*h^4
        raised = []
        for tau in semilinear_trees(1, HalfInt(8)):
            if rho(tau) != HalfInt(8):
                continue
            try:
                erk_weight_at(midpoint, tau)
            except CapUnsupported:
                raised.append(tau)
        assert len(raised) == 8
        assert all(is_a_tree(tau) for tau in raised)
        for ts in ["[t,[t]A]A", "[t,t,t]A"]:
            assert parse_tree(ts) in raised
            with pytest.raises(CapUnsupported):
                residual_at(midpoint, parse_tree(ts))


class TestResiduals:
    def test_zero_up_to_order_one(self, midpoint):
        for res in order_residuals(midpoint, HalfInt(2)):
            assert residual_is_pathwise_zero(res.residual,
                                             midpoint.interpretation), \
                str(res.tree)

    def test_symbolic_zero_on_single_nodes(self, midpoint):
        for ts in ["1", "0", "A"]:
            assert residual_at(midpoint, parse_tree(ts)).residual.is_zero

    def test_stochastic_chain_is_pathwise_zero_only(self, midpoint):
        res = residual_at(midpoint, parse_tree("[1]1"))
        assert not res.residual.is_zero
        assert residual_is_pathwise_zero(res.residual, "stratonovich")
        assert not residual_is_pathwise_zero(res.residual, "ito")

    def test_example_tree_residual_nonzero(self, midpoint):
        res = residual_at(midpoint, parse_tree(EX4))
        assert res.tree_order == HalfInt(13)
        assert not res.residual.is_zero
        assert not residual_is_pathwise_zero(res.residual, "stratonovich")

    def test_residuals_appear_above_order_one(self, midpoint):
        rows = order_residuals(midpoint, HalfInt(3))
        some_nonzero = [r for r in rows if r.tree_order == HalfInt(3)
                        and not residual_is_pathwise_zero(
                            r.residual, midpoint.interpretation)]
        assert some_nonzero

    def test_exact_restriction_method_has_zero_a_tree_residuals(self, midpoint):
        # a method whose state propagators carry the exact-flow weights on
        # the A-trees satisfies those order conditions identically
        from sbseries.series import BSeries, exact_weight
        from sbseries.trees import SemiLinear
        model = SemiLinear(1)
        exact_a = {t: exact_weight(t)
                   for t in semilinear_trees(1, HalfInt(6)) if is_a_tree(t)}
        method = builtin_exponential_midpoint()
        method.z0 = BSeries(model, method.cap, exact_a, E.ONE)
        for res in order_residuals(method, HalfInt(6)):
            if is_a_tree(res.tree):
                assert res.residual.is_zero, str(res.tree)

    def test_second_moment_of_order_one_residual_is_machine_zero(self, midpoint):
        # Monte-Carlo second moment of a residual at order <= 1 sits at
        # machine level under the method's calculus
        from sbseries.paths import mc_moments
        res = residual_at(midpoint, parse_tree("[1]1")).residual
        stats = mc_moments(res * res, 0.5, 64, 200, "stratonovich", seed=8)
        assert abs(stats.mean) < 1e-15


class TestExponentialEuler:
    def test_residual_vanishes_at_order_one_half(self, euler):
        res = residual_at(euler, parse_tree("1"))
        assert res.tree_order == HalfInt(1)
        assert res.residual.is_zero

    def test_residuals_vanish_on_single_nodes_of_order_one(self, euler):
        for ts in ["A", "0"]:
            res = residual_at(euler, parse_tree(ts))
            assert res.tree_order == HalfInt(2)
            assert res.residual.is_zero, ts

    def test_stochastic_chain_residual_is_the_iterated_integral(self, euler):
        res = residual_at(euler, parse_tree("[1]1"))
        assert res.residual == parse_expr("Int1[dW1]")


def _probe_oracle(residual: E.WeightExpr, interp: str) -> bool:
    """The probe decision with every probe path drawn again on each call."""
    if residual.is_zero:
        return True
    colors = max(residual.colors(), default=0)
    for k in range(serk._PROBE_PATHS):
        path = sample_path(serk._PROBE_H, serk._PROBE_STEPS, max(colors, 1),
                           (serk._PROBE_SEED, k))
        if abs(eval_weight(residual, path, interp)) > serk._PROBE_TOL:
            return False
    return True


class TestProbePaths:
    @pytest.mark.parametrize("interp, certified", [("stratonovich", 1), ("ito", 0)])
    def test_decisions_equal_the_sampling_oracle(self, midpoint, interp, certified):
        # one residual per call, and all of them in one call
        rows = order_residuals(midpoint, HalfInt(7))
        assert len(rows) == 970
        got = [residual_is_pathwise_zero(r.residual, interp) for r in rows]
        assert got == [_probe_oracle(r.residual, interp) for r in rows]
        assert residuals_are_pathwise_zero([r.residual for r in rows], interp) == got
        # 10 symbolic zeros; under Stratonovich the residual of [1]1,
        # Int1[dW1] - 1/2*dW1^2, is certified as well, under Ito it is not
        assert sum(r.residual.is_zero for r in rows) == 10
        assert sum(got) == 10 + certified

    @pytest.mark.parametrize("interp, certified", [
        ("stratonovich", [True, True, True, False, True]),
        ("ito", [False, False, False, False, True]),
    ])
    def test_mixed_colors_equal_the_sampling_oracle(self, interp, certified):
        # one- and two-color residuals in one call are each read on the
        # paths of their own color count
        residuals = [parse_expr(text) for text in [
            "Int1[dW1] - 1/2*dW1^2", "Int2[dW2] - 1/2*dW2^2",
            "Int1[dW2] + Int2[dW1] - dW1*dW2", "dW2"]] + [E.ZERO]
        got = residuals_are_pathwise_zero(residuals, interp)
        assert got == [_probe_oracle(r, interp) for r in residuals] == certified
        assert [residual_is_pathwise_zero(r, interp) for r in residuals] == certified

    def test_cached_paths_are_read_only(self):
        paths = serk._probe_paths(1)
        assert len(paths) == serk._PROBE_PATHS
        assert serk._probe_paths(1) is paths
        for path in paths:
            with pytest.raises(ValueError):
                path.values[1, 3] = 0.0
            with pytest.raises(ValueError):
                path.times[:] = 0.0

    def test_cached_paths_are_the_sampled_paths(self):
        for k, path in enumerate(serk._probe_paths(2)):
            fresh = sample_path(serk._PROBE_H, serk._PROBE_STEPS, 2,
                                (serk._PROBE_SEED, k))
            assert path.values.tobytes() == fresh.values.tobytes()

    def test_residuals_command_samples_each_probe_path_once(self, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_path(*args, **kwargs)

        memo.clear()
        monkeypatch.setattr(sbseries.paths, "sample_path", counted)
        assert cli.main(["erk", "residuals", "--method", "builtin:midpoint",
                         "--cap", "7/2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 971
        assert len(calls) == serk._PROBE_PATHS == 8


class TestMethodJSON:
    def test_round_trip(self, midpoint):
        text = method_to_json(midpoint)
        back = method_from_json(text)
        assert back.stages == midpoint.stages
        assert back.c == midpoint.c
        assert back.cap == midpoint.cap
        assert back.z0.weights == midpoint.z0.weights
        assert back.Z0[0].weights == midpoint.Z0[0].weights
        assert back.z[1][0].weights == midpoint.z[1][0].weights
        assert back.z[1][0].empty_weight == midpoint.z[1][0].empty_weight

    def test_round_trip_preserves_weights_at_example(self, midpoint, tmp_path):
        path = tmp_path / "midpoint.json"
        path.write_text(method_to_json(midpoint), encoding="utf-8")
        method = resolve_method(str(path))
        assert erk_weight_at(method, parse_tree(EX4)) == \
            parse_expr("1/256*h^6*dW1")

    def test_interpretation_is_checked_and_kept_as_spelled(self, midpoint):
        data = json.loads(method_to_json(midpoint))
        data["interpretation"] = "Strat"
        text = json.dumps(data, indent=2, sort_keys=True)
        assert method_from_json(text).interpretation == "Strat"
        assert method_to_json(method_from_json(text)) == text
        data["interpretation"] = "bogus"
        with pytest.raises(ValueError, match="unknown interpretation 'bogus'"):
            method_from_json(json.dumps(data))

    def test_non_string_interpretation_is_a_value_error(self, midpoint):
        with pytest.raises(ValueError, match="^unknown interpretation None$"):
            dataclasses.replace(midpoint, interpretation=None)
        data = json.loads(method_to_json(midpoint))
        data["interpretation"] = None
        with pytest.raises(ValueError, match="^unknown interpretation None$"):
            method_from_json(json.dumps(data))

    @pytest.mark.parametrize("field", ["Z0", "cap", "z"])
    def test_missing_field_is_named(self, midpoint, field):
        data = json.loads(method_to_json(midpoint))
        data.pop(field)
        with pytest.raises(ValueError,
                           match=f"^malformed method file: missing field '{field}'$"):
            method_from_json(json.dumps(data))

    @pytest.mark.parametrize("edit, what", [
        (lambda d: d.update(stages="x"), "field 'stages'"),
        (lambda d: d.update(colors="x"), "field 'colors'"),
        (lambda d: d["Z"].update(x=d["Z"].pop("1")), "a color key of field 'Z'"),
        (lambda d: d["z"].update(x=d["z"].pop("1")), "a color key of field 'z'"),
    ], ids=["stages", "colors", "Z", "z"])
    def test_non_integer_field_is_named(self, midpoint, edit, what):
        data = json.loads(method_to_json(midpoint))
        edit(data)
        with pytest.raises(ValueError, match=re.escape(
                f"malformed method file: {what} is not an integer: 'x'")):
            method_from_json(json.dumps(data))

    def test_color_count_is_checked_before_any_series(self):
        # reading a series interns one label per color of the model.  A
        # fresh interpreter has interned no label of the 23 colors, which no
        # other test uses, so an interned label shows; without the check the
        # method itself raises the same message
        out = run_python(
            "import json\n"
            "from sbseries.serk import builtin_exponential_midpoint, method_from_json, "
            "method_to_json\n"
            "from sbseries.trees import GLabel\n"
            "data = json.loads(method_to_json(builtin_exponential_midpoint()))\n"
            "data['colors'] = 23\n"
            "interned = dict(GLabel._interned)\n"
            "try:\n"
            "    method_from_json(json.dumps(data))\n"
            "except ValueError as err:\n"
            "    print(err)\n"
            "print(GLabel._interned == interned)\n")
        assert out == "Z and z must be keyed by the colors 0..23\nTrue\n"

    def test_non_string_name_is_a_value_error(self, midpoint):
        with pytest.raises(ValueError, match=r"^a method name must be a string, got \[1\]$"):
            dataclasses.replace(midpoint, name=[1])
        data = json.loads(method_to_json(midpoint))
        data["name"] = [1]
        with pytest.raises(ValueError, match=r"^a method name must be a string, got \[1\]$"):
            method_from_json(json.dumps(data))


@pytest.mark.parametrize("call, error, message", [
    (lambda m: dataclasses.replace(m, Z={0: m.Z[0]}), ValueError,
     "Z and z must be keyed by the colors 0..1"),
    (lambda m: dataclasses.replace(m, Z={**m.Z, 1: ()}), ValueError,
     "Z[1] must be 1 rows of 1 series"),
    (lambda m: dataclasses.replace(m, z={**m.z, 1: ()}), ValueError,
     "z[1] must hold 1 series"),
    (lambda m: dataclasses.replace(m, Z0=(dataclasses.replace(m.Z0[0], empty_weight=E.ZERO),)),
     ValueError, "Z0[0] must have empty weight 1"),
    (lambda m: dataclasses.replace(m, z0=dataclasses.replace(m.z0, empty_weight=E.ZERO)),
     ValueError, "z0 must have empty weight 1"),
    (lambda m: dataclasses.replace(m, z0=dataclasses.replace(
        m.z0, weights={parse_tree("[1]A"): E.H})),
     ValueError, "coefficient key [1]A is not an A-tree"),
    (lambda m: erk_weight_at(m, parse_tree("[1]g(1,1,0)")), NoAdmissibleSplit,
     "no A-tree/coefficient split for [1]g(1,1,0)"),
], ids=["color-keys", "Z-shape", "z-length", "Z0-empty-weight", "z0-empty-weight",
        "coefficient-key", "no-admissible-split"])
def test_method_error_class_and_message(midpoint, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(midpoint)
    assert type(info.value) is error
