"""The memo registry: every process-global cache is listed in
``sbseries.memo.CACHES``, and ``memo.clear()`` empties them all while the
identity tables of labels, trees, monomials and atoms keep their objects.
The collector pause: ``memo.collector_paused()`` and the calls that use it
restore the caller's collector state, and no call of the package leaves
cyclic garbage, which only the paused collector could free.

Checks of which caches exist run in a fresh interpreter, where no test
has touched the registry.
"""

import gc
import sys

import pytest
from test_imports import run_python

from sbseries import expr as E
from sbseries import memo, serk
from sbseries.elementary import eval_bseries, get_problem
from sbseries.forest_ops import subtree_pairs
from sbseries.paths import mc_moments, sample_path
from sbseries.series import (
    BSeries,
    compose,
    derivative_product,
    exact_solution_series,
    exact_weight,
)
from sbseries.sim import ms_order_estimate
from sbseries.trees import (
    GLabel,
    HalfInt,
    SemiLinear,
    enumerate_trees,
    format_tree,
    langevin_model,
    parse_tree,
)

SEVEN = ["expr.mono_mul", "expr._integral_mono", "expr._mono_text",
         "forest_ops._st_table", "series.exact_weight", "serk._probe_paths",
         "trees.model_labels"]


def test_import_loads_no_other_module():
    out = run_python("import sys, sbseries.memo\n"
                     "print(sorted(m for m in sys.modules if m.startswith('sbseries.')))")
    assert out == "['sbseries.memo']\n"


def test_registry_holds_the_seven_caches():
    out = run_python("from sbseries import expr, forest_ops, memo, series, serk, trees\n"
                     "for c in memo.CACHES:\n"
                     "    print(c.__module__.split('.')[-1] + '.' + c.__qualname__)\n")
    assert sorted(out.split()) == sorted(SEVEN)


def test_every_cache_of_every_module_is_registered():
    # a cache declared with a bare lru_cache is missing from the registry
    out = run_python("import importlib, pkgutil, sys, sbseries\n"
                     "from sbseries import memo\n"
                     "for info in pkgutil.iter_modules(sbseries.__path__):\n"
                     "    importlib.import_module('sbseries.' + info.name)\n"
                     "for name, module in sorted(sys.modules.items()):\n"
                     "    if name.startswith('sbseries.'):\n"
                     "        for attr, value in sorted(vars(module).items()):\n"
                     "            if hasattr(value, 'cache_clear'):\n"
                     "                ok = any(value is c for c in memo.CACHES)\n"
                     "                print(name, attr, ok)\n"
                     "print(len(memo.CACHES))\n")
    *rows, count = out.splitlines()
    assert count == "7"
    assert rows and all(row.endswith(" True") for row in rows), rows


def test_clear_empties_every_cache_and_keeps_interned_labels():
    label = GLabel(1)
    tree = parse_tree("[[1]0,1]1", SemiLinear(1))
    atom = E.IntAtom(1, E.Mono(hpow=2))
    before = E.parse_expr("h^2 + Int1[s^2]")
    subtree_pairs(tree)
    E.format_expr(exact_weight(tree))
    serk._probe_paths(1)
    assert all(c.cache_info().currsize for c in memo.CACHES)
    memo.clear()
    assert [c.cache_info().currsize for c in memo.CACHES] == [0] * len(memo.CACHES)
    assert GLabel(1) is label
    assert parse_tree("[[1]0,1]1", SemiLinear(1)) is tree
    # monomials and atoms keep their identity, so an expression built after
    # the clear merges with an equal one built before it
    assert E.Mono(hpow=1) is E.H.terms[0][1]
    assert E.IntAtom(1, E.Mono(hpow=2)) is atom
    assert len((E.H + E.parse_expr("h")).terms) == 1
    assert (before - E.parse_expr("Int1[s^2] + h*h")).is_zero


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The collector turned on or off for the test, and the caller's state
    restored afterwards."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if enabled else gc.disable)()


def series_operations(model, cap=HalfInt(7)):
    phi = exact_solution_series(model, cap)
    compose(phi, phi)
    derivative_product(BSeries(model, cap, dict(phi.weights), E.ZERO), phi)


class TestCollectorPaused:
    def test_series_operations_restore_the_collector_state(self, collector):
        series_operations(SemiLinear(1), HalfInt(3))
        assert gc.isenabled() is collector

    def test_state_is_restored_when_the_body_raises(self, collector):
        with pytest.raises(KeyError):
            with memo.collector_paused():
                assert not gc.isenabled()
                raise KeyError("body")
        assert gc.isenabled() is collector

    def test_order_residuals_runs_no_collection(self, collector):
        # from cold caches the 7/2 residuals ran dozens of collections
        # before the call paused the collector.  What it allocates while
        # paused still counts toward the first threshold, so one young
        # collection may start as the collector comes back on, after the
        # body has returned: only collections with the body's frame on the
        # stack count
        method, cap = serk.builtin_exponential_midpoint(), HalfInt(7)
        body = getattr(serk.order_residuals, "__wrapped__", serk.order_residuals).__code__
        memo.clear()
        inside = []

        def count(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not body:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                inside.append(info["generation"])

        gc.callbacks.append(count)
        try:
            serk.order_residuals(method, cap)
        finally:
            gc.callbacks.remove(count)
        assert inside == []
        assert gc.isenabled() is collector

    def test_nested_use_stays_paused_until_the_outer_exits(self, collector):
        with memo.collector_paused():
            with memo.collector_paused():
                pass
            assert not gc.isenabled()
        assert gc.isenabled() is collector


def midpoint_residuals():
    for row in serk.order_residuals(serk.builtin_exponential_midpoint(), HalfInt(7)):
        if not row.residual.is_zero:
            serk.residual_is_pathwise_zero(row.residual)


def tree_round_trip():
    model = SemiLinear(1)
    for tree in enumerate_trees(model, HalfInt(5)):
        assert parse_tree(format_tree(tree), model) is tree


def series_at_cap_two():
    problem = get_problem("scalar-semilinear")
    eval_bseries(problem, exact_solution_series(SemiLinear(1), HalfInt(2)), problem.x0,
                 0.25, sample_path(0.25, 32, 1, 2))


NO_CYCLE_CALLS = {
    "exponential_midpoint": serk.builtin_exponential_midpoint,
    "order_residuals": midpoint_residuals,
    "series_semilinear": lambda: series_operations(SemiLinear(1)),
    "series_langevin": lambda: series_operations(langevin_model()),
    "eval_bseries": series_at_cap_two,
    "mc_moments": lambda: mc_moments(E.parse_expr("Int1[Int0[dW1]]*dW1"), 0.25, 16, 40,
                                     seed=3),
    "ms_order_estimate": lambda: ms_order_estimate(
        get_problem("langevin"), [2 ** -2, 2 ** -3], 4, 1.0, 5, n_fine=64),
    "trees": tree_round_trip,
}


@pytest.mark.parametrize("name", list(NO_CYCLE_CALLS))
def test_call_leaves_no_cyclic_garbage(name):
    # the first call of a probe imports numpy and scipy, whose import
    # leaves cyclic garbage of its own
    call = NO_CYCLE_CALLS[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
