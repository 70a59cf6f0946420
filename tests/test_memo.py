"""The memo registry: every process-global cache is listed in
``sbseries.memo.CACHES``, and ``memo.clear()`` empties them all while the
label and tree intern tables keep their objects.

Checks of which caches exist run in a fresh interpreter, where no test
has touched the registry.
"""

from test_imports import run_python

from sbseries import expr as E
from sbseries import memo, serk
from sbseries.forest_ops import subtree_pairs
from sbseries.series import exact_weight
from sbseries.trees import GLabel, SemiLinear, parse_tree

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
    subtree_pairs(tree)
    E.format_expr(exact_weight(tree))
    serk._probe_paths(1)
    assert all(c.cache_info().currsize for c in memo.CACHES)
    memo.clear()
    assert [c.cache_info().currsize for c in memo.CACHES] == [0] * len(memo.CACHES)
    assert GLabel(1) is label
    assert parse_tree("[[1]0,1]1", SemiLinear(1)) is tree
