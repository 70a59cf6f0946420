"""The import surface: the package and the symbolic commands load neither
numpy nor scipy, and every exported name resolves on first access.

Each import check runs in a fresh interpreter, as a CLI call does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbseries

SRC = str(Path(sbseries.__file__).resolve().parents[1])

# the 53 exported names; resolving them lazily must keep the same set
EXPORTED = set("""
    BSeries ConvergenceReport ERKMethodSpec GeneralPartitioned HalfInt MCStats
    NonAutonomous OrderResidual PathGrid SDEProblem SemiLinear SubtreePair Tree
    TreeModel WeightExpr alpha builtin_exponential_midpoint canonicalize compose
    derivative_product enumerate_trees erk_weight_at erk_weights eval_bseries
    eval_elementary eval_weight exact_solution_series exact_weight format_expr
    format_tree function_series gamma get_problem identity_weights integrate_erk
    langevin_model mc_moments method_from_json method_to_json ms_order_estimate
    order_residuals parse_expr parse_tree problem_names reference_solution
    residual_at residual_is_pathwise_zero rho sample_path semilinear_trees
    split_pairs subtree_pairs __version__
""".split())

HEAVY = "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"


def run_python(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that finds this
    checkout's package; a failure of the code fails the test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_submodule():
    out = run_python("import sys, sbseries\n"
                     "print(sorted(m for m in sys.modules if m.startswith('sbseries.')))")
    assert out == "[]\n"


def test_cli_import_loads_neither_numpy_nor_scipy():
    assert run_python(f"import sys, sbseries.cli\n{HEAVY}") == "[]\n"


# CLI calls run one after another in one interpreter, each paired with the
# heavy modules loaded once it (and every call before it) has run
COMMANDS = [
    (["trees", "enum", "--model", "semilinear", "--cap", "2"], []),
    (["trees", "info", "[[1]1,t]A"], []),
    (["trees", "split", "[1]1"], []),
    (["split", "--full", "[[1,1]0,[1,1]0]0"], []),
    (["series", "exact", "--cap", "2"], []),
    (["erk", "residuals", "--no-probe", "--method", "builtin:midpoint", "--cap", "1"], []),
    (["weights", "mc", "--expr", "dW1^2", "--h", "0.5", "--N", "8", "--paths", "4",
      "--seed", "1"], ["numpy"]),
]


def test_symbolic_commands_load_neither_numpy_nor_scipy_and_weights_no_scipy():
    out = run_python("import io, sys\nfrom sbseries import cli\n"
                     f"for argv in {[argv for argv, _ in COMMANDS]!r}:\n"
                     "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
                     f"    {HEAVY}\n")
    assert out.splitlines() == [str(heavy) for _, heavy in COMMANDS]


def test_every_exported_name_imports_in_a_fresh_interpreter():
    out = run_python("import sbseries\n"
                     "for name in sbseries.__all__:\n"
                     "    exec(f'from sbseries import {name}')\n"
                     "print(len(sbseries.__all__))")
    assert out == f"{len(EXPORTED)}\n"


def test_exported_names_are_unchanged():
    assert set(sbseries.__all__) == EXPORTED
    assert len(sbseries.__all__) == 53


def test_dir_lists_every_exported_name():
    assert EXPORTED <= set(dir(sbseries))


def test_a_resolved_name_is_the_module_attribute_and_is_cached():
    from sbseries import trees

    assert sbseries.parse_tree is trees.parse_tree
    assert vars(sbseries)["parse_tree"] is trees.parse_tree


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sbseries.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from sbseries import no_such_name  # noqa: F401


def test_simulation_error_is_one_class():
    from sbseries import sim, trees

    assert sim.SimulationError is trees.SimulationError
    assert issubclass(sim.StageDivergence, trees.SimulationError)
