"""The traced run of every workload counts exactly the known cardinalities:
trees enumerated and parsed, decomposition pairs, expression terms,
composed weights, residual rows, paths and steps.  The numbers were measured
at the commit that introduced the benchmark; a change that alters one of
them changes what the workload computes.

    PYTHONPATH=src python -m pytest bench/test_bench_counts.py
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).with_name("run.py"))
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

CARDINALITIES = {
    # 970 + 6,161 + 970 + 1,643 trees; 8,204 + 13,179 ST pairs over the
    # SemiLinear(1) and Langevin trees at 7/2; 971 + 1,643 composed weights;
    # 10 symbolic zero residuals and 1 certified by the probe
    "order-conditions": {
        "trees.enumerated": 9744, "forest_ops.st_pairs": 21383,
        "expr.exact_terms": 9745, "series.compose_weights": 2614,
        "series.compose_terms": 17687, "series.derivative_product_weights": 971,
        "serk.residual_rows": 970, "serk.symbolic_zero": 10,
        "serk.probe_calls": 960, "serk.probe_certified": 1,
    },
    "tree-census": {"trees.enumerated": 40394, "trees.parsed": 6000},
    # 4,000 + 800 + 2 * 250 + 2 * 40 paths
    "pathwise": {
        "trees.enumerated": 32, "expr.exact_terms": 33,
        "paths.paths_sampled": 5380, "paths.normals_drawn": 21713920,
        "paths.quadrature_points": 52608000, "elementary.eval_bseries_calls": 80,
        "sim.reference_calls": 80, "sim.coarse_steps": 248000,
        "sim.fine_steps": 2053120,
    },
}


@pytest.mark.parametrize("workload", sorted(CARDINALITIES))
def test_traced_counts(workload):
    prepared, _, error = bench_run.spawn("prepare", {"workload": workload, "seed": 1})
    assert error is None, error
    payload = {"workload": workload, "inputs": prepared["inputs"], "traced": True}
    result, _, error = bench_run.spawn("run", payload)
    assert error is None, error
    assert result["failures"] == []
    assert result["counts"] == CARDINALITIES[workload]
