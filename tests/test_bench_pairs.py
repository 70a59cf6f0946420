"""tools/bench_pairs.py: its summary of committed paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# BENCH_pr12.json is left out: it predates the ``*_quartiles`` and
# ``all_correct`` summary fields, and its ``parent_iqr`` takes the quartiles
# by the inclusive rule, not ``statistics.quantiles(n=4)``'s default
@pytest.mark.parametrize("tag", ["pr13", "pr14", "pr16", "pr19", "pr21", "pr22", "pr23", "pr24",
                                 "pr25", "pr26", "pr27", "pr28", "pr29"])
def test_summary_reproduces_a_committed_record(tag):
    record = json.loads((ROOT / f"BENCH_{tag}.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert load_tool().summarize(record["runs"], metrics) == record["summary"]
