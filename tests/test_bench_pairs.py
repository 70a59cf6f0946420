"""tools/bench_pairs.py: its summary of committed paired runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reproduces_a_committed_record():
    record = json.loads((ROOT / "BENCH_pr19.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert load_tool().summarize(record["runs"], metrics) == record["summary"]
