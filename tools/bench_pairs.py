"""Run paired benchmark runs of a parent revision and of the working tree.

Usage::

    python tools/bench_pairs.py --tag pr21 --parent HEAD \\
        --workload tree-census:10:2101 --workload order-conditions:4:2121 \\
        --workload pathwise:4:2131 --trace tree-census:2141

Each ``--workload NAME:PAIRS:SEED`` runs ``PAIRS`` pairs of
``python3 bench/run.py --workload NAME --seed S --seconds T``, one per seed
``S = SEED, SEED + 1, ...``, with ``T`` the ``run_seconds`` of
``BENCHMARK.json``; the parent runs first in the 1st, 3rd, ...
pair and second in the others, because whichever side runs second in a pair
can read slower.  Each ``--trace NAME:SEED`` adds one ``--trace 1`` run per
side at that seed, parent first.  Runs go one at a time.

The parent revision's ``git archive`` is extracted into a temporary
directory, which is removed at the end, so nothing is written under ``.git``;
the other side is the checkout this tool lives in.  Each
side runs its own unchanged ``bench/run.py``, and ``src/sbseries/__pycache__``
is deleted in both checkouts before every run, so no stale bytecode is read.

The result is written to ``BENCH_<tag>.json`` with the keys
``what``, ``command``, ``seeds``, ``summary``, ``runs`` and ``traced_runs``.
For each workload and end-to-end metric of ``BENCHMARK.json`` the summary
holds both sides' medians and ``statistics.quantiles(n=4)`` quartiles, the
number of pairs the change wins, the parent's interquartile range and the
relative change of the median; ``all_correct`` says every run was correct.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload {workload} --seed {seed} --seconds {seconds:g}"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_run(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last two output lines,
    the record and the result."""
    shutil.rmtree(checkout / "src" / "sbseries" / "__pycache__", ignore_errors=True)
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    print(f"{checkout.name} {workload} {seed}: {lines[-1][:200]}", file=sys.stderr,
          flush=True)
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def metric_summary(pairs: list[tuple[float, float]], higher_is_better: bool) -> dict:
    """Medians, quartiles, wins, parent IQR and relative change of the
    (parent, change) values of one metric."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    parent_q = statistics.quantiles(parent, n=4)
    change_q = statistics.quantiles(change, n=4)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    wins = sum(c > p if higher_is_better else c < p for p, c in pairs)
    return {"parent_median": parent_median,
            "parent_quartiles": [parent_q[0], parent_q[2]],
            "change_median": change_median,
            "change_quartiles": [change_q[0], change_q[2]],
            "change_wins": wins,
            "parent_iqr": parent_q[2] - parent_q[0],
            "relative": change_median / parent_median - 1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of each workload's pairs in ``runs`` (entries with
    ``workload``, ``seed``, ``side`` and ``result``)."""
    by_pair: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pair = by_pair.setdefault(run["workload"], {}).setdefault(run["seed"], {})
        pair[run["side"]] = run["result"]
    summary = {}
    for workload, pairs in by_pair.items():
        results = [(p["parent"], p["change"]) for _, p in sorted(pairs.items())]
        out: dict = {"pairs": len(results)}
        for metric in metrics:
            name = metric["name"]
            values = [(parent["metrics"][name]["value"], change["metrics"][name]["value"])
                      for parent, change in results]
            out[name] = metric_summary(values, metric["better"] == "higher")
        out["all_correct"] = all(r["correct"] for pair in results for r in pair)
        summary[workload] = out
    return summary


def spec(text: str, fields: int) -> tuple:
    parts = text.split(":")
    if len(parts) != fields:
        raise argparse.ArgumentTypeError(f"expected {fields} ':'-separated fields: {text!r}")
    return (parts[0], *map(int, parts[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--workload", action="append", required=True,
                        type=lambda s: spec(s, 3), metavar="NAME:PAIRS:SEED")
    parser.add_argument("--trace", action="append", default=[],
                        type=lambda s: spec(s, 2), metavar="NAME:SEED")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    parent_sha = git("rev-parse", "--short", args.parent)
    runs: list[dict] = []
    traced: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir = Path(tmp) / "parent"
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent_dir, filter="data")
        sides = {"parent": parent_dir, "change": ROOT}
        for workload, pairs, first_seed in args.workload:
            for i in range(pairs):
                seed = first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order, 1):
                    run = bench_run(sides[side], workload, seed, seconds, 0)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "runs_in_pair": position, **run})
        for workload, seed in args.trace:
            for side in ("parent", "change"):
                run = bench_run(sides[side], workload, seed, seconds, 1)
                command = COMMAND.format(workload=workload, seed=seed,
                                         seconds=seconds) + " --trace 1"
                traced.append({**run, "workload": workload, "seed": seed,
                               "side": side, "command": command})

    trace_note = "; ".join(f"one --trace 1 {w} run per side at seed {s}, parent first"
                           for w, s in args.trace)
    out = {
        "what": (f"Paired benchmark runs of the parent commit {parent_sha} and of the "
                 "commit that adds this file, run in alternating order (the parent ran "
                 "first at the 1st, 3rd, ... seed of each workload), one run at a time on "
                 f"one {os.cpu_count()}-vCPU host, Python {platform.python_version()}; "
                 "quartiles by statistics.quantiles(n=4)"
                 + (f"; traced_runs: {trace_note}" if trace_note else "")),
        "command": COMMAND.format(workload="<workload>", seed="<seed>",
                                  seconds=seconds),
        "seeds": {w: [s, s + n - 1] for w, n, s in args.workload},
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
        "traced_runs": traced,
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
