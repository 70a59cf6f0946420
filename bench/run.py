"""Benchmark of sbseries: three workloads, end-to-end metrics and a traced
per-layer run.

    python3 bench/run.py --workload order-conditions --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38

Run from the repository root; the program is imported from ``src``.  Every
repetition of a workload's job list is a fresh single-threaded Python
process (``bench/worker.py``) with BLAS/OpenMP pinned to one thread, so the
global memo caches start cold, as they do for every CLI call.  Inside it the
jobs run back to back, one client in a closed loop.  Repetitions are
spawned one after another, never two at once, until ``--seconds`` have
passed: on a 2-vCPU VM a second concurrent repetition slows the first by
10-15%, by an amount that depends on what the two are doing at the time.

Every time is scaled to a nominal host speed.  On a shared VM the speed of
CPU-bound Python drifts by up to 1.6x over minutes (the same for wall and
CPU time, and on both vCPUs; the VM exposes no cycle counters), so raw
medians of ten runs spread by 20-40% between their quartiles.  Each
process therefore also times a fixed pure-Python reference loop, before
each job and after the last one, and its times are multiplied by
``NOMINAL_REFERENCE_S`` over the median of those reference times.  The
reference loop is not program code, so a change to the program moves the
scaled times as it moves the raw ones.  The raw times are printed beside
the scaled ones and every repetition's raw time and reference time are in
the record line.  The host-speed probe of the record line (a longer loop
and a numpy kernel, run once per run) stays diagnostic.

End-to-end metrics (``--trace 0``), each a median over the run:

- ``wall_s``: wall time of the job list, set-up excluded, scaled, median
  over the repetitions;
- ``items_per_s``: the workload's fixed item count over ``wall_s``;
- ``setup_s``: interpreter start until ``import sbseries.cli`` returns,
  scaled, median over every process the run started;
- ``peak_rss_mb``: ``ru_maxrss`` of the workload process, median.

``fail_share`` (jobs that raised, exited non-zero or failed their output
check, over jobs attempted) is printed with them; the last line carries the
same counts as ``attempted`` and ``failed``.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics: span times (median over the traced repetitions) and
counts of the calls into each module, the CLI commands' own times (median
over the untraced ones), and the tracing overhead (median traced minus
median untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment, the host-speed probe, the per-repetition data and
the digests of the stochastic outputs, so two commits can be compared for
bit identity on the same seed.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")

# Items each workload completes per repetition, fixed by its inputs:
# tree weights computed, trees written or parsed, paths simulated.
ITEMS = {
    "order-conditions": 970 + 6161 + 971 + 1643 + 971,
    "tree-census": 40394 + 6000,
    "pathwise": 4000 + 800 + 2 * 250 + 2 * 40,
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SPAWNS = 4
MIN_REPS = 3
HARD_LIMIT_S = 140.0  # no repetition starts that could end past this
CHILD_TIMEOUT_S = 120.0
IMPORT_FAILED = 70
# Every time is scaled to the host speed at which worker.py's reference
# loop takes this long (an uncontended 2 GHz Xeon vCPU).
NOMINAL_REFERENCE_S = 0.004

LAYER_TIMES = (
    "trees.enumerate_s", "trees.format_s", "trees.alpha_s", "trees.parse_s",
    "forest_ops.subtree_pairs_s", "expr.exact_weights_s", "expr.format_s",
    "expr.parse_s", "series.compose_s", "series.derivative_product_s",
    "serk.residuals_s", "serk.probe_s", "paths.sample_s", "paths.eval_s",
    "elementary.eval_bseries_s", "sim.ms_order_s", "sim.reference_s",
)
LAYER_COUNTS = (
    "trees.enumerated", "trees.parsed", "forest_ops.st_pairs",
    "expr.exact_terms", "series.compose_weights", "series.compose_terms",
    "series.derivative_product_weights", "serk.residual_rows",
    "serk.symbolic_zero", "serk.probe_calls", "serk.probe_certified",
    "paths.paths_sampled", "paths.normals_drawn", "paths.quadrature_points",
    "elementary.eval_bseries_calls", "sim.reference_calls", "sim.coarse_steps",
    "sim.fine_steps",
)
# CLI commands timed end to end in the untraced repetitions of a trace run
CLI_JOBS = {
    "cli.erk_residuals_s": ("erk_residuals",),
    "cli.series_exact_s": ("series_exact",),
    "cli.trees_enum_s": ("trees_enum",),
    "cli.weights_mc_s": ("weights_mc", "weights_mc_deep"),
    "cli.converge_s": ("converge_langevin", "converge_noncomm-2x2"),
}


def scaled(result: dict, seconds: float) -> float:
    """``seconds`` measured in the process that gave ``result``, at the
    nominal host speed."""
    return seconds * NOMINAL_REFERENCE_S / result["reference_s"]


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, payload=None, timeout=CHILD_TIMEOUT_S) -> tuple:
    """Run one worker process; returns (result or None, spawn time, error)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode], input=json.dumps(payload),
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, started, f"{mode} process timed out after {timeout:.0f} s"
    if proc.returncode == IMPORT_FAILED:
        raise HarnessError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, started, f"{mode} process exited {proc.returncode}: {tail}"
    return json.loads(lines[-1]), started, None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Run:
    """Repetitions of one workload and what they found."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.setup = []
        self.raw_setup = []
        self.reps = []
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def payload(self, traced: bool) -> dict:
        return {"workload": self.workload, "inputs": self.inputs, "traced": traced}

    def prepare(self):
        result, started, error = spawn(
            "prepare", {"workload": self.workload, "seed": self.seed})
        if error:
            raise HarnessError(error)
        self.inputs = result["inputs"]
        self.record = {"env": dict(result["env"], git_sha=git_sha()),
                       "probe": result["probe"],
                       "inputs_sha256": hashlib.sha256(
                           json.dumps(self.inputs).encode()).hexdigest()}
        for _ in range(SETUP_SPAWNS):
            result, started, error = spawn("setup")
            if error:
                raise HarnessError(error)
            self.add_setup(result, started)

    def add_setup(self, result: dict, started: float):
        self.raw_setup.append(result["imported_at"] - started)
        self.setup.append(scaled(result, self.raw_setup[-1]))

    def fail(self, message: str, jobs: int = 1):
        self.failures.append(message)
        self.failed += jobs

    def loop(self, seconds: float, trace: bool):
        """Spawn repetitions one after another until ``seconds`` have
        passed; a trace run alternates untraced and traced ones."""
        start = time.monotonic()
        outcomes, traced = [], False
        while True:
            began = time.monotonic()
            outcomes.append((traced, spawn("run", self.payload(traced))))
            took = time.monotonic() - began
            elapsed = time.monotonic() - start
            traced = trace and not traced
            if elapsed + took > HARD_LIMIT_S:
                break
            if len(outcomes) >= MIN_REPS and elapsed + took > seconds:
                break
        jobs = max((r["attempted"] for _, (r, _, _) in outcomes if r), default=1)
        for traced, (result, started, error) in outcomes:
            if error:
                self.fail(error, jobs)
                self.attempted += jobs
                continue
            self.add_setup(result, started)
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.failures.extend(result["failures"])
            (self.traced if traced else self.reps).append(result)
        if not self.reps or (trace and not self.traced):
            raise HarnessError(f"no repetition of {self.workload} completed: "
                               f"{self.failures[:3]}")
        self.check_repeatability()

    def check_repeatability(self):
        """Every repetition of a seed must print the same stochastic
        outputs, and a traced repetition the same as an untraced one."""
        first = self.reps[0]["values"]
        for rep in self.reps[1:]:
            if rep["values"] != first:
                self.fail("untraced repetitions differ in output")
        for rep in self.traced:
            for key, value in rep["values"].items():
                if key.endswith("_mean"):
                    untraced = first[key[:-5]].splitlines()[1].split(",")[0]
                    if value != untraced:
                        self.fail(f"traced {key} {value} != {untraced}")
                elif value != first.get(key):
                    self.fail(f"traced {key} differs from untraced")

    def end_to_end(self) -> dict:
        wall = statistics.median(scaled(r, r["wall_s"]) for r in self.reps)
        return {
            "wall_s": (wall, "s"),
            "items_per_s": (ITEMS[self.workload] / wall, "1/s"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in self.reps), "MB"),
        }

    def per_layer(self) -> dict:
        """Medians over the traced repetitions of span times, over the
        untraced ones of CLI times; counts of the first traced one."""
        med = statistics.median
        out = {name: (med(scaled(r, r["times"].get(name, 0.0)) for r in self.traced), "s")
               for name in LAYER_TIMES}
        for name in LAYER_COUNTS:
            values = {r["counts"].get(name, 0) for r in self.traced}
            if len(values) > 1:
                self.fail(f"count {name} varies: {sorted(values)}")
            out[name] = (self.traced[0]["counts"].get(name, 0), "count")
        for name, jobs in CLI_JOBS.items():
            out[name] = (med(scaled(r, sum(j["s"] for j in r["jobs"] if j["name"] in jobs))
                             for r in self.reps), "s")
        out["cli.output_bytes"] = (self.reps[0]["cli_bytes"], "bytes")
        traced_wall = med(scaled(r, r["wall_s"]) for r in self.traced)
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.overhead_s"] = (
            traced_wall - med(scaled(r, r["wall_s"]) for r in self.reps), "s")
        return out

    def summary(self, metrics: dict) -> list:
        failed = min(self.failed, self.attempted)
        walls = sorted(r["wall_s"] for r in self.reps)
        lines = [f"{self.workload} seed={self.seed} reps={len(self.reps)} "
                 f"traced={len(self.traced)} setup_samples={len(self.setup)} "
                 f"unscaled wall_s median={statistics.median(walls):.4g} "
                 f"min={walls[0]:.4g} max={walls[-1]:.4g} "
                 f"setup_s median={statistics.median(self.raw_setup):.4g}"]
        lines += [f"  {name:34s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"  {'fail_share':34s} {failed / self.attempted:.6g} "
                     f"({failed}/{self.attempted})")
        lines += [f"  FAIL {f}" for f in self.failures]
        return lines

    def report(self, trace: bool) -> tuple:
        metrics = self.per_layer() if trace else self.end_to_end()
        record = dict(self.record, workload=self.workload, seed=self.seed,
                      items=ITEMS[self.workload], setup_samples=self.raw_setup,
                      failures=self.failures,
                      reps=[{k: r[k] for k in ("wall_s", "reference_s", "jobs", "maxrss_mb",
                                                 "digests")}
                            for r in self.reps + self.traced])
        return metrics, record


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    run = Run(workload, seed)
    run.prepare()
    run.loop(seconds, traced)
    metrics, record = run.report(traced)
    return run, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sbseries" / "cli.py").is_file():
        print(f"no sbseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(ITEMS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            run, run_metrics, record = run_workload(name, args.seed, args.seconds,
                                                    bool(args.trace))
            print("\n".join(run.summary(run_metrics)), flush=True)
            print(json.dumps({"record": record}), flush=True)
            correct = correct and not run.failures
            attempted += run.attempted
            failed += min(run.failed, run.attempted)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in run_metrics.items()})
    except HarnessError as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
