"""One benchmark process: imports sbseries, runs one repetition of a
workload's job list, checks every output and prints one JSON line.

Started by ``bench/run.py`` with ``PYTHONPATH=src`` and every BLAS/OpenMP
thread variable set to 1, so each repetition starts with cold memo caches,
as every CLI call does.  Modes (first argument):

- ``setup``: import ``sbseries.cli`` and report when the import returned.
- ``prepare``: record the environment and the host-speed probe, and draw
  the workload's seeded inputs.
- ``run``: read ``{"workload", "inputs", "traced"}`` from stdin and
  run the job list once.  Untraced, the jobs are the CLI calls and library
  calls a user makes.  Traced, each job is split into public calls made in
  dependency order, so that each layer is still cold when its own stage
  runs, and every call is timed from here; the split reproduces the
  untraced output, which the checks confirm.

``setup`` and ``run`` also report ``reference_s``, the host's current
speed: the median time of a fixed pure-Python loop, run after the import
and, in ``run``, before each job and after the last one.
"""

import time

try:
    import sbseries.cli as cli
except ImportError as err:  # the checkout carries no program
    import sys
    print(f"cannot import sbseries: {err}", file=sys.stderr)
    sys.exit(70)  # run.py's IMPORT_FAILED: no result is printed
IMPORTED_AT = time.monotonic()

import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sbseries import expr as ex  # noqa: E402
from sbseries import trees as T  # noqa: E402
from sbseries.elementary import eval_bseries, get_problem  # noqa: E402
from sbseries.expr import parse_expr  # noqa: E402
from sbseries.forest_ops import subtree_pairs  # noqa: E402
from sbseries.paths import eval_weight, sample_path  # noqa: E402
from sbseries.series import (  # noqa: E402
    BSeries,
    compose,
    derivative_product,
    exact_solution_series,
    exact_weight,
)
from sbseries.serk import (  # noqa: E402
    builtin_exponential_midpoint,
    order_residuals,
    residual_is_pathwise_zero,
)
from sbseries.sim import ms_order_estimate, reference_solution  # noqa: E402
from sbseries.trees import (  # noqa: E402
    HalfInt,
    alpha,
    enumerate_trees,
    format_tree,
    parse_tree,
    rho,
)

# Job sizes.  They scale the reference sizes (erk residuals and series exact
# as in the acceptance suite, compose at cap 4, 145,956 enumerated trees,
# 20,000 parsed trees, 14,320 paths) down to a few seconds per repetition,
# keeping each workload's mix of layers.
RESIDUAL_CAP = "7/2"
EXACT_CAP = "4"
COMPOSE_CAP = "7/2"
ENUM_CAP = "5"
PARSE_CAP = "9/2"
PARSE_TREES = 6000
MC_H, MC_N = 0.25, 4096
MC_EXPR = "1/3*Int0[Int1[s^4],s]"
MC_PATHS = 4000
DEEP_EXPR = "Int1[Int1[Int1[Int1[Int1[Int1[dW1]]]]]] - 1/64*dW1^7"
DEEP_PATHS = 800
CONVERGE_PROBLEMS = ("langevin", "noncomm-2x2")
CONVERGE_PATHS = 250
CONVERGE_LADDER = (4, 8)  # steps 2^-4 .. 2^-8, as in acceptance 08
CONVERGE_N_FINE = 4096
SERIES_CAP = "2"
SERIES_STEPS = (2.0 ** -6, 2.0 ** -5)
SERIES_N = 64
SERIES_PATHS = 40

# Acceptance bounds on the stochastic outputs.  The moment checks use 4
# standard errors instead of acceptance 07's 3: that criterion runs one
# frozen seed, while the benchmark draws new seeds on every run, where 3 SE
# would fail a correct program on 0.5% of runs.
SLOPE_RANGE = (0.85, 1.15)
LOG2_RATIO_RANGE = (2.0, 3.2)
MOMENT_SE = 4.0
EXAMPLE_SECOND_MOMENT = 2.0 / 11583.0  # times h^13 (tests/oracles.py)

# Iterations of the reference loop: about 4 ms on an uncontended 2 GHz Xeon vCPU.
REFERENCE_LOOP = 60_000

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def float_text(x) -> str:
    return format(float(x), ".17g")


def series_text(series: BSeries) -> str:
    return "".join(f"{format_tree(t)},{series.weight(t)}\n" for t in series.trees())


def reference_s() -> float:
    """Best of three runs of a fixed pure-Python loop, so a burst of
    contention during one run does not count."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class Tracer:
    """Span times and counts, keyed by ``layer.metric``."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] += time.perf_counter() - start

    def count(self, name, n=1):
        self.counts[name] += n


class Rep:
    """What one repetition did: per-job times, outputs, failures."""

    def __init__(self):
        self.jobs = []
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.values = {}
        self.cli_bytes = 0
        self.references = [reference_s()]

    def job(self, name, fn, tracer=None):
        """Time ``fn`` (the job), then run the check it returns."""
        if self.jobs:
            self.references.append(reference_s())
        start = time.perf_counter()
        try:
            check = fn(tracer) if tracer is not None else fn()
        except Exception as err:  # a failing job is counted, not fatal
            self.jobs.append({"name": name, "s": time.perf_counter() - start})
            self.failed += 1
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            return
        self.jobs.append({"name": name, "s": time.perf_counter() - start})
        try:
            problems = check()
        except Exception as err:
            problems = [f"check raised {type(err).__name__}: {err}"]
        self.failed += bool(problems)
        self.failures.extend(f"{name}: {p}" for p in problems)

    def cli(self, argv) -> str:
        buf = io.StringIO()
        code = cli.main(list(argv), out=buf)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        text = buf.getvalue()
        self.cli_bytes += len(text.encode())
        return text

    def expect_digest(self, key, text) -> list:
        got = sha(text)
        self.digests[key] = got
        return [] if got == EXPECTED["digests"].get(key) else [f"digest of {key} differs"]


# ---------------------------------------------------------------------------
# order-conditions
# ---------------------------------------------------------------------------


def erk_rows_check(rep, text):
    rows = list(csv.reader(io.StringIO(text)))[1:]
    zeros = sum(1 for r in rows if r[-1] == "0")
    problems = rep.expect_digest("erk_residuals", text)
    if len(rows) != EXPECTED["counts"]["residual_rows"]:
        problems.append(f"{len(rows)} residual rows")
    if zeros != EXPECTED["counts"]["zero_residuals"]:
        problems.append(f"{zeros} zero residuals")
    return problems


def order_conditions(rep: Rep, tracer, inputs):
    models = {"semilinear": T.SemiLinear(1), "langevin": T.langevin_model()}
    cap = HalfInt.parse(COMPOSE_CAP)
    exact = {}

    def erk():
        text = rep.cli(["erk", "residuals", "--method", "builtin:midpoint",
                        "--cap", RESIDUAL_CAP])
        return lambda: erk_rows_check(rep, text)

    def erk_traced(tr):
        res_cap = HalfInt.parse(RESIDUAL_CAP)
        with tr.span("trees.enumerate_s"):
            trees = enumerate_trees(T.SemiLinear(1), res_cap)
        tr.count("trees.enumerated", len(trees))
        with tr.span("expr.exact_weights_s"):
            weights = [exact_weight(t) for t in trees]
        tr.count("expr.exact_terms", sum(len(w.terms) for w in weights))
        method = builtin_exponential_midpoint()
        with tr.span("serk.residuals_s"):
            residuals = order_residuals(method, res_cap)
        tr.count("serk.residual_rows", len(residuals))
        texts = []
        for r in residuals:
            if r.residual.is_zero:
                tr.count("serk.symbolic_zero")
                texts.append(None)
                continue
            tr.count("serk.probe_calls")
            with tr.span("serk.probe_s"):
                zero = residual_is_pathwise_zero(r.residual, method.interpretation)
            tr.count("serk.probe_certified", zero)
            texts.append("0" if zero else None)
        with tr.span("trees.format_s"):
            names = [format_tree(r.tree) for r in residuals]
        rows = []
        with tr.span("expr.format_s"):
            for name, r, t in zip(names, residuals, texts):
                rows.append([name, str(r.tree_order), str(r.exact_weight),
                             str(r.numeric_weight), t or str(r.residual)])
        text = csv_text(["tree", "rho", "exact", "numeric", "residual"], rows)
        return lambda: erk_rows_check(rep, text)

    def series_exact():
        text = rep.cli(["series", "exact", "--model", "general",
                        "--model-preset", "langevin", "--cap", EXACT_CAP])
        return lambda: rep.expect_digest("series_exact", text)

    def series_exact_traced(tr):
        model, exact_cap = models["langevin"], HalfInt.parse(EXACT_CAP)
        with tr.span("trees.enumerate_s"):
            trees = enumerate_trees(model, exact_cap)
        tr.count("trees.enumerated", len(trees))
        with tr.span("expr.exact_weights_s"):
            weights = [exact_weight(t) for t in trees]
            series = exact_solution_series(model, exact_cap)
        tr.count("expr.exact_terms", sum(len(w.terms) for w in weights))
        keys = series.trees()
        with tr.span("trees.format_s"):
            names = [format_tree(t) for t in keys]
            orders = [str(rho(t)) for t in keys]
        with tr.span("trees.alpha_s"):
            alphas = [str(alpha(t)) for t in keys]
        with tr.span("expr.format_s"):
            texts = [str(series.weight(t)) for t in keys]
        text = csv_text(["tree", "rho", "alpha", "weight"],
                        [list(r) for r in zip(names, orders, alphas, texts)])
        return lambda: rep.expect_digest("series_exact", text)

    def composed_check(key, series):
        problems = rep.expect_digest(key, series_text(series))
        if len(series.weights) != EXPECTED["counts"][key]:
            problems.append(f"{len(series.weights)} weights")
        return problems

    def composition(name):
        def run():
            phi = exact_solution_series(models[name], cap)
            exact[name] = phi
            out = compose(phi, phi)
            return lambda: composed_check(f"compose_{name}", out)

        def traced(tr):
            model = models[name]
            with tr.span("trees.enumerate_s"):
                trees = enumerate_trees(model, cap)
            tr.count("trees.enumerated", len(trees))
            with tr.span("forest_ops.subtree_pairs_s"):
                pairs = sum(len(subtree_pairs(t)) for t in trees)
            tr.count("forest_ops.st_pairs", pairs)
            with tr.span("expr.exact_weights_s"):
                phi = exact_solution_series(model, cap)
            tr.count("expr.exact_terms", sum(len(w.terms) for w in phi.weights.values()))
            exact[name] = phi
            with tr.span("series.compose_s"):
                out = compose(phi, phi)
            tr.count("series.compose_weights", len(out.weights))
            tr.count("series.compose_terms", sum(len(w.terms) for w in out.weights.values()))
            return lambda: composed_check(f"compose_{name}", out)

        return run, traced

    def product(tr=None):
        phi = exact["semilinear"]
        incr = BSeries(phi.model, phi.order_cap, dict(phi.weights), ex.ZERO)
        if tr is None:
            out = derivative_product(incr, phi)
        else:
            with tr.span("series.derivative_product_s"):
                out = derivative_product(incr, phi)
            tr.count("series.derivative_product_weights", len(out.weights))
        return lambda: composed_check("derivative_product", out)

    compose_sl, compose_sl_traced = composition("semilinear")
    compose_lv, compose_lv_traced = composition("langevin")
    jobs = [("erk_residuals", erk, erk_traced),
            ("series_exact", series_exact, series_exact_traced),
            ("compose_semilinear", compose_sl, compose_sl_traced),
            ("compose_langevin", compose_lv, compose_lv_traced),
            ("derivative_product", product, product)]
    for name, run, traced in jobs:
        rep.job(name, traced if tracer is not None else run, tracer)


# ---------------------------------------------------------------------------
# tree-census
# ---------------------------------------------------------------------------


def tree_census(rep: Rep, tracer, strings):
    def enum_check(text):
        problems = rep.expect_digest("trees_enum", text)
        rows = text.count("\n") - 1
        if rows != EXPECTED["counts"]["trees_enum"]:
            problems.append(f"{rows} rows")
        return problems

    def enum():
        text = rep.cli(["trees", "enum", "--model", "semilinear", "--M", "1",
                        "--cap", ENUM_CAP])
        return lambda: enum_check(text)

    def enum_traced(tr):
        with tr.span("trees.enumerate_s"):
            trees = enumerate_trees(T.SemiLinear(1), HalfInt.parse(ENUM_CAP))
        tr.count("trees.enumerated", len(trees))
        with tr.span("trees.format_s"):
            names = [format_tree(t) for t in trees]
            orders = [str(rho(t)) for t in trees]
        with tr.span("trees.alpha_s"):
            alphas = [str(alpha(t)) for t in trees]
        text = csv_text(["tree", "rho", "alpha"],
                        [list(r) for r in zip(names, orders, alphas)])
        return lambda: enum_check(text)

    def round_trip_check(back):
        bad = sum(1 for s, b in zip(strings, back) if s != b)
        problems = [f"{bad} trees do not round-trip"] if bad else []
        if len(back) != len(strings):
            problems.append(f"{len(back)} of {len(strings)} trees parsed")
        return problems

    def round_trip():
        back = [format_tree(parse_tree(s)) for s in strings]
        return lambda: round_trip_check(back)

    def round_trip_traced(tr):
        with tr.span("trees.parse_s"):
            parsed = [parse_tree(s) for s in strings]
        tr.count("trees.parsed", len(parsed))
        with tr.span("trees.format_s"):
            back = [format_tree(t) for t in parsed]
        return lambda: round_trip_check(back)

    jobs = [("trees_enum", enum, enum_traced),
            ("parse_round_trip", round_trip, round_trip_traced)]
    for name, run, traced in jobs:
        rep.job(name, traced if tracer is not None else run, tracer)


def census_inputs(seed: int) -> list:
    """Seeded sample of the Langevin trees with 2*rho <= 9, in text form."""
    trees = enumerate_trees(T.langevin_model(), HalfInt.parse(PARSE_CAP))
    population = sorted(format_tree(t) for t in trees)
    return random.Random(f"tree-census-{seed}").sample(population, PARSE_TREES)


# ---------------------------------------------------------------------------
# pathwise
# ---------------------------------------------------------------------------


def moment_check(text):
    mean, variance, stderr = (float(v) for v in text.splitlines()[1].split(","))
    n = MC_PATHS
    problems = []
    if not abs(mean) <= MOMENT_SE * stderr:
        problems.append(f"mean {mean} beyond {MOMENT_SE} SE ({stderr})")
    target = EXAMPLE_SECOND_MOMENT * MC_H ** 13
    second = variance * (n - 1) / n + mean * mean
    # a centred Gaussian has Var(X^2) = 2 sigma^4
    second_se = math.sqrt(2.0 / n) * variance
    if not abs(second - target) <= MOMENT_SE * second_se:
        problems.append(f"second moment {second} vs {target} beyond "
                        f"{MOMENT_SE} SE ({second_se})")
    return problems


def slope_check(text):
    slope = float(text.strip().splitlines()[-1].split(",")[-1])
    lo, hi = SLOPE_RANGE
    return [] if lo <= slope <= hi else [f"slope {slope} outside [{lo}, {hi}]"]


def ratio_check(log2_ratio):
    lo, hi = LOG2_RATIO_RANGE
    ok = lo < log2_ratio < hi
    return [] if ok else [f"log2 error ratio {log2_ratio} outside ({lo}, {hi})"]


def int_atoms(expr) -> int:
    """Integral profiles one evaluation of the expression computes: one per
    ``Int`` in its text (powers of one atom are evaluated once)."""
    return str(expr).count("Int")


def pathwise_inputs(seed: int) -> dict:
    """The program seeds of the stochastic jobs, drawn from the benchmark seed."""
    rng = random.Random(f"pathwise-{seed}")
    return {name: rng.randrange(2 ** 31)
            for name in ("mc", "deep", "converge", "series")}


def pathwise(rep: Rep, tracer, seeds):

    def record(key, text):
        rep.digests[key] = sha(text)
        rep.values[key] = text

    def mc(key, expr_text, n_paths, check):
        argv = ["weights", "mc", "--expr", expr_text, "--h", str(MC_H),
                "--N", str(MC_N), "--paths", str(n_paths), "--seed", str(seeds[key])]

        def run():
            text = rep.cli(argv)
            record(key, text)
            return lambda: check(text)

        def traced(tr):
            # mc_moments' loop with its per-path seeds, call by call
            with tr.span("expr.parse_s"):
                expr = parse_expr(expr_text)
            colors = max(expr.colors(), default=0)
            values = np.empty(n_paths)
            for idx in range(n_paths):
                with tr.span("paths.sample_s"):
                    path = sample_path(MC_H, MC_N, colors, (seeds[key], idx))
                with tr.span("paths.eval_s"):
                    values[idx] = eval_weight(expr, path, "stratonovich")
            tr.count("paths.paths_sampled", n_paths)
            tr.count("paths.normals_drawn", n_paths * colors * MC_N)
            tr.count("paths.quadrature_points", n_paths * int_atoms(expr) * MC_N)
            rep.values[key + "_mean"] = float_text(float(np.sum(values) / n_paths))
            return lambda: []

        return run, traced

    def converge(problem):
        key = f"converge_{problem}"
        lo, hi = CONVERGE_LADDER
        argv = ["converge", "--problem", problem, "--paths", str(CONVERGE_PATHS),
                "--seed", str(seeds["converge"]), "--h-coarse", str(lo),
                "--h-fine", str(hi), "--n-fine", str(CONVERGE_N_FINE)]

        def run():
            text = rep.cli(argv)
            record(key, text)
            return lambda: slope_check(text)

        def traced(tr):
            ladder = [2.0 ** -k for k in range(lo, hi + 1)]
            with tr.span("sim.ms_order_s"):
                report = ms_order_estimate(get_problem(problem), ladder,
                                           CONVERGE_PATHS, 1.0, seeds["converge"],
                                           n_fine=CONVERGE_N_FINE)
            tr.count("paths.paths_sampled", CONVERGE_PATHS)
            tr.count("paths.normals_drawn", CONVERGE_PATHS * CONVERGE_N_FINE)
            tr.count("sim.fine_steps", CONVERGE_PATHS * CONVERGE_N_FINE)
            tr.count("sim.coarse_steps", CONVERGE_PATHS * sum(round(1 / h) for h in ladder))
            rows = report.rows()
            text = csv_text(["h", "rms_error", "se", "slope"], [
                [float_text(h), float_text(e), float_text(s),
                 float_text(report.slope) if k == len(rows) - 1 else ""]
                for k, (h, e, s) in enumerate(rows)])
            record(key, text)
            return lambda: slope_check(text)

        return run, traced

    def series_check(tr=None):
        """test_exact_series_strong_order: the cap-2 exact series against
        the fine reference on shared paths, at two step sizes."""
        problem = get_problem("langevin")
        model, cap = T.SemiLinear(1), HalfInt.parse(SERIES_CAP)
        if tr is None:
            series = exact_solution_series(model, cap)
        else:
            with tr.span("trees.enumerate_s"):
                trees = enumerate_trees(model, cap)
            tr.count("trees.enumerated", len(trees))
            with tr.span("expr.exact_weights_s"):
                series = exact_solution_series(model, cap)
            tr.count("expr.exact_terms",
                     sum(len(w.terms) for w in series.weights.values()))
            atoms = sum(int_atoms(w) for w in series.weights.values())
        rms = []
        for h in SERIES_STEPS:
            errs = []
            for k in range(SERIES_PATHS):
                if tr is None:
                    path = sample_path(h, SERIES_N, 1, (seeds["series"], k))
                    approx = eval_bseries(problem, series, problem.x0, h, path)
                    ref = reference_solution(problem, h, SERIES_N, path)
                else:
                    with tr.span("paths.sample_s"):
                        path = sample_path(h, SERIES_N, 1, (seeds["series"], k))
                    with tr.span("elementary.eval_bseries_s"):
                        approx = eval_bseries(problem, series, problem.x0, h, path)
                    with tr.span("sim.reference_s"):
                        ref = reference_solution(problem, h, SERIES_N, path)
                errs.append(np.sum((approx[:2] - ref) ** 2))
            rms.append(np.sqrt(np.mean(errs)))
        if tr is not None:
            calls = len(SERIES_STEPS) * SERIES_PATHS
            tr.count("paths.paths_sampled", calls)
            tr.count("paths.normals_drawn", calls * SERIES_N)
            tr.count("paths.quadrature_points", calls * atoms * SERIES_N)
            tr.count("elementary.eval_bseries_calls", calls)
            tr.count("sim.reference_calls", calls)
            tr.count("sim.fine_steps", calls * SERIES_N)
        log2_ratio = float(np.log2(rms[1] / rms[0]))
        record("series_check", float_text(log2_ratio))
        return lambda: ratio_check(log2_ratio)

    mc_run, mc_traced = mc("mc", MC_EXPR, MC_PATHS, moment_check)
    deep_run, deep_traced = mc("deep", DEEP_EXPR, DEEP_PATHS, lambda text: [])
    jobs = [("weights_mc", mc_run, mc_traced),
            ("weights_mc_deep", deep_run, deep_traced)]
    for problem in CONVERGE_PROBLEMS:
        run, traced = converge(problem)
        jobs.append((f"converge_{problem}", run, traced))
    jobs.append(("series_check", series_check, series_check))
    for name, run, traced in jobs:
        rep.job(name, traced if tracer is not None else run, tracer)


# workload -> (job list, inputs drawn from the benchmark seed)
WORKLOADS = {"order-conditions": (order_conditions, lambda seed: None),
             "tree-census": (tree_census, census_inputs),
             "pathwise": (pathwise, pathwise_inputs)}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def host_probe() -> dict:
    """Fixed pure-Python and numpy kernels, median of three; diagnostic only."""
    def median3(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]

    def py_loop():
        total = 0
        for i in range(300_000):
            total += i * i
        return total

    data = np.random.default_rng(0).standard_normal(1 << 20)

    def np_kernel():
        for _ in range(10):
            np.cumsum(data * data)

    return {"python_loop_s": median3(py_loop), "numpy_cumsum_s": median3(np_kernel)}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_rep(config: dict) -> dict:
    tracer = Tracer() if config["traced"] else None
    rep = Rep()
    jobs, _ = WORKLOADS[config["workload"]]
    jobs(rep, tracer, config["inputs"])
    out = {
        "imported_at": IMPORTED_AT,
        "reference_s": statistics.median(rep.references + [reference_s()]),
        "wall_s": sum(j["s"] for j in rep.jobs),
        "jobs": rep.jobs,
        "attempted": len(rep.jobs),
        "failed": rep.failed,
        "failures": rep.failures,
        "digests": rep.digests,
        "values": rep.values,
        "cli_bytes": rep.cli_bytes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["times"] = dict(tracer.times)
        out["counts"] = dict(tracer.counts)
    return out


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        result = {"imported_at": IMPORTED_AT,
                  "reference_s": statistics.median(reference_s() for _ in range(3))}
    elif mode == "prepare":
        config = json.loads(sys.stdin.read())
        _, make_inputs = WORKLOADS[config["workload"]]
        result = {"imported_at": IMPORTED_AT, "env": environment(),
                  "probe": host_probe(), "inputs": make_inputs(config["seed"])}
    elif mode == "run":
        result = run_rep(json.loads(sys.stdin.read()))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
