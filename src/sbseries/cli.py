"""Command-line interface.

One binary, subcommand style; every stochastic subcommand requires an
explicit seed so runs are reproducible bit for bit.  Exit codes: 0 on
success, 2 on usage/validation errors, 3 on numerical failure.  Each
command imports the layers it uses, so that the symbolic commands (trees,
split, series, erk residuals without the probe) load neither numpy nor
scipy.

A command runs with the cyclic garbage collector paused, and the caller's
collector state is restored when it returns (see :mod:`sbseries.memo`): the
collector's passes over tens of thousands of live trees took about a tenth
of the run time of ``trees enum --model semilinear --M 1 --cap 5``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections.abc import Iterator

from sbseries import trees as T
from sbseries.expr import parse_expr
from sbseries.forest_ops import split_pairs, subtree_pairs
from sbseries.memo import collector_paused
from sbseries.trees import (
    HalfInt,
    SimulationError,
    alpha,
    format_tree,
    iter_trees,
    parse_tree,
    rho,
    rho2,
    symmetry,
)


def _model_from_flags(args) -> T.TreeModel:
    # each color and Wiener index adds a label or a leaf before the
    # enumeration cap can act
    if not (0 <= args.M <= MODEL_SIZE_BOUND and 0 <= args.l <= MODEL_SIZE_BOUND):
        raise ValueError(f"--M and --l must be between 0 and {MODEL_SIZE_BOUND}, "
                         f"got {args.M} and {args.l}")
    if args.model == "semilinear":
        if args.M > T.MAX_G_COLOR:
            raise ValueError(f"--M must be at most {T.MAX_G_COLOR} for the semilinear "
                             f"model (g-node colors are single digits), got {args.M}")
        return T.SemiLinear(args.M)
    if args.model == "general":
        if args.model_preset == "langevin":
            return T.langevin_model()
        raise ValueError("general model requires --model-preset langevin "
                         "(table-driven models are library-level)")
    return T.NonAutonomous.from_table(
        M=args.M, l=args.l, variants={m: 1 for m in range(args.M + 1)})


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="semilinear",
                        choices=["semilinear", "general", "nonautonomous"])
    parser.add_argument("--M", type=int, default=1,
                        help="number of Wiener colors")
    parser.add_argument("--l", type=int, default=0,
                        help="highest Wiener index entering coefficients "
                             "(nonautonomous model)")
    parser.add_argument("--model-preset", default=None,
                        help="named general-model table (langevin)")


def _order_cap(text: str, bound: HalfInt | None = None) -> HalfInt:
    cap = HalfInt.parse(text)
    if cap.twice < 0:
        raise ValueError(f"--cap must not be negative, got {text!r}")
    if bound is not None and cap > bound:
        raise ValueError(f"--cap must be at most {bound}, got {text!r}")
    return cap


# the largest order `trees count` takes: counting up to it takes 0.04 s for
# the semilinear model with 9 colors, 0.16 s for the nonautonomous one with
# M = l = 1,000 and 0.56 s with M = l = 100,000 (whose labels alone take
# 1.7 s to build, for `trees enum` as well)
COUNT_ORDER_BOUND = HalfInt(400)
# the largest --M and --l: `trees count --model nonautonomous --cap 200`
# takes 0.28 s with M = l = 1,000, 0.46 s with 10,000, and 2.2 s and 206 MB
# with 100,000, most of it building the labels and leaves, which every
# `trees` command builds first (22 s and 1.87 GB with 1,000,000)
MODEL_SIZE_BOUND = 10_000


def _semilinear_problem(text: str) -> str:
    """Type of ``converge --problem``: a registered semi-linear problem.  The
    registry is read when the option is parsed, not when the parser is built,
    as reading it imports numpy."""
    from sbseries.elementary import get_problem, problem_names

    names = [n for n in problem_names() if get_problem(n).is_semilinear]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
    return text


def _write_rows(out, header, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _float_repr(x: float) -> str:
    return format(float(x), ".17g")


def _tree_rows(trees) -> Iterator[list[str]]:
    """One [tree, rho, alpha] text row per tree, yielded as it is built, so
    the writer streams the rows; the text of each distinct rho and alpha is
    built once."""
    rho_text: dict[int, str] = {}  # 2*rho -> text
    alpha_text: dict[int, str] = {}  # sigma -> text
    for tree in trees:
        twice, sigma = rho2(tree), symmetry(tree)
        yield [format_tree(tree),
               rho_text.get(twice) or rho_text.setdefault(twice, str(rho(tree))),
               alpha_text.get(sigma) or alpha_text.setdefault(sigma, str(alpha(tree)))]


def cmd_trees(args, out) -> None:
    if args.tree_cmd == "enum":
        model = _model_from_flags(args)
        trees = iter_trees(model, _order_cap(args.cap))
        _write_rows(out, ["tree", "rho", "alpha"], _tree_rows(trees))
    elif args.tree_cmd == "count":
        cap = _order_cap(args.cap, COUNT_ORDER_BOUND)
        counts = T.count_trees(_model_from_flags(args), cap)
        _write_rows(out, ["rho", "count"], ([HalfInt(b), n] for b, n in enumerate(counts) if b))
    elif args.tree_cmd == "info":
        _write_rows(out, ["tree", "rho", "alpha"], _tree_rows([parse_tree(args.tree)]))
    else:
        cmd_split(args, out)


def cmd_split(args, out) -> None:
    tree = parse_tree(args.tree)
    pairs = split_pairs(tree) if not args.full else subtree_pairs(tree)
    rows = []
    for p in pairs:
        remainder = ",".join(format_tree(t) for t in p.remainder)
        rows.append([format_tree(p.subtree), f"{{{remainder}}}", str(p.coefficient)])
    _write_rows(out, ["subtree", "remainder", "gamma"], rows)


def cmd_series(args, out) -> None:
    from sbseries.series import exact_solution_series

    model = _model_from_flags(args)
    series = exact_solution_series(model, _order_cap(args.cap))
    trees = series.trees()
    rows = zip(_tree_rows(trees), trees)
    _write_rows(out, ["tree", "rho", "alpha", "weight"],
                (row + [str(series.weight(tree))] for row, tree in rows))


def cmd_erk(args, out) -> None:
    from sbseries.serk import order_residuals, residuals_are_pathwise_zero, resolve_method

    method = resolve_method(args.method)
    residuals = order_residuals(method, _order_cap(args.cap))
    zero = ([r.residual.is_zero for r in residuals] if args.no_probe else
            residuals_are_pathwise_zero([r.residual for r in residuals], method.interpretation))
    rows = [[format_tree(r.tree), str(r.tree_order), str(r.exact_weight),
             str(r.numeric_weight), "0" if z else str(r.residual)]
            for r, z in zip(residuals, zero)]
    _write_rows(out, ["tree", "rho", "exact", "numeric", "residual"], rows)


def cmd_weights(args, out) -> None:
    import numpy as np

    from sbseries.paths import mc_moments

    with np.errstate(over="ignore", invalid="ignore"):
        stats = mc_moments(parse_expr(args.expr), args.h, args.N, args.paths,
                           args.interp, args.seed)
    if not all(map(math.isfinite, (stats.mean, stats.variance, stats.stderr))):
        raise SimulationError(f"moments are not finite: mean {stats.mean}, "
                              f"variance {stats.variance}")
    _write_rows(out, ["mean", "variance", "stderr"],
                [[_float_repr(stats.mean), _float_repr(stats.variance),
                  _float_repr(stats.stderr)]])


def cmd_converge(args, out) -> None:
    from sbseries.elementary import get_problem
    from sbseries.sim import ms_order_estimate

    problem = get_problem(args.problem)
    # the steps of each rung divide --n-fine and double from rung to rung
    if args.h_fine - args.h_coarse >= max(args.n_fine, 1).bit_length():
        raise ValueError("--n-fine cannot refine that many step sizes")
    h_values = [2.0 ** -k for k in range(args.h_coarse, args.h_fine + 1)]
    report = ms_order_estimate(problem, h_values, args.paths, args.T,
                               args.seed, n_fine=args.n_fine)
    rows = []
    for k, (h, rms_err, se) in enumerate(report.rows()):
        slope = _float_repr(report.slope) if k == len(report.h_values) - 1 else ""
        rows.append([_float_repr(h), _float_repr(rms_err), _float_repr(se), slope])
    header = ["h", "rms_error", "se", "slope"]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_rows(fh, header, rows)
        out.write(f"wrote {args.out}\n")
    else:
        _write_rows(out, header, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbseries",
        description="Stochastic B-series calculus and exponential-integrator "
                    "order conditions for semi-linear SDEs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="enumerate and inspect trees")
    trees_sub = p_trees.add_subparsers(dest="tree_cmd", required=True)
    p_enum = trees_sub.add_parser("enum", help="list trees up to an order cap")
    _add_model_flags(p_enum)
    p_enum.add_argument("--cap", required=True, help="order bound (e.g. 3, 7/2)")
    p_count = trees_sub.add_parser("count", help="number of trees of each order, "
                                                 "counted without building them")
    _add_model_flags(p_count)
    p_count.add_argument("--cap", required=True,
                         help=f"order bound, at most {COUNT_ORDER_BOUND}")
    p_info = trees_sub.add_parser("info", help="order and coefficient of one tree")
    p_info.add_argument("tree")
    p_tsplit = trees_sub.add_parser("split", help="single-remainder decompositions")
    p_tsplit.add_argument("tree")
    p_tsplit.add_argument("--full", action="store_true",
                          help="print the full decomposition set instead")

    p_split = sub.add_parser("split", help="alias of 'trees split'")
    p_split.add_argument("tree")
    p_split.add_argument("--full", action="store_true")

    p_series = sub.add_parser("series", help="weight series")
    series_sub = p_series.add_subparsers(dest="series_cmd", required=True)
    p_exact = series_sub.add_parser("exact", help="exact-solution weights")
    _add_model_flags(p_exact)
    p_exact.add_argument("--cap", required=True)

    p_erk = sub.add_parser("erk", help="exponential Runge-Kutta analysis")
    erk_sub = p_erk.add_subparsers(dest="erk_cmd", required=True)
    p_res = erk_sub.add_parser("residuals", help="order-condition residuals")
    p_res.add_argument("--method", required=True,
                       help="builtin:midpoint or a JSON method file")
    p_res.add_argument("--cap", required=True)
    p_res.add_argument("--no-probe", action="store_true",
                       help="report symbolic residuals without the pathwise "
                            "zero certificate")

    p_weights = sub.add_parser("weights", help="Monte-Carlo weight statistics")
    weights_sub = p_weights.add_subparsers(dest="weights_cmd", required=True)
    p_mc = weights_sub.add_parser("mc", help="moments of one expression")
    p_mc.add_argument("--expr", required=True)
    p_mc.add_argument("--h", type=float, required=True)
    p_mc.add_argument("--N", type=int, required=True)
    p_mc.add_argument("--paths", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--interp", default="stratonovich")
    p_mc.add_argument("--threads", type=int, default=1,
                      help="accepted for interface stability; results are "
                           "deterministic and identical for any value")

    p_conv = sub.add_parser("converge", help="mean-square convergence study")
    p_conv.add_argument("--problem", required=True, type=_semilinear_problem)
    p_conv.add_argument("--method", default="midpoint", choices=["midpoint"])
    p_conv.add_argument("--paths", type=int, required=True)
    p_conv.add_argument("--seed", type=int, required=True)
    p_conv.add_argument("--T", type=float, default=1.0)
    p_conv.add_argument("--h-coarse", type=int, default=4,
                        help="coarsest step is 2^-this")
    p_conv.add_argument("--h-fine", type=int, default=8,
                        help="finest step is 2^-this")
    p_conv.add_argument("--n-fine", type=int, default=4096)
    p_conv.add_argument("--out", default=None, help="write CSV here")
    p_conv.add_argument("--threads", type=int, default=1,
                        help="accepted for interface stability; results are "
                             "deterministic and identical for any value")
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    handlers = {
        "trees": cmd_trees,
        "split": cmd_split,
        "series": cmd_series,
        "erk": cmd_erk,
        "weights": cmd_weights,
        "converge": cmd_converge,
    }
    try:
        with collector_paused():
            handlers[args.command](args, out)
        return 0
    except (ValueError, KeyError, OSError, OverflowError) as err:
        # TreeError, ExprError and PathError, the library's error roots, are
        # ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: input too large for memory: {err}", file=sys.stderr)
        return 2
    except SimulationError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
