"""Stochastic B-series calculus: colored rooted trees, weight functions,
composition laws, and order-condition tooling for exponential Runge-Kutta
methods on semi-linear SDEs, with a Monte-Carlo verification harness.

``import sbseries`` loads no submodule: each exported name imports its
module on first access (PEP 562), so numpy and scipy load only when a name
that needs them is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in {
    "elementary": ("SDEProblem", "eval_bseries", "eval_elementary", "get_problem",
                   "problem_names"),
    "expr": ("WeightExpr", "format_expr", "parse_expr"),
    "forest_ops": ("SubtreePair", "gamma", "split_pairs", "subtree_pairs"),
    "paths": ("MCStats", "PathGrid", "eval_weight", "mc_moments", "sample_path"),
    "series": ("BSeries", "compose", "derivative_product", "exact_solution_series",
               "exact_weight", "function_series", "identity_weights"),
    "serk": ("ERKMethodSpec", "OrderResidual", "builtin_exponential_midpoint",
             "erk_weight_at", "erk_weights", "method_from_json", "method_to_json",
             "order_residuals", "residual_at", "residual_is_pathwise_zero",
             "semilinear_trees"),
    "sim": ("ConvergenceReport", "integrate_erk", "ms_order_estimate",
            "reference_solution"),
    "trees": ("GeneralPartitioned", "HalfInt", "NonAutonomous", "SemiLinear", "Tree",
              "TreeModel", "alpha", "canonicalize", "enumerate_trees", "format_tree",
              "langevin_model", "parse_tree", "rho"),
}.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups bypass this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
