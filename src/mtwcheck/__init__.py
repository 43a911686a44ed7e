"""mtwcheck: numerical verification of weak/strong curvature conditions for
radial transport costs on constant-curvature model spaces.

Three mutually cross-checking routes compute the same curvature quantity: a
closed five-term formula, a second-derivative-in-s reduction through the
Jacobi map, and a definitional finite-difference oracle on explicit models.
Each takes the tangent vectors u, v, w as ambient float64 arrays; the oracle
also takes the cost and their base point x, and the two analytic routes
share one row of the profiles at |v| in place of the cost:
row = profile_row(cost, form, v), then mtw_closed(row, form, u, v, w).  The
checker turns the coefficient inequalities into per-scan verdicts:
scan_conditions(cost, K, dimension) scans [0, |l'(D)|], with D the cost's
own diameter.
"""

from . import errors
from .checker import (A3S, A3W_ONLY, FAILS, Classification, PerturbationResult, Verdict,
                      classify, perturbation_check, scan_conditions)
from .costs import PRESETS, CostFunction, eval_cost_jet, inverse_lprime, make_cost, preset
from .curvature import (coefficient_arrays, decompose, jacobi_map_closed, mtw_closed,
                        mtw_via_jacobi, profile_row)
from .expressions import evaluate, evaluate_jet, parse_cost
from .geometry import SpaceForm, cost_exp, minus_grad_x_cost, orthonormal_tangent_frame
from .jets import Jet, jet_compose
from .oracle import jacobi_residual, mtw_definitional

__version__ = "0.1.0"

__all__ = [
    "A3S", "A3W_ONLY", "FAILS", "Classification",
    "CostFunction", "Jet", "PRESETS", "PerturbationResult", "SpaceForm",
    "Verdict", "classify", "coefficient_arrays", "cost_exp", "decompose", "errors",
    "eval_cost_jet", "evaluate", "evaluate_jet", "inverse_lprime",
    "jacobi_map_closed", "jacobi_residual", "jet_compose", "make_cost",
    "minus_grad_x_cost", "mtw_closed", "mtw_definitional", "mtw_via_jacobi",
    "orthonormal_tangent_frame", "parse_cost", "perturbation_check", "preset",
    "profile_row", "scan_conditions",
]
