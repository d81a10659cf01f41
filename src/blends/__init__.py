"""Piecewise two-point Hermite interpolants over polygonal complex paths.

The central object is the blendstring: an ordered chain of truncated Taylor
polynomials at knots, blended pairwise over each straight segment into a
high-order smooth piecewise polynomial.  The package provides evaluation
with derivatives, exact integration, knot-wise series algebra, a collocation
marching solver for linear second-order ODEs, and a Mathieu-function
application layer.
"""

from .blend import (
    Blend,
    blend_condition_integral,
    blend_eval,
    blend_eval_derivs,
    blend_integrate,
    lebesgue_function,
    truncation_factor,
)
from .blendstring import Blendstring, EvalTable, zip_with
from .errors import (
    BlendsError,
    CompatibilityError,
    DocumentError,
    EvalOverflowError,
    OffPathError,
    SeriesDivisionError,
    SolveError,
)
from .functions import (
    blendstring_oracle,
    constant_oracle,
    cos_oracle,
    exp_oracle,
    get_oracle,
    identity_oracle,
    poly_oracle,
    recip_poly_oracle,
    sin_oracle,
    zero_oracle,
)
from .mathieu import (
    MathieuParams,
    double_point,
    even_characteristic_values,
    even_eigenvalue_search,
    generalized_eigenfunction,
    mathieu_operator,
    mathieu_pair,
    mathieu_problem,
    modified_endpoint,
    modified_params,
    ordinary_params,
)
from .odesolve import (
    OdeProblem,
    SolveResult,
    StepRecord,
    initial_series,
    sho_amplification,
    sho_step_matrix,
    solve_ivp,
    stability_threshold,
    step,
)
from .series import (
    LocalTaylor,
    combine,
    compose,
    div,
    mul,
    ode_taylor,
    one_series,
    zero_series,
)
from .special import hurwitz_zeta, recip_gamma_oracle, recip_gamma_series

__version__ = "0.1.0"

__all__ = [
    "Blend",
    "Blendstring",
    "BlendsError",
    "CompatibilityError",
    "DocumentError",
    "EvalOverflowError",
    "EvalTable",
    "LocalTaylor",
    "MathieuParams",
    "OdeProblem",
    "OffPathError",
    "SeriesDivisionError",
    "SolveError",
    "SolveResult",
    "StepRecord",
    "blend_condition_integral",
    "blend_eval",
    "blend_eval_derivs",
    "blend_integrate",
    "blendstring_oracle",
    "combine",
    "compose",
    "constant_oracle",
    "cos_oracle",
    "div",
    "double_point",
    "even_characteristic_values",
    "even_eigenvalue_search",
    "exp_oracle",
    "generalized_eigenfunction",
    "get_oracle",
    "hurwitz_zeta",
    "identity_oracle",
    "initial_series",
    "lebesgue_function",
    "mathieu_operator",
    "mathieu_pair",
    "mathieu_problem",
    "modified_endpoint",
    "modified_params",
    "mul",
    "ode_taylor",
    "one_series",
    "ordinary_params",
    "poly_oracle",
    "recip_gamma_oracle",
    "recip_gamma_series",
    "recip_poly_oracle",
    "sho_amplification",
    "sho_step_matrix",
    "sin_oracle",
    "solve_ivp",
    "stability_threshold",
    "step",
    "truncation_factor",
    "zero_oracle",
    "zero_series",
    "zip_with",
]
