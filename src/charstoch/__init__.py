"""Stochastic characteristics for scalar conservation laws.

Solve u_t + sum_i a_i(t, u) u_{x_i} = 0 three ways that cross-check
each other: explicit Gaussian-kernel quadrature of the noise-smoothed
representation, classical characteristics (implicit relation, exact
gradients, blow-up detection), and Monte Carlo particles.  A balance
module verifies the moment-system identities the smoothed fields
satisfy, including the covariance sources that survive past blow-up.
"""

from .errors import (
    ArityMismatch,
    CharstochError,
    ConfigError,
    DegenerateKernel,
    EmptyKernelSupport,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    IllegalCharacter,
    NearBlowup,
    NoConvergence,
    NumericalError,
    OutOfBracket,
    SchemaError,
    SingularJacobian,
    UnknownFunction,
    UnknownVariable,
    ValidationError,
    ZeroMass,
)
from .expr import diff, eval_expr, expr_to_str, numeric_partial, parse, variables
from .problem import (
    InitialData,
    ProblemSpec,
    Tolerances,
    VelocityField,
    displacement_components,
    du_displacement_components,
    flow_displacement,
    load_problem,
)
from .representation import (
    FieldGrid,
    eval_a_sigma,
    eval_field_grid,
    eval_rho_sigma,
    eval_u_sigma,
    integrate_rho0,
    integrate_rho_sigma,
)
from .characteristics import (
    BlowupReport,
    blow_up_time,
    eval_a_bar,
    eval_rho_bar,
    gradient_exact,
    invert_char_map,
    solve_implicit,
)
from .montecarlo import (
    FieldEstimate,
    ParticleEnsemble,
    default_bandwidth,
    dump_ensemble,
    estimate_fields,
    evolve_exact,
    sample_initial,
)
from .balance import (
    ItermRow,
    ResidualReport,
    attach_ratios,
    eval_I_a_sigma,
    eval_I_u_sigma,
    i_term_persistence,
    residual_pressureless,
    residual_sigma_system,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CharstochError", "ConfigError", "SchemaError", "ValidationError",
    "ExprError", "IllegalCharacter", "ExprSyntaxError", "UnknownVariable",
    "UnknownFunction", "ArityMismatch", "NumericalError", "EvalDomainError",
    "DegenerateKernel", "EmptyKernelSupport", "NoConvergence", "OutOfBracket",
    "NearBlowup", "SingularJacobian", "ZeroMass",
    # expressions
    "parse", "eval_expr", "expr_to_str", "variables", "diff", "numeric_partial",
    # problem definition
    "ProblemSpec", "VelocityField", "InitialData", "Tolerances",
    "load_problem", "flow_displacement", "displacement_components",
    "du_displacement_components",
    # smoothed representation
    "FieldGrid", "eval_rho_sigma", "eval_u_sigma", "eval_a_sigma",
    "eval_field_grid", "integrate_rho0", "integrate_rho_sigma",
    # characteristics
    "BlowupReport", "blow_up_time", "solve_implicit", "gradient_exact",
    "invert_char_map", "eval_rho_bar", "eval_a_bar",
    # particles
    "ParticleEnsemble", "FieldEstimate", "sample_initial", "evolve_exact",
    "estimate_fields", "default_bandwidth", "dump_ensemble",
    # balance laws
    "ResidualReport", "ItermRow", "eval_I_u_sigma", "eval_I_a_sigma",
    "residual_sigma_system", "residual_pressureless", "attach_ratios",
    "i_term_persistence",
]
