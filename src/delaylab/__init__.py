"""Numerical laboratory for stochastic recursive control with state delay."""

from .core import (
    ConfigError,
    ConstraintViolationError,
    ControlBox,
    DelayBuffer,
    DelayLabError,
    DomainError,
    FeedbackPolicy,
    InvalidStateError,
    ModelParams,
    SimConfig,
    SimulationDivergedError,
    StructuredModel,
    constant_policy,
    derive_path_seed,
    x1_of_buffer,
)
from .sdde import (
    ForwardEnsemble,
    delayed_ito_check,
    simulate_forward,
    x1_step_ode,
)
from .bsdde import (
    BackwardSolution,
    RegressionBasis,
    cost_estimate,
    polynomial_basis,
    solve_backward,
)
from .hjb import (
    CheckReport,
    GArgs,
    ValueCandidate,
    compatibility_pde_check,
    generalized_hamiltonian,
    hjb_residual,
    x2_independence_check,
)
from .pmp import (
    Adjoints,
    adjoint_from_value,
    check_p3_zero,
    convexity_spot_check,
    hamiltonian,
    maximum_condition_check,
    simulate_q,
)
from .merton import (
    MertonParams,
    QSolution,
    build_model,
    build_policy,
    delta_coefficient,
    optimal_c,
    optimal_u,
    q_closed_form,
    q_ode_oracle,
    resolve_constraints,
    solve_q,
    value_function,
)
from .verify import (
    ComparisonReport,
    closed_form_cost_check,
    compare_controls,
    relations_report,
    scaled_policy,
)

__version__ = "0.1.0"
