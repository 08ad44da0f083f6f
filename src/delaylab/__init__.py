"""Numerical laboratory for stochastic recursive control with state delay."""

from .core import (
    ConfigError,
    ControlBox,
    DelayLabError,
    DomainError,
    FeedbackPolicy,
    ModelParams,
    SimConfig,
    SimulationDivergedError,
    StructuredModel,
    derive_path_seed,
    initial_segment,
)
from .sdde import ForwardEnsemble, simulate_forward
from .bsdde import (
    BackwardSolution,
    CostSamples,
    RegressionBasis,
    cost_samples,
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
    value_slots,
    x2_independence_check,
)
from .pmp import (
    AdjointMap,
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
    build_model,
    build_policy,
    optimal_c,
    optimal_u,
    q_closed_form,
    q_derivative,
    q_ode_oracle,
    resolve_constraints,
    value_function,
)
from .verify import (
    closed_form_cost_check,
    compare_controls,
    paired_cost_check,
    relations_report,
    scaled_policy,
)

__version__ = "0.1.0"
