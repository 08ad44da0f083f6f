"""Cross-checks tying the value function, adjoints, and simulated costs.

Three families of diagnostics:

* relations_report: along simulated paths, (a) the time derivative of the
  candidate value matches the maximized generalized Hamiltonian, (b) the
  stored control maximizes G against a control grid, and (c) supplied
  adjoint trajectories match the value-derived ones of
  pmp.adjoint_from_value, p1 = V_x q, p2 = V_x1 q, k1 = (V_xx σ + V_x f_z) q,
  k2 = (V_xx1 σ + V_x1 f_z) q.

* compare_controls: paired Monte Carlo cost comparison of a base policy
  against perturbations, using common random numbers (identical per-path
  seeds) so the cost differences are estimated path by path.

* closed_form_cost_check: the regression Monte Carlo cost of an ensemble
  simulated under the optimal policy against the closed-form value
  V(s, x, x1) at the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import sdde
from .core import FeedbackPolicy, SimConfig, StructuredModel
from .bsdde import RegressionBasis, cost_estimate
from .hjb import ValueCandidate, args_from_candidate, generalized_hamiltonian
from .pmp import Adjoints, adjoint_from_value
from .sdde import ForwardEnsemble


@dataclass
class RelationsReport:
    """Maximum violations of the value/adjoint consistency relations."""

    time_slope: float  # max |V_t − G(u*)|
    grid_optimality: float  # max over grid of G(u_alt) − G(u*)
    adjoint_mismatch: dict  # per-component max relative mismatch
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": "relations",
            "time_slope": self.time_slope,
            "grid_optimality": self.grid_optimality,
            "adjoint_mismatch": self.adjoint_mismatch,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _adjoint_mismatch(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    adjoint: Adjoints,
) -> dict:
    """Largest relative mismatch of each supplied adjoint against the
    value-derived one, each path scaled by its own largest |reference|.

    A function of its own so that the reference adjoints are freed before
    relations_report allocates its Hamiltonian arrays.
    """
    ref = adjoint_from_value(model, cand, ensemble, adjoint.q)
    mismatch = {}
    for name in ("p1", "p2", "k1", "k2"):
        want = getattr(ref, name)
        err = np.max(np.abs(getattr(adjoint, name) - want), axis=1)
        scale = np.maximum(np.max(np.abs(want), axis=1), 1e-300)
        mismatch[name] = max(0.0, float(np.max(err / scale)))
    return mismatch


def relations_report(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    adjoint: Adjoints,
    n_grid: int = 9,
    tol: float = 1e-4,
) -> RelationsReport:
    """Consistency of the candidate value and adjoints along simulated paths."""
    mismatch = _adjoint_mismatch(model, cand, ensemble, adjoint)

    t = ensemble.times
    x, x1, x2 = ensemble.x, ensemble.x1, ensemble.x2
    u_star = np.moveaxis(ensemble.controls, 2, 0)
    args = args_from_candidate(cand, t, x, x1)

    g_star = generalized_hamiltonian(model, t, x, x1, x2, u_star, args)
    v_t = cand.v_s(t, x, x1)
    time_slope = float(np.max(np.abs(v_t - g_star)))

    # Grid optimality of the stored control, coordinate by coordinate.
    worst_gap = -np.inf
    box = model.control_set
    u_alt = u_star.copy(order="K")  # node-major, like x
    for i in range(box.n_controls):
        for val in box.axis_grid(i, n_grid):
            u_alt[i] = val
            with np.errstate(all="ignore"):
                g_alt = generalized_hamiltonian(model, t, x, x1, x2, u_alt, args)
            g_alt = np.where(np.isfinite(g_alt), g_alt, -np.inf)
            worst_gap = max(worst_gap, float(np.max(g_alt - g_star)))
        u_alt[i] = u_star[i]

    worst = max(time_slope, worst_gap, *mismatch.values())
    return RelationsReport(
        time_slope=time_slope,
        grid_optimality=worst_gap,
        adjoint_mismatch=mismatch,
        tolerance=tol,
        passed=worst < tol,
    )


@dataclass
class PolicyComparison:
    """Paired cost difference of one perturbed policy against the base."""

    label: str
    cost: float
    cost_stderr: float
    paired_diff_mean: float
    paired_diff_stderr: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "policy": self.label,
            "cost": self.cost,
            "cost_stderr": self.cost_stderr,
            "paired_diff_mean": self.paired_diff_mean,
            "paired_diff_stderr": self.paired_diff_stderr,
            "pass": self.passed,
        }


@dataclass
class ComparisonReport:
    """Common-random-number cost comparison of a base policy vs perturbations.

    Passes when every perturbation's paired mean cost increase is above
    −3 standard errors of the paired difference.
    """

    base_label: str
    base_cost: float
    base_stderr: float
    comparisons: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": "compare_controls",
            "base_policy": self.base_label,
            "base_cost": self.base_cost,
            "base_stderr": self.base_stderr,
            "comparisons": [c.to_dict() for c in self.comparisons],
            "pass": self.passed,
        }


def compare_controls(
    model: StructuredModel,
    base: FeedbackPolicy,
    perturbations: Sequence[FeedbackPolicy],
    initial_path: Callable[[float], float],
    config: SimConfig,
    basis: RegressionBasis,
) -> ComparisonReport:
    """Paired Monte Carlo cost comparison under common random numbers.

    Every policy is simulated on the same Brownian increments, drawn once
    for the master seed; cost differences are then averaged pathwise, which
    removes most of the common noise.
    """
    h = config.step_size(model.params)
    config.validate_grid(model.params)  # a bad grid fails before the draw
    dw = sdde.brownian_increments(config.master_seed, config.n_paths, config.n_steps, h)

    def cost(policy):
        # Only the per-path samples outlive the call: each estimate holds a
        # whole forward ensemble and backward solution, so it is released
        # before the next policy is simulated.
        ensemble = sdde.simulate_forward(model, policy, initial_path, config, dw)
        est = cost_estimate(model, ensemble, basis)
        return est.value, est.stderr, est.samples

    base_value, base_stderr, base_samples = cost(base)
    comparisons = []
    n = base_samples.size
    for policy in perturbations:
        value, value_stderr, samples = cost(policy)
        diff = samples - base_samples
        mean = float(diff.mean())
        stderr = float(diff.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        comparisons.append(
            PolicyComparison(
                label=policy.label,
                cost=value,
                cost_stderr=value_stderr,
                paired_diff_mean=mean,
                paired_diff_stderr=stderr,
                passed=mean >= -3.0 * stderr,
            )
        )
    return ComparisonReport(
        base_label=base.label,
        base_cost=base_value,
        base_stderr=base_stderr,
        comparisons=comparisons,
        passed=all(c.passed for c in comparisons),
    )


def scaled_policy(policy: FeedbackPolicy, factors: Sequence[float], label: str) -> FeedbackPolicy:
    """Policy with each control coordinate multiplied by a fixed factor."""
    factors = np.atleast_1d(np.asarray(factors, float))

    def evaluate(t, x, x1):
        u = policy.at(t, x, x1)
        return u * factors.reshape((factors.size,) + (1,) * (u.ndim - 1))

    return FeedbackPolicy(evaluate=evaluate, n_controls=policy.n_controls, label=label)


@dataclass
class CostCheck:
    """Monte Carlo cost versus the closed-form value at the initial state."""

    cost: float
    stderr: float
    reference: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": "closed_form_cost",
            "cost": self.cost,
            "stderr": self.stderr,
            "reference": self.reference,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def closed_form_cost_check(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    basis: RegressionBasis,
    bias_allowance: float = 0.5,
) -> CostCheck:
    """Recursive cost of an optimally controlled ensemble against V(s, x, x1).

    The value is the cost at the optimum, J(u*) = V.  The tolerance combines
    the Monte Carlo error (3 standard errors) with a discretization
    allowance proportional to the step size.
    """
    est = cost_estimate(model, ensemble, basis)
    h = ensemble.config.step_size(model.params)
    x0 = ensemble.x[0, 0]
    x1_0 = ensemble.x1[0, 0]
    reference = float(cand.v(model.params.start_s, x0, x1_0))
    tolerance = 3.0 * est.stderr + bias_allowance * h
    return CostCheck(
        cost=est.value,
        stderr=est.stderr,
        reference=reference,
        tolerance=tolerance,
        passed=abs(est.value - reference) <= tolerance,
    )
