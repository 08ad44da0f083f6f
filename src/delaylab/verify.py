"""Cross-checks tying the value function, adjoints, and simulated costs.

Three families of diagnostics:

* relations_report: along simulated paths, (a) the time derivative of the
  candidate value matches the maximized generalized Hamiltonian, (b) the
  stored control maximizes G against a control grid, and (c) the adjoints
  of a supplied map (pmp.AdjointMap, e.g. the closed form) match the
  value-derived ones of pmp.adjoint_from_value, p1 = V_x q, p2 = V_x1 q,
  k1 = (V_xx σ + V_x f_z) q, k2 = (V_xx1 σ + V_x1 f_z) q, at the map's own
  q.  All three share one fold of maxima over the ensemble in node-row
  blocks (ForwardEnsemble.max_over_blocks), and both adjoints are computed
  one block at a time, so the check's temporaries stay the size of one
  block whatever the ensemble size, and the reported maxima are the same
  bits as over the whole ensemble.  Each block's second half of nodes runs
  on a second thread beside the first half, and the two halves hold one
  block's temporaries between them.  In each block G is one map of the
  control (hjb.generalized_hamiltonian), so u* and every grid value pay only
  for the terms that depend on the control.  G is not linear in the
  control, so its grid keeps CONTROL_GRID_POINTS values per coordinate.

* compare_controls: paired Monte Carlo cost comparison of a base policy
  against perturbations, using common random numbers (identical per-path
  seeds) so the cost differences are estimated path by path; its numbers
  are judged by paired_cost_check.

* closed_form_cost_check: the regression Monte Carlo cost of an ensemble
  simulated under the optimal policy against the closed-form value
  V(s, x, x1) at the initial state.

compare_controls and closed_form_cost_check read only the cost, its
standard error and the per-path samples of the backward sweep, so they run
it through bsdde.cost_samples, which keeps two y rows and one z row in
place of y and z over the whole ensemble.

Every check returns an hjb.CheckReport, its named numbers in extra.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import sdde
from .core import FeedbackPolicy, SimConfig, StructuredModel, nan_max
from .bsdde import RegressionBasis, cost_samples
from .hjb import CheckReport, ValueCandidate, generalized_hamiltonian
from .pmp import AdjointMap, Adjoints, adjoint_from_value
from .sdde import ForwardEnsemble

# Discretization allowance of closed_form_cost_check, per unit of step size.
COST_BIAS_ALLOWANCE = 0.5

# Points per control coordinate of the grid against which relations_report
# tests the stored control.
CONTROL_GRID_POINTS = 9

# Pass threshold of relations_report.
RELATIONS_TOL = 1e-4


_ADJOINTS = ("p1", "p2", "k1", "k2")


def _block_adjoint_maxima(model, cand, part: ForwardEnsemble, adjoint: Adjoints):
    """Per-path max |supplied − value-derived| and max |value-derived| of
    each adjoint over one node-row block, part, whose supplied adjoints are
    adjoint, as two (4, n_paths) arrays."""
    ref = adjoint_from_value(model, cand, part, adjoint.q)
    pairs = [(getattr(adjoint, name), getattr(ref, name)) for name in _ADJOINTS]
    err = np.stack([np.max(np.abs(have - want), axis=1) for have, want in pairs])
    top = np.stack([np.max(np.abs(want), axis=1) for _, want in pairs])
    return err, top


def _block_relations(model, cand, part: ForwardEnsemble, axes):
    """max |V_t − G(u*)| over one node-row block, and max G(u_alt) − G(u*)
    for each (coordinate, value) of the control grid, coordinate by
    coordinate along axes.

    G is one map of the control at the block's states
    (hjb.generalized_hamiltonian).
    A gap reads every non-finite G(u_alt) as −inf.  The masking changes only
    +inf and NaN entries, and either makes the plain max of G(u_alt) − G(u*)
    non-finite, so a finite plain max, taken in place, is the gap; only when
    it is not is G(u_alt) evaluated again and masked.
    """
    t, x, x1, x2, u_star = part.times, part.x, part.x1, part.x2, part.u
    # generalized_hamiltonian evaluates the candidate's slots at the block's
    # states itself, and frees q once it has taken the memory term.
    g_of_u = generalized_hamiltonian(model, t, x, x1, x2, cand)

    g_star = g_of_u(u_star)
    slope = np.max(np.abs(cand.v_s(t, x, x1) - g_star))

    gaps = []
    u_alt = u_star.copy(order="K")  # node-major, like x
    for i, values in enumerate(axes):
        for val in values:
            u_alt[i] = val
            with np.errstate(all="ignore"):
                diff = g_of_u(u_alt)  # the block's shape, like its memory term
                diff -= g_star
                gap = np.max(diff)
                del diff  # the next G is computed without this one alive
                if not np.isfinite(gap):
                    g_alt = g_of_u(u_alt)
                    gap = np.max(np.where(np.isfinite(g_alt), g_alt, -np.inf) - g_star)
            gaps.append(gap)
        u_alt[i] = u_star[i]
    return slope, np.array(gaps)


def relations_report(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    adjoint_of: AdjointMap,
) -> CheckReport:
    """Consistency of the candidate value and adjoints along simulated paths.

    The grid optimality of the stored control is checked coordinate by
    coordinate, over CONTROL_GRID_POINTS values of each.  Each grid
    value keeps one NaN-propagating maximum over the node-row blocks, and
    those maxima are folded in grid order; a NaN gap (G(u*) could not be
    evaluated) makes grid_optimality NaN.  The supplied adjoints are
    adjoint_of at each node-row block.  Each adjoint's mismatch is
    relative, each path scaled by its own largest |reference|; one that
    cannot be evaluated is NaN.  max_residual is the NaN-propagating
    maximum of these six numbers, and the check passes below
    RELATIONS_TOL, so never on NaN.
    """
    box = model.control_set
    axes = [box.axis_grid(i, CONTROL_GRID_POINTS) for i in range(box.n_controls)]

    def block(part):
        return (
            *_block_adjoint_maxima(model, cand, part, adjoint_of(part)),
            *_block_relations(model, cand, part, axes),
        )

    err, top, time_slope, gaps = ensemble.max_over_blocks(block)
    scale = np.maximum(top, 1e-300)
    mismatch = {
        name: nan_max(0.0, float(np.max(err[j] / scale[j]))) for j, name in enumerate(_ADJOINTS)
    }
    time_slope = float(time_slope)
    worst_gap = nan_max(-math.inf, *gaps.tolist())

    worst = nan_max(time_slope, worst_gap, *mismatch.values())
    return CheckReport(
        check="relations",
        probes=ensemble.x.shape[1],
        max_residual=worst,
        tolerance=RELATIONS_TOL,
        passed=worst < RELATIONS_TOL,
        extra={
            "time_slope": time_slope,
            "grid_optimality": worst_gap,
            "adjoint_mismatch": mismatch,
        },
    )


def compare_controls(
    model: StructuredModel,
    base: FeedbackPolicy,
    perturbations: Sequence[FeedbackPolicy],
    initial_path: Callable[[float], float],
    config: SimConfig,
    basis: RegressionBasis,
) -> dict:
    """Paired Monte Carlo cost comparison under common random numbers.

    Every policy is simulated on the same Brownian increments, drawn once
    for the master seed; cost differences are then averaged pathwise, which
    removes most of the common noise, and their standard error is taken
    over the increments' antithetic pairs (sdde.pair_stderr).  Returns
    base_policy, base_cost, base_stderr and comparisons, one dict per
    perturbation.
    """
    h = config.step_size(model.params)
    config.validate_grid(model.params)  # a bad grid fails before the draw
    dw = sdde.brownian_increments(config.master_seed, config.n_paths, config.n_steps, h)

    def cost(policy):
        # Only the per-path cost samples outlive the call: the forward
        # ensemble is released before the next policy is simulated, and the
        # backward sweep keeps two y rows and one z row, never y and z over
        # the whole ensemble.
        ensemble = sdde.simulate_forward(model, policy, initial_path, config, dw)
        run = cost_samples(model, ensemble, basis)
        return run.cost, run.stderr, -run.samples

    base_value, base_stderr, base_samples = cost(base)
    comparisons = []
    for policy in perturbations:
        value, value_stderr, samples = cost(policy)
        diff = samples - base_samples
        comparisons.append(
            {
                "policy": policy.label,
                "cost": value,
                "cost_stderr": value_stderr,
                "paired_diff_mean": float(diff.mean()),
                "paired_diff_stderr": sdde.pair_stderr(diff),
            }
        )
    return {
        "base_policy": base.label,
        "base_cost": base_value,
        "base_stderr": base_stderr,
        "comparisons": comparisons,
    }


def paired_cost_check(comparisons: Sequence[dict]) -> CheckReport:
    """No perturbation of compare_controls costs less than the base policy
    by more than 3 paired standard errors: the worst (NaN-propagating)
    −paired_diff_mean − 3·paired_diff_stderr passes at or below 0."""
    worst = nan_max(
        -math.inf,
        *(-c["paired_diff_mean"] - 3.0 * c["paired_diff_stderr"] for c in comparisons),
    )
    return CheckReport(
        check="paired_cost",
        probes=len(comparisons),
        max_residual=worst,
        tolerance=0.0,
        passed=worst <= 0.0,
    )


def scaled_policy(policy: FeedbackPolicy, factors: Sequence[float], label: str) -> FeedbackPolicy:
    """Policy with each control coordinate multiplied by a fixed factor."""
    factors = np.atleast_1d(np.asarray(factors, float))

    def evaluate(t, x, x1):
        u = policy.at(t, x, x1)
        return u * factors.reshape((factors.size,) + (1,) * (u.ndim - 1))

    return FeedbackPolicy(evaluate=evaluate, n_controls=policy.n_controls, label=label)


def closed_form_cost_check(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    basis: RegressionBasis,
) -> CheckReport:
    """Recursive cost of an optimally controlled ensemble against V(s, x, x1).

    The value is the cost at the optimum, J(u*) = V, and the residual is
    |J − V|.  The tolerance combines the Monte Carlo error (3 standard
    errors) with a discretization allowance of COST_BIAS_ALLOWANCE times
    the step size.
    """
    run = cost_samples(model, ensemble, basis)
    x0 = ensemble.x[0, 0]
    x1_0 = ensemble.x1_marks[0, 0]  # mark 0 is node 0
    reference = float(cand.v(model.params.start_s, x0, x1_0))
    tolerance = 3.0 * run.stderr + COST_BIAS_ALLOWANCE * ensemble.h
    residual = abs(run.cost - reference)
    return CheckReport(
        check="cost_check",
        probes=ensemble.n_paths,
        max_residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        extra={"cost": run.cost, "stderr": run.stderr, "reference": reference},
    )
