"""Generalized Hamiltonian and verification checks for candidate values.

A candidate value function V(s, x, x1) is verified through the scalar

    G(s, x, x1, x2, k, p, R, q, u)
      = b·p + ½σ²·R + (x − λx1 − e^{-λδ}x2)·q + f(s, x, x1, k, σp, u)

evaluated at the negated derivative slots k = −V, p = −V_x, R = −V_xx,
q = −V_x1.  A valid candidate satisfies, for every x2,

    −V_s + sup_u G = 0,        V(T, x, x1) = −φ(x, x1),

so two independent diagnostics apply: the residual itself and the spread of
the residual across x2 values.  A third diagnostic checks the first-order
compatibility system that makes the reduction to (x, x1) possible: with
b̂ = b1 + e^{λδ}(x − λx1)·b2, each of F ∈ {b̂, σ, f1, φ} must satisfy

    ∂F/∂x1 + e^{λδ}[f2 − b2 ∂F/∂x] = 0

after the feedback control and the value-consistent (y, z) slots are
substituted into the coefficients.

G is a function of the control at a fixed state, and generalized_hamiltonian
is the one way to it: it takes a candidate value, evaluates its slots and
the control-free memory term once for a batch of states, and returns u ↦ G,
so a sweep over controls (a maximization, its hint, a grid of alternatives)
pays only for the terms that depend on u.  maximize_hamiltonian works on
plain arrays that broadcast together, and evaluates its tensor grid one node
at a time, so its memory is that of a few probe arrays.  hjb_residual takes
a sequence of probe times and puts them on one axis just before the probe
axes: it calls each candidate partial and the maximizer hint once over all
of them, and x2 may put its values on a leading axis of their own.
check-hjb makes one such sweep over all its times and x2 values, and the two
residual checks are reductions of that one residual: hjb_residual_check of
its x2 = 0 slice, x2_independence_check of its spread over x2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Array, FeedbackPolicy, StructuredModel, nan_max

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio

# maximize_hamiltonian refines each control coordinate REFINE_SWEEPS times,
# by REFINE_ITERS golden-section steps each.
REFINE_ITERS = 60
REFINE_SWEEPS = 2

# Points per control coordinate of maximize_hamiltonian's tensor grid.
HAMILTONIAN_GRID_POINTS = 16

# Relative step of the central differences in compatibility_pde_check.
COMPAT_REL_STEP = 1e-5

# Pass thresholds of hjb_residual_check, x2_independence_check and
# compatibility_pde_check.
HJB_RESIDUAL_TOL = 1e-6
X2_SPREAD_TOL = 1e-8
COMPAT_TOL = 1e-6


@dataclass
class ValueCandidate:
    """Candidate value function with analytic partial derivatives.

    All callables take (s, x, x1) and broadcast over arrays.
    """

    v: Callable
    v_s: Callable
    v_x: Callable
    v_xx: Callable
    v_x1: Callable
    v_xx1: Callable


def value_slots(model: StructuredModel, cand: ValueCandidate, s, x, x1, u):
    """The backward slots y = −V and z = −σ·V_x that the candidate value
    assigns to the state (s, x, x1) under the controls u."""
    y = -cand.v(s, x, x1)
    z = -model.sigma(s, x, x1, u) * cand.v_x(s, x, x1)
    return y, z


def generalized_hamiltonian(model: StructuredModel, s, x, x1, x2, cand: ValueCandidate):
    """The map u ↦ G(s, x, x1, x2, k, p, R, q, u) at fixed states, at the
    candidate's slots k = −V, p = −V_x, R = −V_xx, q = −V_x1.

    The slots and the memory term (x − λx1 − e^{-λδ}x2)·q do not depend on
    u, so they are computed once here, each candidate partial in one call
    over the broadcast states.  Each call of the returned map adds ½σ²·R,
    the memory term and f, in that order, into one array, b·p, so that each
    term is freed before the next is computed and the sum keeps the bits of
    b·p + ½σ²·R + memory + f.  The map keeps k, p and R but not q, which
    only the memory term reads.
    """
    memory = model.x1_drift(x, x1, x2) * -cand.v_x1(s, x, x1)
    k, p, R = -cand.v(s, x, x1), -cand.v_x(s, x, x1), -cand.v_xx(s, x, x1)

    def g(u):
        sg = model.sigma(s, x, x1, u)
        g = model.drift(s, x, x1, x2, u) * p
        g += 0.5 * sg**2 * R
        g += memory
        z = sg * p
        del sg  # f is computed without σ alive
        g += model.generator(s, x, x1, x2, k, z, u)
        return g

    return g


def _golden_refine(fun, lo: Array, hi: Array):
    """Vectorized golden-section maximization of a unimodal coordinate slice."""
    a = np.array(lo, float, copy=True)
    b = np.array(hi, float, copy=True)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(REFINE_ITERS):
        # Keeping [a, d] makes the old c the new d; keeping [c, b] makes the
        # old d the new c.  Only the other interior point is new, and it is
        # chosen per probe so one call evaluates it across the probe axis.
        pick_c = fc >= fd
        b = np.where(pick_c, d, b)
        a = np.where(pick_c, a, c)
        c_new = b - _INV_PHI * (b - a)
        d_new = a + _INV_PHI * (b - a)
        f_new = fun(np.where(pick_c, c_new, d_new))
        c, d = np.where(pick_c, c_new, d), np.where(pick_c, c, d_new)
        fc, fd = np.where(pick_c, f_new, fd), np.where(pick_c, fc, f_new)
    mid = 0.5 * (a + b)
    return mid, fun(mid)


def maximize_hamiltonian(
    model: StructuredModel,
    s,
    x,
    x1,
    x2,
    cand: ValueCandidate,
    hint: Array | None = None,
):
    """Supremum of G over the control box at probe states, at the slots of
    the candidate value cand.

    s, x, x1 and x2 are arrays that broadcast together to the probe shape.
    G is evaluated on a tensor grid of HAMILTONIAN_GRID_POINTS nodes per
    control coordinate, one node at a time, and each probe keeps its first
    best node, as argmax would.  hint, an array of n_controls controls that
    each broadcast to the probe shape, is clamped into the box and taken
    where it does strictly better.  Each control coordinate is then refined
    around the best by golden-section search, in REFINE_SWEEPS sweeps over
    the coordinates.  Returns (g_max, u_star) with g_max of the probe shape
    and u_star of shape (n_controls,) + shape.

    Non-finite G values (e.g. utility singularities at a zero-consumption
    grid node) are treated as -inf and never selected.
    """
    box = model.control_set
    n_u = box.n_controls
    shape = np.broadcast_shapes(np.shape(s), np.shape(x), np.shape(x1), np.shape(x2))
    with np.errstate(all="ignore"):
        g_of_u = generalized_hamiltonian(model, s, x, x1, x2, cand)

    def eval_at(u_mat):
        with np.errstate(all="ignore"):
            val = g_of_u(u_mat)
        val = np.where(np.isfinite(val), val, -np.inf)
        return np.broadcast_to(val, shape)

    axes = [box.axis_grid(i, HAMILTONIAN_GRID_POINTS) for i in range(n_u)]
    grid = (np.reshape(node, (n_u,) + (1,) * len(shape)) for node in itertools.product(*axes))
    u_best = np.broadcast_to(next(grid), (n_u,) + shape).copy()
    g_best = eval_at(u_best).copy()

    def keep_better(u, g):
        take = g > g_best
        np.copyto(u_best, u, where=take)
        np.copyto(g_best, g, where=take)

    for u in grid:
        keep_better(u, eval_at(u))
    if hint is not None:
        hint = np.stack([np.broadcast_to(h, shape) for h in box.clamp(hint)])
        keep_better(hint, eval_at(hint))

    for _ in range(REFINE_SWEEPS):
        for i in range(n_u):
            spacing = axes[i][1] - axes[i][0]
            lo = np.clip(u_best[i] - spacing, box.lower[i], box.upper[i])
            hi = np.clip(u_best[i] + spacing, box.lower[i], box.upper[i])

            def slice_fun(ui, i=i):
                u_try = u_best.copy()
                u_try[i] = ui
                return eval_at(u_try)

            ui_ref, g_ref = _golden_refine(slice_fun, lo, hi)
            improve = g_ref > g_best
            u_best[i] = np.where(improve, ui_ref, u_best[i])
            g_best = np.where(improve, g_ref, g_best)

    return g_best, u_best


def hjb_residual(
    model: StructuredModel,
    cand: ValueCandidate,
    times: Sequence[float],
    x,
    x1,
    x2,
    maximizer: FeedbackPolicy | None = None,
):
    """Residual −V_s + sup_u G at probe times and states; also returns the argmax.

    x and x1 broadcast together to the probe shape.  The times go on one axis
    just before the probe axes, as an array, so the candidate's slots, V_s
    and the maximizer's hint are each computed in one call over every
    time.  numpy rounds a term such as Q(s) ** −γ differently for a float s
    than for an array; as every call hands the candidate arrays, a call at
    one time gives the bits of its slice of a call at several.  x2 broadcasts
    against that (len(times),) + probe shape, so it may put its values on a
    leading axis of their own.  The residual has the broadcast shape, and
    u_star (n_controls,) + that shape.
    """
    x, x1 = np.broadcast_arrays(np.asarray(x, float), np.asarray(x1, float))
    s = np.reshape(np.asarray(times, float), (-1,) + (1,) * x.ndim)
    # at returns the shape of its x, so x and x1 take the time axis of s.
    hint = None if maximizer is None else maximizer.at(s, *np.broadcast_arrays(x, x1, s)[:2])
    g_max, u_star = maximize_hamiltonian(model, s, x, x1, x2, cand, hint)
    return -cand.v_s(s, x, x1) + g_max, u_star


@dataclass
class CheckReport:
    """Uniform record of a verification check, serializable to JSON."""

    check: str
    probes: int
    max_residual: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "probes": self.probes,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            **self.extra,
        }


def hjb_residual_check(residual: Array) -> CheckReport:
    """Max |−V_s + sup_u G| over the probes of an hjb_residual sweep.

    check-hjb passes its sweep's x2 = 0 slice.  Passes below
    HJB_RESIDUAL_TOL.  A residual that cannot be evaluated (NaN) makes the
    maximum NaN, and the check fails.
    """
    worst = float(np.max(np.abs(residual)))
    return CheckReport(
        check="hjb_residual",
        probes=residual.size,
        max_residual=worst,
        tolerance=HJB_RESIDUAL_TOL,
        passed=worst < HJB_RESIDUAL_TOL,
    )


def x2_independence_check(residual: Array) -> CheckReport:
    """Spread of the residual across x2 values at each probe.

    residual holds the x2 values on its leading axis.  The reduced equation
    must hold for every pointwise-delay value, so the residual surface must
    be flat in x2; a spread of X2_SPREAD_TOL or more flags a broken
    structural constraint.  A NaN spread makes the check fail.
    """
    worst = float((residual.max(axis=0) - residual.min(axis=0)).max())
    return CheckReport(
        check="x2_independence",
        probes=residual[0].size,
        max_residual=worst,
        tolerance=X2_SPREAD_TOL,
        passed=worst < X2_SPREAD_TOL,
    )


def compatibility_pde_check(
    model: StructuredModel,
    cand: ValueCandidate,
    s: float,
    x_values: Array,
    x1_values: Array,
    policy: FeedbackPolicy,
) -> CheckReport:
    """First-order compatibility system at probe points, passing below
    COMPAT_TOL.

    The feedback control and the value-consistent slots y = −V,
    z = −σ·V_x are substituted into every coefficient before the (x, x1)
    partials are taken, so the derivatives see the composed fields.  A
    residual that cannot be evaluated (NaN) makes the check fail.
    """
    params = model.params
    ep = params.e_plus
    xg, x1g = np.meshgrid(np.asarray(x_values), np.asarray(x1_values), indexing="ij")

    # The composed fields F(x, x1, u) of the four equations; each is taken
    # at the feedback control of its own (x, x1).
    composed = {
        "bhat": lambda x, x1, u: model.b1(s, x, x1, u)
        + ep * (x - params.lam * x1) * model.b2(s, x, x1, u),
        "sigma": lambda x, x1, u: model.sigma(s, x, x1, u),
        "f1": lambda x, x1, u: model.f1(s, x, x1, *value_slots(model, cand, s, x, x1, u), u),
        "phi": lambda x, x1, u: model.phi(x, x1),
    }

    def at(field, x, x1):
        return field(x, x1, policy.at(s, x, x1))

    u0 = policy.at(s, xg, x1g)
    y0, z0 = value_slots(model, cand, s, xg, x1g, u0)
    b2_val = model.b2(s, xg, x1g, u0)
    f2_val = model.f2(s, xg, x1g, y0, z0, u0)

    per_equation = {}
    hx = COMPAT_REL_STEP * (1.0 + np.abs(xg))
    h1 = COMPAT_REL_STEP * (1.0 + np.abs(x1g))
    for name, field in composed.items():
        df_dx = (at(field, xg + hx, x1g) - at(field, xg - hx, x1g)) / (2.0 * hx)
        df_dx1 = (at(field, xg, x1g + h1) - at(field, xg, x1g - h1)) / (2.0 * h1)
        res = df_dx1 + ep * (f2_val - b2_val * df_dx)
        per_equation[name] = float(np.max(np.abs(res)))
    worst = nan_max(0.0, *per_equation.values())

    return CheckReport(
        check="compatibility_pde",
        probes=xg.size,
        max_residual=worst,
        tolerance=COMPAT_TOL,
        passed=worst < COMPAT_TOL,
        extra={"per_equation": per_equation},
    )
