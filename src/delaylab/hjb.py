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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Array, FeedbackPolicy, StructuredModel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio


@dataclass
class ValueCandidate:
    """Candidate value function with analytic partial derivatives.

    All callables take (s, x, x1) and broadcast over arrays.  v_xx1 is
    optional; when absent it is recovered by central differencing v_x1 in x.
    """

    v: Callable
    v_s: Callable
    v_x: Callable
    v_xx: Callable
    v_x1: Callable
    v_xx1: Callable | None = None

    def v_xx1_value(self, s, x, x1, step: float = 1e-5):
        if self.v_xx1 is not None:
            return self.v_xx1(s, x, x1)
        e = step * (1.0 + np.abs(x))
        return (self.v_x1(s, x + e, x1) - self.v_x1(s, x - e, x1)) / (2.0 * e)


@dataclass(frozen=True)
class GArgs:
    """Slot values for the generalized Hamiltonian: k = -V, p = -V_x,
    R = -V_xx, q = -V_x1 when instantiated from a candidate value."""

    k: Array
    p: Array
    R: Array
    q: Array


def args_from_candidate(cand: ValueCandidate, s, x, x1) -> GArgs:
    return GArgs(
        k=-cand.v(s, x, x1),
        p=-cand.v_x(s, x, x1),
        R=-cand.v_xx(s, x, x1),
        q=-cand.v_x1(s, x, x1),
    )


def generalized_hamiltonian(
    model: StructuredModel, s, x, x1, x2, u, args: GArgs
):
    """G = b·p + ½σ²R + (x − λx1 − e^{-λδ}x2)·q + f(s, x, x1, k, σp, u)."""
    params = model.params
    b = model.drift(s, x, x1, x2, u)
    sg = model.sigma(s, x, x1, u)
    f = model.generator(s, x, x1, x2, args.k, sg * args.p, u)
    return (
        b * args.p
        + 0.5 * sg**2 * args.R
        + (x - params.lam * x1 - params.e_minus * x2) * args.q
        + f
    )


def _golden_refine(fun, lo: Array, hi: Array, iters: int):
    """Vectorized golden-section maximization of a unimodal coordinate slice."""
    a = np.array(lo, float, copy=True)
    b = np.array(hi, float, copy=True)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
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
    s: float,
    x,
    x1,
    x2,
    args: GArgs,
    maximizer: FeedbackPolicy | None = None,
    n_grid: int = 64,
    refine: bool = True,
    refine_iters: int = 60,
    sweeps: int = 2,
):
    """Supremum of G over the control box at probe states.

    Evaluates G on a tensor grid of the box (optionally joined by a supplied
    candidate maximizer), then refines each control coordinate around the
    best node by golden-section search.  Returns (g_max, u_star) with u_star
    of shape (n_controls,) + shape(x).

    Non-finite G values (e.g. utility singularities at a zero-consumption
    grid node) are treated as -inf and never selected.
    """
    x = np.asarray(x, float)
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    box = model.control_set
    n_u = box.n_controls
    shape = np.broadcast_shapes(x.shape, x1.shape, x2.shape)

    axes = [box.axis_grid(i, n_grid) for i in range(n_u)]
    mesh = np.meshgrid(*axes, indexing="ij")
    u_flat = np.stack([m.ravel() for m in mesh])  # (n_u, n_combo)
    n_combo = u_flat.shape[1]

    # Broadcast probes against the control grid: trailing combo axis.
    def col(a):
        return np.reshape(
            np.broadcast_to(np.asarray(a, float), shape), shape + (1,)
        )

    xb, x1b, x2b = col(x), col(x1), col(x2)
    ub = u_flat.reshape((n_u,) + (1,) * len(shape) + (n_combo,))
    argsb = GArgs(k=col(args.k), p=col(args.p), R=col(args.R), q=col(args.q))

    with np.errstate(all="ignore"):
        g = generalized_hamiltonian(model, s, xb, x1b, x2b, ub, argsb)
    g = np.where(np.isfinite(g), g, -np.inf)
    g = np.broadcast_to(g, shape + (n_combo,))
    best_idx = np.argmax(g, axis=-1)
    g_best = np.take_along_axis(g, best_idx[..., None], axis=-1)[..., 0]
    u_best = u_flat[:, best_idx.ravel()].reshape((n_u,) + shape).copy()

    def eval_at(u_mat):
        with np.errstate(all="ignore"):
            val = generalized_hamiltonian(model, s, x, x1, x2, u_mat, args)
        val = np.where(np.isfinite(val), val, -np.inf)
        return np.broadcast_to(val, shape)

    if maximizer is not None:
        u_cand = maximizer.at(s, np.broadcast_to(x, shape), np.broadcast_to(x1, shape))
        u_cand = model.control_set.clamp(u_cand)
        g_cand = eval_at(u_cand)
        take = g_cand > g_best
        g_best = np.where(take, g_cand, g_best)
        u_best = np.where(take, u_cand, u_best)

    if refine:
        spacing = np.array(
            [axes[i][1] - axes[i][0] if n_grid > 1 else 0.0 for i in range(n_u)]
        )
        for _ in range(sweeps):
            for i in range(n_u):
                if spacing[i] == 0.0:
                    continue
                lo = np.clip(u_best[i] - spacing[i], box.lower[i], box.upper[i])
                hi = np.clip(u_best[i] + spacing[i], box.lower[i], box.upper[i])

                def slice_fun(ui, i=i):
                    u_try = u_best.copy()
                    u_try[i] = ui
                    return eval_at(u_try)

                ui_ref, g_ref = _golden_refine(slice_fun, lo, hi, refine_iters)
                improve = g_ref > g_best
                u_best[i] = np.where(improve, ui_ref, u_best[i])
                g_best = np.where(improve, g_ref, g_best)

    return g_best, u_best


def hjb_residual(
    model: StructuredModel,
    cand: ValueCandidate,
    s: float,
    x,
    x1,
    x2,
    maximizer: FeedbackPolicy | None = None,
    n_grid: int = 64,
    refine: bool = True,
):
    """Residual −V_s + sup_u G at probe states; also returns the argmax.

    Accepts scalars or arrays of probe states (broadcast together).
    """
    args = args_from_candidate(cand, s, x, x1)
    g_max, u_star = maximize_hamiltonian(
        model, s, x, x1, x2, args, maximizer=maximizer, n_grid=n_grid, refine=refine
    )
    residual = -cand.v_s(s, np.asarray(x, float), np.asarray(x1, float)) + g_max
    return residual, u_star


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


def hjb_residual_check(
    model: StructuredModel,
    cand: ValueCandidate,
    s_values: Sequence[float],
    x_values: Array,
    x1_values: Array,
    x2: float = 0.0,
    maximizer: FeedbackPolicy | None = None,
    n_grid: int = 32,
    tol: float = 1e-6,
) -> CheckReport:
    """Max |−V_s + sup_u G| over a tensor probe grid at fixed x2."""
    xg, x1g = np.meshgrid(np.asarray(x_values), np.asarray(x1_values), indexing="ij")
    worst = 0.0
    n = 0
    for s in s_values:
        res, _ = hjb_residual(
            model, cand, float(s), xg, x1g, x2, maximizer=maximizer, n_grid=n_grid
        )
        worst = max(worst, float(np.max(np.abs(res))))
        n += xg.size
    return CheckReport(
        check="hjb_residual",
        probes=n,
        max_residual=worst,
        tolerance=tol,
        passed=worst < tol,
    )


def x2_independence_check(
    model: StructuredModel,
    cand: ValueCandidate,
    s_values: Sequence[float],
    x_values: Array,
    x1_values: Array,
    x2_values: Sequence[float],
    maximizer: FeedbackPolicy | None = None,
    n_grid: int = 16,
    tol: float = 1e-8,
) -> CheckReport:
    """Spread of the residual across x2 values at each probe.

    The reduced equation must hold for every pointwise-delay value, so the
    residual surface must be flat in x2; a spread above tolerance flags a
    broken structural constraint.
    """
    xg, x1g = np.meshgrid(np.asarray(x_values), np.asarray(x1_values), indexing="ij")
    worst = 0.0
    n = 0
    for s in s_values:
        per_x2 = []
        for x2 in x2_values:
            res, _ = hjb_residual(
                model, cand, float(s), xg, x1g, float(x2),
                maximizer=maximizer, n_grid=n_grid,
            )
            per_x2.append(res)
        stack = np.stack(per_x2)
        spread = stack.max(axis=0) - stack.min(axis=0)
        worst = max(worst, float(spread.max()))
        n += xg.size
    return CheckReport(
        check="x2_independence",
        probes=n,
        max_residual=worst,
        tolerance=tol,
        passed=worst < tol,
    )


def compatibility_pde_check(
    model: StructuredModel,
    cand: ValueCandidate,
    s: float,
    x_values: Array,
    x1_values: Array,
    policy: FeedbackPolicy,
    rel_step: float = 1e-5,
    tol: float = 1e-6,
) -> CheckReport:
    """First-order compatibility system at probe points.

    The feedback control and the value-consistent slots y = −V,
    z = −σ·V_x are substituted into every coefficient before the (x, x1)
    partials are taken, so the derivatives see the composed fields.
    """
    params = model.params
    ep = params.e_plus
    xg, x1g = np.meshgrid(np.asarray(x_values), np.asarray(x1_values), indexing="ij")

    def composed(name: str):
        def fun(x, x1):
            u = policy.at(s, x, x1)
            if name == "bhat":
                return model.b1(s, x, x1, u) + ep * (x - params.lam * x1) * model.b2(
                    s, x, x1, u
                )
            if name == "sigma":
                return model.sigma(s, x, x1, u)
            if name == "f1":
                y = -cand.v(s, x, x1)
                z = -model.sigma(s, x, x1, u) * cand.v_x(s, x, x1)
                return model.f1(s, x, x1, y, z, u)
            if name == "phi":
                return model.phi(x, x1)
            raise ValueError(name)

        return fun

    u0 = policy.at(s, xg, x1g)
    y0 = -cand.v(s, xg, x1g)
    z0 = -model.sigma(s, xg, x1g, u0) * cand.v_x(s, xg, x1g)
    b2_val = model.b2(s, xg, x1g, u0)
    f2_val = model.f2(s, xg, x1g, y0, z0, u0)

    residuals = {}
    worst = 0.0
    hx = rel_step * (1.0 + np.abs(xg))
    h1 = rel_step * (1.0 + np.abs(x1g))
    for name in ("bhat", "sigma", "f1", "phi"):
        fun = composed(name)
        df_dx = (fun(xg + hx, x1g) - fun(xg - hx, x1g)) / (2.0 * hx)
        df_dx1 = (fun(xg, x1g + h1) - fun(xg, x1g - h1)) / (2.0 * h1)
        res = df_dx1 + ep * (f2_val - b2_val * df_dx)
        res = np.broadcast_to(res, xg.shape)
        residuals[name] = res
        worst = max(worst, float(np.max(np.abs(res))))

    return CheckReport(
        check="compatibility_pde",
        probes=xg.size,
        max_residual=worst,
        tolerance=tol,
        passed=worst < tol,
        extra={
            "per_equation": {
                name: float(np.max(np.abs(r))) for name, r in residuals.items()
            }
        },
    )
