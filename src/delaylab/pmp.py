"""Adjoint processes and maximum-condition diagnostics.

The stochastic maximum principle for the delayed recursive problem uses the
Hamiltonian

    H(t, x, x1, x2, y, z, u; p, q, k)
      = p1·b + p2·(x − λx1 − e^{-λδ}x2) + k1·σ − q·f

with a triple of first-order adjoints (p1, p2, p3), their martingale parts
(k1, k2), and a scalar factor q solving the forward equation

    dq(t) = q(t) [f_y dt + f_z dW(t)],   q(s) = 1.

H is a function of the control at fixed states and adjoints, as G is in
hjb (hjb.generalized_hamiltonian): hamiltonian_at takes the adjoint record
whole, as G takes the candidate; it computes its memory term
p2·(x − λx1 − e^{-λδ}x2) once and returns u ↦ H, which the maximum
condition differentiates and the convexity probe evaluates.  The maximum
condition's variational inequality H_u(u*)·(u* − v) is linear in the
alternative control v, so it is tested at the two ends of each control
coordinate of the box, where its maximum over the box lies.

f_y and f_z are the model's analytic partials of the generator
(StructuredModel.f_y and f_z); a model without them cannot enter this layer.

When a smooth candidate value V is available, the adjoints are recovered
directly from it:

    p1 = V_x q,    k1 = (V_xx σ + V_x f_z) q,
    p2 = V_x1 q,   k2 = (V_xx1 σ + V_x1 f_z) q,   p3 ≡ 0,

with terminal values p1(T) = −φ_x q(T), p2(T) = −φ_x1 q(T), p3(T) = 0.
The p3 ≡ 0 reduction is equivalent to the pointwise identity
b2·p1 − e^{-λδ}·p2 − q·f2 = 0 along each optimal path, which is checked both
directly and by back-integrating the p3 drift from its terminal value.
Adjoints holds only what varies, (p1, p2, q, k1, k2); adjoint.csv writes
its p3 column as the zero of that theorem.

The adjoints are element by element in the ensemble, so the checks never
hold them over the whole ensemble: they take a map adjoint_of(part) ->
Adjoints and call it on each part of the ensemble they walk
(ForwardEnsemble.part).  check_p3_zero walks the node-row blocks of
ForwardEnsemble.blocks from the terminal block, with the partial sum of the
p3 back-integration carried.  The maximum-condition check folds its
per-path maxima over them with ForwardEnsemble.max_over_blocks, which runs
each block's second half of nodes on a second thread, to the same bits as
over the whole ensemble.  write_adjoint_csv computes the
adjoints for each block of paths the CSV writer asks for.  simulate_q
likewise gives q one node-row block at a time, carrying one row of log q
forward, and q_factor_check folds its maximum over those blocks.  So their
temporaries stay the size of one block whatever the ensemble size.
The checks read the ensemble's controls u and step h as stored.  The p3
and maximum-condition checks take their residuals path by path and report
the worst path, both through _worst_path.  The convexity probe takes path 0
at nodes 0 and n_steps // 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .core import Array, StructuredModel, nan_max, write_long_csv
from .hjb import CheckReport, ValueCandidate, value_slots
from .sdde import ForwardEnsemble

# Relative steps of the central differences of H: in the controls for
# hamiltonian_control_gradient, in every variable for convexity_spot_check.
GRADIENT_REL_STEP = 1e-6
HESSIAN_REL_STEP = 3e-4

# convexity_spot_check passes when every Hessian eigenvalue is above
# −CONVEXITY_TOL_FACTOR·(1 + |λ_max|).
CONVEXITY_TOL_FACTOR = 1e-6

# Pass thresholds of q_factor_check, check_p3_zero and maximum_condition_check.
Q_FACTOR_TOL = 1e-10
P3_TOL = 1e-10
MAXIMUM_CONDITION_TOL = 1e-6


@dataclass
class Adjoints:
    """Adjoint trajectories of an ensemble part, seen as (n_paths, n_nodes)
    arrays of that part: p1, p2, q, k1 and k2.  p3 ≡ 0 is a theorem, which
    check_p3_zero tests, so it is not held.

    They are computed element by element from the part's state, in its
    layout: a node-row block gives node-major fields, each the transpose of
    a C-order (n_nodes, n_paths) array, or a broadcast view of a smaller
    array.
    """

    p1: Array
    p2: Array
    q: Array
    k1: Array
    k2: Array


# The adjoints of any part of an ensemble, e.g. adjoint_from_value at that
# part with its adjoint factor q.
AdjointMap = Callable[[ForwardEnsemble], Adjoints]


def hamiltonian_at(model: StructuredModel, t, x, x1, x2, y, z, adjoint: Adjoints):
    """The map u ↦ H = p1 b + p2 (x − λx1 − e^{-λδ}x2) + k1 σ − q f at
    fixed states and the adjoints of the record adjoint.

    The memory term p2 (x − λx1 − e^{-λδ}x2) does not depend on u, so it is
    computed once here.  The map keeps p1, q, k1 and the memory term but
    not the record, so p2 and k2 are freed once the caller lets the record
    go.  Each call adds the terms in that order into one array, so that
    each coefficient is freed before the next one is computed.
    """
    p1, q, k1 = adjoint.p1, adjoint.q, adjoint.k1
    memory = adjoint.p2 * model.x1_drift(x, x1, x2)

    def h_of_u(u):
        h = p1 * model.drift(t, x, x1, x2, u)
        h += memory
        h += k1 * model.sigma(t, x, x1, u)
        h -= q * model.generator(t, x, x1, x2, y, z, u)
        return h

    return h_of_u


def simulate_q(
    model: StructuredModel, ensemble: ForwardEnsemble
) -> Iterator[tuple[slice, Array]]:
    """Forward solution of dq = q(f_y dt + f_z dW), q(s) = 1, per path.

    Uses multiplicative exponential stepping, which is exact when f_y and
    f_z are constants (the recursive-utility case) and first-order accurate
    otherwise.  The partials are taken at y = z = 0, which is exact whenever
    f is affine in (y, z).  adjoint_from_value takes f_z at the candidate's
    slots instead (value_slots); the two agree only for generators affine
    in (y, z), as every model that reaches this layer today is.

    Yields (blk, q[:, blk]) for each node-row block blk of
    ForwardEnsemble.blocks in turn, q node-major like the ensemble and a
    new array each time.  Only one row of log q is carried from block to
    block, so neither q nor X1 is held over the whole ensemble.
    """
    h, zero = ensemble.h, np.zeros(ensemble.n_paths)
    log_q = np.zeros(ensemble.n_paths)
    for blk, part in ensemble.blocks():
        x, x1, x2, dw = part.x.T, part.x1.T, part.x2.T, part.dw.T
        rows = np.empty(x.shape)
        for k, row in enumerate(rows):
            row[:] = log_q
            if k < len(dw):  # the step to the next node
                t, u = float(part.times[k]), part.u[:, :, k]
                fy = model.f_y(t, x[k], x1[k], x2[k], zero, zero, u)
                fz = model.f_z(t, x[k], x1[k], x2[k], zero, zero, u)
                log_q = log_q + (fy - 0.5 * fz**2) * h + fz * dw[k]
        yield blk, np.exp(rows, out=rows).T


def q_factor_check(model: StructuredModel, ensemble: ForwardEnsemble, q: Array) -> CheckReport:
    """Max |simulate_q − q| over every path and node, passing below
    Q_FACTOR_TOL; the known factor q is (n_nodes,) or (n_paths, n_nodes).

    The maximum is folded over simulate_q's node-row blocks, NaN
    propagating, so it is the same number as over the whole ensemble.  Each
    block's difference is taken in place in the block simulate_q yields.
    """
    worst = -np.inf
    for blk, q_sim in simulate_q(model, ensemble):
        q_sim -= q[..., blk]
        worst = np.maximum(worst, np.max(np.abs(q_sim, out=q_sim)))
    worst = float(worst)
    return CheckReport(
        check="q_factor",
        probes=ensemble.x.shape[1],
        max_residual=worst,
        tolerance=Q_FACTOR_TOL,
        passed=worst < Q_FACTOR_TOL,
    )


def adjoint_from_value(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    q: Array,
) -> Adjoints:
    """Adjoints recovered from a candidate value function over the ensemble.

    q is the adjoint factor, per node (n_nodes,) or per path and node.
    ensemble.x1 is read at every node, so a simulated ensemble rebuilds it
    whole; the checks pass parts of it (ForwardEnsemble.part and blocks).

    f_z is taken at the candidate's slots y = −V, z = −σ·V_x (value_slots),
    where simulate_q takes it at y = z = 0; the two agree only for
    generators affine in (y, z), as every model that reaches this layer
    today is.
    """
    t, x, x1, u = ensemble.times, ensemble.x, ensemble.x1, ensemble.u
    fz = model.f_z(t, x, x1, ensemble.x2, *value_slots(model, cand, t, x, x1, u), u)
    sg = model.sigma(t, x, x1, u)

    def adjoint_pair(v_y, v_xy):
        """(p, k) = (V_y q, (V_xy σ + V_y f_z) q) for the state variable y."""
        vy = v_y(t, x, x1)
        return vy * q, (v_xy(t, x, x1) * sg + vy * fz) * q

    p1, k1 = adjoint_pair(cand.v_x, cand.v_xx)
    p2, k2 = adjoint_pair(cand.v_x1, cand.v_xx1)
    return Adjoints(
        p1=np.broadcast_to(p1, x.shape),
        p2=np.broadcast_to(p2, x.shape),
        q=np.broadcast_to(np.asarray(q, float), x.shape),
        k1=np.broadcast_to(k1, x.shape),
        k2=np.broadcast_to(k2, x.shape),
    )


def _worst_path(check: str, probes: int, worst: Array, tolerance: float, **extra) -> CheckReport:
    """The report of the path with the largest of the per-path residuals
    worst: its residual, passing below tolerance, and its entry of each
    per-path array in extra.

    The worst path is that of argmax, the first one on ties, and a NaN
    residual counts as the worst.
    """
    i = int(np.argmax(worst))
    residual = float(worst[i])
    return CheckReport(
        check, probes, residual, tolerance, passed=residual < tolerance,
        extra={name: float(values[i]) for name, values in extra.items()},
    )


def _block_p3(model, cand, part: ForwardEnsemble, adjoint: Adjoints, carry, terminal: bool):
    """Per-path max |p3 drift|, max |p3| and max |p1| over one node-row
    block, part, whose adjoints are adjoint, as a (3, n_paths) array, and
    p3 at the block's first node.

    carry is p3 at the node after the block; the terminal node has no step.
    p3[k] = p3[k+1] + h·drift[k] is one cumulative sum from the block's last
    node backward, with carry as its first element.
    """
    t, x, x1, u = part.times, part.x, part.x1, part.u
    y, z = value_slots(model, cand, t, x, x1, u)
    b2 = np.broadcast_to(model.b2(t, x, x1, u), x.shape)
    f2 = np.broadcast_to(model.f2(t, x, x1, y, z, u), x.shape)
    drift = b2 * adjoint.p1 - model.params.e_minus * adjoint.p2 - adjoint.q * f2
    steps = drift[:, ::-1][:, int(terminal) :]
    p3 = np.cumsum(np.concatenate([carry, part.h * steps], axis=1), axis=1)
    maxima = np.stack([np.max(np.abs(v), axis=1) for v in (drift, p3, adjoint.p1)])
    return maxima, p3[:, -1:].copy()


def check_p3_zero(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    adjoint_of: AdjointMap,
) -> CheckReport:
    """Pointwise and integrated checks that the x2-adjoint vanishes.

    Pointwise: b2·p1 − e^{-λδ}·p2 − q·f2 = 0 along each path (this is the
    drift of p3 up to sign).  Integrated: back-integration of that drift
    from p3(T) = 0 must stay at zero.  Residuals are taken relative to each
    path's largest |p1|, and the report is that of the worst path; the
    check passes below P3_TOL.

    The node-row blocks are walked from the terminal end, and each carries
    p3 at its first node to the block before it, so p3 is summed in the
    same order, and to the same bits, as over the whole ensemble at once.
    """
    n_paths, n_nodes = ensemble.x.shape
    maxima = np.full((3, n_paths), -np.inf)
    carry = np.zeros((n_paths, 1))  # p3 at the node after the block, p3(T) = 0 first
    for blk, part in ensemble.blocks(reverse=True):
        blk_maxima, carry = _block_p3(
            model, cand, part, adjoint_of(part), carry, terminal=blk.stop == n_nodes
        )
        maxima = np.maximum(maxima, blk_maxima)
    max_drift, max_p3, top = maxima

    worst = np.maximum(max_drift, max_p3) / np.maximum(top, 1e-300)
    return _worst_path(
        "p3_zero", n_nodes, worst, P3_TOL, max_drift=max_drift, max_backintegrated=max_p3
    )


def hamiltonian_control_gradient(h_of_u: Callable[[Array], Array], u: Array) -> Array:
    """Central-difference gradient of the map h_of_u (hamiltonian_at) in
    each control coordinate at u.

    The gradient and the one shifted copy of the controls keep the memory
    layout of u.  The step e is computed again at each use, the same bits
    each time, so that no array of it is alive while H is evaluated.
    """

    def step(ui):
        return GRADIENT_REL_STEP * (1.0 + np.abs(ui))

    grads = np.empty_like(u, dtype=float)
    shifted = u.copy(order="K")
    for i in range(u.shape[0]):
        shifted[i] = u[i] + step(u[i])
        grads[i] = h_of_u(shifted)
        shifted[i] = u[i] - step(u[i])
        grads[i] -= h_of_u(shifted)
        shifted[i] = u[i]
        grads[i] /= 2.0 * step(u[i])  # (H(u + e) − H(u − e)) / 2e, built in place
    return grads


def _block_maximum_condition(model, cand, part: ForwardEnsemble, adjoint_of: AdjointMap):
    """Per-path max |H_u| and max variational gap over one node-row block,
    part, at the adjoints of adjoint_of.
    """
    t, x, x1, x2, u_star = part.times, part.x, part.x1, part.x2, part.u
    y, z = value_slots(model, cand, t, x, x1, u_star)
    # The record gets no name here, so the memory term the map keeps takes
    # p2's place in memory rather than adding a block to the peak.
    h_of_u = hamiltonian_at(model, t, x, x1, x2, y, z, adjoint_of(part))
    grad = hamiltonian_control_gradient(h_of_u, u_star)
    max_grad = np.max(np.abs(grad), axis=(0, 2))

    # H_u(u*)·(u* − v) is linear in v, and its rounded value is monotone in
    # v, so its maximum over the box lies at one of the box's two ends.
    worst_vi = np.full(part.n_paths, -np.inf)
    box = model.control_set
    for i, ends in enumerate(zip(box.lower, box.upper)):
        for v in ends:
            worst_vi = np.maximum(worst_vi, np.max(grad[i] * (u_star[i] - v), axis=1))
    return max_grad, worst_vi


def maximum_condition_check(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    adjoint_of: AdjointMap,
) -> CheckReport:
    """First-order optimality of the stored controls along each path.

    Checks |H_u| at the stored control (interior stationarity) and the
    variational inequality H_u(u*)·(u* − v) over the control box, which,
    being linear in v, is tested at the two ends of each control
    coordinate; both must stay below MAXIMUM_CONDITION_TOL.
    The report is that of the worst path.  The adjoints and H_u are taken
    one node-row block at a time, and each block's per-path maxima are
    folded into (n_paths,) arrays.
    """
    max_grad, worst_vi = ensemble.max_over_blocks(
        lambda part: _block_maximum_condition(model, cand, part, adjoint_of)
    )

    worst = np.maximum(max_grad, worst_vi)
    return _worst_path(
        "maximum_condition", ensemble.x.shape[1], worst, MAXIMUM_CONDITION_TOL,
        max_abs_h_u=max_grad, max_variational=worst_vi,
    )


def convexity_spot_check(
    model: StructuredModel,
    cand: ValueCandidate,
    ensemble: ForwardEnsemble,
    adjoint_of: AdjointMap,
) -> CheckReport:
    """Numerical Hessian probe of H in (x, x1, x2, y, z, u).

    The probes are path 0 at nodes 0 and n_steps // 2.  Each takes the
    state and controls of the ensemble at its node, the adjoint record of
    adjoint_of called on that one path and node, the value-consistent
    slots y = −V, z = −σV_x there, and its own node time, so that H is a
    (1, 1) array.  This is a sampling heuristic: it can only refute
    convexity, and only at these probes.  Passes when every Hessian eigenvalue is above
    −CONVEXITY_TOL_FACTOR·(1 + |λ_max|).  A probe whose Hessian is not
    finite (e.g. a NaN adjoint) has NaN eigenvalues and fails the check.
    """
    worst_ratio = -np.inf
    min_eigs = []
    nodes = (0, ensemble.n_steps // 2)
    for k in nodes:
        t = float(ensemble.times[k])
        node = ensemble.part(nodes=slice(k, k + 1), paths=slice(0, 1))
        x, x1, u = node.x[0, 0], node.x1[0, 0], node.u[:, 0, 0]
        y, z = value_slots(model, cand, t, x, x1, u)
        base = np.array([x, x1, node.x2[0, 0], y, z, *u], float)
        n_var = base.size
        adjoint = adjoint_of(node)

        def h_of(v):
            return float(hamiltonian_at(model, t, *v[:5], adjoint)(v[5:])[0, 0])

        steps = HESSIAN_REL_STEP * (1.0 + np.abs(base))
        hess = np.empty((n_var, n_var))
        f0 = h_of(base)
        shifts = np.diag(steps)  # row i moves variable i by its step
        for i, ei in enumerate(shifts):
            hess[i, i] = (h_of(base + ei) - 2 * f0 + h_of(base - ei)) / steps[i] ** 2
            for j, ej in enumerate(shifts[i + 1 :], i + 1):
                mixed = (
                    h_of(base + ei + ej)
                    - h_of(base + ei - ej)
                    - h_of(base - ei + ej)
                    + h_of(base - ei - ej)
                ) / (4.0 * steps[i] * steps[j])
                hess[i, j] = hess[j, i] = mixed
        if np.all(np.isfinite(hess)):
            eigs = np.linalg.eigvalsh(hess)
        else:
            eigs = np.full(n_var, np.nan)
        min_eigs.append(float(eigs[0]))
        allowed = CONVEXITY_TOL_FACTOR * (1.0 + abs(float(eigs[-1])))
        worst_ratio = nan_max(worst_ratio, float(-eigs[0] - allowed))

    return CheckReport(
        check="convexity_spot",
        probes=len(nodes),
        max_residual=worst_ratio,
        tolerance=0.0,
        passed=worst_ratio <= 0.0,
        extra={"min_eigenvalues": min_eigs},
    )


def write_adjoint_csv(
    ensemble: ForwardEnsemble, stream: BinaryIO, adjoint_of: AdjointMap
) -> None:
    """Write the adjoint trajectories of the ensemble in long format,
    path,t,p1,p2,p3,q,k1,k2, as ASCII bytes to a binary stream.

    adjoint_of is called on each block of paths the CSV writer asks for,
    about core.NODE_BLOCK values, so no adjoint array spans the whole
    ensemble.  p3 ≡ 0 is written as a broadcast zero, whose path stride 0
    write_long_csv formats once per call.
    """
    names = ["p1", "p2", "p3", "q", "k1", "k2"]

    def columns_of(blk):
        a = adjoint_of(ensemble.part(paths=blk))
        return [a.p1, a.p2, np.broadcast_to(0.0, a.p1.shape), a.q, a.k1, a.k2]

    write_long_csv(stream, names, ensemble.times, ensemble.n_paths, columns_of)
