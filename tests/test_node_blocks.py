"""Node-row blocked ensemble checks against their whole-ensemble originals.

relations_report (with its adjoint mismatch), check_p3_zero and
maximum_condition_check walk the ensemble's node blocks
(ForwardEnsemble.blocks, which yields the blocks of core.node_blocks) and
take the adjoints as a map of the block; write_adjoint_csv calls that map
per path block.  relations_report and maximum_condition_check fold their
maxima over the blocks with ForwardEnsemble.max_over_blocks, which runs
each block's second half on a second thread.  simulate_q gives q one
node-row block at a time, and q_factor_check folds its maximum over those
blocks.  The references below are the same checks written over whole
(n_paths, n_nodes) arrays at once, from the map called on the whole
ensemble; every report and every byte must be the same at any block size.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from delaylab import cli, core, hjb, merton, pmp, sdde, verify
from delaylab.hjb import CheckReport, generalized_hamiltonian, value_slots
from helpers import closed_form_adjoints, constant_policy, node_map, value_adjoints

P0 = dict(
    r=0.03, mu0=0.08, sigma=0.2, beta=0.1, gamma=0.5,
    lam=0.1, delta=1.0, horizon_T=1.0, mu2=0.01,
)

INITIAL = lambda tau: 1.0  # noqa: E731

N_PATHS, N_STEPS = 12, 64
# Block heights in nodes: one node, an odd height that does not divide the
# 65 nodes, an even one that leaves a last block of one node, and the whole
# ensemble in one odd block.
ROWS = (1, 3, 4, N_STEPS + 1)


# ---------------------------------------------------------------------------
# Whole-ensemble references
# ---------------------------------------------------------------------------


def reference_adjoint_mismatch(model, cand, ensemble, adjoint):
    ref = pmp.adjoint_from_value(model, cand, ensemble, adjoint.q)
    mismatch = {}
    for name in ("p1", "p2", "k1", "k2"):
        want = getattr(ref, name)
        err = np.max(np.abs(getattr(adjoint, name) - want), axis=1)
        scale = np.maximum(np.max(np.abs(want), axis=1), 1e-300)
        worst = float(np.max(err / scale))
        mismatch[name] = worst if np.isnan(worst) else max(0.0, worst)
    return mismatch


def reference_relations_report(model, cand, ensemble, adjoint, n_grid=9, tol=1e-4):
    mismatch = reference_adjoint_mismatch(model, cand, ensemble, adjoint)

    t = ensemble.times
    x, x1, x2, u_star = ensemble.x, ensemble.x1, ensemble.x2, ensemble.u

    g_star = generalized_hamiltonian(model, t, x, x1, x2, cand)(u_star)
    v_t = cand.v_s(t, x, x1)
    time_slope = float(np.max(np.abs(v_t - g_star)))

    worst_gap = -np.inf
    box = model.control_set
    u_alt = u_star.copy(order="K")
    for i in range(box.n_controls):
        for val in box.axis_grid(i, n_grid):
            u_alt[i] = val
            with np.errstate(all="ignore"):
                g_alt = generalized_hamiltonian(model, t, x, x1, x2, cand)(u_alt)
            g_alt = np.where(np.isfinite(g_alt), g_alt, -np.inf)
            gap = float(np.max(g_alt - g_star))
            worst_gap = np.nan if np.isnan(gap) or np.isnan(worst_gap) else max(worst_gap, gap)
        u_alt[i] = u_star[i]

    numbers = [time_slope, worst_gap, *mismatch.values()]
    return CheckReport(
        check="relations",
        probes=x.shape[1],
        max_residual=np.nan if any(np.isnan(v) for v in numbers) else max(numbers),
        tolerance=tol,
        passed=all(v < tol for v in numbers),
        extra={
            "time_slope": time_slope,
            "grid_optimality": worst_gap,
            "adjoint_mismatch": mismatch,
        },
    )


def reference_check_p3_zero(model, cand, ensemble, adjoint, tol=1e-10):
    t, x, x1, u = ensemble.times, ensemble.x, ensemble.x1, ensemble.u
    y, z = value_slots(model, cand, t, x, x1, u)
    b2 = np.broadcast_to(model.b2(t, x, x1, u), x.shape)
    f2 = np.broadcast_to(model.f2(t, x, x1, y, z, u), x.shape)
    drift = b2 * adjoint.p1 - model.params.e_minus * adjoint.p2 - adjoint.q * f2

    # the reversed cumulative sum over whole arrays, p3 = 0 at the terminal node
    p3 = np.zeros_like(x)
    np.cumsum(ensemble.h * drift[:, -2::-1], axis=1, out=p3[:, -2::-1])

    max_drift = np.max(np.abs(drift), axis=1)
    max_p3 = np.max(np.abs(p3), axis=1)
    scale = np.maximum(np.max(np.abs(adjoint.p1), axis=1), 1e-300)
    worst = np.maximum(max_drift, max_p3) / scale
    i = int(np.argmax(worst))
    return CheckReport(
        check="p3_zero",
        probes=x.shape[1],
        max_residual=float(worst[i]),
        tolerance=tol,
        passed=bool(worst[i] < tol),
        extra={"max_drift": float(max_drift[i]), "max_backintegrated": float(max_p3[i])},
    )


def reference_maximum_condition_check(model, cand, ensemble, adjoint, n_grid=9, tol=1e-6):
    t, x, x1, x2, u_star = ensemble.times, ensemble.x, ensemble.x1, ensemble.x2, ensemble.u
    y, z = value_slots(model, cand, t, x, x1, u_star)
    h_of_u = pmp.hamiltonian_at(model, t, x, x1, x2, y, z, adjoint)
    grad = pmp.hamiltonian_control_gradient(h_of_u, u_star)
    max_grad = np.max(np.abs(grad), axis=(0, 2))

    worst_vi = np.full(ensemble.n_paths, -np.inf)
    box = model.control_set
    for i in range(u_star.shape[0]):
        for u_alt in box.axis_grid(i, n_grid):
            worst_vi = np.maximum(worst_vi, np.max(grad[i] * (u_star[i] - u_alt), axis=1))

    worst = np.maximum(max_grad, worst_vi)
    j = int(np.argmax(worst))
    return CheckReport(
        check="maximum_condition",
        probes=x.shape[1],
        max_residual=float(worst[j]),
        tolerance=tol,
        passed=bool(worst[j] < tol),
        extra={"max_abs_h_u": float(max_grad[j]), "max_variational": float(worst_vi[j])},
    )


def reference_simulate_q(model, ensemble):
    """simulate_q over whole arrays: every row of log q, then one exp."""
    t, h, u = ensemble.times, ensemble.h, ensemble.u
    x, x1, x2, dw = ensemble.x.T, ensemble.x1.T, ensemble.x2.T, ensemble.dw.T
    zero = np.zeros(ensemble.n_paths)
    log_q = np.zeros((ensemble.n_steps + 1, ensemble.n_paths))
    for k in range(ensemble.n_steps):
        fy = model.f_y(float(t[k]), x[k], x1[k], x2[k], zero, zero, u[:, :, k])
        fz = model.f_z(float(t[k]), x[k], x1[k], x2[k], zero, zero, u[:, :, k])
        log_q[k + 1] = log_q[k] + (fy - 0.5 * fz**2) * h + fz * dw[k]
    return np.exp(log_q).T


def reference_q_factor_check(model, ensemble, q, tol=1e-10):
    worst = float(np.max(np.abs(reference_simulate_q(model, ensemble) - q)))
    return CheckReport(
        check="q_factor", probes=ensemble.x.shape[1], max_residual=worst,
        tolerance=tol, passed=worst < tol,
    )


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def as_text(report) -> str:
    """The report as report.json writes it; NaN and inf compare as text."""
    return json.dumps(report.to_dict(), sort_keys=True)


def set_rows(monkeypatch, rows, n_paths):
    monkeypatch.setattr(core, "NODE_BLOCK", rows * n_paths)


@pytest.fixture(params=[1, 2], ids=["one_cpu", "two_cpus"])
def cpus(request):
    """Run the test's thread, and the threads it starts, on at most n of
    the CPUs this process may use, as `taskset` would; where the platform
    cannot pin a thread, the test runs unpinned."""
    if not hasattr(os, "sched_setaffinity"):
        yield request.param
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(allowed)[: request.param])
    try:
        yield request.param
    finally:
        os.sched_setaffinity(0, allowed)


def merton_model():
    p = merton.MertonParams(**P0)
    return p, merton.build_model(p), merton.value_function(p)


@pytest.fixture(scope="module")
def merton_setup():
    """A detuned Merton ensemble and a map of offset value-derived adjoints."""
    p, model, cand = merton_model()
    # Scaled controls leave H_u and grid-optimality residuals to report.
    policy = verify.scaled_policy(merton.build_policy(p), [1.3, 0.9], "detuned")
    cfg = core.SimConfig(n_steps=N_STEPS, n_paths=N_PATHS, master_seed=17)
    ens = sdde.simulate_forward(model, policy, INITIAL, cfg)
    value_of = value_adjoints(model, cand, p)

    def adjoint_of(part):
        # Offsets of fixed size give every path its own relative mismatch,
        # and a p3 drift that the back-integration carries across blocks.
        adj = value_of(part)
        return dataclasses.replace(
            adj, p1=adj.p1 + 1e-3, p2=adj.p2 - 2e-4, k1=adj.k1 + 3e-3, k2=adj.k2 + 1e-5
        )

    return model, cand, ens, adjoint_of


@pytest.fixture(scope="module")
def stochastic_q_setup():
    """A model whose q differs path by path: f = (x − 1.3)·y + 0.4·x1·z."""
    params = core.ModelParams(lam=0.1, delta=0.5, horizon_T=1.0)
    zero = lambda t, x, x1, y, z, u: np.zeros_like(x)  # noqa: E731
    model = core.StructuredModel(
        params=params,
        b1=lambda t, x, x1, u: 0.1 * x,
        b2=lambda t, x, x1, u: np.zeros_like(x),
        sigma=lambda t, x, x1, u: 0.3 * x,
        f1=lambda t, x, x1, y, z, u: (x - 1.3) * y + 0.4 * x1 * z,
        f2=zero,
        phi=lambda x, x1: x,
        control_set=core.ControlBox(lower=[0.0], upper=[1.0]),
        f_y=lambda t, x, x1, x2, y, z, u: x - 1.3,
        f_z=lambda t, x, x1, x2, y, z, u: 0.4 * x1,
    )
    cfg = core.SimConfig(n_steps=N_STEPS, n_paths=N_PATHS, master_seed=23)
    return model, sdde.simulate_forward(model, constant_policy([0.5]), INITIAL, cfg)


def with_nan_node(ens, path=2, node=40):
    """The ensemble with a NaN wealth at one node, where V and G are NaN."""
    x = ens.x.T.copy().T  # node-major, like the simulated buffer
    x[path, node] = np.nan
    return dataclasses.replace(ens, x=x)


def with_non_finite_grid_values(model):
    """The model with G(u_alt) +inf or NaN at some entries of two grid values.

    The top consumption grid value makes f1 +inf where x > 1 and the bottom
    portfolio grid value makes it NaN where x < 1.  The stored controls are
    never at those bounds, so G(u*) stays finite.
    """
    f1 = model.f1

    def odd_f1(t, x, x1, y, z, u):
        top_c = np.where((u[1] == merton.C_BOUND) & (x > 1.0), np.inf, 0.0)
        bottom_u = np.where((u[0] == -merton.U_BOUND) & (x < 1.0), np.nan, 0.0)
        return f1(t, x, x1, y, z, u) + top_c + bottom_u

    return dataclasses.replace(model, f1=odd_f1)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestNodeBlocks:
    @pytest.mark.parametrize("rows", ROWS)
    def test_blocks_cover_nodes_in_order(self, monkeypatch, rows):
        set_rows(monkeypatch, rows, N_PATHS)
        blocks = list(core.node_blocks(N_PATHS, N_STEPS + 1))
        nodes = np.concatenate([np.arange(N_STEPS + 1)[blk] for blk in blocks])
        assert np.array_equal(nodes, np.arange(N_STEPS + 1))
        assert {blk.stop - blk.start for blk in blocks[:-1]} <= {rows}
        assert 1 <= blocks[-1].stop - blocks[-1].start <= rows

    @pytest.mark.parametrize("rows", ROWS)
    def test_block_of_node_major_array_is_contiguous(self, monkeypatch, rows):
        set_rows(monkeypatch, rows, N_PATHS)
        x = np.zeros((N_STEPS + 1, N_PATHS)).T
        for blk in core.node_blocks(N_PATHS, N_STEPS + 1):
            assert x[:, blk].T.flags.c_contiguous

    def test_paths_wider_than_a_block_walk_one_node_at_a_time(self):
        blocks = list(core.node_blocks(2 * core.NODE_BLOCK, 5))
        assert blocks == [slice(k, k + 1) for k in range(5)]


class TestSameBitsAsWholeEnsemble:
    @pytest.mark.parametrize("rows", ROWS)
    def test_relations_report(self, merton_setup, monkeypatch, rows):
        model, cand, ens, adjoint_of = merton_setup
        set_rows(monkeypatch, rows, N_PATHS)
        whole = reference_relations_report(model, cand, ens, adjoint_of(ens))
        blocked = verify.relations_report(model, cand, ens, adjoint_of)
        assert as_text(blocked) == as_text(whole)
        assert blocked.extra["grid_optimality"] > 0.0  # the detuned controls leave a gap
        assert min(blocked.extra["adjoint_mismatch"].values()) > 0.0

    @pytest.mark.parametrize("rows", ROWS)
    def test_check_p3_zero(self, merton_setup, monkeypatch, rows):
        # Blocks of 1 and 3 nodes split the carried p3 sum; 3 does not
        # divide the 65 nodes, so the first block is the short one.
        model, cand, ens, adjoint_of = merton_setup
        set_rows(monkeypatch, rows, N_PATHS)
        blocked = pmp.check_p3_zero(model, cand, ens, adjoint_of)
        whole = reference_check_p3_zero(model, cand, ens, adjoint_of(ens))
        assert as_text(blocked) == as_text(whole)
        assert blocked.extra["max_backintegrated"] > 0.0 and blocked.extra["max_drift"] > 0.0
        assert not blocked.passed  # the offsets leave a p3 drift

    @pytest.mark.parametrize("rows", ROWS)
    def test_maximum_condition_check(self, merton_setup, monkeypatch, rows):
        model, cand, ens, adjoint_of = merton_setup
        set_rows(monkeypatch, rows, N_PATHS)
        whole = reference_maximum_condition_check(model, cand, ens, adjoint_of(ens))
        blocked = pmp.maximum_condition_check(model, cand, ens, adjoint_of)
        assert as_text(blocked) == as_text(whole)
        assert blocked.max_residual > 1e-3

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("scale", [1.01, 0.97])
    def test_maximum_condition_check_off_the_stored_control(
        self, merton_setup, monkeypatch, rows, scale
    ):
        # The check tests the variational inequality at the box's two ends
        # only; the reference tests it on a 9-value grid that starts and
        # ends there.  With the stored controls scaled, H_u moves at every
        # node, and both must report the same positive inequality.
        model, cand, ens, adjoint_of = merton_setup
        ens = dataclasses.replace(ens, u=ens.u * scale)
        set_rows(monkeypatch, rows, N_PATHS)
        whole = reference_maximum_condition_check(model, cand, ens, adjoint_of(ens))
        blocked = pmp.maximum_condition_check(model, cand, ens, adjoint_of)
        assert as_text(blocked) == as_text(whole)
        assert blocked.extra["max_variational"] > 0.0

    @pytest.mark.parametrize("rows", ROWS)
    def test_non_finite_g_star_in_one_block(self, merton_setup, monkeypatch, rows):
        # G is NaN at one node of one path, so in one block only.  Every grid
        # value's gap is then NaN over the whole ensemble, and the report
        # says NaN, not the −inf of a fold that skips NaN; a fold over the
        # block maxima would report the finite gap of the other blocks.
        model, cand, ens, adjoint_of = merton_setup
        ens = with_nan_node(ens)
        set_rows(monkeypatch, rows, N_PATHS)
        with np.errstate(all="ignore"):
            adj = adjoint_of(ens)
            whole = reference_relations_report(model, cand, ens, adj)
            whole_max = reference_maximum_condition_check(model, cand, ens, adj)
            blocked = verify.relations_report(model, cand, ens, adjoint_of)
            blocked_max = pmp.maximum_condition_check(model, cand, ens, adjoint_of)
            assert as_text(blocked) == as_text(whole)
            assert as_text(blocked_max) == as_text(whole_max)
            # the NaN p1 makes p3 NaN from its node back to node 0, across
            # the blocks through the carried sum
            blocked_p3 = pmp.check_p3_zero(model, cand, ens, adjoint_of)
            whole_p3 = reference_check_p3_zero(model, cand, ens, adj)
        assert np.isnan(blocked.extra["time_slope"])
        assert np.isnan(blocked.extra["grid_optimality"])
        assert all(np.isnan(v) for v in blocked.extra["adjoint_mismatch"].values())
        assert not blocked.passed
        assert as_text(blocked_p3) == as_text(whole_p3)
        assert np.isnan(blocked_p3.max_residual)


    @pytest.mark.parametrize("rows", ROWS)
    def test_non_finite_g_alt_reads_as_minus_inf(self, merton_setup, monkeypatch, rows):
        # The plain max of G(u_alt) − G(u*) is +inf or NaN at the two marked
        # grid values, so each block whose nodes reach a marked entry takes
        # the masked gap; the one-node block of node 0 (x = 1 on every path)
        # takes the plain one.
        model, cand, ens, adjoint_of = merton_setup
        model = with_non_finite_grid_values(model)
        set_rows(monkeypatch, rows, N_PATHS)
        with np.errstate(all="ignore"):
            whole = reference_relations_report(model, cand, ens, adjoint_of(ens))
            blocked = verify.relations_report(model, cand, ens, adjoint_of)
            assert as_text(blocked) == as_text(whole)
        assert np.isfinite(blocked.extra["grid_optimality"])

        t, x, x1, x2, u = ens.times, ens.x, ens.x1, ens.x2, ens.u
        assert np.all(np.isfinite(generalized_hamiltonian(model, t, x, x1, x2, cand)(u)))
        for i, bound, bad in ((1, merton.C_BOUND, np.isposinf), (0, -merton.U_BOUND, np.isnan)):
            u_alt = u.copy()
            u_alt[i] = bound
            with np.errstate(all="ignore"):
                g_alt = generalized_hamiltonian(model, t, x, x1, x2, cand)(u_alt)
            assert bad(g_alt).any() and np.isfinite(g_alt).any()


class TestMapBlocks:
    """ForwardEnsemble.max_over_blocks, the walk that maps a function over
    the halves of every node block: each block of two or more nodes split
    at its middle node, the second half on a thread of its own, the results
    folded by a NaN-propagating maximum, and errors raised as a walk on one
    thread raises them, on one CPU as on two."""

    @staticmethod
    def record_halves(ens):
        """Walk ens with a function that records, under a lock, each part's
        first node, its times, its x1 and the thread that ran it; returns
        the records in node order and the fold of each part's per-path max
        of x1."""
        lock, seen = threading.Lock(), []

        def record(part):  # x1 is copied: a part's x1 lives until the next block
            first = int(np.searchsorted(ens.times, part.times[0]))
            with lock:
                seen.append((first, part.times, part.x1.copy(), threading.get_ident()))
            return (np.max(part.x1, axis=1),)

        (top,) = ens.max_over_blocks(record)
        return sorted(seen, key=lambda entry: entry[0]), top

    @pytest.mark.parametrize("rows", ROWS)
    def test_halves_in_node_order(self, merton_setup, monkeypatch, cpus, rows):
        _, _, ens, _ = merton_setup
        set_rows(monkeypatch, rows, N_PATHS)
        seen, top = self.record_halves(ens)
        assert np.array_equal(np.concatenate([t for _, t, _, _ in seen]), ens.times)
        assert np.array_equal(np.concatenate([x1 for _, _, x1, _ in seen], axis=1), ens.x1)
        assert np.array_equal(top, np.max(ens.x1, axis=1))
        caller = threading.get_ident()
        want = []
        for blk in core.node_blocks(N_PATHS, N_STEPS + 1):
            mid = (blk.stop - blk.start) // 2
            want += [(blk.start, True)] + ([(blk.start + mid, False)] if mid else [])
        assert [(first, ident == caller) for first, _, _, ident in seen] == want
        # A thread is started per block, and a finished one's ident may be reused.
        assert bool({ident for *_, ident in seen} - {caller}) == (rows > 1)

    def test_odd_and_one_node_blocks(self, merton_setup, monkeypatch):
        # A block of three nodes splits 1 + 2; a block of one node runs
        # whole on the caller.
        _, _, ens, _ = merton_setup
        set_rows(monkeypatch, 3, N_PATHS)
        caller = threading.get_ident()
        seen, top = self.record_halves(ens.part(nodes=slice(0, 3)))
        assert [(t.size, ident == caller) for _, t, _, ident in seen] == [(1, True), (2, False)]
        assert np.array_equal(top, np.max(ens.x1[:, :3], axis=1))
        seen, top = self.record_halves(ens.part(nodes=slice(5, 6)))
        assert [(t.size, ident == caller) for _, t, _, ident in seen] == [(1, True)]
        assert np.array_equal(top, ens.x1[:, 5])

    @pytest.mark.parametrize("node", [10, 40], ids=["first_half", "second_half"])
    def test_nan_in_one_half_folds_to_nan(self, merton_setup, monkeypatch, node):
        # One block of 65 nodes, split 32 + 33: the NaN is in one half only.
        _, _, ens, _ = merton_setup
        ens = with_nan_node(ens, path=2, node=node)
        set_rows(monkeypatch, N_STEPS + 1, N_PATHS)
        per_path, overall = ens.max_over_blocks(
            lambda part: (np.max(part.x, axis=1), np.max(part.x))
        )
        assert np.isnan(per_path[2]) and np.isfinite(np.delete(per_path, 2)).all()
        assert np.array_equal(per_path, np.max(ens.x, axis=1), equal_nan=True)
        assert np.isnan(overall)

    def test_caller_error_state_reaches_the_second_half(self, merton_setup, monkeypatch, cpus):
        # One block of 65 nodes, split 32 + 33: only the second half holds
        # node 40, where the division by zero is.
        _, _, ens, _ = merton_setup
        set_rows(monkeypatch, N_STEPS + 1, N_PATHS)

        def inverse(part):
            return (np.max(1.0 / (part.times - ens.times[40])),)

        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            ens.max_over_blocks(inverse)
        with np.errstate(divide="ignore"):
            assert ens.max_over_blocks(inverse) == (np.inf,)

    def test_first_half_error_wins(self, merton_setup, monkeypatch, cpus):
        # Both halves raise; the error is the first half's, as when the
        # whole block fails on one thread, and no half is left running.
        model, cand, ens, adjoint_of = merton_setup
        set_rows(monkeypatch, N_STEPS + 1, N_PATHS)
        finished = []

        def failing(part):
            if part.times[0] > 0.0:
                time.sleep(0.2)  # the caller's half fails long before this one
            finished.append(float(part.times[0]))
            raise core.DomainError(f"no adjoints from t = {part.times[0]}")

        before = threading.active_count()
        with pytest.raises(core.DomainError, match=r"from t = 0\.0$"):
            verify.relations_report(model, cand, ens, failing)
        assert threading.active_count() == before
        assert sorted(finished) == [0.0, float(ens.times[32])]

    def test_cli_exits_three_on_errors_in_both_halves(self, tmp_path, monkeypatch, capsys, cpus):
        # Negative wealth at a node of each half of the one block: the
        # closed form has no value there, a DomainError in both halves.
        simulate = sdde.simulate_forward

        def broke(*args, **kwargs):
            ens = simulate(*args, **kwargs)
            ens.x[0, [5, 20]] = -100.0
            return ens

        monkeypatch.setattr(sdde, "simulate_forward", broke)
        params = {("lambda" if key == "lam" else key): value for key, value in P0.items()}
        cfg = {
            "model": {"kind": "merton", "params": params},
            "sim": {"n_steps": 32, "n_paths": 50, "master_seed": 7},
            "initial_path": {"kind": "constant", "value": 1.0},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        argv = ["check-relations", "--config", str(path), "--out", str(out), "--quiet"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: memory-adjusted wealth")
        assert not (out / "report.json").exists()

    def test_import_starts_no_thread(self):
        # The second thread is started by a walk; importing the command line
        # starts none and loads no thread pool module.
        code = (
            "import sys, threading; import delaylab.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        src = str(Path(sdde.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert proc.stdout.split() == ["1", "False"]


class TestQFactorBlocks:
    @pytest.mark.parametrize("rows", ROWS)
    def test_simulate_q(self, stochastic_q_setup, monkeypatch, rows):
        model, ens = stochastic_q_setup
        set_rows(monkeypatch, rows, N_PATHS)
        blocks = list(pmp.simulate_q(model, ens))
        assert [blk for blk, _ in blocks] == list(core.node_blocks(N_PATHS, N_STEPS + 1))
        assert all(q.T.flags.c_contiguous for _, q in blocks)
        q = np.concatenate([q for _, q in blocks], axis=1)
        want = reference_simulate_q(model, ens)
        assert np.array_equal(q, want)
        assert np.unique(want[:, -1]).size == N_PATHS  # a q of every path's own

    @pytest.mark.parametrize("rows", ROWS)
    def test_q_factor_check(self, stochastic_q_setup, monkeypatch, rows):
        # A known q per node, one per path, and one with a NaN at node 40,
        # which must reach the report from whichever block holds it.
        model, ens = stochastic_q_setup
        per_path = reference_simulate_q(model, ens) * (1.0 + 1e-9 * np.arange(N_PATHS))[:, None]
        with_nan = per_path.copy()
        with_nan[2, 40] = np.nan
        set_rows(monkeypatch, rows, N_PATHS)
        for q in (np.exp(-0.3 * ens.times), per_path, with_nan):
            blocked = pmp.q_factor_check(model, ens, q)
            assert as_text(blocked) == as_text(reference_q_factor_check(model, ens, q))
        assert np.isnan(blocked.max_residual)


def _linear_tie():
    """An ensemble whose worst paths tie across a block boundary.

    H = p1·u exactly (every other adjoint is zero) at u* = 0 on the box
    [−0.5, 2], so the central difference returns p1 exactly for a power of
    two.  Path 1 has p1 = 4 at node 40: |H_u| = 4 and a variational gap of
    4·0.5 = 2.  Path 3 has p1 = −2 at node 1: |H_u| = 2 and a gap of 2·2 = 4.
    Both residuals are exactly 4, and the report must be path 1's, the
    first path, although its worst node is in a later block.
    """
    params = core.ModelParams(lam=0.0, delta=0.0, horizon_T=1.0)
    zeros = lambda t, x, x1, *rest: np.zeros_like(x)  # noqa: E731
    ones = lambda t, x, x1, u: np.ones_like(x)  # noqa: E731
    model = core.StructuredModel(
        params=params,
        b1=lambda t, x, x1, u: u[0],
        b2=zeros,
        sigma=ones,
        f1=zeros,
        f2=zeros,
        phi=lambda x, x1: x,
        control_set=core.ControlBox(lower=[-0.5], upper=[2.0]),
    )
    cand = hjb.ValueCandidate(
        v=zeros, v_s=zeros, v_x=zeros, v_xx=zeros, v_x1=zeros, v_xx1=zeros
    )
    n_nodes = N_STEPS + 1
    node_major = lambda fill: np.full((n_nodes, N_PATHS), fill).T  # noqa: E731
    ens = sdde.ForwardEnsemble(
        times=np.linspace(0.0, 1.0, n_nodes),
        x=node_major(1.0),
        x1_marks=node_major(1.0),
        x2=node_major(1.0),
        u=np.zeros((n_nodes, 1, N_PATHS)).transpose(1, 2, 0),
        dw=np.zeros((N_STEPS, N_PATHS)).T,
        h=1.0 / N_STEPS,
    )
    p1 = node_major(0.0)
    p1[1, 40] = 4.0
    p1[3, 1] = -2.0
    zero = node_major(0.0)
    adj = pmp.Adjoints(p1=p1, p2=zero, q=zero, k1=zero, k2=zero)
    return model, cand, ens, adj


class TestWorstPathTie:
    @pytest.mark.parametrize("rows", ROWS)
    def test_first_path_wins_across_blocks(self, monkeypatch, rows):
        model, cand, ens, adj = _linear_tie()
        set_rows(monkeypatch, rows, N_PATHS)
        whole = reference_maximum_condition_check(model, cand, ens, adj)
        blocked = pmp.maximum_condition_check(model, cand, ens, node_map(ens, adj))
        assert as_text(blocked) == as_text(whole)
        assert blocked.max_residual == 4.0
        assert blocked.extra == {"max_abs_h_u": 4.0, "max_variational": 2.0}


class TestAdjointCsv:
    NAMES = ["p1", "p2", "p3", "q", "k1", "k2"]

    # CSV blocks of one path and of 5, which does not divide the 12 paths;
    # the adjoint map is called on one CSV block, or on two at a time.
    @pytest.mark.parametrize(
        "paths_per_block, blocks_per_call", [(1, 1), (5, 1), (5, 2)]
    )
    def test_path_blocks_match_whole_arrays(
        self, merton_setup, monkeypatch, paths_per_block, blocks_per_call
    ):
        _, _, ens, _ = merton_setup
        p, model, cand = merton_model()
        adjoint_of = value_adjoints(model, cand, p)
        # The reference writes p3 from a zero array of its own.
        whole, zero = adjoint_of(ens), np.zeros(ens.x.shape)
        want = io.BytesIO()
        core.write_long_csv(
            want, self.NAMES, ens.times, ens.n_paths,
            lambda blk: [getattr(whole, name, zero)[blk] for name in self.NAMES],
        )
        assert core.CSV_BLOCK_ROWS >= N_PATHS * (N_STEPS + 1)  # the reference is one block

        monkeypatch.setattr(core, "CSV_BLOCK_ROWS", paths_per_block * (N_STEPS + 1))
        monkeypatch.setattr(core, "NODE_BLOCK", blocks_per_call * core.CSV_BLOCK_ROWS)
        calls = []

        def counted(part):
            calls.append(part.n_paths)
            return adjoint_of(part)

        got = io.BytesIO()
        pmp.write_adjoint_csv(ens, got, counted)
        assert got.getvalue() == want.getvalue()
        per_call = paths_per_block * blocks_per_call
        assert calls == [min(per_call, N_PATHS - s) for s in range(0, N_PATHS, per_call)]


class TestPeakMemory:
    """A blocked check, building its adjoints included, allocates a few
    blocks, not copies of the ensemble; a cost-only backward sweep
    allocates a few rows."""

    @pytest.fixture(scope="class")
    def large(self):
        p, model, cand = merton_model()
        cfg = core.SimConfig(n_steps=256, n_paths=2000, master_seed=3)
        ens = sdde.simulate_forward(model, merton.build_policy(p), INITIAL, cfg)
        return model, cand, ens, p

    def _peak(self, fun, *args):
        tracemalloc.start()
        try:
            fun(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_relations_report(self, large):
        model, cand, ens, p = large
        peak = self._peak(verify.relations_report, model, cand, ens, closed_form_adjoints(p))
        assert peak < 2 * ens.x.nbytes

    def test_maximum_condition_check(self, large):
        model, cand, ens, p = large
        adjoint_of = value_adjoints(model, cand, p)
        peak = self._peak(pmp.maximum_condition_check, model, cand, ens, adjoint_of)
        assert peak < 2 * ens.x.nbytes

    def test_check_p3_zero(self, large):
        # The p3 check reads x2 only where its layout does not matter, so no
        # block of a broadcast x2 is copied.
        model, cand, ens, p = large
        peak = self._peak(pmp.check_p3_zero, model, cand, ens, value_adjoints(model, cand, p))
        assert peak < 1.4 * ens.x.nbytes

    def test_write_adjoint_csv(self, large):
        # A sink that keeps nothing: a BytesIO's growing buffer would count
        # the file itself as the writer's memory.
        class Sink:
            def write(self, data):
                pass

        model, cand, ens, p = large
        peak = self._peak(pmp.write_adjoint_csv, ens, Sink(), value_adjoints(model, cand, p))
        assert peak < 2 * ens.x.nbytes

    def test_closed_form_cost_check(self, large):
        # Two y rows, one z row and the features of one node.
        model, cand, ens, p = large
        peak = self._peak(verify.closed_form_cost_check, model, cand, ens, merton.build_basis(p))
        assert peak < ens.x.nbytes / 4

    def test_q_factor_check(self, large):
        model, cand, ens, p = large
        q = merton.exact_q_factor(p, ens.times)
        peak = self._peak(pmp.q_factor_check, model, ens, q)
        assert peak < 4 * 8 * core.NODE_BLOCK  # a few blocks of float64

    def test_simulate_forward(self, large):
        # At δ = T every x2 is φ: on given increments the sweep holds x and
        # the controls, a row of x1 per node block and a few rows, but no
        # per-path prehistory.
        model, cand, ens, p = large
        cfg = core.SimConfig(n_steps=ens.n_steps, n_paths=ens.n_paths, master_seed=3)
        dw = sdde.brownian_increments(cfg.master_seed, cfg.n_paths, cfg.n_steps, ens.h)
        peak = self._peak(sdde.simulate_forward, model, merton.build_policy(p), INITIAL, cfg, dw)
        assert peak < (1.5 + ens.u.shape[0]) * ens.x.nbytes

    def test_compare_controls(self, large):
        # Beyond one forward simulation on given increments, compare_controls
        # holds its increments, one ensemble array; its backward sweeps add
        # a few rows.
        model, cand, ens, p = large
        cfg = core.SimConfig(n_steps=ens.n_steps, n_paths=ens.n_paths, master_seed=3)
        policy = merton.build_policy(p)
        dw = sdde.brownian_increments(cfg.master_seed, cfg.n_paths, cfg.n_steps, ens.h)
        forward = self._peak(sdde.simulate_forward, model, policy, INITIAL, cfg, dw)
        del dw
        detuned = [verify.scaled_policy(policy, [1.1, 1.0], "detuned")]
        basis = merton.build_basis(p)
        peak = self._peak(verify.compare_controls, model, policy, detuned, INITIAL, cfg, basis)
        assert peak < forward + 1.5 * ens.x.nbytes
