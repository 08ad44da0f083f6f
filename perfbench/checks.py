"""Independent output checks for the delaylab benchmark.

Each check recomputes what it compares against, from the model parameters
or from other artifacts of the same run, and never from a stored copy of an
earlier output.  Every check returns a list of failure messages, each
starting with a short tag naming the check; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


class MertonOracle:
    """The closed-form delayed Merton solution, written from the formulas.

    theta = mu2 e^{lam delta}, mu1 = theta (lam + r + theta),
    Delta = beta + gamma (mu0 - r)^2 / (2 sigma^2 (gamma - 1)) - gamma (r + theta),
    Q(t) = [(1 - k) e^{-Delta (T - t)/(1 - gamma)} + k]^{1 - gamma}, k = (1 - gamma)/Delta,
    V = -(1/gamma) Q (x + theta x1)^gamma.

    The initial state is the constant pre-history ``x0``: X1(s) is its
    trapezoidal moving average on the simulation grid, as the program
    defines it, and X2 is ``x0``.
    """

    def __init__(self, params: dict, n_steps: int, x0: float):
        self.r, self.mu0, self.sigma = params["r"], params["mu0"], params["sigma"]
        self.beta, self.gamma, self.lam = params["beta"], params["gamma"], params["lambda"]
        self.delta, self.T, self.mu2 = params["delta"], params["horizon_T"], params["mu2"]
        self.s = params.get("start_s", 0.0)
        g = self.gamma
        self.theta = self.mu2 * math.exp(self.lam * self.delta)
        self.mu1 = self.theta * (self.lam + self.r + self.theta)
        self.big_delta = (self.beta + g * (self.mu0 - self.r) ** 2 / (2 * self.sigma**2 * (g - 1))
                          - g * (self.r + self.theta))
        self.h = (self.T - self.s) / n_steps
        lag = round(self.delta / self.h)
        weights = np.exp(self.lam * (-self.delta + self.h * np.arange(lag + 1)))
        weights[-1] = 1.0
        self.x0 = x0
        self.x1_0 = x0 * self.h * (weights.sum() - 0.5 * (weights[0] + weights[-1]))

    def q(self, t):
        one_m_g = 1.0 - self.gamma
        k = one_m_g / self.big_delta
        t = np.asarray(t, float)
        return ((1.0 - k) * np.exp(-self.big_delta * (self.T - t) / one_m_g) + k) ** one_m_g

    def value_at_start(self) -> float:
        m = self.x0 + self.theta * self.x1_0
        return float(-(1.0 / self.gamma) * self.q(self.s) * m**self.gamma)


def read_csv(path: Path):
    """Header and (rows, columns) float array of a long-format artifact.

    A blank field (dw at the terminal node) reads as NaN.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        text = fh.read()
    fields = text.replace(",\n", ",nan\n").replace("\n", ",").split(",")[:-1]
    return header, np.array(fields, dtype=float).reshape(-1, len(header))


def by_path(header, rows, n_paths: int) -> dict:
    """Columns of a long-format artifact as (n_paths, n_nodes) arrays."""
    table = rows.reshape(n_paths, -1, len(header))
    if np.any(table[:, :, 0] != np.arange(n_paths)[:, None]):
        raise ValueError("rows are not grouped path by path")
    return {name: table[:, :, j] for j, name in enumerate(header)}


def check_close(tag: str, got: float, want: float, rel: float) -> list:
    if abs(got - want) <= rel * abs(want):
        return []
    return [f"{tag}: {got!r} differs from {want!r} by more than {rel:g} relative"]


def check_cost(tag: str, cost: float, stderr: float, value: float, h: float) -> list:
    """A Monte Carlo cost of the optimal policy lies within 3 se + h/2 of V."""
    band = 3.0 * stderr + 0.5 * h
    if abs(cost - value) <= band:
        return []
    return [f"cost: {tag} J = {cost!r} is {abs(cost - value):.3g} from V = {value!r}, band {band:.3g}"]


def check_paired(report: dict) -> list:
    """No perturbed policy beats the optimum by 3 paired standard errors."""
    return [
        f"paired: {c['policy']} dJ = {c['paired_diff_mean']!r} < -3 x {c['paired_diff_stderr']!r}"
        for c in report["comparisons"]
        if c["paired_diff_mean"] < -3.0 * c["paired_diff_stderr"]
    ]


def check_increments(dw: np.ndarray, h: float) -> list:
    """Brownian increments have mean 0 and variance h within 4 standard errors."""
    n = dw.size
    mean, var = float(dw.mean()), float(dw.var(ddof=1))
    out = []
    if abs(mean) > 4.0 * math.sqrt(h / n):
        out.append(f"increments: mean {mean:.3g} exceeds 4 se {4 * math.sqrt(h / n):.3g}")
    if abs(var - h) > 4.0 * h * math.sqrt(2.0 / (n - 1)):
        out.append(f"increments: variance {var:.6g} vs h = {h:.6g} exceeds 4 se")
    return out


def check_euler(fwd: dict, oracle: MertonOracle) -> list:
    """x_{k+1} = x_k + b h + sigma dW, recomputed from the forward.csv columns.

    b = ((mu0 - r) u - c + r) x + mu1 x1 + mu2 x2 and sigma = sigma u x, both at
    node k.  The residual is taken relative to the sum of the terms' sizes.
    """
    o = oracle
    x, x1, x2, u, c = (fwd[k][:, :-1] for k in ("x", "x1", "x2", "u", "c"))
    dw = fwd["dw"][:, :-1]
    drift = ((o.mu0 - o.r) * u - c + o.r) * x + o.mu1 * x1 + o.mu2 * x2
    noise = o.sigma * u * x * dw
    err = np.abs(fwd["x"][:, 1:] - (x + drift * o.h + noise))
    scale = np.abs(x) + np.abs(drift * o.h) + np.abs(noise)
    worst = float(np.max(err / scale))
    return [] if worst <= 1e-12 else [f"euler: worst relative step residual {worst:.3g} > 1e-12"]


def check_adjoints(adj: dict, fwd: dict, oracle: MertonOracle) -> list:
    """p1 = -Q(t) m^{gamma-1} e^{-beta (t-s)}, p2 = theta p1, p3 = 0, m = x + theta x1."""
    o = oracle
    t = adj["t"]
    m = fwd["x"] + o.theta * fwd["x1"]
    p1 = -o.q(t) * m ** (o.gamma - 1.0) * np.exp(-o.beta * (t - o.s))
    out = []
    for name, ref in (("p1", p1), ("p2", o.theta * p1)):
        worst = float(np.max(np.abs(adj[name] - ref) / np.abs(ref)))
        if not worst <= 1e-10:
            out.append(f"adjoint: {name} worst relative error {worst:.3g} > 1e-10")
    if np.any(adj["p3"] != 0.0):
        out.append("adjoint: p3 is not identically 0")
    return out


def check_identical(sub: str, reports: list) -> list:
    """report.json is byte-identical across a run's repeated passes."""
    if all(r == reports[0] for r in reports):
        return []
    return [f"identical: {sub} report.json differs between passes"]


def verify(reports: dict, out_dir: Path, oracle: MertonOracle, n_paths: int, increments) -> list:
    """All checks of one run.

    ``reports`` maps each subcommand to its report.json bytes, one per pass;
    ``out_dir`` holds the last pass's output, one directory per subcommand;
    ``increments`` returns the run's Brownian increments when no subcommand
    wrote forward.csv.
    """
    failures = []
    value = oracle.value_at_start()
    h = oracle.h
    for sub, passes in reports.items():
        failures += check_identical(sub, passes)
    rep = {sub: json.loads(passes[-1]) for sub, passes in reports.items()}

    if "solve-merton" in rep:
        failures += check_close("value: q_at_start", rep["solve-merton"]["q_at_start"],
                                float(oracle.q(oracle.s)), 1e-10)
        failures += check_close("value: value_at_start", rep["solve-merton"]["value_at_start"],
                                value, 1e-10)
    if "simulate" in rep:
        r = rep["simulate"]
        failures += check_cost("simulate", r["cost"], r["cost_stderr"], value, h)
        if r["degraded_regression_steps"]:
            failures.append(f"degraded: steps {r['degraded_regression_steps']}")
        fwd = by_path(*read_csv(out_dir / "simulate" / "forward.csv"), n_paths)
        failures += check_euler(fwd, oracle)
        failures += check_increments(fwd["dw"][:, :-1], h)
        if "check-pmp" in rep:
            adj = by_path(*read_csv(out_dir / "check-pmp" / "adjoint.csv"), n_paths)
            failures += check_adjoints(adj, fwd, oracle)
    else:
        failures += check_increments(increments(), h)
    if "check-relations" in rep:
        r = rep["check-relations"]["cost_check"]
        failures += check_close("value: check-relations reference", r["reference"], value, 1e-10)
        failures += check_cost("check-relations", r["cost"], r["stderr"], value, h)
    if "compare-controls" in rep:
        r = rep["compare-controls"]
        failures += check_cost("compare-controls base", r["base_cost"], r["base_stderr"], value, h)
        failures += check_paired(r)
    return failures
