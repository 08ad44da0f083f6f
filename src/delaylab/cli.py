"""Command-line front end.

Subcommands:

    simulate          forward ensemble + backward cost under the configured policy
    solve-merton      closed-form solution summary, validated against the ODE oracle
    check-hjb         reduced-equation residual, x2 independence, compatibility system
    check-pmp         adjoint construction, p3 reduction, maximum condition, convexity
    check-relations   value/adjoint relations and the cost-vs-value comparison
    compare-controls  paired Monte Carlo comparison against perturbed policies

All subcommands read one JSON config (--config), honor --seed/--out/--quiet
and the DELAYLAB_SEED environment variable, and write a deterministic
report.json (plus CSV artifacts where applicable) into the output directory.

Each subcommand body returns its report values and its checks
(hjb.CheckReport); main alone turns them into report.json (the command, the
values, one object per check keyed by its name, and "pass"), stdout (a line
of the scalar values, then one line per check) and the exit code.

Every subcommand parses and validates the whole config before any numerical
work, so each one needs a seed, and an unknown key or a malformed value in
any section, or an output directory that cannot be written, exits with
code 2.  The config format is written once, as the section tables under
"The config format" below.

Exit codes: 0 success, 1 a check failed, 2 configuration error (an
ensemble numpy cannot size or allocate included), 3 numerical divergence or
domain failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bsdde, hjb, merton, pmp, sdde, verify
from ._expr import compile_expression
from .core import (
    ConfigError,
    ControlBox,
    DomainError,
    FeedbackPolicy,
    ModelParams,
    SimConfig,
    SimulationDivergedError,
    StructuredModel,
    initial_segment,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SEED_ENV_VAR = "DELAYLAB_SEED"


# ---------------------------------------------------------------------------
# The config format
# ---------------------------------------------------------------------------
#
# Each section is a table from every key it accepts to the parser of that
# key's value, with the keys it may leave out.  A parser takes the value and
# its dotted name in the config.  model and initial_path are tagged by their
# "kind": each kind has a table of its own.  The root's sections are parsed
# by their builders below.  README's config reference lists the same keys.


def _count(value, where: str) -> int:
    """An integer config value: a JSON integer or an integral float (1e3)."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _real(value, where: str) -> float:
    """A real config value: a finite JSON number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _reals(value, where: str) -> list:
    """A real config value or a list of them, as a list of floats."""
    return [_real(v, where) for v in (value if isinstance(value, list) else [value])]


def _text(value, where: str) -> str:
    """Expression text: any JSON value as str() writes it, so 0 is "0"."""
    return str(value)


def _texts(value, where: str) -> list:
    """A JSON list of expression texts."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of expressions")
    return [str(v) for v in value]


def _path(value, where: str) -> str:
    """A path: a JSON string."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _section(keys: dict, optional=frozenset()):
    """The parser of a section whose keys are those of keys, each value
    parsed by its key's parser; only the keys in optional may be left out.
    A parsed section names lambda lam, as the records do."""

    def parse(value, where: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        unknown = value.keys() - keys.keys()
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
        missing = keys.keys() - optional - value.keys()
        if missing:
            raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")
        return {
            ("lam" if key == "lambda" else key): keys[key](item, f"{where}.{key}")
            for key, item in value.items()
        }

    return parse


def _kind(section, kinds: dict, where: str) -> str:
    """The kind that a tagged section names, one of those of kinds."""
    kind = section.get("kind") if isinstance(section, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{where}.kind must be one of {sorted(kinds)}, got {kind!r}")
    return kind


# name -> the variables its expression binds, in the order of the
# coefficient's positional arguments.
_COEFF_VARS = {
    **dict.fromkeys(("b1", "b2", "sigma"), ("t", "x", "x1", "u", "c")),
    **dict.fromkeys(("f1", "f2"), ("t", "x", "x1", "y", "z", "u", "c")),
    "phi": ("x", "x1"),
}

# model.params: the delay's keys, of both kinds, and the market's, of 'merton'.
_DELAY_PARAMS = dict.fromkeys(("lambda", "delta", "horizon_T", "start_s"), _real)
_MARKET_PARAMS = dict.fromkeys(("r", "mu0", "sigma", "beta", "gamma", "mu2"), _real)

_MODEL = {
    "merton": _section(
        {
            "kind": _text,
            "params": _section({**_MARKET_PARAMS, **_DELAY_PARAMS}, optional={"start_s"}),
            "overrides": _section({"mu1": _real, "theta": _real}, optional={"mu1", "theta"}),
        },
        optional={"overrides"},
    ),
    "generic": _section(
        {
            "kind": _text,
            "params": _section(_DELAY_PARAMS, optional={"start_s"}),
            "coefficients": _section(dict.fromkeys(_COEFF_VARS, _text)),
            "control_box": _section({"lower": _reals, "upper": _reals}),
            "policy": _texts,
        }
    ),
}

_SIM = _section(
    dict.fromkeys(("n_steps", "n_paths", "master_seed"), _count), optional={"master_seed"}
)

_INITIAL_PATH = {
    "constant": _section({"kind": _text, "value": _real}),
    "expr": _section({"kind": _text, "expr": _text}),
}

_OUTPUT = _section({"directory": _path}, optional={"directory"})

_ROOT = _section(
    dict.fromkeys(("model", "sim", "initial_path", "output"), lambda value, where: value),
    optional={"initial_path", "output"},
)


def load_config(path: str) -> dict:
    """The JSON config at path, with its root's keys checked; each section
    is parsed by its builder."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _ROOT(cfg, "config root")


def build_generic(section: dict):
    """The (model, policy) of a model section of kind 'generic'."""
    section = _MODEL["generic"](section, "model")
    params, box = ModelParams(**section["params"]), ControlBox(**section["control_box"])
    n_u = box.n_controls
    if n_u > 2:
        raise ConfigError("generic models support at most two control coordinates")

    def coefficient(name):
        """The model's callable for coefficient name.

        Its positional arguments bind the names of _COEFF_VARS[name] in
        order; the control vector u binds u (u[0]) and c (u[1], or zeros
        with one control).
        """
        names = _COEFF_VARS[name]
        fun = compile_expression(section["coefficients"][name], names)

        def coeff(*args):
            env = dict(zip(names, args))
            if "u" in env:
                u = env["u"]
                env["u"] = u[0]
                env["c"] = u[1] if n_u > 1 else np.zeros_like(np.asarray(u[0], float))
            return np.asarray(fun(**env), float)

        return coeff

    model = StructuredModel(
        params=params, control_set=box, **{name: coefficient(name) for name in _COEFF_VARS}
    )

    if len(section["policy"]) != n_u:
        raise ConfigError("model.policy must list one expression per control coordinate")
    pol_funs = [compile_expression(e, ("t", "x", "x1")) for e in section["policy"]]

    def evaluate(t, x, x1):
        x = np.asarray(x, float)
        vals = [np.broadcast_to(np.asarray(f(t=t, x=x, x1=x1), float), x.shape) for f in pol_funs]
        return np.stack(vals)

    policy = FeedbackPolicy(evaluate=evaluate, n_controls=n_u, label="config_policy")
    return model, policy


def build_model_and_policy(cfg: dict):
    """(model, policy, params, cand) of the model section: params and cand
    (the closed-form value function) are None for a generic model."""
    section = cfg["model"]
    if _kind(section, _MODEL, "model") == "generic":
        return (*build_generic(section), None, None)
    section = _MODEL["merton"](section, "model")
    params = merton.MertonParams(**section["params"], **section.get("overrides", {}))
    model, policy = merton.build_model(params), merton.build_policy(params)
    return model, policy, params, merton.value_function(params)


def build_sim_config(cfg: dict, seed_flag: int | None) -> SimConfig:
    """The sim section.  The seed is seed_flag (--seed), which replaces
    sim.master_seed before the section is parsed, else sim.master_seed,
    else the DELAYLAB_SEED environment variable."""
    section = cfg["sim"] if seed_flag is None else {**cfg["sim"], "master_seed": seed_flag}
    sim = _SIM(section, "sim")
    if "master_seed" not in sim:
        if SEED_ENV_VAR not in os.environ:
            raise ConfigError(
                f"no seed given: set sim.master_seed, pass --seed, or export {SEED_ENV_VAR}"
            )
        try:
            sim["master_seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    return SimConfig(**sim)


def build_initial_path(cfg: dict):
    """φ(τ) of the initial_path section, the constant 1.0 when there is none."""
    section = cfg.get("initial_path", {"kind": "constant", "value": 1.0})
    kind = _kind(section, _INITIAL_PATH, "initial_path")
    section = _INITIAL_PATH[kind](section, "initial_path")
    if kind == "constant":
        value = section["value"]
        return lambda tau: value
    fun = compile_expression(section["expr"], ("tau",))
    return lambda tau: float(fun(tau=tau))


def _output_directory(path, files: Sequence[str]) -> Path:
    """path as the run's output directory, which is created only when the
    run writes to it.  The nearest part of the path that exists must be a
    writable directory, and none of the files the run writes there may be
    a directory, or this is a ConfigError."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out}: {existing} is not writable")
    for name in files:
        if (out / name).is_dir():
            raise ConfigError(f"output directory {out}: {out / name} is a directory")
    return out


@dataclass(frozen=True)
class Run:
    """One subcommand's inputs, parsed and validated from the whole config.

    params and cand (the closed-form value function) are None for a generic
    model.  start holds (x(s), x1(s)) of the initial path sampled onto the
    simulation grid.
    """

    model: StructuredModel
    policy: FeedbackPolicy
    params: merton.MertonParams | None
    cand: hjb.ValueCandidate | None
    basis: bsdde.RegressionBasis
    sim: SimConfig
    initial: Callable[[float], float]
    start: tuple[float, float]
    out_dir: Path


def build_run(cfg: dict, seed_flag: int | None, out_flag: str | None, files: Sequence[str]) -> Run:
    """Parse every section of the config; a malformed value is a ConfigError,
    and so are a step that does not divide δ, a non-finite initial sample,
    an ensemble whose arrays have more bytes than numpy can allocate and an
    output directory in which the files cannot be written."""
    try:
        model, policy, params, cand = build_model_and_policy(cfg)
        # --out, like --seed, replaces its key before the section is parsed.
        output = cfg.get("output", {})
        output = _OUTPUT({**output, "directory": out_flag} if out_flag else output, "output")
        sim, initial = build_sim_config(cfg, seed_flag), build_initial_path(cfg)
        delay = model.params
        with np.errstate(all="ignore"):
            samples, x1_0 = initial_segment(initial, delay.delta, delay.lam, sim.step_size(delay))
        if not np.isfinite([*samples, x1_0]).all():
            raise ConfigError("initial_path has a non-finite value on the simulation grid")
        # The ensemble's largest float64 arrays: the controls, and x with
        # its prehistory of lag = len(samples) − 1 steps.
        rows = max((sim.n_steps + 1) * policy.n_controls, len(samples) + sim.n_steps)
        if 8 * rows * sim.n_paths > np.iinfo(np.intp).max:
            raise ConfigError(
                f"an ensemble of {sim.n_paths} paths and {sim.n_steps} steps "
                "has more bytes than numpy can allocate"
            )
        return Run(
            model=model,
            policy=policy,
            params=params,
            cand=cand,
            basis=merton.build_basis(params) if params is not None else bsdde.polynomial_basis(2),
            sim=sim,
            initial=initial,
            start=(float(samples[-1]), x1_0),
            out_dir=_output_directory(output.get("directory", "out"), files),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def write_report(out_dir: Path, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# Subcommands: each body returns its report values and its checks
# ---------------------------------------------------------------------------

# name -> the files the subcommand writes besides report.json
_ARTIFACTS = {"simulate": ("forward.csv", "backward.csv"), "check-pmp": ("adjoint.csv",)}


def cmd_simulate(run: Run):
    ensemble = sdde.simulate_forward(run.model, run.policy, run.initial, run.sim)
    sol = bsdde.solve_backward(run.model, ensemble, run.basis)

    forward_csv, backward_csv = _ARTIFACTS["simulate"]
    run.out_dir.mkdir(parents=True, exist_ok=True)
    with open(run.out_dir / forward_csv, "wb") as fh:
        sdde.write_forward_csv(ensemble, fh)
    with open(run.out_dir / backward_csv, "wb") as fh:
        bsdde.write_backward_csv(sol, fh)
    values = {
        "n_paths": ensemble.n_paths,
        "n_steps": ensemble.n_steps,
        "master_seed": run.sim.master_seed,
        "cost": sol.cost,
        "cost_stderr": sol.stderr,
        "degraded_regression_steps": sol.degraded_steps,
        "artifacts": list(_ARTIFACTS["simulate"]),
    }
    return values, []


def cmd_solve_merton(run: Run):
    params = run.params
    x0, x1_0 = run.start
    values = {
        "theta": params.theta,
        "mu1": params.mu1,
        "delta_coefficient": params.delta_coeff,
        "q_at_start": float(merton.q_closed_form(params.start_s, params)),
        "value_at_start": float(run.cand.v(params.start_s, x0, x1_0)),
        "u_star_at_start": float(merton.optimal_u(params.start_s, x0, x1_0, params)),
        "c_star_at_start": float(merton.optimal_c(params.start_s, x0, x1_0, params)),
    }
    return values, [merton.q_oracle_check(params)]


def cmd_check_hjb(run: Run):
    model, cand, policy = run.model, run.cand, run.policy
    start_s, span = model.params.start_s, model.params.horizon_T - model.params.start_s
    ss = (start_s + span * np.array([0.1, 0.3, 0.5, 0.7, 0.9])).tolist()
    xs, x1s = np.linspace(0.5, 5.0, 9), np.linspace(0.25, 5.0, 9)
    # One sweep with the x2 values on a leading axis; res[0] is x2 = 0.
    x2s = np.reshape([0.0, -10.0, -5.0, 5.0, 10.0], (-1, 1, 1, 1))
    xg, x1g = np.meshgrid(xs, x1s, indexing="ij")
    res, _ = hjb.hjb_residual(model, cand, ss, xg, x1g, x2s, maximizer=policy)
    return {}, [
        hjb.hjb_residual_check(res[0]),
        hjb.x2_independence_check(res),
        hjb.compatibility_pde_check(model, cand, ss[0], xs, x1s, policy),
    ]


def cmd_check_pmp(run: Run):
    model, cand = run.model, run.cand
    ensemble = sdde.simulate_forward(model, run.policy, run.initial, run.sim)

    def adjoint_of(part):
        return pmp.adjoint_from_value(
            model, cand, part, merton.exact_q_factor(run.params, part.times)
        )

    checks = [
        pmp.q_factor_check(model, ensemble, merton.exact_q_factor(run.params, ensemble.times)),
        pmp.check_p3_zero(model, cand, ensemble, adjoint_of),
        pmp.maximum_condition_check(model, cand, ensemble, adjoint_of),
        pmp.convexity_spot_check(model, cand, ensemble, adjoint_of),
    ]

    (adjoint_csv,) = _ARTIFACTS["check-pmp"]
    run.out_dir.mkdir(parents=True, exist_ok=True)
    with open(run.out_dir / adjoint_csv, "wb") as fh:
        pmp.write_adjoint_csv(ensemble, fh, adjoint_of)
    return {"artifacts": [adjoint_csv]}, checks


def cmd_check_relations(run: Run):
    ensemble = sdde.simulate_forward(run.model, run.policy, run.initial, run.sim)

    def adjoint_of(part):
        return merton.closed_form_adjoints(
            run.params, part, merton.exact_q_factor(run.params, part.times)
        )

    return {}, [
        verify.relations_report(run.model, run.cand, ensemble, adjoint_of),
        verify.closed_form_cost_check(run.model, run.cand, ensemble, run.basis),
    ]


def cmd_compare_controls(run: Run):
    policy = run.policy
    n_u = policy.n_controls
    perturbations = [
        verify.scaled_policy(
            policy, [factor if j == i else 1.0 for j in range(n_u)], f"{name}_scaled_{factor}"
        )
        for i, name in enumerate("uc"[:n_u])
        for factor in (0.75, 1.25)
    ]
    perturbations.append(verify.scaled_policy(policy, [0.0, 1.0][:n_u], "u_zero"))
    values = verify.compare_controls(
        run.model, policy, perturbations, run.initial, run.sim, run.basis
    )
    return values, [verify.paired_cost_check(values["comparisons"])]


# name -> (body, whether the subcommand needs a model of kind 'merton')
_COMMANDS = {
    "simulate": (cmd_simulate, False),
    "solve-merton": (cmd_solve_merton, True),
    "check-hjb": (cmd_check_hjb, True),
    "check-pmp": (cmd_check_pmp, True),
    "check-relations": (cmd_check_relations, True),
    "compare-controls": (cmd_compare_controls, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaylab",
        description="Simulation and verification for stochastic control with state delay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--quiet", action="store_true", help="suppress the report lines on stdout")
    return parser


def _report_lines(command: str, values: dict, checks) -> list:
    """A run's stdout: one line of its scalar values, when it has any, then
    one line per check."""
    scalars = [
        f"{key} = {value:.6g}" if isinstance(value, float) else f"{key} = {value}"
        for key, value in values.items()
        if isinstance(value, (int, float, str))
    ]
    lines = [f"{command}: " + ", ".join(scalars)] if scalars else []
    return lines + [
        f"{command}/{c.check}: max residual {c.max_residual:.3e} "
        f"(tol {c.tolerance:g}) -> {'PASS' if c.passed else 'FAIL'}"
        for c in checks
    ]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    body, merton_only = _COMMANDS[args.command]
    try:
        files = ("report.json", *_ARTIFACTS.get(args.command, ()))
        run = build_run(load_config(args.config), args.seed, args.out, files)
        if merton_only and run.params is None:
            raise ConfigError(f"{args.command} requires a model of kind 'merton'")
        values, checks = body(run)
    except (ConfigError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationDivergedError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    passed = all(check.passed for check in checks)
    write_report(
        run.out_dir,
        {
            "command": args.command,
            **values,
            **{check.check: check.to_dict() for check in checks},
            "pass": passed,
        },
    )
    if not args.quiet:
        print(*_report_lines(args.command, values, checks), sep="\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
