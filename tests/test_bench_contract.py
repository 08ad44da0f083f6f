"""The benchmark's traced functions, CLI entry points and report keys exist.

perfbench/spans.py wraps each "module.function" of its TRACED table with
getattr on the delaylab module, perfbench/run.py builds its set-up probe
and its forward-peak measurement from the CLI's config builders, and
perfbench/checks.py reads a few key paths of each subcommand's report.json;
a renamed or deleted function, or a moved key, would only surface as a
failed benchmark run.  These tests read that table, call those builders the
same way, run every subcommand on a small ensemble, and edit nothing under
perfbench/.  They also run each subcommand under that table's Tracer, so a
traced name that no longer sees the work it stands for, because the work
moved to another function, fails here rather than reading 0 calls in the
benchmark's per-layer numbers.
"""

import importlib
import importlib.util
import json
import numbers
from pathlib import Path

import pytest

from delaylab import cli
from delaylab.core import SimConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
DEMO = ROOT / "demos" / "merton.json"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    return sorted(_spans().TRACED)


def test_every_traced_name_is_a_function_of_its_module():
    names = _traced_names()
    assert names
    missing = []
    for name in names:
        mod_name, fn_name = name.split(".")
        module = importlib.import_module(f"delaylab.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(name)
    assert missing == []


def test_cli_builders_the_benchmark_calls():
    cfg = cli.load_config(str(DEMO))
    built = cli.build_model_and_policy(cfg)
    assert isinstance(built, tuple) and len(built) == 4
    sim = cli.build_sim_config(cfg, 1)
    assert isinstance(sim, SimConfig) and sim.master_seed == 1
    assert callable(cli.build_initial_path(cfg))


# The parts of each subcommand's report.json that the benchmark's output
# checks read: a dict lists keys, a one-item list is a non-empty list whose
# items all match that item, and a type is the type of the value.
REAL = numbers.Real
REPORT_KEYS = {
    "simulate": {"cost": REAL, "cost_stderr": REAL, "degraded_regression_steps": list},
    "solve-merton": {"q_at_start": REAL, "value_at_start": REAL},
    "check-hjb": {},
    "check-pmp": {},
    "check-relations": {"cost_check": {"cost": REAL, "stderr": REAL, "reference": REAL}},
    "compare-controls": {
        "base_cost": REAL,
        "base_stderr": REAL,
        "comparisons": [{"policy": str, "paired_diff_mean": REAL, "paired_diff_stderr": REAL}],
    },
}


def _assert_matches(value, spec, where):
    if isinstance(spec, dict):
        for key, inner in spec.items():
            assert isinstance(value, dict) and key in value, f"{where}.{key}"
            _assert_matches(value[key], inner, f"{where}.{key}")
    elif isinstance(spec, list):
        assert isinstance(value, list) and value, where
        for item in value:
            _assert_matches(item, spec[0], f"{where}[]")
    else:
        assert isinstance(value, spec) and not isinstance(value, bool), where


def _run_small(tmp_path, command):
    """Run the subcommand on the demo config at P = 200, N = 16; return its
    exit code and output directory."""
    cfg = json.loads(DEMO.read_text())
    cfg["sim"].update(n_paths=200, n_steps=16)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / command
    code = cli.main([command, "--config", str(cfg_path), "--seed", "1", "--out", str(out), "--quiet"])
    return code, out


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_keys_the_benchmark_reads(tmp_path, command):
    code, out = _run_small(tmp_path, command)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == command and report["pass"] is True
    _assert_matches(report, REPORT_KEYS[command], command)


# The traced names each subcommand's code calls: each must record at least
# one call when the subcommand runs.  check-relations and compare-controls
# run their backward sweeps through bsdde.cost_samples, which spans.py does
# not wrap, so bsdde.solve_backward is absent for them.
FORWARD = ["sdde.brownian_increments", "sdde.simulate_forward"]
TRACED_CALLS = {
    "simulate": [
        *FORWARD, "bsdde.solve_backward", "sdde.write_forward_csv",
        "bsdde.write_backward_csv", "cli.write_report",
    ],
    "solve-merton": ["merton.q_ode_oracle", "cli.write_report"],
    "check-hjb": [
        "hjb.hjb_residual_check", "hjb.x2_independence_check",
        "hjb.compatibility_pde_check", "hjb.generalized_hamiltonian", "cli.write_report",
    ],
    "check-pmp": [
        *FORWARD, "pmp.simulate_q", "pmp.adjoint_from_value", "pmp.check_p3_zero",
        "pmp.maximum_condition_check", "pmp.convexity_spot_check",
        "pmp.write_adjoint_csv", "cli.write_report",
    ],
    "check-relations": [
        *FORWARD, "merton.closed_form_adjoints", "pmp.adjoint_from_value",
        "verify.relations_report", "verify.closed_form_cost_check",
        "hjb.generalized_hamiltonian", "cli.write_report",
    ],
    "compare-controls": [*FORWARD, "verify.compare_controls", "cli.write_report"],
}


@pytest.mark.parametrize("command", sorted(TRACED_CALLS))
def test_traced_names_record_calls(tmp_path, command):
    tracer = _spans().Tracer()
    tracer.install()
    try:
        code, _ = _run_small(tmp_path, command)
    finally:
        tracer.uninstall()
    assert code == 0
    silent = [name for name in TRACED_CALLS[command] if tracer.counts[f"{name}.calls"] < 1]
    assert silent == []
