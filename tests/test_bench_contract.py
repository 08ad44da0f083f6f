"""The benchmark's traced functions, CLI entry points and report keys exist.

perfbench/spans.py wraps each "module.function" of its TRACED table with
getattr on the delaylab module, perfbench/run.py builds its set-up probe
and its forward-peak measurement from the CLI's config builders, and
perfbench/checks.py reads a few key paths of each subcommand's report.json;
a renamed or deleted function, or a moved key, would only surface as a
failed benchmark run.  These tests read that table, call those builders the
same way, run every subcommand on a small ensemble, and edit nothing under
perfbench/.
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


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TRACED)


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


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_keys_the_benchmark_reads(tmp_path, command):
    cfg = json.loads(DEMO.read_text())
    cfg["sim"].update(n_paths=200, n_steps=16)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / command
    code = cli.main([command, "--config", str(cfg_path), "--seed", "1", "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == command and report["pass"] is True
    _assert_matches(report, REPORT_KEYS[command], command)
