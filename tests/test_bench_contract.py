"""The benchmark's traced functions and CLI entry points exist in the package.

perfbench/spans.py wraps each "module.function" of its TRACED table with
getattr on the delaylab module, and perfbench/run.py builds its set-up probe
and its forward-peak measurement from the CLI's config builders; a renamed
or deleted function would only surface as a failed benchmark run.  These
tests read that table, call those builders the same way, and edit nothing
under perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

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
