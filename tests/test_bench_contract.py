"""The benchmark's traced functions exist in the package.

perfbench/spans.py wraps each "module.function" of its TRACED table with
getattr on the delaylab module; a renamed or deleted function would only
surface as a failed traced run.  This test reads that table and edits
nothing under perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
