"""Golden reports: every number of every subcommand's report.json, pinned.

tests/golden/reports.json holds the exit code and report.json of each case
below; tests/golden/regen.py rewrites it and prints every number that moved.
A rerun must give the same exit code, the same keys, the same integers,
strings and booleans, and floats within these bounds:

* the residual fields of a passing check are rounding noise, so they are
  compared absolutely, within RESIDUAL_SHARE times the larger of the check's
  tolerance and its residual;
* the other numbers of solve-merton and check-hjb do not depend on the draw
  and move only when libm moves by an ulp: DRAW_FREE_RTOL, relative;
* every other number is a Monte Carlo number: MONTE_CARLO_RTOL, relative,
  the largest move of a cost's standard error when about half of the
  Brownian increments of a P = 200, N = 16 ensemble were nudged by one ulp.
"""

import json
import math
from pathlib import Path

import pytest

from delaylab import cli
from test_cli import COMMANDS, GENERIC2_CFG, GENERIC_CFG, MERTON_CFG

GOLDEN = Path(__file__).parent / "golden" / "reports.json"

DRAW_FREE = {"solve-merton", "check-hjb"}
DRAW_FREE_RTOL = 1e-12
MONTE_CARLO_RTOL = 2.9e-6
RESIDUAL_SHARE = 1e-3

# Numbers of a check object that are not residuals: its tolerance, and the
# cost estimate and reference that cost_check compares.
NOT_RESIDUALS = {"tolerance", "cost", "stderr", "reference"}

SMALL_MERTON_CFG = {**MERTON_CFG, "sim": {"n_steps": 16, "n_paths": 200, "master_seed": 1}}

# case id -> (config, command)
CASES = {
    **{f"merton/{c}": (SMALL_MERTON_CFG, c) for c in COMMANDS},
    **{
        f"{name}/{c}": (cfg, c)
        for name, cfg in (("generic", GENERIC_CFG), ("generic2", GENERIC2_CFG))
        for c in ("simulate", "compare-controls")
    },
}


def run_case(case: str, work_dir: Path) -> dict:
    """The exit code and report.json (None when none is written) of a case."""
    cfg, command = CASES[case]
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = work_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work_dir / "out"
    code = cli.main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"])
    report = out / "report.json"
    return {"exit_code": code, "report": json.loads(report.read_text()) if report.exists() else None}


def leaves(node, path=(), check=None):
    """(path, value, check) of every leaf of a JSON tree, where check is the
    check object (a dict with a "check" key) the leaf sits in, or None.  A
    list also yields its length, as the leaf "#len"."""
    if isinstance(node, dict):
        check = node if "check" in node else check
        for key in sorted(node):
            yield from leaves(node[key], path + (key,), check)
    elif isinstance(node, list):
        yield path + ("#len",), len(node), None
        for i, item in enumerate(node):
            yield from leaves(item, path + (i,), check)
    else:
        yield path, node, check


def mismatches(case: str, want: dict, have: dict) -> list:
    """Every leaf that only one of the two reports has, or that is off its
    bound."""
    rtol = DRAW_FREE_RTOL if CASES[case][1] in DRAW_FREE else MONTE_CARLO_RTOL
    want_leaves = {path: (value, check) for path, value, check in leaves(want)}
    have_leaves = {path: value for path, value, _ in leaves(have)}
    only_one = sorted(set(want_leaves) ^ set(have_leaves), key=str)
    bad = [f"{path}: in one report only" for path in only_one]
    for path, (w, check) in want_leaves.items():
        if path not in have_leaves:
            continue
        h = have_leaves[path]
        if not isinstance(w, float) or isinstance(h, bool) or not isinstance(h, (int, float)):
            ok = type(w) is type(h) and w == h
        elif math.isnan(w) or math.isnan(h):
            ok = math.isnan(w) and math.isnan(h)
        elif check is not None and check["pass"] and path[-1] not in NOT_RESIDUALS:
            scale = max(check["tolerance"], abs(check["max_residual"]))
            ok = abs(h - w) <= RESIDUAL_SHARE * scale
        else:
            ok = abs(h - w) <= rtol * abs(w)
        if not ok:
            bad.append(f"{path}: golden {w!r}, got {h!r}")
    return bad


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    assert mismatches(case, golden[case], run_case(case, tmp_path)) == []
