"""Rewrite tests/golden/reports.json and print every number that moved.

Run from the repository root:

    python tests/golden/regen.py

Every case of tests/test_golden.py is rerun, and its exit code and
report.json replace the stored ones.  Each leaf that differs from the
stored file is printed as

    <case> <path>: <old> -> <new> (relative change <r>)

with the relative change |new − old| / |old| for numbers.  A change that
regenerates the goldens records that table in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import CASES, GOLDEN, leaves, run_case  # noqa: E402


def relative_change(old, new) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers:
        return "n/a"
    return "inf" if old == 0 else f"{abs(new - old) / abs(old):.3e}"


def main() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = {case: run_case(case, Path(tmp) / str(i)) for i, case in enumerate(sorted(CASES))}
    moved = 0
    for case in sorted(set(old) | set(new)):
        before = {path: value for path, value, _ in leaves(old.get(case, {}))}
        after = {path: value for path, value, _ in leaves(new.get(case, {}))}
        for path in sorted(set(before) | set(after), key=str):
            a, b = before.get(path, "<absent>"), after.get(path, "<absent>")
            if type(a) is not type(b) or a != b:
                moved += 1
                print(f"{case} {'/'.join(map(str, path))}: {a!r} -> {b!r} "
                      f"(relative change {relative_change(a, b)})")
    GOLDEN.write_text(json.dumps(new, sort_keys=True, indent=1) + "\n")
    print(f"{moved} number(s) moved; wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
