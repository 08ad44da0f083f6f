"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the six subcommands twice on a small ensemble (P = 300, N = 16), shows
that every check passes on those real outputs, and then plants one error at a
time in a copy of them (V off by 1%, one perturbed CSV value, one changed
report byte, ...) and shows that the check meant for it rejects it.  Exits 0
only when the real outputs pass and every planted error is caught.  It takes
a few seconds.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

N_PATHS, N_STEPS = 300, 16


def edit_report(field_edit):
    """Mutation applying field_edit(sub, report dict) to every pass's report."""
    def mutate(reports, out_dir):
        for sub, passes in reports.items():
            for i, raw in enumerate(passes):
                report = json.loads(raw)
                if field_edit(sub, report):
                    passes[i] = json.dumps(report, sort_keys=True, indent=2).encode() + b"\n"
    return mutate


def edit_csv(rel_path, column, edit, row=None):
    """Mutation applying edit(float) to one CSV column, in one row or all rows."""
    def mutate(reports, out_dir):
        path = out_dir / rel_path
        lines = path.read_text().splitlines()
        j = lines[0].split(",").index(column)
        for i in [row] if row is not None else range(1, len(lines)):
            fields = lines[i].split(",")
            if fields[j]:
                fields[j] = repr(edit(float(fields[j])))
                lines[i] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
    return mutate


def flip_byte(reports, out_dir):
    last = bytearray(reports["check-hjb"][-1])
    last[10] ^= 1
    reports["check-hjb"][-1] = bytes(last)


def scale_value(report, key, factor):
    report[key] *= factor
    return True


def shift_cost(sub, report):
    if sub != "simulate":
        return False
    report["cost"] += 4 * report["cost_stderr"] + 1.0 / N_STEPS
    return True


def mark_degraded(sub, report):
    if sub != "simulate":
        return False
    report["degraded_regression_steps"] = [3]
    return True


def break_pairing(sub, report):
    if sub != "compare-controls":
        return False
    comp = report["comparisons"][0]
    comp["paired_diff_mean"] = -4 * comp["paired_diff_stderr"]
    return True


# (tag the failure must carry, planted error)
CASES = [
    ("value", edit_report(lambda sub, r: sub == "solve-merton" and scale_value(r, "value_at_start", 1.01))),
    ("value", edit_report(lambda sub, r: sub == "solve-merton" and scale_value(r, "q_at_start", 1 + 1e-8))),
    ("value", edit_report(lambda sub, r: sub == "check-relations"
                          and scale_value(r["cost_check"], "reference", 1 + 1e-8))),
    ("cost", edit_report(shift_cost)),
    ("paired", edit_report(break_pairing)),
    ("degraded", edit_report(mark_degraded)),
    ("identical", flip_byte),
    ("euler", edit_csv("simulate/forward.csv", "x", lambda v: v * (1 + 1e-9), row=5 * (N_STEPS + 1) + 8)),
    ("increments", edit_csv("simulate/forward.csv", "dw", lambda v: 1.3 * v)),
    ("adjoint", edit_csv("check-pmp/adjoint.csv", "p1", lambda v: v * (1 + 1e-8), row=7 * (N_STEPS + 1) + 3)),
    ("adjoint", edit_csv("check-pmp/adjoint.csv", "p3", lambda v: 1e-300, row=2)),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from delaylab import cli

    import checks

    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.RUNS) as tmp:
        tmp = Path(tmp)
        cfg = json.loads(run.DEMO.read_text())
        cfg["sim"].update(n_paths=N_PATHS, n_steps=N_STEPS)
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        reports = {sub: [] for sub in run.ENSEMBLES}
        for p in range(2):
            for sub in reports:
                out = tmp / f"pass{p}" / sub
                code = cli.main([sub, "--config", str(cfg_path), "--seed", "5", "--out", str(out), "--quiet"])
                if code != 0:
                    print(f"selftest: {sub} exited with {code}")
                    return 1
                reports[sub].append((out / "report.json").read_bytes())
        oracle = checks.MertonOracle(cfg["model"]["params"], N_STEPS, cfg["initial_path"]["value"])

        failures = checks.verify(reports, tmp / "pass1", oracle, N_PATHS, None)
        print(f"selftest: real outputs -> {'PASS' if not failures else failures}")
        missed = bool(failures)
        for n, (tag, mutate) in enumerate(CASES):
            case_dir = tmp / f"case{n}"
            shutil.copytree(tmp / "pass1", case_dir)
            case_reports = {sub: list(passes) for sub, passes in reports.items()}
            mutate(case_reports, case_dir)
            found = checks.verify(case_reports, case_dir, oracle, N_PATHS, None)
            tagged = [f for f in found if f.startswith(tag + ":")]
            missed |= not tagged
            print(f"selftest: case {n} -> {'caught: ' + tagged[0] if tagged else 'MISSED: ' + str(found)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
