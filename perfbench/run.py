"""Benchmark of the delaylab command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-wide --seed 1 --seconds 30 --trace 0

The run measures set-up (import and config validation) in fresh child
processes, then repeats whole passes of the workload's CLI calls through
``delaylab.cli.main`` for about ``--seconds`` seconds (at least two passes),
checks the outputs against the benchmark's own computations, and prints one
JSON object as the last line of standard output.  Every time it reports is
brought to a fixed reference speed of the shared machine (see speed.py).
With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
passes run with spans around delaylab's public functions and it reports the
per-layer metrics.  The workloads are described in perfbench/README.md.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads: pin them to one
# thread before anything imports it, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import checks  # the benchmark's own modules, next to this file
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO = ROOT / "demos" / "merton.json"
SPEC = ROOT / "BENCHMARK.json"
RUNS = ROOT / ".perfbench_runs"

# Subcommands in the order a lab user runs them, with the number of
# simulated ensembles each reports on (check-relations simulates its one
# ensemble twice, which is waste, so it counts once).
ENSEMBLES = {
    "simulate": 1,
    "solve-merton": 0,
    "check-hjb": 0,
    "check-pmp": 1,
    "check-relations": 1,
    "compare-controls": 6,
}

# name -> (subcommands, n_paths, n_steps); None keeps demos/merton.json as shipped.
WORKLOADS = {
    "mc-wide": (("compare-controls",), 40_000, 64),
    "cli-demo": (tuple(ENSEMBLES), None, None),
    "fine-grid": (("check-relations",), 2_000, 1_024),
}

MIN_PASSES = 2  # report.json byte-identity needs two passes to compare
SETUP_PROBES = 5  # set-up probes before the first pass; one more follows every pass

# Set-up as every CLI call pays it: import delaylab, read and validate the
# config, measured in a fresh process and brought to the reference speed by
# speed samples taken just before and just after it.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[3])
import speed
samples = [speed.sample() for _ in range(5)]
t0 = time.perf_counter()
from delaylab import cli
cfg = cli.load_config(sys.argv[1])
cli.build_model_and_policy(cfg)
cli.build_sim_config(cfg, int(sys.argv[2]))
setup = time.perf_counter() - t0
samples += [speed.sample() for _ in range(5)]
print(setup * speed.relative_speed(samples))
"""


def measure_setup(cfg_path: Path, seed: int) -> float:
    """Set-up seconds, at the reference speed, measured in one fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(cfg_path), str(seed), str(HERE)],
        capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return float(out.stdout)


def reported_stderr(last_reports: dict) -> float:
    """Monte Carlo standard error of the optimal policy's recursive cost."""
    if "simulate" in last_reports:
        return last_reports["simulate"]["cost_stderr"]
    if "check-relations" in last_reports:
        return last_reports["check-relations"]["cost_check"]["stderr"]
    return last_reports["compare-controls"]["base_stderr"]


def run_pass(cli, subs, cfg_path, seed, pass_dir, tracer):
    """One pass of the workload's CLI calls.

    Returns each call's measured seconds, the same at the reference speed,
    and the number of calls that failed.
    """
    measured, seconds, failed = {}, {}, 0
    for sub in subs:
        argv = [sub, "--config", str(cfg_path), "--seed", str(seed),
                "--out", str(pass_dir / sub), "--quiet"]
        t0 = perf_counter()
        try:
            with speed.Sampler() as sampler, tracer.span(f"cli.{sub}") if tracer else nullcontext():
                code = cli.main(argv)
        except Exception:  # one failed call must not end the run
            traceback.print_exc()
            code = -1
        measured[sub] = perf_counter() - t0
        seconds[sub] = speed.at_reference(measured[sub], sampler.samples)
        if code != 0:
            print(f"perfbench: {sub} exited with {code}", file=sys.stderr)
            failed += 1
    return measured, seconds, failed


def layer_counts(tracer, first_span: int, scale: float) -> Counter:
    """Per-layer figures of one traced pass; ``scale`` brings times to the reference speed."""
    layer = Counter({f"{name}.self_s": t * scale for name, t in tracer.self_times(first_span).items()})
    layer.update(tracer.counts)
    steps = layer["bsdde.regression_steps"]
    layer["bsdde.useful_step_share"] = 1.0 - layer["bsdde.degraded_steps"] / steps if steps else 1.0
    return layer


def forward_peak_mb(cli, sdde, cfg: dict, seed: int) -> float:
    """tracemalloc peak of one simulate_forward call at the workload's size."""
    model, policy, _, _ = cli.build_model_and_policy(cfg)
    sim = cli.build_sim_config(cfg, seed)
    initial = cli.build_initial_path(cfg)
    tracemalloc.start()
    try:
        sdde.simulate_forward(model, policy, initial, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run(args, run_dir: Path) -> dict:
    spec = json.loads(SPEC.read_text())
    subs, n_paths, n_steps = WORKLOADS[args.workload]
    cfg = json.loads(DEMO.read_text())
    if n_paths is None:
        cfg_path = DEMO
    else:
        cfg["sim"].update(n_paths=n_paths, n_steps=n_steps)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
    n_paths, n_steps = cfg["sim"]["n_paths"], cfg["sim"]["n_steps"]

    setups = [measure_setup(cfg_path, args.seed) for _ in range(SETUP_PROBES)]

    from delaylab import cli, sdde

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    walls, layers, attempted, failed = [], [], 0, 0
    reports = {sub: [] for sub in subs}
    start = perf_counter()
    while True:
        pass_dir = run_dir / f"pass{len(walls)}"
        if tracer:
            first_span, tracer.counts = len(tracer.spans), Counter()
        t0 = perf_counter()
        measured, seconds, n_failed = run_pass(cli, subs, cfg_path, args.seed, pass_dir, tracer)
        setups.append(measure_setup(cfg_path, args.seed))
        pass_s = perf_counter() - t0
        attempted += len(subs)
        failed += n_failed
        walls.append(sum(seconds.values()))
        if tracer:
            layer = layer_counts(tracer, first_span, walls[-1] / sum(measured.values()))
            layer.update({f"cli.{sub}.wall_s": s for sub, s in seconds.items()})
            layer["trace.wall_s"] = walls[-1]
            layers.append(layer)
        for sub in subs:
            report = pass_dir / sub / "report.json"
            reports[sub].append(report.read_bytes() if report.exists() else b"")
        print(f"perfbench: pass {len(walls)}: {sum(measured.values()):.3f} s measured, "
              f"{walls[-1]:.3f} s at reference speed, "
              + " ".join(f"{sub}={s:.3f}" for sub, s in seconds.items()), file=sys.stderr)
        if len(walls) > 1:  # keep only the newest pass's artifacts on disk
            shutil.rmtree(run_dir / f"pass{len(walls) - 2}")
        if len(walls) >= MIN_PASSES and perf_counter() - start + pass_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
        tracer.write(RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl")
        peak_mb = forward_peak_mb(cli, sdde, cfg, args.seed)

    oracle = checks.MertonOracle(cfg["model"]["params"], n_steps, cfg["initial_path"]["value"])
    failures = checks.verify(
        reports, pass_dir, oracle, n_paths,
        lambda: sdde.brownian_increments(args.seed, n_paths, n_steps, oracle.h),
    )
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    if tracer:
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in set().union(*layers)}
        values["sdde.simulate_forward.peak_mb"] = peak_mb
        wanted = spec["per_layer"]
    else:
        wall_s = statistics.median(walls)
        path_steps = n_paths * n_steps * sum(ENSEMBLES[sub] for sub in subs)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "path_steps_per_s": path_steps / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "cost_stderr": reported_stderr({s: json.loads(r[-1]) for s, r in reports.items()}),
        }
        wanted = spec["end_to_end"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "delaylab" / "__init__.py", DEMO, SPEC) if not p.is_file()]
    if missing:
        print(f"perfbench: not a delaylab checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS))
    try:
        result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
