"""Print SHA-256 digests of what the command line writes, one line each.

Run from the repository root:

    python tests/golden/digest.py > digest.txt

Each case runs one subcommand in a fresh interpreter, with its output in a
directory of its own, and prints

    <case> stdout <sha256>
    <case> exit <code>
    <case> <file> <sha256>

for report.json and every CSV the run wrote.  The cases are the six
subcommands on demos/merton.json at seeds 1-3, check-relations and
compare-controls on that config at P = 2 000, N = 1 024 and at
P = 40 000, N = 64, and simulate and check-pmp on it with δ = 0.25, where
x2 is a column of its own (δ < T − s).  Two checkouts write the same bytes when their digests
do not differ: `diff` the two outputs.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEMO = ROOT / "demos" / "merton.json"

COMMANDS = (
    "simulate", "solve-merton", "check-hjb", "check-pmp", "check-relations", "compare-controls",
)

# (case prefix, subcommands, seeds, changes to the demo config by section:
# "sim" or the model's "params"; none for the demo as shipped)
CASES = (
    ("demo", COMMANDS, (1, 2, 3), {}),
    ("P2000-N1024", ("check-relations", "compare-controls"), (1,),
     {"sim": {"n_paths": 2_000, "n_steps": 1_024}}),
    ("P40000-N64", ("check-relations", "compare-controls"), (1,),
     {"sim": {"n_paths": 40_000, "n_steps": 64}}),
    ("delta0.25", ("simulate", "check-pmp"), (1,), {"params": {"delta": 0.25}}),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(name: str, command: str, cfg_path: Path, seed: int, out: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "delaylab.cli", command, "--config", str(cfg_path),
         "--seed", str(seed), "--out", str(out)],
        env=env, stdout=subprocess.PIPE, check=False,
    )
    print(f"{name} stdout {sha256(proc.stdout)}")
    print(f"{name} exit {proc.returncode}")
    files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    for file in files:
        print(f"{name} {file} {sha256((out / file).read_bytes())}", flush=True)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for prefix, commands, seeds, changes in CASES:
            cfg_path = DEMO
            if changes:
                cfg = json.loads(DEMO.read_text())
                sections = {"sim": cfg["sim"], "params": cfg["model"]["params"]}
                for section, values in changes.items():
                    sections[section].update(values)
                cfg_path = tmp / f"{prefix}.json"
                cfg_path.write_text(json.dumps(cfg))
            for seed in seeds:
                for command in commands:
                    name = f"{prefix}/seed{seed}/{command}"
                    digest_run(name, command, cfg_path, seed, tmp / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
