"""Command-line interface: exit codes, config validation, reproducible artifacts."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from delaylab import cli, core, hjb, merton, pmp, sdde, verify

MERTON_CFG = {
    "model": {
        "kind": "merton",
        "params": {
            "r": 0.03, "mu0": 0.08, "sigma": 0.2, "beta": 0.1, "gamma": 0.5,
            "lambda": 0.1, "delta": 1.0, "horizon_T": 1.0, "mu2": 0.01,
        },
    },
    "sim": {"n_steps": 32, "n_paths": 50, "master_seed": 7},
    "initial_path": {"kind": "constant", "value": 1.0},
}

GENERIC_CFG = {
    "model": {
        "kind": "generic",
        "params": {"lambda": 0.1, "delta": 0.5, "horizon_T": 1.0},
        "coefficients": {
            "b1": "0.1 * x + 0.2 * u",
            "b2": "0",
            "sigma": "0.3",
            "f1": "-0.5 * y",
            "f2": "0",
            "phi": "x + x1",
        },
        "control_box": {"lower": [0.0], "upper": [1.0]},
        "policy": ["0.5"],
    },
    "sim": {"n_steps": 32, "n_paths": 20, "master_seed": 3},
}

# Two controls: b1 and f1 read c, the second coordinate.  With sigma = 0 and
# b2 = 0 every Euler step is x + h·b1 exactly.
GENERIC2_CFG = {
    "model": {
        "kind": "generic",
        "params": {"lambda": 0.2, "delta": 0.25, "horizon_T": 1},
        "coefficients": {
            "b1": "x / 10 + 2 * u - 3 * c",
            "b2": "0",
            "sigma": "0",
            "f1": "-y / 2 + c * x - u ** 2",
            "f2": "c / 4",
            "phi": "x + 2 * x1",
        },
        "control_box": {"lower": [0, 0], "upper": [1, 1]},
        "policy": ["1 / 2", "x1 / 4"],
    },
    "sim": {"n_steps": 32, "n_paths": 20, "master_seed": 3},
    "initial_path": {"kind": "expr", "expr": "1 + tau / 2"},
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(cmd, cfg_path, out_dir, *extra):
    return cli.main([cmd, "--config", cfg_path, "--out", str(out_dir), "--quiet", *extra])


COMMANDS = (
    "simulate", "solve-merton", "check-hjb", "check-pmp", "check-relations", "compare-controls",
)

# Each edit makes MERTON_CFG malformed in one section; every subcommand
# validates the whole config, so each must exit 2 before any numerical work.
MALFORMED = {
    "unknown_sim_key": lambda c: c["sim"].update(n_step=32),
    "unknown_initial_path_key": lambda c: c["initial_path"].update(valu=1.0),
    "missing_seed": lambda c: c["sim"].pop("master_seed"),
    "string_initial_value": lambda c: c["initial_path"].update(value="one"),
    "initial_path_list": lambda c: c.update(initial_path=[1.0]),
    "start_at_horizon": lambda c: c["model"]["params"].update(start_s=1.0),
    "overflowing_n_steps": lambda c: c["sim"].update(n_steps=1e999),  # inf
    "huge_integer_rate": lambda c: c["model"]["params"].update(r=10**400),
    "fractional_n_paths": lambda c: c["sim"].update(n_paths=20.7),
    "fractional_n_steps": lambda c: c["sim"].update(n_steps=16.9),
    "fractional_seed": lambda c: c["sim"].update(master_seed=1.5),
    "removed_x1_method": lambda c: c["sim"].update(x1_method="quadrature"),
    # The removed checks section and model.bounds, as configs of earlier
    # versions set them: whatever their values, both are unknown keys.
    "unknown_checks_key": lambda c: c.update(checks={"hjb_tolerence": 1e-6}),
    "string_u_bound": lambda c: c["model"].update(bounds={"u_bound": "ten"}),
    "string_hjb_tolerance": lambda c: c.update(checks={"hjb_tolerance": "tight"}),
    "string_x_probes": lambda c: c.update(checks={"x_probes": "grid"}),
    "string_n_grid": lambda c: c.update(checks={"n_grid": "sixteen"}),
    "huge_integer_tolerance": lambda c: c.update(checks={"hjb_tolerance": 10**400}),
    "fractional_n_grid": lambda c: c.update(checks={"n_grid": 16.9}),
    "zero_n_grid": lambda c: c.update(checks={"n_grid": 0}),
    "negative_n_grid": lambda c: c.update(checks={"n_grid": -1}),
    # Real parameters must be finite JSON numbers, not booleans.
    "bool_param": lambda c: c["model"]["params"].update(delta=True),
    "nan_initial_value": lambda c: c["initial_path"].update(value=float("nan")),
    "infinite_param": lambda c: c["model"]["params"].update(mu2=float("inf")),
    # The initial path is sampled onto the grid while the config is parsed:
    # the step 1/32 must divide delta, and every sample must be finite.
    "delay_off_grid": lambda c: c["model"]["params"].update(delta=0.3),
    # A lag of 2^63 steps, more samples than numpy can index: refused
    # before the initial segment is sampled.
    "lag_past_numpy_index": lambda c: (
        c["model"]["params"].update(delta=0.5), c["sim"].update(n_steps=2**64)
    ),
    # Ensembles whose controls alone have more bytes than numpy can
    # allocate: refused before any array of their size is asked for.
    "steps_past_numpy_size": lambda c: (
        c["model"]["params"].update(delta=0.0), c["sim"].update(n_steps=2**62)
    ),
    "paths_past_numpy_size": lambda c: c["sim"].update(n_paths=2**62),
    "nan_initial_expr": lambda c: c.update(
        initial_path={"kind": "expr", "expr": "log(0 - 1 - tau)"}
    ),
}


class TestExitCodes:
    def test_simulate_success(self, tmp_path):
        code = run("simulate", write_cfg(tmp_path, MERTON_CFG), tmp_path / "out")
        assert code == 0
        assert (tmp_path / "out" / "forward.csv").exists()
        assert (tmp_path / "out" / "backward.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_check_failure_is_one(self, tmp_path):
        cfg = json.loads(json.dumps(MERTON_CFG))
        cfg["model"]["overrides"] = {"mu1": 0.0115588624693143591}
        code = run("check-hjb", write_cfg(tmp_path, cfg), tmp_path / "out")
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is False

    def test_unknown_key_is_two(self, tmp_path):
        cfg = json.loads(json.dumps(MERTON_CFG))
        cfg["sim"]["n_step"] = 32
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2

    def test_missing_seed_is_two(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        cfg = json.loads(json.dumps(MERTON_CFG))
        del cfg["sim"]["master_seed"]
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2

    def test_bad_json_is_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("simulate", str(path), tmp_path / "out") == 2

    def test_divergence_is_three(self, tmp_path):
        cfg = json.loads(json.dumps(GENERIC_CFG))
        cfg["model"]["coefficients"]["b1"] = "100 * x * x * x"
        cfg["sim"]["n_steps"] = 256
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 3

    @pytest.mark.parametrize("command", COMMANDS)
    def test_zero_delta_is_three(self, tmp_path, capsys, command):
        # mu0 = r and mu2 = 0 leave Delta = beta - gamma r, which is 0 here:
        # Q has no closed form, and every subcommand fails before its work.
        cfg = json.loads(json.dumps(MERTON_CFG))
        cfg["model"]["params"].update(mu0=0.04, r=0.04, mu2=0.0, beta=0.02, gamma=0.5)
        assert run(command, write_cfg(tmp_path, cfg), tmp_path / "out") == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_malformed_config_is_two(self, tmp_path, monkeypatch, capsys, command, case):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        cfg = json.loads(json.dumps(MERTON_CFG))
        MALFORMED[case](cfg)
        assert run(command, write_cfg(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "command", ("simulate", "check-pmp", "check-relations", "compare-controls")
    )
    def test_memory_error_is_two(self, tmp_path, monkeypatch, capsys, command):
        # What numpy raises when an ensemble's array cannot be allocated,
        # raised here without asking for one.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(sdde, "simulate_forward", out_of_memory)
        assert run(command, write_cfg(tmp_path, MERTON_CFG), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "report.json").exists()


# MERTON_CFG and GENERIC_CFG with every optional key set, between them
# holding every section of the config language and both kinds of
# initial_path.
FULL_CFGS = {
    "merton": json.loads(json.dumps(MERTON_CFG)),
    "generic": json.loads(json.dumps(GENERIC_CFG)),
}
FULL_CFGS["merton"]["model"]["params"]["start_s"] = 0.0
FULL_CFGS["merton"]["model"]["overrides"] = {"mu1": 0.0015, "theta": 0.011}
FULL_CFGS["merton"]["output"] = {"directory": "out"}
FULL_CFGS["generic"]["model"]["params"]["start_s"] = 0.0
FULL_CFGS["generic"]["initial_path"] = {"kind": "expr", "expr": "1 + tau / 2"}

# (config, path of the section from the root) for every section.
SECTIONS = [
    ("merton", ()),
    ("merton", ("model",)),
    ("merton", ("model", "params")),
    ("merton", ("model", "overrides")),
    ("merton", ("sim",)),
    ("merton", ("initial_path",)),
    ("merton", ("output",)),
    ("generic", ("model",)),
    ("generic", ("model", "params")),
    ("generic", ("model", "coefficients")),
    ("generic", ("model", "control_box")),
    ("generic", ("initial_path",)),
]
OPTIONAL_KEYS = {
    "initial_path", "output", "overrides", "start_s", "mu1", "theta", "master_seed", "directory",
}


def section_of(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def section_keys(optional):
    """(config, section path, key) of every key, optional or required, of every section."""
    return [
        pytest.param(name, path, key, id=".".join((name, *path, key)))
        for name, path in SECTIONS
        for key in section_of(FULL_CFGS[name], path)
        if (key in OPTIONAL_KEYS) == optional
    ]


class TestConfigSections:
    """The config language section by section, parsed as main parses it
    (load_config, then build_run) without running any subcommand."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)

    @staticmethod
    def build(tmp_path, cfg):
        return cli.build_run(cli.load_config(write_cfg(tmp_path, cfg)), None, None, ["report.json"])

    @pytest.mark.parametrize("name", sorted(FULL_CFGS))
    def test_full_config_builds(self, tmp_path, name):
        run = self.build(tmp_path, FULL_CFGS[name])
        assert str(run.out_dir) == "out"
        assert (run.params is None) == (name == "generic")

    @pytest.mark.parametrize(
        "name, path", [pytest.param(n, p, id=".".join((n, *p))) for n, p in SECTIONS]
    )
    def test_unknown_key_is_config_error(self, tmp_path, name, path):
        cfg = json.loads(json.dumps(FULL_CFGS[name]))
        section_of(cfg, path)["bogus"] = 1.0
        with pytest.raises(core.ConfigError, match="bogus"):
            self.build(tmp_path, cfg)

    @pytest.mark.parametrize("name, path, key", section_keys(optional=False))
    def test_missing_required_key_is_config_error(self, tmp_path, name, path, key):
        cfg = json.loads(json.dumps(FULL_CFGS[name]))
        del section_of(cfg, path)[key]
        with pytest.raises(core.ConfigError):
            self.build(tmp_path, cfg)

    @pytest.mark.parametrize("name, path, key", section_keys(optional=True))
    def test_optional_key_may_be_left_out(self, tmp_path, monkeypatch, name, path, key):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        cfg = json.loads(json.dumps(FULL_CFGS[name]))
        del section_of(cfg, path)[key]
        self.build(tmp_path, cfg)

    @pytest.mark.parametrize("section", ["model", "initial_path"])
    def test_unknown_kind_is_config_error(self, tmp_path, section):
        cfg = json.loads(json.dumps(FULL_CFGS["merton"]))
        cfg[section]["kind"] = "linear"
        with pytest.raises(core.ConfigError):
            self.build(tmp_path, cfg)

    @pytest.mark.parametrize("directory", [5, None])
    def test_output_directory_must_be_a_string(self, tmp_path, directory):
        # Expressions take any JSON value as its text, but a path does not.
        cfg = json.loads(json.dumps(FULL_CFGS["merton"]))
        cfg["output"]["directory"] = directory
        with pytest.raises(core.ConfigError):
            self.build(tmp_path, cfg)

    def test_flags_replace_their_keys_unread(self, tmp_path):
        # --seed and --out replace sim.master_seed and output.directory
        # before those sections are parsed, so the replaced values are not read.
        cfg = json.loads(json.dumps(FULL_CFGS["merton"]))
        cfg["sim"]["master_seed"] = 1.5
        cfg["output"]["directory"] = 5
        run = cli.build_run(cli.load_config(write_cfg(tmp_path, cfg)), 3, "flag", ["report.json"])
        assert (run.sim.master_seed, str(run.out_dir)) == (3, "flag")

    def test_coefficient_may_be_a_json_number(self, tmp_path):
        cfg = json.loads(json.dumps(FULL_CFGS["generic"]))
        cfg["model"]["coefficients"]["b2"] = 0
        run = self.build(tmp_path, cfg)
        assert run.model.b2(0.0, np.ones(3), np.ones(3), np.full((1, 3), 0.5)) == 0.0


def section_table(parse):
    """(keys, optional) of a section parser that cli._section returned, or
    None for the parser of a value."""
    scope = inspect.getclosurevars(parse).nonlocals
    return (scope["keys"], scope["optional"]) if "keys" in scope else None


def cli_reference():
    """(section, kind) -> {(key, required)} from cli's section tables, the
    nested sections included; kind is None for a section without kinds."""
    found = {}

    def walk(name, kind, parse):
        keys, optional = section_table(parse)
        found[(name, kind)] = {(key, key not in optional) for key in keys}
        for key, value in keys.items():
            if section_table(value) is not None:
                walk(f"{name}.{key}", kind, value)

    walk("root", None, cli._ROOT)
    walk("sim", None, cli._SIM)
    walk("output", None, cli._OUTPUT)
    for name, kinds in (("model", cli._MODEL), ("initial_path", cli._INITIAL_PATH)):
        for kind, parse in kinds.items():
            walk(name, kind, parse)
    return found


def readme_reference(kinds_of):
    """(section, kind) -> {(key, required)} from README's config reference.

    A row of a section of one kind names it; a row without a kind, or for
    both kinds, holds for every kind with that section in kinds_of."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| Section | Key | Value | Required | Default |") + 2
    found = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        section, keys, _, required, _ = (cell.strip() for cell in line.strip("|").split("|"))
        name, _, kind = section.partition(", ")
        name = name.strip("`")
        named = [kind.strip("`")] if kind.startswith("`") else kinds_of.get(name, [None])
        for k in named:
            found.setdefault((name, k), set()).update(
                (key, required == "yes") for key in re.findall(r"`([^`]+)`", keys)
            )
    return found


class TestConfigReference:
    def test_readme_table_matches_cli_tables(self):
        # README's config reference is written by hand from cli's section
        # tables: each section's keys, and which of them are required.
        want = cli_reference()
        kinds_of = {}
        for name, kind in want:
            kinds_of.setdefault(name, []).append(kind)
        assert readme_reference(kinds_of) == want


class TestOutputDirectory:
    """An output directory that cannot be written is a config error: the
    run exits 2 before any simulation and creates nothing."""

    @staticmethod
    def main_without_simulation(monkeypatch, argv):
        calls = []
        monkeypatch.setattr(sdde, "simulate_forward", lambda *a, **k: calls.append(a))
        code = cli.main(argv)
        assert calls == []
        return code

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_below_a_regular_file_is_two(self, tmp_path, monkeypatch, capsys, command, source):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = json.loads(json.dumps(MERTON_CFG))
        argv = [command, "--quiet"]
        if source == "flag":
            argv += ["--out", str(blocker / "sub")]
        else:
            cfg["output"] = {"directory": str(blocker / "sub")}
        argv += ["--config", write_cfg(tmp_path, cfg)]
        assert self.main_without_simulation(monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory") and "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == ""

    def test_a_regular_file_is_two(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["simulate", "--config", write_cfg(tmp_path, MERTON_CFG), "--out", str(blocker)]
        assert self.main_without_simulation(monkeypatch, argv) == 2
        assert "is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [(command, "report.json") for command in COMMANDS]
        + [("simulate", "forward.csv"), ("simulate", "backward.csv"), ("check-pmp", "adjoint.csv")],
    )
    def test_an_output_file_that_is_a_directory_is_two(
        self, tmp_path, monkeypatch, capsys, command, name
    ):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = [command, "--config", write_cfg(tmp_path, MERTON_CFG), "--out", str(out)]
        assert self.main_without_simulation(monkeypatch, argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output directory {out}: {out / name} is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == [name]

    def test_an_unwritable_directory_is_two(self, tmp_path, monkeypatch, capsys):
        # os.access stands in for permissions, which do not bind every user.
        cfg_path = write_cfg(tmp_path, MERTON_CFG)
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path / "out" / "sub")]
        assert self.main_without_simulation(monkeypatch, argv) == 2
        assert "is not writable" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSeedHandling:
    def test_flag_overrides_config(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MERTON_CFG)
        run("simulate", cfg_path, tmp_path / "a")
        run("simulate", cfg_path, tmp_path / "b", "--seed", "99")
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["master_seed"] == 7
        assert b["master_seed"] == 99
        assert a["cost"] != b["cost"]

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        cfg = json.loads(json.dumps(MERTON_CFG))
        del cfg["sim"]["master_seed"]
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        code = run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["master_seed"] == 7

    def test_non_integer_env_var_is_two(self, tmp_path, monkeypatch):
        cfg = json.loads(json.dumps(MERTON_CFG))
        del cfg["sim"]["master_seed"]
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2

    # Seeds are 64-bit words: −1 and 2^64 would otherwise run as 2^64 − 1
    # and 0.  Each source of the seed must reject them before any work.
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus_one", "two_to_64"])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_seed_outside_64_bits_is_two(self, tmp_path, monkeypatch, capsys, source, seed):
        cfg = json.loads(json.dumps(MERTON_CFG))
        del cfg["sim"]["master_seed"]
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        extra = []
        if source == "flag":
            extra = ["--seed", str(seed)]
        elif source == "config":
            cfg["sim"]["master_seed"] = seed
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out", *extra) == 2
        assert "master_seed must lie in [0, 2^64)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = json.loads(json.dumps(MERTON_CFG))
        cfg["sim"]["master_seed"] = 2**64 - 1
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 0


# (config, command, exit code) of the reproducibility test: every subcommand
# on the Merton model, and the two that accept a generic one.
# compare-controls fails its check on GENERIC_CFG, but its artifacts must
# still repeat byte for byte.
DETERMINISM_CASES = [pytest.param(MERTON_CFG, c, 0, id=c) for c in COMMANDS] + [
    pytest.param(GENERIC_CFG, "simulate", 0, id="generic-simulate"),
    pytest.param(GENERIC_CFG, "compare-controls", 1, id="generic-compare-controls"),
    pytest.param(GENERIC2_CFG, "simulate", 0, id="generic2-simulate"),
    pytest.param(GENERIC2_CFG, "compare-controls", 1, id="generic2-compare-controls"),
]


class TestDeterminism:
    @pytest.mark.parametrize("cfg, command, code", DETERMINISM_CASES)
    def test_byte_identical_artifacts(self, tmp_path, cfg, command, code):
        cfg_path = write_cfg(tmp_path, cfg)
        assert run(command, cfg_path, tmp_path / "a") == code
        assert run(command, cfg_path, tmp_path / "b") == code
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        names = {"report.json", *report.get("artifacts", [])}
        for side in ("a", "b"):
            assert {p.name for p in (tmp_path / side).iterdir()} == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_report_is_sorted_json(self, tmp_path):
        run("simulate", write_cfg(tmp_path, MERTON_CFG), tmp_path / "out")
        text = (tmp_path / "out" / "report.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestMertonChecks:
    def test_solve_merton_passes(self, tmp_path):
        code = run("solve-merton", write_cfg(tmp_path, MERTON_CFG), tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is True
        assert report["q_at_start"] == pytest.approx(1.3643116987970898, rel=1e-10)
        assert report["q_oracle"]["tolerance"] == merton.Q_ORACLE_TOL

    def test_check_hjb_passes(self, tmp_path):
        assert run("check-hjb", write_cfg(tmp_path, MERTON_CFG), tmp_path / "out") == 0

    def test_check_hjb_tolerances(self, tmp_path):
        assert run("check-hjb", write_cfg(tmp_path, MERTON_CFG), tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        names = ("hjb_residual", "x2_independence", "compatibility_pde")
        assert {name: report[name]["tolerance"] for name in names} == {
            "hjb_residual": hjb.HJB_RESIDUAL_TOL,
            "x2_independence": hjb.X2_SPREAD_TOL,
            "compatibility_pde": hjb.COMPAT_TOL,
        }

    def test_ensemble_check_tolerances(self, tmp_path):
        cfg = json.loads(json.dumps(MERTON_CFG))
        cfg["sim"]["n_paths"] = 8
        cfg_path = write_cfg(tmp_path, cfg)
        assert run("check-pmp", cfg_path, tmp_path / "pmp") == 0
        assert run("check-relations", cfg_path, tmp_path / "relations") == 0
        pmp_report = json.loads((tmp_path / "pmp" / "report.json").read_text())
        relations = json.loads((tmp_path / "relations" / "report.json").read_text())
        assert pmp_report["q_factor"]["tolerance"] == pmp.Q_FACTOR_TOL
        assert pmp_report["p3_zero"]["tolerance"] == pmp.P3_TOL
        assert pmp_report["maximum_condition"]["tolerance"] == pmp.MAXIMUM_CONDITION_TOL
        assert relations["relations"]["tolerance"] == verify.RELATIONS_TOL

    def test_check_pmp_passes(self, tmp_path):
        cfg = json.loads(json.dumps(MERTON_CFG))
        cfg["sim"]["n_paths"] = 8
        code = run("check-pmp", write_cfg(tmp_path, cfg), tmp_path / "out")
        assert code == 0
        assert (tmp_path / "out" / "adjoint.csv").exists()

    def test_generic_model_rejected_for_merton_command(self, tmp_path):
        assert run("check-hjb", write_cfg(tmp_path, GENERIC_CFG), tmp_path / "out") == 2


class TestGenericModel:
    def test_simulate_runs(self, tmp_path):
        code = run("simulate", write_cfg(tmp_path, GENERIC_CFG), tmp_path / "out")
        assert code == 0
        header = (tmp_path / "out" / "forward.csv").read_text().splitlines()[0]
        assert header.startswith("path,t,x,x1,x2,u")

    def test_bad_coefficient_expression_is_two(self, tmp_path):
        cfg = json.loads(json.dumps(GENERIC_CFG))
        cfg["model"]["coefficients"]["b1"] = "__import__('os')"
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2

    @pytest.mark.parametrize(
        "key, source",
        [("policy", "0.5 + 0 * exp(x, x)"), ("b1", "min(x)"), ("f1", "max(y, y, y)")],
    )
    def test_function_argument_count_is_two(self, tmp_path, capsys, key, source):
        # exp(x, x) once wrote into the state row (exit 3) and min(x) raised
        # a TypeError (exit 1); both are config errors before any simulation.
        cfg = json.loads(json.dumps(GENERIC_CFG))
        if key == "policy":
            cfg["model"]["policy"] = [source]
        else:
            cfg["model"]["coefficients"][key] = source
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_policy_arity_checked(self, tmp_path):
        cfg = json.loads(json.dumps(GENERIC_CFG))
        cfg["model"]["policy"] = ["0.5", "0.1"]
        assert run("simulate", write_cfg(tmp_path, cfg), tmp_path / "out") == 2

    def test_malformed_control_box_is_two(self, tmp_path, capsys):
        # An empty box, a 2-D box, and bounds that are NaN, a boolean or
        # infinite, under both subcommands that take a generic model.
        boxes = [([], [], []), ([[0.0, 0.0]], [[1.0, 1.0]], ["0.5", "0.5"])]
        boxes += [([0.0], [bad], ["0.5"]) for bad in (float("nan"), True, 1e999)]
        for i, (lower, upper, policy) in enumerate(boxes):
            cfg = json.loads(json.dumps(GENERIC_CFG))
            cfg["model"].update(control_box={"lower": lower, "upper": upper}, policy=policy)
            cfg_path = write_cfg(tmp_path, cfg, f"box{i}.json")
            for command in ("simulate", "compare-controls"):
                out = tmp_path / f"{command}{i}"
                assert run(command, cfg_path, out) == 2
                assert capsys.readouterr().err.startswith("config error:")
                assert not (out / "report.json").exists()

    def test_two_controls_bind_u_and_c(self, tmp_path):
        assert run("simulate", write_cfg(tmp_path, GENERIC2_CFG), tmp_path / "out") == 0
        table = np.genfromtxt(tmp_path / "out" / "forward.csv", delimiter=",", names=True)
        n_nodes = GENERIC2_CFG["sim"]["n_steps"] + 1
        t, x, x1, u, c = (table[k].reshape(-1, n_nodes) for k in ("t", "x", "x1", "u", "c"))
        # The control columns are the policy (1/2, x1/4) at each node ...
        assert np.array_equal(u, np.full_like(x, 0.5))
        assert np.array_equal(c, x1 / 4)
        # ... and each step is driven by b1 with u and c bound to them.
        h = t[:, 1:] - t[:, :-1]
        b1 = x / 10 + 2 * u - 3 * c
        np.testing.assert_allclose(x[:, 1:], x[:, :-1] + h * b1[:, :-1], rtol=1e-14, atol=0)


class TestRunner:
    def test_checks_decide_report_stdout_and_exit_code(self, tmp_path, monkeypatch, capsys):
        def body(run):
            return {"cost": 0.25, "artifacts": []}, [
                hjb.CheckReport("first", 3, 1e-9, 1e-6, True),
                hjb.CheckReport("second", 2, 0.5, 0.1, False, {"worst_node": 7}),
            ]

        monkeypatch.setitem(cli._COMMANDS, "simulate", (body, False))
        cfg_path = write_cfg(tmp_path, MERTON_CFG)
        code = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report == {
            "command": "simulate",
            "cost": 0.25,
            "artifacts": [],
            "first": {
                "check": "first", "probes": 3, "max_residual": 1e-9,
                "tolerance": 1e-6, "pass": True,
            },
            "second": {
                "check": "second", "probes": 2, "max_residual": 0.5,
                "tolerance": 0.1, "pass": False, "worst_node": 7,
            },
            "pass": False,
        }
        assert capsys.readouterr().out.splitlines() == [
            "simulate: cost = 0.25",
            "simulate/first: max residual 1.000e-09 (tol 1e-06) -> PASS",
            "simulate/second: max residual 5.000e-01 (tol 0.1) -> FAIL",
        ]
