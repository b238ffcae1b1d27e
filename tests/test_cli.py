"""Command-line harness: configs, outputs, determinism, exit codes."""

import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kfglab.cli
import kfglab.observables
from kfglab.bc import ALG_TOL, BcParams, classify
from kfglab.cli import _write_csv, main
from kfglab.config import (
    ConfigError,
    _finite_array,
    evolution_from_config,
    initial_state_from_config,
    system_from_config,
)
from kfglab.core import Grid
from kfglab.evolution import evolve
from kfglab.observables import DENSITY_NAMES, local_fields
from kfglab.operators import System, eigenmodes, synthesize_state
from kfglab.verify import SUITE_NAMES, run_suite
from oracles import percent_csv_bytes


def write_config(path, **overrides):
    cfg = {
        "grid": {"a": 0.0, "b": math.pi, "n": 64},
        "potential": {
            "profile": {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3},
            "nonneg": True,
        },
        "bc": "dirichlet",
        "majorana": "plus",
        "initial_state": {
            "modes": [
                {"index": 0, "amplitude": 1.0, "phase": 0.3},
                {"index": 2, "amplitude": 0.6, "phase": 1.1},
            ]
        },
        "evolution": {"dt": 0.002, "steps": 100, "record_every": 25},
        "seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


@pytest.mark.parametrize("bc, code", [("dirichlet", 0), ("no-such-closure", 2)],
                         ids=["ok", "config-error"])
def test_python_dash_m_runs_the_cli(tmp_path, capsys, monkeypatch, bc, code):
    # `python -m kfglab ...` executes the package's __main__ module
    cfg = tmp_path / "c.json"
    write_config(cfg, bc=bc)
    monkeypatch.setattr(sys, "argv", ["kfglab", "classify", "--config", str(cfg)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("kfglab", run_name="__main__")
    assert exit_info.value.code == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["named_match"] == "dirichlet"
    else:
        assert err.startswith("config error:")


class TestClassify:
    def test_dirichlet(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["classify", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["named_match"] == "dirichlet"
        assert out["confining"] and out["tau1_condition"] and out["energy_condition"]

    def test_robin(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc="robin_mit_plus")
        main(["classify", "--config", str(cfg)])
        out = json.loads(capsys.readouterr().out)
        assert out["confining"] is True
        assert out["tau1_condition"] is False

    def test_raw_params(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc={"m0": 0.0, "m1": 1.0, "m2": 0.0, "m3": 0.0,
                              "mu": math.pi / 2})
        main(["classify", "--config", str(cfg)])
        out = json.loads(capsys.readouterr().out)
        assert out["named_match"] == "periodic"

    def test_malformed_norm_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc={"m0": 0.5, "m1": 0.0, "m2": 0.0, "m3": 0.0, "mu": 0.0})
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_unknown_tag_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc="escher")
        assert main(["classify", "--config", str(cfg)]) == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["classify", "spectrum", "evolve"])
    @pytest.mark.parametrize("section", ["profile", "time_factor"])
    def test_unknown_potential_kind_is_config_error(self, tmp_path, command, section):
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={section: {"kind": "parabola"}})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["classify", "spectrum", "evolve"])
    def test_identified_ends_need_equal_end_potentials(self, tmp_path, command, capsys):
        # periodic identifies psi(a) with psi(b), so S(a) != S(b) is no closure
        cfg = tmp_path / "c.json"
        step = {"kind": "step", "x0": 1.0, "left": 0.0, "right": 0.5}
        write_config(cfg, bc="periodic", potential={"profile": step})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "S(a, t) = S(b, t)" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_neutral_run_on_complex_closure_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc="quasiperiodic+",
                     potential={"profile": {"kind": "constant", "value": 0.0}})
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("m2", [0.0, 1e-13, 1e-11, 5e-11, 2e-10, 1e-3])
def test_classify_evolve_and_the_closure_agree_on_majorana_compatibility(tmp_path, m2):
    # one rule, |m2| <= ALG_TOL = 1e-10, on the periodic slice: classify's
    # report, the real closure and a neutral run's acceptance
    bc = {"m0": 0.0, "m1": math.sqrt(1.0 - m2 * m2), "m2": m2, "m3": 0.0, "mu": math.pi / 2}
    params = BcParams(**bc)
    compatible = classify(params).majorana_compatible
    assert compatible == (m2 <= ALG_TOL)
    assert compatible == (not System(Grid(0.0, math.pi, 64), params).closure.is_complex)
    cfg = tmp_path / "c.json"
    write_config(cfg, bc=bc, majorana="plus")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == (0 if compatible else 2)


class TestBadNumbers:
    """Non-finite numbers, counts that are not integers, mode indices
    outside the modes, tabulated profiles of another length and a config
    that is not a JSON object fail before the run with exit code 2 instead
    of mid-run, with a traceback or silently."""

    @staticmethod
    def write_with(path, section, key, value):
        """The default config with one entry of `section` replaced."""
        cfg = write_config(path)
        part = cfg.setdefault(section, {})
        entry = part["modes"][0] if section == "initial_state" else part
        entry[key] = value
        path.write_text(json.dumps(cfg))

    @pytest.mark.parametrize("section,key,value", [
        ("evolution", "dt", math.inf),
        ("evolution", "dt", math.nan),
        ("grid", "a", -math.inf),
        ("grid", "b", math.inf),
        ("grid", "b", 10**400),  # an integer beyond the float range
        ("units", "hbar", math.inf),
    ])
    def test_non_finite_is_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "c.json"
        self.write_with(cfg, section, key, value)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("command", ["classify", "spectrum", "evolve"])
    @pytest.mark.parametrize("bc", [
        {"m0": math.nan, "m1": 0.0, "m2": 0.0, "m3": 1.0, "mu": 0.5},
        {"m0": 0.0, "m1": math.nan, "m2": 0.0, "m3": 1.0, "mu": 0.5},
        {"m0": 0.0, "m1": 0.0, "m2": 0.0, "m3": 1.0, "mu": 0.5, "lambda": math.nan},
        {"m0": 0.0, "m1": 0.0, "m2": 0.0, "m3": 1.0, "mu": 0.5, "lambda": math.inf},
        "rotation:nan",
    ], ids=["m0-nan", "m1-nan", "lambda-nan", "lambda-inf", "rotation-nan"])
    def test_non_finite_bc_number_is_config_error(self, tmp_path, capsys, command, bc):
        # json reads NaN and Infinity, and NaN passes every comparison-based check
        cfg = tmp_path / "c.json"
        write_config(cfg, bc=bc)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_empty_mode_list_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, initial_state={"modes": []})
        self.assert_config_error(cfg, tmp_path, capsys, "mode list")

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "n", 64.7),
        ("evolution", "steps", 2.5),
        ("evolution", "record_every", 2.5),
        ("evolution", "steps", True),
        ("initial_state", "index", 1.5),
    ])
    def test_non_integer_count_is_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "c.json"
        self.write_with(cfg, section, key, value)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @staticmethod
    def assert_config_error(cfg, tmp_path, capsys, *words):
        """`evolve` exits with code 2 before any step, and stderr names a
        config error and each of `words`."""
        with mock.patch.object(kfglab.cli, "evolve", side_effect=AssertionError("stepped")):
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and all(w in err for w in words), err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("time_factor", [
        {"kind": "constant"},
        {"kind": "linear", "rate": -1.0},
        {"kind": "sinusoidal", "amplitude": 1.0, "omega": 5.0 * math.pi, "phase": math.pi,
         "offset": 0.5},
    ], ids=["static", "driven", "driven-trough"])
    def test_nonneg_violation_is_config_error(self, tmp_path, capsys, time_factor):
        # a profile below zero with a constant factor; S = 0 at t0 = 0, then
        # S < 0 up to t = 0.2; and f = 0.5 at both ends of [0, 0.2] but -0.5
        # at t = 0.1
        profile = {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3,
                   "offset": -1.0 if time_factor["kind"] == "constant" else 0.0}
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"profile": profile, "time_factor": time_factor,
                                     "nonneg": True})
        self.assert_config_error(cfg, tmp_path, capsys, "nonnegative", "min S")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_t0_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "c.json"
        write_config(cfg, t0=value)
        self.assert_config_error(cfg, tmp_path, capsys, "t0", "finite")

    @pytest.mark.parametrize("part, key", [("profile", "coefficient"), ("profile", "x0"),
                                           ("time_factor", "omega")])
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_potential_parameter_is_config_error(self, tmp_path, capsys, part,
                                                            key, value):
        potential = {
            "profile": {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3},
            "time_factor": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 2.0, "offset": 1.0},
        }
        potential[part][key] = value
        cfg = tmp_path / "c.json"
        write_config(cfg, potential=potential)
        self.assert_config_error(cfg, tmp_path, capsys, f"{part}.{key}", "finite")

    def test_non_finite_tabulated_profile_is_config_error(self, tmp_path, capsys):
        values = [0.0] * 64
        values[5] = math.inf
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"profile": {"kind": "tabulated", "values": values}})
        self.assert_config_error(cfg, tmp_path, capsys, "profile.values", "finite")

    @pytest.mark.parametrize("text", ["[1, 2]", '"dirichlet"', "3", "null"],
                             ids=["list", "string", "number", "null"])
    def test_top_level_that_is_not_an_object_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        self.assert_config_error(cfg, tmp_path, capsys, "JSON object")

    @pytest.mark.parametrize("index", [10_000, -1])
    def test_mode_index_outside_the_modes_is_config_error(self, tmp_path, capsys, index):
        cfg = tmp_path / "c.json"
        self.write_with(cfg, "initial_state", "index", index)
        self.assert_config_error(cfg, tmp_path, capsys, f"mode index {index}")

    @pytest.mark.parametrize("key, value", [("amplitude", math.inf), ("amplitude", math.nan),
                                            ("phase", -math.inf)])
    def test_non_finite_mode_coefficient_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        self.write_with(cfg, "initial_state", key, value)
        self.assert_config_error(cfg, tmp_path, capsys, f"mode {key}", "finite")

    @pytest.mark.parametrize("key", ["psi_re", "psi_t_im"])
    def test_non_finite_tabulated_state_is_config_error(self, tmp_path, capsys, key):
        psi = np.sin(np.linspace(0.0, math.pi, 64))
        tab = {"psi_re": psi.tolist(), "psi_t_im": (-psi).tolist()}
        tab[key][7] = math.nan
        cfg = tmp_path / "c.json"
        write_config(cfg, majorana="none", initial_state={"tabulated": tab})
        self.assert_config_error(cfg, tmp_path, capsys, "tabulated state", "finite")

    @pytest.mark.parametrize("length", [10, 65])
    def test_tabulated_profile_of_another_length_is_config_error(self, tmp_path, capsys,
                                                                 length):
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"profile": {"kind": "tabulated", "values": [0.0] * length}})
        self.assert_config_error(cfg, tmp_path, capsys, "length must match the grid")

    @pytest.mark.parametrize("section,key,value", [
        ("evolution", "dt", True),
        ("grid", "a", "0"),
        ("grid", "b", None),
        ("units", "hbar", True),
        ("units", "lambda", "1"),
        ("initial_state", "amplitude", True),
        ("initial_state", "phase", "0.3"),
        ("potential", "time_factor", {"kind": "sinusoidal", "amplitude": True}),
        ("bc", "m0", "-1"),
        ("bc", "mu", False),
    ])
    def test_number_of_another_json_type_is_config_error(self, tmp_path, capsys, section,
                                                         key, value):
        # float() would read true as 1 and "0" as 0
        cfg = tmp_path / "c.json"
        if section == "bc":
            bc = {"m0": 0.0, "m1": 0.0, "m2": 0.0, "m3": 1.0, "mu": 0.5, key: value}
            write_config(cfg, bc=bc)
        else:
            self.write_with(cfg, section, key, value)
        self.assert_config_error(cfg, tmp_path, capsys, "must be a number")

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_nonneg_that_is_not_a_json_boolean_is_config_error(self, tmp_path, capsys, value):
        # bool("false") is true: a well below zero would then fail as
        # "flagged nonnegative"
        cfg = tmp_path / "c.json"
        self.write_with(cfg, "potential", "nonneg", value)
        self.assert_config_error(cfg, tmp_path, capsys, "potential.nonneg", "true or false")

    @pytest.mark.parametrize("entry", [True, "0.5"])
    def test_tabulated_entry_that_is_not_a_number_is_config_error(self, tmp_path, capsys,
                                                                  entry):
        psi = np.sin(np.linspace(0.0, math.pi, 64)).tolist()
        psi[3] = entry
        cfg = tmp_path / "c.json"
        write_config(cfg, majorana="none", initial_state={"tabulated": {"psi_re": psi}})
        self.assert_config_error(cfg, tmp_path, capsys, "tabulated state psi_re",
                                 "must be a number")

    @pytest.mark.parametrize("entry,reason", [
        (True, "must be a number"),
        ("0.5", "must be a number"),
        (math.nan, "must be finite"),
        (-math.inf, "must be finite"),
        (10**400, "must be finite"),  # an integer beyond the float range
    ])
    def test_tabulated_entry_checked_in_bulk_keeps_its_message(self, tmp_path, capsys,
                                                               entry, reason):
        # every other entry an int or a float: the bulk check falls back to
        # the check of each entry, which names the bad one
        psi = np.sin(np.linspace(0.0, math.pi, 64)).tolist()
        psi[0], psi[-1] = 0, 1
        psi[40] = entry
        cfg = tmp_path / "c.json"
        write_config(cfg, majorana="none", initial_state={"tabulated": {"psi_t_re": psi,
                                                                        "psi_re": psi}})
        self.assert_config_error(cfg, tmp_path, capsys, "tabulated state psi_re", reason)

    def test_tabulated_entries_checked_in_bulk_keep_their_bits(self):
        values = [0, -3, 2**53 + 1, 2**64 + 2049, -(10**300), 0.1, 1e308, 5e-324, -0.0]
        bulk = _finite_array(values, "x")
        assert bulk.dtype == np.float64
        assert bulk.tobytes() == np.array([float(v) for v in values]).tobytes()

    def test_integral_float_count_is_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, evolution={"dt": 0.002, "steps": 10.0, "record_every": 5})
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, data = read_csv(tmp_path / "trajectory.csv")
        assert len(data) == 3

    @pytest.mark.parametrize("section, key, value, command", [
        ("units", "hbar", 1e300, "evolve"),
        ("units", "hbar", 1e300, "spectrum"),
        ("units", "c", 1e200, "evolve"),
        ("units", "c", 1e200, "spectrum"),
        ("units", "mass", 1e200, "evolve"),
        ("units", "mass", 1e200, "spectrum"),
        ("evolution", "dt", 1e300, "evolve"),
        ("grid", "b", 1e300, "evolve"),
        ("grid", "b", 1e300, "spectrum"),
        ("grid", "b", 1e-300, "evolve"),
        ("grid", "b", 1e-300, "spectrum"),
    ])
    def test_scale_past_the_float_range_is_config_error(self, tmp_path, section, key, value,
                                                        command):
        # finite numbers whose squares and quotients, (hbar c)^2, (mc^2)^2,
        # dx^2 and the step's (dt/2 hbar)^2, leave the float range; each run
        # ended in an OverflowError or an eigensolver's ValueError
        cfg = tmp_path / "c.json"
        self.write_with(cfg, section, key, value)
        self.assert_fails_at_load(command, cfg, tmp_path, f"config error: bad {section} section")

    @staticmethod
    def assert_fails_at_load(command, cfg, tmp_path, message):
        """`kfglab command` run as a program exits with code 2 and writes no
        file, and its stderr starts with `message` and holds no traceback."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(kfglab.__file__)))
        run = subprocess.run([sys.executable, "-m", "kfglab", command, "--config", str(cfg),
                              "--out", str(tmp_path)], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith(message)
        assert "Traceback" not in run.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("command", ["spectrum", "evolve"])
    @pytest.mark.parametrize("units", [
        {"hbar": 1e153},
        {"c": 1e153, "mass": 1e-306},
        {"hbar": 5e152},  # (hbar c / dx)^2 = 1.0e308, in range; K's diagonal is twice that
    ], ids=["hbar", "c-mass", "hbar-near-max"])
    def test_kinetic_scale_past_the_float_range_is_config_error(self, tmp_path, units, command):
        # (hbar c)^2 and mc^2 are in range, but (hbar c)^2 / dx^2 on the
        # default grid is not; each run ended with exit 1 in the band assembly
        cfg = tmp_path / "c.json"
        write_config(cfg, units=units)
        self.assert_fails_at_load(command, cfg, tmp_path,
                                  "config error: the units and grid sections")

    # the Frobenius norm of the Hermiticity check squares K's entries
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_kinetic_scale_near_the_float_range_still_runs_spectrum(self, tmp_path):
        # 4 (hbar c / dx)^2 = 1.6e303 on the default grid
        cfg = tmp_path / "c.json"
        write_config(cfg, units={"c": 1e150, "mass": 1e-300})
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["evolve", "spectrum"])
    @pytest.mark.parametrize("overrides", [
        {"units": {"mass": 1e-200}},  # (mc^2)^2 underflows to zero
        {"units": {"lambda": 1e-300}, "bc": "periodic"},
        {"potential": {"profile": {"kind": "constant", "value": 1e300}}},
        {"t0": 1e300},
        {"potential": {"profile": {"kind": "constant", "value": 0.5},
                       "time_factor": {"kind": "sinusoidal", "omega": 1e300, "offset": 1.0}}},
    ], ids=["mass", "lambda", "potential", "t0", "omega"])
    def test_extreme_numbers_that_stay_in_range_still_run(self, tmp_path, overrides, command):
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestStrictSections:
    """A key the units, grid, potential or evolution section does not know is
    a misspelt option: the run fails with exit code 2 instead of ignoring it."""

    @pytest.mark.parametrize("section,key,value", [
        ("potential", "profile", {"kind": "quadratic", "x0": 1.5, "coeficient": 0.3}),
        ("potential", "time_factor", {"kind": "linear", "rat": 0.2}),
        ("potential", "nonnegative", True),
        ("evolution", "record_evry", 5),
        ("evolution", "scheme", "leapfrog"),
        ("grid", "size", 64),
        ("units", "m", 1.0),
        ("initial_state", "amplitdue", 0.2),
        ("initial_state", "phse", 1.0),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "c.json"
        TestBadNumbers.write_with(cfg, section, key, value)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unknown_raw_bc_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc={"m0": 0.0, "m1": 1.0, "m2": 0.0, "m3": 0.0,
                              "mu": math.pi / 2, "lamda": 3.0})
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "lamda" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unknown_tabulated_key_is_config_error(self, tmp_path, capsys):
        psi = np.sin(np.linspace(0.0, math.pi, 64))
        cfg = tmp_path / "c.json"
        write_config(cfg, initial_state={"tabulated": {
            "psi_re": psi.tolist(), "psi_t_img": (-psi).tolist()}})
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "psi_t_img" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_units_with_lambda_and_bc_length_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, units={"lambda": 1.0, "bc_length": 2.0})
        TestBadNumbers.assert_config_error(cfg, tmp_path, capsys, "lambda and bc_length")

    @pytest.mark.parametrize("key", ["lambda", "bc_length"])
    @pytest.mark.parametrize("value,word", [(0.0, "positive"), (-0.5, "positive"),
                                            (math.inf, "finite"), (math.nan, "finite")])
    def test_units_lambda_must_be_positive_and_finite(self, tmp_path, capsys, key, value, word):
        cfg = tmp_path / "c.json"
        write_config(cfg, units={key: value})
        TestBadNumbers.assert_config_error(cfg, tmp_path, capsys, f"units.{key}", word)

    def test_initial_state_with_modes_and_tabulated_is_config_error(self, tmp_path, capsys):
        psi = np.sin(np.linspace(0.0, math.pi, 64))
        cfg = tmp_path / "c.json"
        write_config(cfg, initial_state={"modes": [{"index": 0}],
                                         "tabulated": {"psi_re": psi.tolist()}})
        TestBadNumbers.assert_config_error(cfg, tmp_path, capsys, "modes and tabulated")

    def test_unknown_initial_state_key_is_config_error(self, tmp_path, capsys):
        # a misspelt key next to a valid one
        cfg = tmp_path / "c.json"
        write_config(cfg, initial_state={"modes": [{"index": 0}], "tabluated": {}})
        TestBadNumbers.assert_config_error(cfg, tmp_path, capsys, "initial_state", "tabluated")

    def test_initial_state_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, initial_state="modes")
        TestBadNumbers.assert_config_error(cfg, tmp_path, capsys, "initial_state", "object")

    @pytest.mark.parametrize("command", ["evolve", "spectrum", "classify"])
    def test_misspelt_section_is_config_error(self, tmp_path, capsys, command):
        # a section under a name the config does not read was dropped, so
        # the run went on with a zero potential
        cfg = tmp_path / "c.json"
        write_config(cfg, potental={"profile": {"kind": "constant", "value": 0.5}})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "potental" in err, err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_the_cayley_scheme_and_top_level_keys_are_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, evolution={"dt": 0.002, "steps": 10, "scheme": "cayley"},
                     note="top-level keys stay free")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            assert "# scheme=cayley\n" in fh.read()


class TestSpectrum:
    def test_schema_and_diagnostics(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, bc="robin_mit_minus", potential={"profile": {"kind": "constant", "value": 0.0}})
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "spectrum.csv")
        assert header == ["index", "E", "E_squared", "is_diagnostic"]
        diag = data[data[:, 3] == 1]
        assert len(diag) == 1 and diag[0, 2] < 0  # one negative E^2, quarantined

    def test_driven_spectrum_is_taken_at_t0(self, tmp_path):
        # S = p (t - 1) is negative at t = 0 and zero at t0 = 1, so the
        # spectrum at t0 is the free one; at t = 0 the nonneg flag would fail
        potential = {"profile": {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3},
                     "time_factor": {"kind": "linear", "rate": 1.0, "offset": -1.0},
                     "nonneg": True}
        free = {"profile": {"kind": "constant", "value": 0.0}}
        spectra = []
        for name, pot, t0 in (("driven", potential, 1.0), ("free", free, 0.0)):
            cfg, out = tmp_path / f"{name}.json", tmp_path / name
            write_config(cfg, potential=pot, t0=t0)
            assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
            spectra.append(read_csv(out / "spectrum.csv")[1])
        np.testing.assert_array_equal(*spectra)


class TestEvolve:
    def test_outputs_and_conservation(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert header[:3] == ["t", "norm", "energy_mean"]
        norm = data[:, header.index("norm")]
        assert np.max(np.abs(norm - norm[0])) <= 1e-12  # neutral: stays at zero
        energy = data[:, header.index("energy_mean")]
        assert np.max(np.abs(energy - energy[0])) <= 1e-10 * abs(energy[0])
        assert (tmp_path / "fields_final.csv").exists()

    def test_periodic_charged_currents_equal(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            bc="periodic",
            majorana="none",
            grid={"a": 0.0, "b": 2 * math.pi, "n": 64},
            potential={"profile": {"kind": "constant", "value": 0.0}},
            initial_state={"modes": [
                {"index": 0, "amplitude": 1.0, "phase": 0.1},
                {"index": 1, "amplitude": 0.7, "phase": 0.9},
            ]},
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        j_a = data[:, header.index("j_a")]
        j_b = data[:, header.index("j_b")]
        assert np.max(np.abs(j_a - j_b)) <= 1e-8

    def test_zero_state_gives_zero_columns(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            initial_state={"modes": [{"index": 0, "amplitude": 0.0, "phase": 0.0}]},
        )
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert np.max(np.abs(data[:, 1:])) == 0.0

    def test_one_snapshot_per_record(self, tmp_path, monkeypatch):
        # each record is derived once: its summary row and, for the last
        # one, the final fields come from the same Snapshot
        built = []
        init = kfglab.observables.Snapshot.__init__

        def counted(self, state, system):
            built.append(state.t)
            init(self, state, system)

        monkeypatch.setattr(kfglab.observables.Snapshot, "__init__", counted)
        cfg = tmp_path / "c.json"
        config = write_config(cfg)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert len(data) == 5
        assert built == data[:, header.index("t")].tolist()

        system = system_from_config(config)
        state0 = initial_state_from_config(config, system)
        econf = evolution_from_config(config)
        final = list(evolve(state0, system, econf, majorana="plus"))[-1].state
        want = local_fields(final, system)
        header, fields = read_csv(tmp_path / "fields_final.csv")
        for name in DENSITY_NAMES:
            got = fields[:, header.index(f"{name}_re")] + 1j * fields[:, header.index(f"{name}_im")]
            assert np.array_equal(got, getattr(want, name)), name

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r1")])
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "r2")])
        a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
        b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
        assert a == b

    def test_tabulated_initial_state(self, tmp_path):
        n = 64
        x = np.linspace(0, math.pi, n)
        psi = np.sin(x)
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            majorana="plus",
            initial_state={"tabulated": {"psi_re": psi.tolist()}},
            evolution={"dt": 0.002, "steps": 10, "record_every": 5},
        )
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_run_that_stops_being_finite_fails(self, tmp_path, capsys):
        # the two quarantined nonpositive-E^2 modes grow from round-off until
        # the energy overflows near t = 20
        cfg = tmp_path / "c.json"
        write_config(cfg, bc="robin_mit_minus",
                     units={"hbar": 1.0, "c": 1.0, "mass": 0.3, "lambda": 0.05},
                     evolution={"dt": 0.01, "steps": 2500, "record_every": 50})
        with np.errstate(all="ignore"):
            assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "not finite at t = " in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_driven_run_starts_from_modes_frozen_at_t0(self, tmp_path):
        potential = {
            "profile": {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3},
            "time_factor": {"kind": "sinusoidal", "amplitude": 0.5, "omega": 2.0,
                            "offset": 1.0},
        }
        cfg = tmp_path / "c.json"
        data = write_config(cfg, potential=potential, t0=0.4)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        system = system_from_config(data)
        assert not system.is_static
        modes = eigenmodes(system.kinetic(0.4), 3)
        expect = synthesize_state(modes, [(0, 1.0, 0.3), (2, 0.6, 1.1)], 0.4, "plus",
                                  system.units)
        state = initial_state_from_config(data, system)
        assert np.array_equal(state.psi, expect.psi)
        assert np.array_equal(state.psi_t, expect.psi_t)


CSV_VALUES = st.one_of(
    st.floats(),  # with nan, +-inf and -0.0
    st.sampled_from([5e-324, -5e-324, 1e-300, 1.0, 0.0, 2.0**53, 0.1]),
    st.integers(-(2**60), 2**60).map(float),
)


def savetxt_bytes(comments, columns, table) -> bytes:
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    np.savetxt(buf, np.asarray(table, dtype=float), fmt="%.17g", delimiter=",")
    return buf.getvalue().encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), shape=st.sampled_from(["1x1", "1xk", "kx1", "kxk"]),
       block=st.integers(1, 4))
def test_csv_bytes_equal_savetxt(tmp_path, data, shape, block):
    # small blocks make most tables span several of them
    k = data.draw(st.integers(2, 9))
    dims = {"1x1": (1, 1), "1xk": (1, k), "kx1": (k, 1), "kxk": (k, k)}[shape]
    table = np.array(data.draw(st.lists(CSV_VALUES, min_size=math.prod(dims),
                                        max_size=math.prod(dims)))).reshape(dims)
    columns = [f"c{i}" for i in range(dims[1])]
    path = tmp_path / "t.csv"
    with mock.patch.object(kfglab.cli, "CSV_BLOCK_CELLS", block * dims[1]):
        _write_csv(path, columns, table, ["config_hash=0"])
    assert path.read_bytes() == savetxt_bytes(["config_hash=0"], columns, table)


def test_csv_bytes_equal_savetxt_over_several_blocks(tmp_path):
    rng = np.random.default_rng(5)
    rows = 2 * kfglab.cli.CSV_BLOCK_CELLS // 4 + 3
    table = np.column_stack([np.arange(rows), rng.standard_normal(rows),
                             rng.standard_normal(rows) * 1e-300, rows * [0.0]])
    table[::7, 1] = np.nan
    _write_csv(tmp_path / "t.csv", list("abcd"), table, [])
    assert (tmp_path / "t.csv").read_bytes() == savetxt_bytes([], list("abcd"), table)


def test_repeated_main_calls_match_first_calls(tmp_path, capsys):
    # the parser is built once per process; a later call with other
    # arguments must behave as if it were the first
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    write_config(cfg_a, evolution={"dt": 0.002, "steps": 20, "record_every": 5})
    write_config(cfg_b, bc="periodic", majorana="none",
                 evolution={"dt": 0.001, "steps": 12, "record_every": 4})
    calls = [
        ["evolve", "--config", str(cfg_a), "--out", "{out}/evolve_a"],
        ["classify", "--config", str(cfg_b), "--out", "{out}/classify_b"],
        ["evolve", "--config", str(cfg_b), "--out", "{out}/evolve_b"],
        ["classify", "--config", str(tmp_path / "missing.json")],
    ]

    def run(out, fresh):
        codes = []
        for argv in calls:
            if fresh:
                kfglab.cli.build_parser.cache_clear()
            codes.append(main([a.format(out=out) for a in argv]))
        capsys.readouterr()
        return codes, {p.relative_to(out): p.read_bytes()
                       for p in sorted(out.rglob("*")) if p.is_file()}

    first = run(tmp_path / "first", fresh=True)
    repeated = run(tmp_path / "repeated", fresh=False)
    assert first == repeated
    assert first[0] == [0, 0, 0, 2] and len(first[1]) == 5
    assert kfglab.cli.build_parser() is kfglab.cli.build_parser()


def test_csv_row_bytes(tmp_path):
    path = tmp_path / "row.csv"
    _write_csv(path, ["i", "flag", "a", "b", "c", "d"],
               [[3, True, 0.1, -0.0, float("nan"), 1e-300]], ["config_hash=0"])
    assert path.read_bytes() == (
        b"# config_hash=0\ni,flag,a,b,c,d\n"
        b"3,1,0.10000000000000001,-0,nan,1e-300\n"
    )


# Every double: CSV_VALUES and random bit patterns.
KERNEL_VALUES = st.one_of(
    CSV_VALUES,
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
)


def assert_percent_csv(path, table, **constants):
    """`_write_csv`, with kfglab.cli's constants set as given, writes the
    bytes of the percent writer."""
    columns = [f"c{i}" for i in range(table.shape[1])]
    with mock.patch.multiple(kfglab.cli, **constants):
        _write_csv(path, columns, table, ["config_hash=0"])
    assert path.read_bytes() == percent_csv_bytes(columns, table, ["config_hash=0"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 5)),
                    elements=KERNEL_VALUES),
       block=st.integers(1, 600))
def test_kernel_csv_bytes_equal_percent_writer(tmp_path, table, block):
    # every block of at least one cell goes through the kernel
    assert_percent_csv(tmp_path / "t.csv", table, CSV_KERNEL_CELLS=1, CSV_BLOCK_CELLS=block)


def edge_values() -> np.ndarray:
    """Powers of ten and two, the ends of %g's fixed notation (e = -5, -4,
    16, 17), doubles whose 17 digits round up to the next power of ten
    (1e-14, 1e98, ...), the float range, and the neighbours of each; and
    doubles whose scaled significand lies within 6e-4 of a half-integer,
    where the long-double product rounds to the wrong neighbour."""
    values = [10.0**k for k in range(-323, 309)] + [2.0**k for k in range(-1074, 1024)]
    values += [3.3792541078241947e-221, 3.5084226677098645e-99, 3.021148536989063e+118,
               2.6157636084191e-214, 2.933800709587983e-152, 6.443070367160406e-208]
    values += [1.2345678901234567e-5, 9.8765432109876543e-5, 1.5e-4, 9.9999999999999995e-5,
               1.2345678901234567e16, 9.9999999999999984e16, 1.5e16, 1.2345678901234567e17,
               1e-14, 1e98, 1e129, 0.5, 0.1, 123.0, 12000.0, 2.0**53 + 2, 2.0**60,
               5e-324, np.finfo(float).tiny, np.finfo(float).max]
    with np.errstate(over="ignore"):
        values += [np.nextafter(v, w) for v in values for w in (0.0, np.inf)]
    values += [0.0, np.nan, np.inf]
    values = np.array(values)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("exact", [True, False], ids=["kernel", "long-double-fallback"])
def test_kernel_csv_edge_values(tmp_path, exact):
    # exact=False is a platform whose long double lacks a 64-bit significand
    table = edge_values()
    table = np.resize(table, (-(-len(table) // 3), 3))
    assert_percent_csv(tmp_path / "t.csv", table, KERNEL_EXACT=exact and kfglab.cli.KERNEL_EXACT)


@pytest.mark.skipif(not kfglab.cli.KERNEL_EXACT, reason="the kernel is off on this platform")
def test_kernel_powers_are_correctly_rounded():
    for e, power in zip(range(-325, 310), kfglab.cli._tables()[0]):
        error = Fraction(*power.as_integer_ratio()) - Fraction(10) ** int(16 - e)
        assert abs(error) <= Fraction(*np.spacing(power).as_integer_ratio()) / 2, e


def test_evolve_solves_bands_whose_squares_overflow(tmp_path, capsys):
    # K's off-diagonal is about 4e154 here, and LAPACK ?stebz (the partial
    # solve of the modes) squares it
    cfg = tmp_path / "cfg.json"
    write_config(cfg, units={"hbar": 1.0, "c": 1e76, "mass": 1e-152, "lambda": 1.0},
                 initial_state={"modes": [{"index": 0, "amplitude": 1.0, "phase": 0.3}]},
                 evolution={"dt": 0.002, "steps": 4, "record_every": 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lowest = system_from_config(json.loads(cfg.read_text())).modes(1).energies[0] ** 2
    _, spectrum = read_csv(tmp_path / "spectrum.csv")
    assert lowest == pytest.approx(spectrum[0, 2], rel=1e-12)


class TestEnumerateAndVerify:
    def test_enumerate_exit_code(self, tmp_path, capsys):
        rc = main(["enumerate-confining", "--samples", "20000", "--tol", "1e-6",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "confining_solutions.json").read_text())
        assert len(payload["clusters"]) == 4

    @pytest.mark.parametrize("flag,value", [("--samples", "100"), ("--tol", "-1"),
                                            ("--tol", "nan"), ("--seed", "-1")])
    def test_enumerate_bad_input_exits_2(self, flag, value, capsys):
        assert main(["enumerate-confining", flag, value]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_unknown_suite_rejected_by_run_suite(self):
        assert SUITE_NAMES == ("bc_algebra", "conservation", "boundary_currents",
                               "positivity", "decompositions", "convergence")
        with pytest.raises(ConfigError, match="nope"):
            run_suite("nope")

    def test_conservation_suite_prints_its_checks_in_order(self, capsys):
        assert main(["verify", "--suite", "conservation"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("suite conservation: PASS (")
        assert [line.split(":")[0] for line in lines[1:]] == [
            f"  [PASS] {name}" for name in (
                "pseudo_self_adjointness_all_catalog", "indefinite_norm_conservation",
                "energy_bracket_conservation", "neutral_charge_density_trivial",
                "neutral_charge_current_trivial", "neutral_energy_density_real",
                "neutral_energy_current_real", "neutral_sector_preserved")]

    def test_single_suite_runs(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "positivity", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_positivity.json").read_text())
        assert payload["passed"] is True
