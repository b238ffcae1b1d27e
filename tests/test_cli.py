"""Command-line harness: configs, outputs, determinism, exit codes."""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kfglab.cli
from kfglab.cli import _write_csv, main
from kfglab.config import ConfigError, initial_state_from_config, system_from_config
from kfglab.operators import System
from kfglab.verify import SUITE_NAMES, run_suite


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


class TestBadNumbers:
    """Non-finite lengths and times, and counts that are not integers, fail
    before the run with exit code 2 instead of mid-run or silently."""

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
        ("units", "hbar", math.inf),
    ])
    def test_non_finite_is_config_error(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "c.json"
        self.write_with(cfg, section, key, value)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
        assert not (tmp_path / "trajectory.csv").exists()

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

    def test_integral_float_count_is_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, evolution={"dt": 0.002, "steps": 10.0, "record_every": 5})
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, data = read_csv(tmp_path / "trajectory.csv")
        assert len(data) == 3


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
        frozen = System(system.grid, system.bc, system.potential.frozen(0.4), system.units)
        assert frozen.is_static
        expect = frozen.synthesize([(0, 1.0, 0.3), (2, 0.6, 1.1)], t=0.4, kind="plus")
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
    with mock.patch.object(kfglab.cli, "CSV_BLOCK_ROWS", block):
        _write_csv(path, columns, table, ["config_hash=0"])
    assert path.read_bytes() == savetxt_bytes(["config_hash=0"], columns, table)


def test_csv_bytes_equal_savetxt_over_several_blocks(tmp_path):
    rng = np.random.default_rng(5)
    rows = 2 * kfglab.cli.CSV_BLOCK_ROWS + 3
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

    def test_single_suite_runs(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "positivity", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_positivity.json").read_text())
        assert payload["passed"] is True
