"""The benchmark tracer against the package: every wrapped layer is still
called under its name, the assembly byte count reads the dense forms, and
uninstalling restores the originals.  A refactor that renames or bypasses a
traced function fails here rather than in a traced benchmark run."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import kfglab.cli
import kfglab.verify  # noqa: F401  (the tracer wraps its run_suite)
from kfglab import evolution, operators
from kfglab.bc import CATALOG, bc_realization
from kfglab.core import Grid, ScalarPotential

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def evolve_config(path: Path, driven: bool, n: int = 32, modes: int = 1) -> Path:
    x = np.linspace(0.0, math.pi, n)
    psi = np.exp(-(((x - 1.2) / 0.3) ** 2))
    factor = ({"kind": "sinusoidal", "amplitude": 0.5, "omega": 2.0, "offset": 1.0}
              if driven else {"kind": "constant"})
    initial = ({"tabulated": {"psi_re": psi.tolist(), "psi_t_im": (-psi).tolist()}}
               if driven else {"modes": [{"index": i, "amplitude": 1.0, "phase": 0.3}
                                         for i in range(modes)]})
    cfg = {
        "grid": {"a": 0.0, "b": math.pi, "n": n},
        "potential": {
            "profile": {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3},
            "time_factor": factor,
        },
        "bc": "robin_mit_plus" if driven else "periodic",
        "majorana": "none" if driven else "plus",
        "initial_state": initial,
        "evolution": {"dt": 0.002, "steps": 6, "record_every": 3},
    }
    path.write_text(json.dumps(cfg))
    return path


def test_tracer_sees_every_evolve_layer(tmp_path):
    tracer_mod = load_tracer()
    originals = (
        operators.assemble_kinetic,
        evolution.CayleyPropagator.__dict__["advance"],
        evolution.CayleyPropagator.__dict__["__init__"],
        kfglab.cli.evolve,
    )
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for driven in (False, True):
            cfg = evolve_config(tmp_path / f"cfg_{driven}.json", driven)
            out = tmp_path / f"out_{driven}"
            assert kfglab.cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        grid = Grid(0.0, math.pi, 32)
        kin = operators.assemble_kinetic(
            grid, ScalarPotential(), bc_realization(CATALOG["periodic"].params)
        )
    finally:
        tracer.uninstall()
    stats = tracer_mod.layer_stats(tracer.spans)
    assert stats["evolution.advance_static"]["calls"] == 6
    assert stats["evolution.advance_driven"]["calls"] == 6
    assert stats["evolution.propagator_init"]["calls"] == 2
    assert stats["operators.assemble_kinetic"]["calls"] == 3
    last = [s for s in tracer.spans if s[0] == "operators.assemble_kinetic"][-1]
    assert last[4]["bytes_out"] == kin.l_dof.nbytes + kin.sym.nbytes
    restored = (
        operators.assemble_kinetic,
        evolution.CayleyPropagator.__dict__["advance"],
        evolution.CayleyPropagator.__dict__["__init__"],
        kfglab.cli.evolve,
    )
    assert all(a is b for a, b in zip(restored, originals))


def test_static_evolve_computes_only_the_modes_it_synthesizes(tmp_path):
    # n = 256 lies above the dense crossover: one partial eigensolve of the
    # three synthesized modes, on the System's one closure
    tracer_mod = load_tracer()
    cfg = evolve_config(tmp_path / "cfg.json", driven=False, n=256, modes=3)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert kfglab.cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    stats = tracer_mod.layer_stats(tracer.spans)
    assert stats["operators.eigenmodes"]["calls"] == 1
    computed = stats["operators.eigenmodes"]["counts"]["modes_computed"]
    assert computed == stats["operators.synthesize_state"]["counts"]["modes_used"] == 3
    assert stats["operators.build_closure"]["calls"] == 1
