"""kfglab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload evolve-static --seed 0 --seconds 35 --trace 0

Workloads: evolve-static, evolve-driven, verify (see
README.md).  With --trace 0 it prints the end-to-end metrics (wall_s,
setup_s, steps_per_s, peak_rss_mb, failed_frac); with --trace 1 the
per-layer metrics from a traced run.  The line before the last is
`details: {...}` (environment, failures, scaling sweep); the last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

kfglab is imported from this checkout's src/ with the BLAS pinned to one
thread.  Requests run in a closed loop: one client, and each CLI call
starts after the previous one returned.  A pass is the fixed set of calls
one workload run makes; passes repeat until the measuring window is spent.
Scratch files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads as W
from tracer import Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: on 2 cores a driven n=256 evolve took 3.2-3.8 s with one
# thread against 4.3-6.1 s with two, and one thread leaves the other core
# to the rest of the machine.  Set here, before numpy is first imported
# (by kfglab, in main).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path.insert(0, str(ROOT / "src"))

# A run must end within 180 s; past this it exits with code 1 and no result.
RUN_TIMEOUT_S = 170
MIN_PASSES = 3
# End-to-end times are scaled by PROBE_REF_S / the lower quartile of the
# speed probe's times over the run (see SpeedProbe).  PROBE_REF_S is that
# lower quartile on the reference host in a fast phase (2 vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6, one OpenBLAS thread).
PROBE_REF_S = 18.5e-3
# Set-up samples take about this share of the time of the full passes.
SETUP_SHARE = 0.15
MAX_SETUP_REPS = 50
SWEEP_N = (128, 256, 512, 1024)
# The sweep's inputs are the same in every traced run, whatever the
# workload and seed, so that its figures compare across runs.
SWEEP_SEED = 0
SWEEP_MIN_CALLS = 5
SWEEP_MAX_CALLS = 200
SWEEP_BUDGET_S = 0.5
COLD_START = "import kfglab.cli"


@dataclass
class Call:
    """One CLI call with the files it reads and writes."""

    label: str
    argv: list[str]
    cfg: dict | None = None
    out: Path | None = None
    full_length: bool = True
    suites: tuple[str, ...] = ()


class SpeedProbe:
    """Fixed work that runs no kfglab code, timed before every measured call.

    The host's speed changes by up to 1.6x in phases of seconds to minutes,
    and code is slowed by different amounts: in one slow phase a pure-Python
    loop slowed 1.25x, small numpy operations 1.3x, a 16 MB matrix-vector
    product 1.4x, an evolve recording every step 1.65x and evolve-static
    1.17x.  So the probe mixes these kinds of work with the dense solves of
    the evolve workloads, about 20 ms in all, most of it a 512 x 512
    complex solve.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal(128)
        self.y = rng.standard_normal(128)
        self.big = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
        self.v = self.big[0].copy()
        self.small = rng.standard_normal((160, 160))
        self.rhs = self.small[0].copy()
        self.dense = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self.dense_rhs = self.dense[0].copy()

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(60):
            z = self.x * self.y + np.sin(self.x)
            float(np.sum(z * z))
            ",".join(f"{t:.6g}" for t in z[:8])
        self.big @ self.v
        np.linalg.solve(self.small, self.rhs)
        np.linalg.solve(self.dense, self.dense_rhs)
        return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        from kfglab.cli import main as kfglab_main

        self.kfglab_main = kfglab_main
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.invariants: dict[str, float] = defaultdict(float)
        self.pass_csv_bytes = 0
        self.setup_reps = 1
        # seconds per call, by call label, and probe seconds
        self.times: dict[str, list[float]] = defaultdict(list)
        self.probes: list[float] = []
        self.probe = SpeedProbe()
        if workload == "verify":
            # one call per suite: shorter calls than one `verify` of all six
            self.full = [Call(suite, ["verify", "--suite", suite], suites=(suite,))
                         for suite in W.VERIFY_SUITES]
            self.setup: list[Call] = []
            # verify has no time steps; its unit of progress is a suite
            self.steps_counted = len(W.VERIFY_SUITES)
        else:
            spec = W.SPECS[workload]
            self.full = [self._evolve_call(bc, spec.steps) for bc in spec.bcs]
            self.setup = [self._evolve_call(bc, 1) for bc in spec.bcs]
            self.steps_counted = len(spec.bcs) * (spec.steps - 1)

    def _evolve_call(self, bc: str, steps: int) -> Call:
        cfg = W.evolve_config(self.workload, self.seed, bc, steps=steps)
        tag = f"{bc.replace(':', '_')}-{steps}"
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = self.workdir / tag
        full_length = steps == W.SPECS[self.workload].steps
        return Call(tag, ["evolve", "--config", str(path), "--out", str(out)],
                    cfg, out, full_length)

    def reset_times(self) -> None:
        self.times.clear()
        self.probes.clear()

    def run_call(self, call: Call) -> float:
        """Time one CLI call, then check its outputs (outside the timing)."""
        self.attempted += 1
        buf = io.StringIO()
        found: list[str] = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.kfglab_main(call.argv)
        except Exception as exc:  # a crash is one failed operation
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.times[call.label].append(elapsed)
        if isinstance(rc, int) and rc != 0:
            found.append(f"{call.label}: exit code {rc}")
        elif rc != 0:
            found.append(f"{call.label}: {rc}")
        elif call.cfg is None:
            found += W.check_verify(buf.getvalue(), call.suites)
        else:
            try:
                checked, inv = W.check_evolve(
                    self.workload, call.cfg["bc"], call.cfg, call.out, call.full_length)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checked, inv = [f"{call.label}: unreadable output: {exc}"], {}
            found += checked
            for key, value in inv.items():
                self.invariants[key] = max(self.invariants[key], value)
            self.pass_csv_bytes += sum(
                (call.out / name).stat().st_size
                for name in ("trajectory.csv", "fields_final.csv")
                if (call.out / name).exists())
        if found:
            self.failed += 1
            self.failures += found
        return elapsed

    def run_pass(self, calls: list[Call], probe_each: bool = True) -> float:
        """Run `calls` in order; with probe_each, run the speed probe before
        each call, otherwise once before the pass."""
        gc.collect()
        self.pass_csv_bytes = 0
        total = 0.0
        for i, call in enumerate(calls):
            if probe_each or i == 0:
                self.probes.append(self.probe())
            total += self.run_call(call)
        return total

    def measure_setup(self) -> float:
        """One set-up sample.  For evolve: the same calls cut to one step.
        For verify, which has no per-call set-up: a cold start, interpreter
        launch plus import of kfglab.cli."""
        if self.setup:
            return self.run_pass(self.setup, probe_each=False)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.probes.append(self.probe())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", COLD_START], env=env, check=True)
        elapsed = time.perf_counter() - t0
        self.times["cold-start"].append(elapsed)
        return elapsed

    def warm_up(self) -> None:
        """One full pass and one set-up sample, untimed: the first call in a
        process is about 50% slower, and the first full-length pass still
        grows the heap.  Their times fix how many set-up samples go with
        each full pass, so that set-up samples take SETUP_SHARE of the time
        of the full passes."""
        full = self.run_pass(self.full)
        setup = self.measure_setup()
        self.setup_reps = max(1, min(MAX_SETUP_REPS, math.ceil(SETUP_SHARE * full / setup)))


def _repeat_until(deadline: float, step) -> None:
    """Call step() at least MIN_PASSES times, then while the median
    duration of a step still fits before the deadline."""
    durations = []
    while len(durations) < MIN_PASSES or (
        time.perf_counter() + statistics.median(durations) <= deadline
    ):
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, int, dict]:
    """Set-up samples and full passes alternate until the window is spent.

    wall_s is the sum over the calls of a pass of each call's fastest time
    in the run, and setup_s the same over the set-up calls (on verify, the
    fastest cold start); both are scaled by the host's speed as the probe
    measured it (see README.md for the spreads this gives).  A slow phase
    of the host only adds time, and short calls are likelier to fall
    wholly in a fast one.
    """
    passes = 0

    def step():
        nonlocal passes
        for _ in range(bench.setup_reps):
            bench.measure_setup()
        bench.run_pass(bench.full)
        passes += 1

    bench.reset_times()
    _repeat_until(time.perf_counter() + seconds, step)
    probe_q1 = statistics.quantiles(bench.probes, n=4)[0]
    speed = PROBE_REF_S / probe_q1
    wall_raw = sum(min(bench.times[c.label]) for c in bench.full)
    setup_labels = [c.label for c in bench.setup] or ["cold-start"]
    setup_raw = sum(min(bench.times[label]) for label in setup_labels)
    wall, setup = wall_raw * speed, setup_raw * speed
    work = wall - setup if bench.setup else wall
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "steps_per_s": (bench.steps_counted / work, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }, passes, {
        "wall_unscaled_s": wall_raw,
        "setup_unscaled_s": setup_raw,
        "probe_q1_s": probe_q1,
        "probes": len(bench.probes),
        "speed_factor": speed,
    }


def _time_median(fn):
    """Median seconds of repeated fn() calls, and the last result: at least
    SWEEP_MIN_CALLS calls, more while within SWEEP_BUDGET_S."""
    times = []
    while len(times) < SWEEP_MIN_CALLS or (
        sum(times) < SWEEP_BUDGET_S and len(times) < SWEEP_MAX_CALLS
    ):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def scaling_sweep() -> tuple[dict[str, float], dict[str, list[float]]]:
    """Slope of log time against log n for each layer, on the evolve-static
    (periodic) and evolve-driven (robin_mit_plus) inputs, and the median
    seconds per call at each n of SWEEP_N."""
    import numpy as np
    from kfglab.config import system_from_config
    from kfglab.core import KfgState
    from kfglab.evolution import CayleyPropagator, state_to_wave
    from kfglab.observables import global_summary
    from kfglab.operators import assemble_kinetic, eigenmodes, synthesize_state

    times = defaultdict(list)
    for n in SWEEP_N:
        static = system_from_config(
            W.evolve_config("evolve-static", SWEEP_SEED, "periodic", n=n))
        t, kin = _time_median(lambda: assemble_kinetic(
            static.grid, static.potential, static.realization, static.units))
        times["operators.assemble_kinetic"].append(t)
        t, modes = _time_median(lambda: eigenmodes(kin))
        times["operators.eigenmodes"].append(t)
        static.kinetic()  # fill the system's cache outside the timing
        t, prop = _time_median(lambda: CayleyPropagator(static, W.DT))
        times["evolution.propagator_init"].append(t)
        coeffs = [(i, a, 0.5) for i, a in W.SPECS["evolve-static"].modes]
        state = synthesize_state(modes, coeffs, 0.0, "plus", static.units)
        z = state_to_wave(state, static)
        times["evolution.advance_static"].append(_time_median(lambda: prop.advance(z, 0.0))[0])
        times["observables.global_summary"].append(
            _time_median(lambda: global_summary(state, static))[0])

        cfg = W.evolve_config("evolve-driven", SWEEP_SEED, "robin_mit_plus", n=n)
        driven = system_from_config(cfg)
        tab = cfg["initial_state"]["tabulated"]
        packet = KfgState(
            psi=np.array(tab["psi_re"]) + 1j * np.array(tab["psi_im"]),
            psi_t=np.array(tab["psi_t_re"]) + 1j * np.array(tab["psi_t_im"]),
        )
        dprop = CayleyPropagator(driven, W.DT)
        zd = state_to_wave(packet, driven)
        times["evolution.advance_driven"].append(_time_median(lambda: dprop.advance(zd, 0.0))[0])
    logn = np.log(np.array(SWEEP_N, dtype=float))
    exponents = {
        f"{name}.n_exponent": float(np.polyfit(logn, np.log(ts), 1)[0])
        for name, ts in times.items()
    }
    return exponents, dict(times)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(tracer: Tracer, passes: int, bench: Bench, overhead: float,
              exponents: dict[str, float]) -> dict:
    stats = layer_stats(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "counts": {}}
    m: dict[str, tuple[float, str]] = {}

    def layer(name, *fields):
        s = stats.get(name, empty)
        for f in fields:
            if f == "calls":
                m[f"{name}.calls"] = (s["calls"] / passes, "count")
            elif f in ("busy_s", "self_s"):
                m[f"{name}.{f}"] = (s[f] / passes, "s")
            elif f in ("p50_us", "p99_us"):
                q = 0.5 if f == "p50_us" else 0.99
                m[f"{name}.{f}"] = (_percentile(s["durations"], q) * 1e6, "us")
        return s

    layer("config.load", "calls", "busy_s")
    layer("bc.realization", "calls", "busy_s")
    layer("bc.enumerate_confining", "busy_s")
    layer("operators.build_closure", "calls", "busy_s")
    kin = layer("operators.assemble_kinetic", "calls", "busy_s", "self_s")
    m["operators.assemble_kinetic.bytes_out"] = (
        kin["counts"].get("bytes_out", 0.0) / passes, "B")
    eig = layer("operators.eigenmodes", "calls", "busy_s")
    computed = eig["counts"].get("modes_computed", 0.0) / passes
    used = stats.get("operators.synthesize_state", empty)["counts"].get(
        "modes_used", 0.0) / passes
    m["operators.eigenmodes.modes_computed"] = (computed, "count")
    m["operators.eigenmodes.modes_used"] = (used, "count")
    m["operators.eigenmodes.useful_ratio"] = (used / computed if computed else 0.0, "1")
    layer("evolution.propagator_init", "calls", "busy_s")
    layer("evolution.advance_static", "calls", "busy_s", "p50_us", "p99_us")
    layer("evolution.advance_driven", "calls", "busy_s", "p50_us", "p99_us")
    layer("evolution.evolve", "self_s")
    layer("observables.global_summary", "calls", "busy_s", "self_s")
    layer("observables.local_fields", "calls", "busy_s")
    layer("cli.cmd_evolve", "self_s")
    m["cli.csv_bytes"] = (bench.pass_csv_bytes, "B")
    for suite in W.VERIFY_SUITES:
        layer(f"verify.{suite}", "busy_s")
    for key in ("norm_drift", "energy_drift", "majorana_dev"):
        m[f"evolution.{key}"] = (bench.invariants[key], "1")
    for name, value in exponents.items():
        m[name] = (value, "1")
    m["tracing_overhead_s"] = (overhead, "s")
    return m


def run_traced(bench: Bench, seconds: float, trace_path: Path):
    """Untraced and traced passes run in pairs, in alternating order, until
    the window is spent; per-layer metrics come from the traced passes.
    The tracing overhead is the median over pairs of traced minus untraced
    pass time, so it can read below zero when it is within the noise."""
    tracer = Tracer()
    plain, traced = [], []

    def traced_pass():
        tracer.install()
        try:
            traced.append(bench.run_pass(bench.full))
        finally:
            tracer.uninstall()

    def step():
        if len(plain) % 2:
            traced_pass()
            plain.append(bench.run_pass(bench.full))
        else:
            plain.append(bench.run_pass(bench.full))
            traced_pass()

    _repeat_until(time.perf_counter() + seconds, step)
    tracer.write(trace_path)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    exponents, sweep = scaling_sweep()
    metrics = per_layer(tracer, len(traced), bench, overhead, exponents)
    return metrics, len(traced), {
        "sweep_n": list(SWEEP_N),
        "sweep_s": sweep,
        "wall_untraced_s": statistics.fmean(plain),
        "wall_traced_s": statistics.fmean(traced),
    }


def report(workload: str, seed: int, trace: int, res: dict) -> None:
    env = res["environment"]
    print(f"kfglab benchmark  workload={workload} seed={seed} trace={trace} "
          f"passes={res['passes']}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    if trace:
        print(f"  {'wall_s (untraced passes)':<44} {res['wall_untraced_s']:>16.6g} s")
        print(f"  {'wall_s (traced passes)':<44} {res['wall_traced_s']:>16.6g} s")
        print(f"  scaling sweep, seconds per call at n = {res['sweep_n']}")
        for name, times in res["sweep_s"].items():
            print(f"    {name:<42} " + " ".join(f"{t:.3g}" for t in times))
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':<44} {frac:>16.6g} 1  "
          f"({res['failed']} of {res['attempted']} operations failed)")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "kfglab" / "__init__.py").is_file():
        print(f"no kfglab sources under {src}", file=sys.stderr)
        return 2
    import kfglab

    if src.resolve() not in Path(kfglab.__file__).resolve().parents:
        print(f"kfglab imported from {kfglab.__file__}, not from {src}", file=sys.stderr)
        return 2
    faulthandler.dump_traceback_later(RUN_TIMEOUT_S, exit=True)

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    extra = {}
    try:
        bench = Bench(args.workload, args.seed, workdir)
        bench.warm_up()
        if args.trace:
            metrics, passes, extra = run_traced(
                bench, args.seconds, scratch / f"trace-{args.workload}-s{args.seed}.json.gz")
        else:
            metrics, passes, extra = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = {
        "environment": environment(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures[:20],
        "passes": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    report(args.workload, args.seed, args.trace, res)
    print("details: " + json.dumps({k: v for k, v in res.items() if k != "metrics"}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
