"""Run every workload over 10 seeds and write perfbench/BENCH_baseline.json.

    python3 perfbench/baseline.py

For each workload it makes 10 untraced runs of run.py (seeds 0-9) and one
traced run (seed 0), prints every end-to-end metric with its median,
quartiles and spread (interquartile distance over the median) against the
bound in BENCHMARK.json, and writes the medians, quartiles, per-layer
metrics and the environment to perfbench/BENCH_baseline.json.  Runs are
sequential, one at a time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
RUN_TIMEOUT_S = 200
KNOWN_WASTE = (
    "eigensolve twice per static evolve: operators.eigenmodes.calls = 6 per "
    "evolve-static pass of 3 evolves; closure rebuilt on "
    "every driven step: operators.build_closure.calls = 34 per evolve-driven pass "
    "(2 evolves x (16 steps + 1)); synthesis uses 3 of n modes: "
    "operators.eigenmodes.useful_ratio = 9/3066 on evolve-static"
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One run of run.py: its result merged with its details line, or None."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("details: "):
        print(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return {**json.loads(lines[-2][len("details: "):]), **json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = {"tag": "baseline", "run_seconds": seconds, "known_waste": KNOWN_WASTE,
           "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            res = run(workload, seed, seconds, 0)
            elapsed = time.perf_counter() - t0
            if res is None:
                return 1
            runs.append(res)
            vals = "  ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
            print(f"{workload} seed={seed} run={elapsed:.1f}s "
                  f"failed={res['failed']}/{res['attempted']}  {vals}", flush=True)
        out["environment"] = runs[-1]["environment"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {"runs": len(runs), "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted, "end_to_end": {}}
        print(f"== {workload}: failed_frac {failed / attempted:.6g} "
              f"({failed} of {attempted} operations)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound["bound"] / 3
            steady = steady and ok
            summary["end_to_end"][name] = {
                "unit": bound["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
            print(f"   {name:<14} median {med:12.6g} {bound['unit']:<5} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"(bound {bound['bound']}) {'ok' if ok else 'WIDE'}", flush=True)
        t0 = time.perf_counter()
        res = run(workload, SEEDS[0], seconds, 1)
        elapsed = time.perf_counter() - t0
        if res is None:
            return 1
        summary["per_layer"] = {k: m["value"] for k, m in res["metrics"].items()}
        summary["per_layer_units"] = {k: m["unit"] for k, m in res["metrics"].items()}
        for key in ("wall_untraced_s", "wall_traced_s", "sweep_n", "sweep_s"):
            summary[key] = res[key]
        print(f"   traced run={elapsed:.1f}s: overhead "
              f"{res['metrics']['tracing_overhead_s']['value']:.4g} s, "
              f"failed {res['failed']}/{res['attempted']}", flush=True)
        out["workloads"][workload] = summary
    path = HERE / "BENCH_baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    print("all spreads below a third of their bound" if steady else "some spreads are wide")
    return 0


if __name__ == "__main__":
    sys.exit(main())
