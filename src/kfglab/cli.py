"""Command-line harness: classify / spectrum / evolve / enumerate-confining / verify.

All numeric output is written as CSV (deterministic %.17g formatting) or JSON
with a config-hash comment header, so identical configs produce byte-identical
files.  Exit codes: 0 all checks pass / run succeeded, 1 check failures or
numerical errors, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import KfgLabError
from .bc import InvalidParams, classify, enumerate_confining_solutions
from .config import (
    ConfigError,
    config_hash,
    evolution_from_config,
    initial_state_from_config,
    load_config,
    majorana_from_config,
    system_from_config,
)
from .observables import DENSITY_NAMES, global_summary, local_fields
from .operators import spectrum
from .evolution import evolve
from .verify import SUITE_NAMES, run_all_suites, run_suite


# Rows formatted per string operation: bounds the text held in memory.
CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, columns: list[str], table, comments: list[str]):
    """Write a float table; %.17g prints integers and 0/1 flags without a
    decimal point.  The bytes are those of np.savetxt(fmt="%.17g",
    delimiter=","), formatted with one % per block of rows."""
    data = np.asarray(table, dtype=float)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        row = ",".join(["%.17g"] * data.shape[1]) + "\n"
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[start:start + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    system = system_from_config(cfg)
    report = classify(system.bc)
    payload = {"config_hash": config_hash(cfg), "bc": cfg.get("bc"), **report.as_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        _write_json(Path(args.out) / "classify.json", payload)
    return 0


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    system = system_from_config(cfg)
    energies, diagnostics = spectrum(system.kinetic())
    rows = []
    for idx, e2 in diagnostics:
        rows.append([idx, float("nan"), e2, 1])
    offset = len(diagnostics)
    for k, e in enumerate(energies):
        rows.append([offset + k, float(e), float(e) ** 2, 0])
    out = Path(args.out or ".")
    _write_csv(
        out / "spectrum.csv",
        ["index", "E", "E_squared", "is_diagnostic"],
        rows,
        [f"config_hash={config_hash(cfg)}", f"n_dof={system.closure.n_dof}"],
    )
    print(f"wrote {out / 'spectrum.csv'} ({len(rows)} rows, "
          f"{len(diagnostics)} diagnostic)")
    return 0


def cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    system = system_from_config(cfg)
    state0 = initial_state_from_config(cfg, system)
    econf = evolution_from_config(cfg)
    kind = majorana_from_config(cfg)
    rows, worst, final = [], 0.0, None
    for rec in evolve(state0, system, econf, majorana=kind):
        rows.append(global_summary(rec.state, system).as_row())
        worst = max(worst, rec.majorana_deviation or 0.0)
        final = rec.state
    out = Path(args.out or ".")
    comments = [
        f"config_hash={config_hash(cfg)}",
        "scheme=cayley",
        f"majorana={kind or 'none'}",
        f"worst_majorana_deviation={worst if kind else None}",
    ]
    if system.is_static:
        # any mode set lists every quarantined mode: reuse synthesis's
        n_diag = len(system.modes(1).diagnostics)
        comments.append(f"nonpositive_mode_count={n_diag}")
    columns = list(rows[0].keys())
    _write_csv(
        out / "trajectory.csv",
        columns,
        [[r[c] for c in columns] for r in rows],
        comments,
    )
    fields = local_fields(final, system)
    field_cols = ["x"]
    field_data = [system.grid.x]
    for name in DENSITY_NAMES:
        arr = getattr(fields, name)
        field_cols += [f"{name}_re", f"{name}_im"]
        field_data += [arr.real, arr.imag]
    _write_csv(out / "fields_final.csv", field_cols, np.column_stack(field_data),
               comments[:1] + [f"t={final.t:.17g}"])
    print(f"wrote {out / 'trajectory.csv'} ({len(rows)} snapshots) and "
          f"{out / 'fields_final.csv'}")
    return 0


def cmd_enumerate(args) -> int:
    if args.samples < 10_000:
        raise ConfigError(f"--samples must be at least 10000, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    found = enumerate_confining_solutions(args.samples, args.tol, seed=args.seed)
    payload = {
        "samples": args.samples,
        "tol": args.tol,
        "seed": args.seed,
        "clusters": [{"m0": p[0], "m3": p[1], "mu": p[2]} for p in found],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_json(Path(args.out) / "confining_solutions.json", payload)
    return 0 if len(found) == 4 else 1


def cmd_verify(args) -> int:
    results = [run_suite(args.suite)] if args.suite else run_all_suites()
    all_ok = True
    for res in results:
        print(f"suite {res.suite}: {'PASS' if res.passed else 'FAIL'} "
              f"({res.elapsed_s:.1f}s)")
        for c in res.checks:
            print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: "
                  f"measured={c.measured:.6g} tolerance={c.tolerance:.6g}  {c.detail}")
        all_ok = all_ok and res.passed
        if args.out:
            _write_json(Path(args.out) / f"verify_{res.suite}.json", res.as_dict())
    return 0 if all_ok else 1


# Handler of each subcommand, looked up by name when it runs, so that a
# handler rebound on the module (wrapped by a tracer, say) is the one called
# even though the parser is built once.
HANDLERS = {
    "classify": "cmd_classify",
    "spectrum": "cmd_spectrum",
    "evolve": "cmd_evolve",
    "enumerate-confining": "cmd_enumerate",
    "verify": "cmd_verify",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="kfglab",
        description="Numerical laboratory for charged and strictly neutral "
        "Klein-Fock-Gordon particles on a finite interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a boundary condition")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", help="stationary spectrum to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("evolve", help="propagate a state and export CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("enumerate-confining",
                       help="search the confining slice for balanced closures")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run machine-verification suites")
    p.add_argument("--suite", choices=SUITE_NAMES, default=None,
                   help="run one suite (default: all)")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[HANDLERS[args.command]](args)
    except (ConfigError, InvalidParams) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KfgLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
