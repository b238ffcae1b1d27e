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
    t0_from_config,
)
from .observables import DENSITY_NAMES, Snapshot
from .operators import spectrum
from .evolution import evolve
from .verify import SUITE_NAMES, run_all_suites, run_suite


# Cells per block: keeps each scratch array of the kernel under glibc's
# 128 KiB mmap threshold, so malloc reuses it (one 9728-cell block mapped
# about 450 fresh pages on every call).
CSV_BLOCK_CELLS = 2048
# Smaller blocks take `%`: the kernel's fixed cost of about 50 us overtook
# `%` at 130-400 cells on the benchmark's tables.
CSV_KERNEL_CELLS = 300
# (y + 2^63) - 2^63 rounds to integers in a 64-bit significand (x87).
KERNEL_EXACT = np.finfo(np.longdouble).nmant == 63


@functools.cache
def _tables():
    """The kernel's tables, built on first use.  power (10^(16-e)), ip (the
    digits %g writes before the point), pre and exp are indexed by e + 325,
    for the decimal exponents e = floor(log10|x|) of finite nonzero doubles
    and one beyond each end.

    A cell is six little-endian words: sign, the "0.000" prefix (pre) and
    the leading digit; (point, digit) byte pairs for the other 16 digits
    (digs, one word per 4-digit group); the exponent (exp) and the
    separator.  Unused bytes are NUL and dropped from the text.
    last[j * 10000 + g] is the position (1-16) of the last nonzero digit of
    group j, 0 if g = 0.  mask[ndig * 18 + ip, j] keeps digit i = 4j+1+k of
    word j if i < max(ndig, ip) (%g drops trailing zeros) and the point
    before digit ip if ndig > ip."""
    e = np.arange(-325, 310)
    power = np.array([np.longdouble(f"1e{16 - k}") for k in e])  # correctly rounded
    fixed = (-4 <= e) & (e <= 16)  # %g writes these without an exponent
    ip = np.where(fixed, np.maximum(e + 1, 0), 1)
    pre = np.array(["\0" + ("0." + "0" * (-k - 1) if -4 <= k < 0 else "") for k in e], "S8")
    exp = np.array(["" if f else f"e{k:+03d}" for k, f in zip(e, fixed)], "S8")
    g = np.arange(10000, dtype=np.int16)[:, None]
    d = (g // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    digs = np.stack([np.full_like(d, ord(".")), d + 48], -1).reshape(-1, 8).view("<u8").ravel()
    tz = (g % np.array([10, 100, 1000, 10000], np.int16) == 0).sum(1, dtype=np.int16)
    last = np.where(g[:, 0] == 0, 0, 4 * np.arange(4, dtype=np.int16)[:, None] + 4 - tz)
    nd, ipi, j, k = np.ix_(range(18), range(18), range(4), range(4))
    i = 4 * j + 1 + k
    mask = (np.stack([(i == ipi) & (nd > ipi), i < np.maximum(nd, ipi)], -1)
            * np.uint8(0xFF)).reshape(324, 32).view("<u8")
    return power, ip, pre.view("<u8"), exp.view("<u8"), digs, last.ravel(), mask


def _significands(a: np.ndarray):
    """e + 325, the integer n in [1e16, 1e17) nearest a 10^(16-e), and
    whether n is certain, for positive finite doubles a.  Two roundings of
    relative size 2^-64 (the power, the product) leave y within 0.011 of
    the exact a 10^(16-e), so n is exact unless y lies within 0.0125 of a
    half-integer."""
    power = _tables()[0]
    e = np.floor(np.log10(a)).astype(np.int64) + 325
    al = a.astype(np.longdouble)
    y = al * power.take(e)
    step = (y >= 1e17).view(np.int8) - (y < 1e16).view(np.int8)  # log10 off by one
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        y[fix] = al[fix] * power.take(e[fix])
    n = (y + 2.0**63) - 2.0**63  # half-even rounding of the 64-bit significand
    certain = np.abs((y - n).astype(np.float64)) < 0.4875
    n = n.astype(np.uint64)
    top = n == 10**17  # rounded up into the next decade
    n[top] = 10**16
    return e + top, n, certain


def _format_block(block: np.ndarray) -> bytes:
    """The %.17g text of a 2-D block, cells joined by "," and rows ended by
    a newline, from array operations; nan, inf and uncertain roundings are
    formatted one by one."""
    _, ip, pre, exp, digs, last, mask = _tables()
    x = block.ravel()
    a = np.abs(x)
    finite = np.isfinite(a)
    live = finite & (a != 0)
    e, n, certain = _significands(np.where(live, a, 1.0))
    n *= live  # zeros print as "0" or "-0"
    hi, lo = np.divmod(n, np.uint64(10**8))
    d0, hi = np.divmod(hi.astype(np.uint32), np.uint32(10**8))
    g = np.empty((4, x.size), np.uint32)  # the other 16 digits in groups of 4
    np.divmod(hi, np.uint32(10**4), out=(g[0], g[1]))
    np.divmod(lo.astype(np.uint32), np.uint32(10**4), out=(g[2], g[3]))
    g = g.astype(np.intp)  # take is several times slower with other index types
    ndig = 1 + last.take(g + 10000 * np.arange(4)[:, None]).max(0)  # significant digits
    cells = np.empty((x.size, 6), "<u8")
    cells[:, 0] = (pre.take(e) | (d0 + 48).astype("<u8") << 48
                   | np.signbit(x) * np.uint64(ord("-")))
    np.bitwise_and(digs.take(g.T), mask.take(ndig * 18 + ip.take(e), axis=0),
                   out=cells[:, 1:5])
    sep = np.full(block.shape[1], ord(","), "<u8")
    sep[-1] = ord("\n")
    cells[:, 5] = (exp.take(e).reshape(block.shape) | sep << 40).ravel()
    slow = np.flatnonzero(~(finite & certain))
    if slow.size:  # space-padded: spaces are dropped with the NULs
        text = ("%-45.17g" * slow.size) % tuple(x[slow].tolist())
        cells.view(np.uint8)[slow, :45] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 45)
    return cells.tobytes().translate(None, b"\0 ")


def _write_csv(path: Path, columns: list[str], table, comments: list[str]):
    """Write a float table; %.17g prints integers and 0/1 flags without a
    decimal point.  The bytes are those of np.savetxt(fmt="%.17g",
    delimiter=","): blocks of CSV_KERNEL_CELLS cells or more are formatted
    by `_format_block`, smaller ones with one `%` each."""
    data = np.asarray(table, dtype=float)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\n")
                 .encode())
        row = ",".join(["%.17g"] * data.shape[1]) + "\n"
        rows = max(1, CSV_BLOCK_CELLS // data.shape[1])
        for start in range(0, len(data), rows):
            block = data[start:start + rows]
            if KERNEL_EXACT and block.size >= CSV_KERNEL_CELLS:
                fh.write(_format_block(block))
            else:
                fh.write(((row * len(block)) % tuple(block.ravel().tolist())).encode())


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
    energies, diagnostics = spectrum(system.kinetic(t0_from_config(cfg)))
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
    econf = evolution_from_config(cfg)
    system = system_from_config(cfg, econf)
    state0 = initial_state_from_config(cfg, system)
    kind = majorana_from_config(cfg)
    rows, worst, last = [], 0.0, None
    for rec in evolve(state0, system, econf, majorana=kind):
        # one derivation per record; the last one also gives the final fields
        last = Snapshot(rec.state, system)
        rows.append(last.summary.as_row())
        worst = max(worst, rec.majorana_deviation or 0.0)
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
    _write_csv(out / "trajectory.csv", list(rows[0]), [list(r.values()) for r in rows],
               comments)
    fields = last.fields
    field_cols = ["x"]
    field_data = [system.grid.x]
    for name in DENSITY_NAMES:
        arr = getattr(fields, name)
        field_cols += [f"{name}_re", f"{name}_im"]
        field_data += [arr.real, arr.imag]
    _write_csv(out / "fields_final.csv", field_cols, np.column_stack(field_data),
               comments[:1] + [f"t={last.state.t:.17g}"])
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
