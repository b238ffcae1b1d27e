"""Machine verification suites.

Each suite runs a set of named checks at pinned tolerances and returns a
machine-readable table.  The checks exercise, at desk scale, every headline
property of the build: the boundary-condition algebra (four confining
solutions, the unique energy-balanced angle, Dirichlet as the only
energy-balanced confining closure), discrete pseudo self-adjointness of the
assembled generator, second-order spectral convergence against the closed
dispersion, exact bracket conservation under Cayley stepping, triviality of
the charge observables and realness of the energy observables for strictly
neutral states, the boundary-current classification of every catalog
closure, mean-energy positivity with its splitting identities, second-order
convergence of the four local balance laws, and agreement of the
one-component and two-component observable pipelines.

The checks take no arguments: each states its grid sizes, step counts,
seeds and bound once, in its own body.  The checks that run one closure
or one state after another hand each run to `_map`, which spreads the
independent runs over the usable CPUs and gives the results of a loop in
this process, bit for bit.  The conservation suite steps each closure once:
the charged state of the conservation check and, on five closures, the
plus + minus state of the neutral-sector check ride in one stack
(`evolve_stacked`), and one map covers those ten runs and the six
sector-preservation runs.  `check_conservation` and
`check_majorana_triviality` each take their results from that one pass.

Each check solves and derives only what it reads: it asks for the modes it
uses (`System.modes(count)`, or `eigenmodes(kinetic, count)` on a driven
system), never for every mode, and reads the local fields it needs from a
`Snapshot` one at a time, never the whole field set.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .core import (Grid, KfgState, ScalarPotential, SpatialProfile, TimeFactor, kfg_to_fv,
                   majorana_project)
from .bc import (
    ALG_TOL,
    CATALOG,
    CONFINING_SOLUTIONS,
    _energy_residuals,
    bc_realization,
    check_energy_condition,
    classify,
    enumerate_confining_solutions,
    enumerate_energy_slice_solutions,
)
from .config import ConfigError
from .operators import (ModeSet, System, assemble_kinetic, eigenmodes,
                        pseudo_hermiticity_defect, synthesize_state)
from .observables import (
    Snapshot,
    continuity_residuals,
    global_summary,
    two_component_fields,
)
from .evolution import EvolutionConfig, check_majorana_preservation, evolve, evolve_stacked


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class VerifySuiteResult:
    suite: str
    checks: list[CheckResult]
    elapsed_s: float = 0.0
    workers: int = 1  # processes the suite's checks ran on

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "workers": self.workers,
            "checks": [c.as_dict() for c in self.checks],
        }


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The most processes one `_map` ran on since `run_suite` last reset it.
_workers = 1


def _map(fn, items) -> list:
    """[fn(x) for x in items], bit for bit, with the items dealt round-robin
    over the usable CPUs.

    This process computes the first share.  Each further CPU gets one child
    made by fork: it inherits this process's memory (fn needs no pickling,
    and a monkeypatched function stays patched), computes its share, sends
    the results pickled through a pipe and leaves with os._exit.  An
    exception raised in a child is raised again here with its type, its
    traceback in the child as the cause.  Every child is reaped before the
    map returns or raises; when it raises, the children still running are
    killed first.  With one usable CPU, or without fork, the map runs in
    this process.
    """
    global _workers
    items = list(items)
    processes = min(_usable_cpus(), len(items)) if hasattr(os, "fork") else 1
    _workers = max(_workers, processes)
    if processes < 2:
        return [fn(x) for x in items]
    children = []  # (pid, read end of its pipe)
    try:
        for share in range(1, processes):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_share(fn, items[share::processes], write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        out = list(items)
        out[::processes] = [fn(x) for x in items[::processes]]
        for share, (pid, reader) in enumerate(children, start=1):
            data = reader.read()
            if not data:
                raise ChildProcessError(f"verify worker {pid} ended without a result")
            ok, value, trace = pickle.loads(data)
            if not ok:
                raise value from ChildProcessError(f"in verify worker {pid}:\n{trace}")
            out[share::processes] = value
        return out
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, reader in children:
            reader.close()
            os.waitpid(pid, 0)


def _run_share(fn, share: list, write: int):
    """A child's part of `_map`: the results of its share, or the exception
    one raised, pickled into the pipe `write`; then os._exit, so that no
    code of the parent's stack runs and no inherited buffer is flushed."""
    try:
        try:
            payload = (True, [fn(x) for x in share], "")
        except BaseException as exc:
            payload = (False, exc, traceback.format_exc())
        try:
            data = pickle.dumps(payload)
        except Exception as exc:  # a result or an exception that does not pickle
            failure = ChildProcessError(f"cannot send {payload[1]!r}: {exc}")
            data = pickle.dumps((False, failure, payload[2]))
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


MAJORANA_TAGS = tuple(tag for tag, e in CATALOG.items() if abs(e.params.m2) < 1e-12)


def _at_most(name: str, measured: float, tolerance: float, detail: str) -> CheckResult:
    return CheckResult(name, measured <= tolerance, measured, tolerance, detail)


def _at_least(name: str, measured: float, tolerance: float, detail: str) -> CheckResult:
    return CheckResult(name, measured >= tolerance, measured, tolerance, detail)


# The lowest modes a two-mode state or a random draw picks from, and so the
# count those checks solve for.
PICK_MODES = 8


def _nondegenerate_pair(ms: ModeSet) -> tuple[int, int]:
    """Lowest pair of modes with distinct energies."""
    for j in range(1, min(PICK_MODES, ms.count)):
        if ms.energies[j] - ms.energies[0] > 1e-8:
            return 0, j
    raise RuntimeError("no nondegenerate mode pair found")


def two_mode_neutral(system: System, seed: int, t: float | None = None) -> KfgState:
    """Generic two-mode strictly neutral state (random phases and time)."""
    rng = np.random.default_rng(seed)
    i, j = _nondegenerate_pair(system.modes(PICK_MODES))
    phases = rng.uniform(0.3, 2.8, size=2)
    tt = float(rng.uniform(0.4, 1.9)) if t is None else t
    return system.synthesize([(i, 1.0, phases[0]), (j, 0.8, phases[1])], t=tt, kind="plus")


def charged_state(system: System, seed: int) -> KfgState:
    """Charged state of the three lowest modes (random amplitudes, phases, time)."""
    rng = np.random.default_rng(seed)
    coeffs = [
        (idx, float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.0, 2 * math.pi)))
        for idx in range(min(3, system.modes(3).count))
    ]
    return system.synthesize(coeffs, t=float(rng.uniform(0.2, 0.9)), kind="none")


def _bump_potential(coefficient: float = 0.25) -> ScalarPotential:
    """Nonnegative static quadratic well centred at pi/2, symmetric so S(a) = S(b)."""
    return ScalarPotential(
        profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=coefficient),
        nonneg=True,
    )


# --------------------------------------------------------------------------
# bc_algebra
# --------------------------------------------------------------------------


def check_bc_algebra():
    t0 = time.perf_counter()
    found = enumerate_confining_solutions(100_000, 1e-6)
    dist = 0.0
    matched = 0
    for m0, m3, mu in CONFINING_SOLUTIONS:
        best = min(
            math.hypot(p[0] - m0, p[1] - m3, math.cos(p[2]) - math.cos(mu),
                       math.sin(p[2]) - math.sin(mu))
            for p in found
        ) if found else math.inf
        if best < 1e-4:
            matched += 1
        dist = max(dist, best)
    mus = enumerate_energy_slice_solutions(10_000, 1e-6)
    # Dirichlet is the only confining closure passing the energy condition
    rng = np.random.default_rng(0)
    n_scan = 5000
    theta = rng.uniform(0.0, 2 * math.pi, n_scan)
    mu = rng.uniform(0.0, math.pi, n_scan)
    m0, m3, sin_mu = np.cos(theta), np.sin(theta), np.sin(mu)
    defect = np.max(np.abs(_energy_residuals(m0, 0.0, m3, np.cos(mu), sin_mu)), axis=-1)
    near_dirichlet = (np.abs(m0 + 1) < 1e-4) & (np.abs(m3) < 1e-4) & (np.abs(sin_mu) < 1e-4)
    stray = int(np.count_nonzero((defect <= ALG_TOL) & ~near_dirichlet))
    catalog_pass = [
        tag
        for tag in ("dirichlet", "neumann", "mixed_a0", "mixed_b0",
                    "robin_mit_plus", "robin_mit_minus")
        if check_energy_condition(CATALOG[tag].params)
    ]
    elapsed = time.perf_counter() - t0
    return [
        CheckResult(
            name="confining_enumeration_four_clusters",
            passed=(len(found) == 4 and matched == 4),
            measured=float(len(found)),
            tolerance=4.0,
            detail=f"clusters={len(found)}, worst distance to expected {dist:.2e}",
        ),
        CheckResult(
            name="energy_balance_slice_unique_angle",
            passed=len(mus) == 1 and abs(mus[0] - math.pi / 2) < 1e-6,
            measured=float(mus[0]) if mus else math.nan,
            tolerance=math.pi / 2,
            detail=f"solutions={['%.9f' % m for m in mus]}",
        ),
        CheckResult(
            name="dirichlet_unique_energy_balanced_confining",
            passed=(stray == 0 and catalog_pass == ["dirichlet"]),
            measured=float(stray),
            tolerance=0.0,
            detail=f"catalog confining passers: {catalog_pass}",
        ),
        CheckResult(
            name="bc_algebra_runtime",
            passed=elapsed < 10.0,
            measured=elapsed,
            tolerance=10.0,
            detail="seconds",
        ),
    ]


# --------------------------------------------------------------------------
# pseudo self-adjointness and spectra
# --------------------------------------------------------------------------


def check_pseudo_self_adjointness():
    grid = Grid(0.0, math.pi, 128)
    pot = ScalarPotential()
    worst = 0.0
    for entry in CATALOG.values():
        kin = assemble_kinetic(grid, pot, bc_realization(entry.params))
        worst = max(worst, pseudo_hermiticity_defect(kin))
    return [
        _at_most("pseudo_self_adjointness_all_catalog", worst, 1e-10,
                 f"worst relative defect over {len(CATALOG)} closures at n={grid.n}")
    ]


def _dispersion_errors(tag: str, n: int) -> np.ndarray:
    """|E^2 - exact| of the five lowest modes after the exact constant mode."""
    length = math.pi if tag != "periodic" else 2 * math.pi
    ms = System(Grid(0.0, length, n), CATALOG[tag].params).modes(6)
    if tag == "periodic":
        exact = [1.0 + (2 * math.pi * k / length) ** 2 for k in (1, 1, 2, 2, 3)]
    else:
        exact = [1.0 + (k * math.pi / length) ** 2 for k in range(1, 6)]
    first = 0 if tag == "dirichlet" else 1  # skip the exact constant mode
    disc = ms.energies[first : first + 5] ** 2
    return np.abs(np.asarray(disc) - np.asarray(exact))


def check_spectra():
    checks = []
    for tag in ("dirichlet", "neumann", "periodic"):
        ratios = _dispersion_errors(tag, 128) / _dispersion_errors(tag, 256)
        checks.append(
            CheckResult(
                name=f"spectral_dispersion_{tag}",
                passed=bool(np.all((ratios > 3.6) & (ratios < 4.4))),
                measured=float(np.min(ratios)),
                tolerance=3.6,
                detail=f"error ratios {np.round(ratios, 3).tolist()} for n=128->256",
            )
        )
    return checks


# --------------------------------------------------------------------------
# conservation and neutral-sector triviality
# --------------------------------------------------------------------------


_CONSERVATION_NAMES = ("indefinite_norm_conservation", "energy_bracket_conservation")
SECTOR_TAGS = ("dirichlet", "neumann", "robin_mit_plus", "periodic", "rotation:0.0")


def _plus_minus_state(system: System) -> KfgState:
    """A plus-sector and a minus-sector two-mode state, summed: the step acts
    on the real and imaginary parts of a real closure's state apart, so one
    run of plus + minus carries both sectors' runs."""
    i, jdx = _nondegenerate_pair(system.modes(PICK_MODES))
    plus, minus = (
        system.synthesize([(i, 1.0, rng.uniform(0, 2)), (jdx, 0.7, rng.uniform(0, 2))],
                          t=0.3, kind=kind)
        for kind, rng in (("plus", np.random.default_rng(3)), ("minus", np.random.default_rng(4)))
    )
    return KfgState(plus.psi + minus.psi, plus.psi_t + minus.psi_t, t=0.3)


def _sector_defects(snap: Snapshot) -> tuple[float, float, float, float]:
    """|rho|, |j|, |Im rho_E| and |Im j_E| of a neutral snapshot, each over
    its scale."""
    u = snap.system.units
    rho_scale = max(float(np.max(np.abs(np.conj(snap.psi) * snap.e_psi))) / u.mc2, 1e-300)
    j_scale = max(float(np.max(np.abs(np.conj(snap.psi) * snap.cp_psi))) / (u.mass * u.c), 1e-300)
    re_scale = max(float(np.max(np.abs(snap.rho_E))), 1e-300)
    je_scale = max(float(np.max(np.abs(snap.j_E))), 1e-300)
    return (float(np.max(np.abs(snap.rho))) / rho_scale,
            float(np.max(np.abs(snap.j))) / j_scale,
            float(np.max(np.abs(snap.rho_E.imag))) / re_scale,
            float(np.max(np.abs(snap.j_E.imag))) / je_scale)


def _conservation_checks() -> list[CheckResult]:
    """The results of `check_conservation` and of `check_majorana_triviality`,
    in that order, from one map over all their runs.

    Each closure at n = 64 is run once, 10^4 steps of a charged state.  On
    the SECTOR_TAGS closures a plus + minus state rides in the same stack
    (`evolve_stacked`): the step reads its matrix once for both states, and
    each state's records equal those of its own run.  The charged state is
    summarized every 1000 steps and the neutral one every 2000.  The six
    un-projected sector-preservation runs at n = 48 go through the same map.
    """
    grid = Grid(0.0, math.pi, 64)
    pot = _bump_potential()
    steps = 10_000
    config = EvolutionConfig(dt=2e-3, steps=steps, record_every=steps // 10)

    def closure_run(tag: str) -> tuple[tuple[float, float], tuple[float, ...] | None]:
        """The relative norm and energy drifts of the charged state, and the
        worst sector defects of the neutral state (None without one)."""
        system = System(grid, CATALOG[tag].params, pot)
        # the neutral state first: its eight modes serve the charged state's three
        neutral = [_plus_minus_state(system)] if tag in SECTOR_TAGS else []
        states = [charged_state(system, seed=11)] + neutral
        summaries = []
        worst = [0.0] * 4
        for index, records in enumerate(evolve_stacked(states, system, config)):
            summaries.append(global_summary(records[0].state, system))
            if len(records) == 2 and index % 2 == 0:  # every 2000 steps
                for kind in ("plus", "minus"):
                    snap = Snapshot(majorana_project(records[1].state, kind), system)
                    worst = [max(w, d) for w, d in zip(worst, _sector_defects(snap))]
        n0 = summaries[0].norm
        e0 = summaries[0].energy_mean.real
        drifts = (max(abs(s.norm - n0) for s in summaries) / abs(n0),
                  max(abs(s.energy_mean.real - e0) for s in summaries) / abs(e0))
        return drifts, (tuple(worst) if len(states) == 2 else None)

    grid2 = Grid(0.0, math.pi, 48)

    def preservation(tag: str, kind: str) -> float:
        system = System(grid2, CATALOG[tag].params, pot)
        state = two_mode_neutral(system, seed=5)
        if kind == "minus":
            state = KfgState(1j * state.psi, 1j * state.psi_t, state.t)
        return check_majorana_preservation(state, system, dt=2e-3, steps=1000, kind=kind)

    runs = [(tag, kind) for tag in ("dirichlet", "periodic", "robin_mit_minus")
            for kind in ("plus", "minus")]

    def run(item: tuple[str, str | None]):
        tag, kind = item
        return closure_run(tag) if kind is None else preservation(tag, kind)

    # `_map` deals the items round-robin, so their order sets each process's
    # share: the two-state closure runs first (about 52 ms each on a 2-vCPU
    # host, one BLAS thread), then the one-state ones (about 41 ms) and the
    # six short runs (about 5 ms); on two CPUs each process gets three short
    # runs and their long ones differ by one two-state run for a one-state run
    items = [(tag, None) for tag in sorted(MAJORANA_TAGS, key=lambda tag: tag not in SECTOR_TAGS)]
    items += runs
    results = dict(zip(items, _map(run, items)))
    drifts = [results[tag, None][0] for tag in MAJORANA_TAGS]
    worst_norm, worst_energy = (max(0.0, *d) for d in zip(*drifts))
    defects = [results[tag, None][1] for tag in SECTOR_TAGS]
    worst_rho, worst_j, worst_im_rho, worst_im_j = (max(0.0, *d) for d in zip(*defects))
    worst_dev = max(0.0, *(results[item] for item in runs))
    return [
        _at_most("indefinite_norm_conservation", worst_norm, 1e-10,
                 f"worst relative drift over {steps} steps, all neutral-capable closures"),
        _at_most("energy_bracket_conservation", worst_energy, 1e-10,
                 f"worst relative drift over {steps} steps"),
        _at_most("neutral_charge_density_trivial", worst_rho, 1e-13,
                 "max |rho| / scale at every recorded step"),
        _at_most("neutral_charge_current_trivial", worst_j, 1e-13,
                 "max |j| / scale at every recorded step"),
        _at_most("neutral_energy_density_real", worst_im_rho, 1e-13, "max |Im rho_E| / scale"),
        _at_most("neutral_energy_current_real", worst_im_j, 1e-13, "max |Im j_E| / scale"),
        _at_most("neutral_sector_preserved", worst_dev, 1e-12,
                 "raw pairing deviation over 1000 un-projected steps"),
    ]


def check_conservation():
    return [c for c in _conservation_checks() if c.name in _CONSERVATION_NAMES]


def check_majorana_triviality():
    return [c for c in _conservation_checks() if c.name not in _CONSERVATION_NAMES]


# --------------------------------------------------------------------------
# boundary currents
# --------------------------------------------------------------------------

BALANCED_TAGS = ("dirichlet", "neumann", "mixed_a0", "mixed_b0", "periodic", "antiperiodic")
PERMEABLE_TAGS = ("periodic", "antiperiodic", "rotation:1.0471975511965976", "rotation:0.0")


def check_boundary_currents():
    grid = Grid(0.0, math.pi, 256)
    pot = ScalarPotential()

    def end_currents(tag: str) -> tuple[float, float, float]:
        """The worst |j_E(a) - j_E(b)| and |j_E(a)| over the j_E scale, and
        the worst |cT10(b) - cT10(a)| over its scale, of one closure."""
        system = System(grid, CATALOG[tag].params, pot)
        worst_eq = je_a_max = tilde_gap = 0.0
        # probe several distinct-energy mode pairs: eigensolver gauge freedom
        # inside degenerate subspaces can align the boundary data of any one
        # pair and hide an open channel
        ms = system.modes(5)
        pairs = [
            (i, j)
            for i in range(min(4, ms.count))
            for j in range(i + 1, min(5, ms.count))
            if ms.energies[j] - ms.energies[i] > 1e-8
        ]
        rng = np.random.default_rng(2)
        for (i, j) in pairs:
            phases = rng.uniform(0.2, 2.9, size=2)
            for t_probe in (0.55, 0.86, 1.32):
                probe = system.synthesize(
                    [(i, 1.0, phases[0]), (j, 0.8, phases[1])], t=t_probe, kind="plus"
                )
                snap = Snapshot(probe, system)
                _, _, je_a, je_b, jt_a, jt_b = snap.ends
                diff = jt_b - jt_a
                s = max(float(np.max(np.abs(snap.j_E))), 1e-300)
                st = max(float(np.max(np.abs(snap.cT10))), 1e-300)
                worst_eq = max(worst_eq, abs(je_a - je_b) / s)
                je_a_max = max(je_a_max, abs(je_a) / s)
                tilde_gap = max(tilde_gap, abs(diff) / st)
        return worst_eq, je_a_max, tilde_gap

    worst_eq = 0.0
    worst_confining = 0.0
    min_permeable = math.inf
    tilde_match = True
    tilde_detail = []
    for tag, (eq, je_a_max, tilde_gap) in zip(MAJORANA_TAGS, _map(end_currents, MAJORANA_TAGS)):
        entry = CATALOG[tag]
        rep = classify(entry.params)
        worst_eq = max(worst_eq, eq)
        if rep.confining:
            worst_confining = max(worst_confining, je_a_max)
        elif tag in PERMEABLE_TAGS:
            min_permeable = min(min_permeable, je_a_max)
        balanced = tilde_gap <= 1e-6
        expected_balanced = tag in BALANCED_TAGS
        if balanced != expected_balanced or balanced != bool(rep.tau1_condition):
            tilde_match = False
        tilde_detail.append(f"{entry.roman}:{'0' if balanced else 'x'}")
    return [
        _at_most("proper_current_endpoint_equality", worst_eq, 1e-6,
                 "max |j_E(a) - j_E(b)| / scale over neutral-capable closures"),
        _at_most("confining_current_vanishes", worst_confining, 1e-6,
                 "max |j_E(a)| / scale over confining closures"),
        _at_least("permeable_current_nonzero", min_permeable, 1e-3,
                  "min over permeable closures of max |j_E(a)| / scale"),
        CheckResult(
            name="tensor_current_balance_classification",
            passed=tilde_match,
            measured=1.0 if tilde_match else 0.0,
            tolerance=1.0,
            detail=" ".join(tilde_detail) + " (0 = balanced ends)",
        ),
    ]


# --------------------------------------------------------------------------
# positivity and the splitting identities
# --------------------------------------------------------------------------


def check_positivity():
    grid = Grid(0.0, math.pi, 128)
    pot = _bump_potential(coefficient=0.4)
    min_energy = math.inf
    worst_e_split = 0.0
    worst_c_split = 0.0
    systems = {tag: System(grid, CATALOG[tag].params, pot) for tag in BALANCED_TAGS}
    for system in systems.values():
        summ = global_summary(two_mode_neutral(system, seed=13), system)
        min_energy = min(min_energy, summ.energy_mean.real)
        worst_e_split = max(worst_e_split, summ.energy_split_residual)
        worst_c_split = max(worst_c_split, summ.current_split_residual)
    equal_gap = 0.0
    for tag in ("dirichlet", "periodic", "antiperiodic"):
        system = systems[tag]
        summ = global_summary(two_mode_neutral(system, seed=17), system)
        scale = max(abs(summ.J_E), abs(summ.J_tilde_E),
                    grid.length * 1e-3, 1e-300)
        equal_gap = max(equal_gap, abs(summ.J_E.real - summ.J_tilde_E) / scale)
    system = System(grid, CATALOG["robin_mit_plus"].params, pot)
    gap = 0.0
    for t_probe in (0.4, 0.9, 1.5):
        snap = Snapshot(two_mode_neutral(system, seed=21, t=t_probe), system)
        summ = snap.summary
        scale = max(grid.length * float(np.max(np.abs(snap.cT10))), 1e-300)
        gap = max(gap, abs(summ.J_E.real - summ.J_tilde_E) / scale)
    return [
        CheckResult(
            name="mean_energy_positive_balanced_closures",
            passed=min_energy > 0.0,
            measured=min_energy, tolerance=0.0,
            detail="min <<Psi,E Psi>> over the six balanced closures, S >= 0",
        ),
        _at_most("energy_split_identity", worst_e_split, 1e-8,
                 "mean energy vs boundary term + tensor energy integral"),
        _at_most("current_split_identity", worst_c_split, 1e-8,
                 "J_E vs boundary term + J~_E, neutral states"),
        _at_most("global_currents_equal_balanced", equal_gap, 1e-8,
                 "relative |J_E - J~_E| for Dirichlet/periodic/antiperiodic"),
        _at_least("global_currents_differ_robin", gap, 1e-3,
                  "relative |J_E - J~_E| for the MIT-type Robin closure"),
    ]


# --------------------------------------------------------------------------
# continuity convergence and the dual observable pipeline
# --------------------------------------------------------------------------


def _window_residuals(system: System, state0: KfgState, dt: float, kind: str | None):
    cfg = EvolutionConfig(dt=dt, steps=4, record_every=1)
    states = [rec.state for rec in evolve(state0, system, cfg, majorana=kind)]
    return continuity_residuals(states, system)


def _continuity_ratios(make_system, kind: str | None, seed: int, laws) -> dict[str, float]:
    """Each law's residual at n = 128 over that at n = 255 (dx and dt halved)."""
    res = []
    for n in (128, 255):
        grid = Grid(0.0, math.pi, n)
        system = make_system(grid)
        modes = eigenmodes(system.kinetic(0.0), PICK_MODES)
        i, j = _nondegenerate_pair(modes)
        rng = np.random.default_rng(seed)
        coeffs = [(i, 1.0, rng.uniform(0, 2)), (j, 0.7, rng.uniform(0, 2))]
        state = synthesize_state(modes, coeffs, 0.0, kind or "none", system.units)
        # dt proportional to dx keeps the halving simultaneous; the 1/4
        # factor keeps the spatial truncation dominant so the measured
        # ratio sits cleanly at the second-order value
        res.append(_window_residuals(system, state, grid.dx / 4.0, kind))
    coarse, fine = res
    return {
        law: getattr(coarse, law) / getattr(fine, law) if getattr(fine, law) > 0 else math.inf
        for law in laws
    }


def check_continuity_convergence():
    pot_static = _bump_potential(coefficient=0.3)
    r_static = _continuity_ratios(
        lambda g: System(g, CATALOG["dirichlet"].params, pot_static),
        kind=None, seed=23,
        laws=("charge", "energy", "emt_time", "emt_space"),
    )
    pot_moving = ScalarPotential(
        profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
        time_factor=TimeFactor(kind="sinusoidal", amplitude=1.0, omega=1.3),
    )
    r_moving = _continuity_ratios(
        lambda g: System(g, CATALOG["robin_mit_plus"].params, pot_moving),
        kind="plus", seed=29,
        laws=("energy", "emt_time", "emt_space"),
    )
    ratios = list(r_static.values()) + list(r_moving.values())
    detail = "; ".join(
        f"{label}: { {k: round(v, 2) for k, v in r.items()} }"
        for label, r in (("charged static", r_static), ("neutral driven", r_moving))
    )
    return [
        CheckResult(
            name="continuity_second_order",
            passed=all(3.6 < ratio < 4.4 for ratio in ratios),
            measured=float(min(ratios)),
            tolerance=3.6,
            detail=detail,
        )
    ]


def check_dual_path():
    grid = Grid(0.0, math.pi, 96)
    pot = _bump_potential(coefficient=0.2)
    tags = ("dirichlet", "neumann", "robin_mit_plus", "periodic", "rotation:1.0471975511965976")
    systems = [System(grid, CATALOG[t].params, pot) for t in tags]
    rng = np.random.default_rng(41)
    draws = []
    for k in range(100):
        system = systems[k % len(systems)]
        ms = system.modes(PICK_MODES)  # solved here, so the map's children inherit them
        n_modes = int(rng.integers(2, 5))
        kind = "plus" if (k % 3 == 0) else "none"
        coeffs = [
            (int(idx), float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 2 * math.pi)))
            for idx in rng.choice(min(ms.count, PICK_MODES), size=n_modes, replace=False)
        ]
        draws.append((system, coeffs, float(rng.uniform(0, 2)), kind))

    def gaps(draw) -> list[float]:
        """max |one-component - two-component| of rho, j, rho_E and j_E,
        over their common scale, for one drawn state."""
        system, coeffs, t, kind = draw
        state = system.synthesize(coeffs, t=t, kind=kind)
        snap = Snapshot(state, system)
        fv = kfg_to_fv(state, system.units)
        rho2, j2, rho_e2, j_e2 = two_component_fields(fv, system)
        pairs = ((snap.rho, rho2), (snap.j, j2), (snap.rho_E, rho_e2), (snap.j_E, j_e2))
        # common physical scale: a neutral state's rho/j are exactly zero on
        # one path and round-off on the other, so per-field scales degenerate
        scale = max(
            max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))) for a, b in pairs
        )
        scale = max(scale, 1e-300)
        return [float(np.max(np.abs(a - b))) / scale for a, b in pairs]

    worst = 0.0
    for values in _map(gaps, draws):
        for value in values:
            worst = max(worst, value)
    return [
        _at_most("dual_path_observables", worst, 1e-11,
                 f"100 random on-shell states over {len(tags)} closures")
    ]


# --------------------------------------------------------------------------
# suite driver
# --------------------------------------------------------------------------


SUITES = {
    "bc_algebra": (check_bc_algebra,),
    "conservation": (check_pseudo_self_adjointness, _conservation_checks),
    "boundary_currents": (check_boundary_currents,),
    "positivity": (check_positivity,),
    "decompositions": (check_dual_path,),
    "convergence": (check_spectra, check_continuity_convergence),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> VerifySuiteResult:
    global _workers
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    _workers = 1
    t0 = time.perf_counter()
    checks = [check for suite_check in SUITES[name] for check in suite_check()]
    return VerifySuiteResult(
        suite=name, checks=checks, elapsed_s=time.perf_counter() - t0, workers=_workers
    )


def run_all_suites() -> list[VerifySuiteResult]:
    return [run_suite(name) for name in SUITE_NAMES]
