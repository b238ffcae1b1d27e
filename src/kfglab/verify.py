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
seeds and bound once, in its own body.
"""

from __future__ import annotations

import math
import time
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
from .operators import System, assemble_fv_hamiltonian, assemble_kinetic
from .observables import (
    Snapshot,
    continuity_residuals,
    global_summary,
    local_fields,
    two_component_fields,
)
from .evolution import EvolutionConfig, check_majorana_preservation, evolve


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": [c.as_dict() for c in self.checks],
        }


MAJORANA_TAGS = tuple(tag for tag, e in CATALOG.items() if abs(e.params.m2) < 1e-12)


def _at_most(name: str, measured: float, tolerance: float, detail: str) -> CheckResult:
    return CheckResult(name, measured <= tolerance, measured, tolerance, detail)


def _at_least(name: str, measured: float, tolerance: float, detail: str) -> CheckResult:
    return CheckResult(name, measured >= tolerance, measured, tolerance, detail)


def _nondegenerate_pair(system: System) -> tuple[int, int]:
    """Lowest pair of modes with distinct energies."""
    ms = system.modes()
    for j in range(1, min(8, ms.count)):
        if ms.energies[j] - ms.energies[0] > 1e-8:
            return 0, j
    raise RuntimeError("no nondegenerate mode pair found")


def two_mode_neutral(system: System, seed: int, t: float | None = None) -> KfgState:
    """Generic two-mode strictly neutral state (random phases and time)."""
    rng = np.random.default_rng(seed)
    i, j = _nondegenerate_pair(system)
    phases = rng.uniform(0.3, 2.8, size=2)
    tt = float(rng.uniform(0.4, 1.9)) if t is None else t
    return system.synthesize([(i, 1.0, phases[0]), (j, 0.8, phases[1])], t=tt, kind="plus")


def charged_state(system: System, seed: int) -> KfgState:
    """Charged state of the three lowest modes (random amplitudes, phases, time)."""
    rng = np.random.default_rng(seed)
    coeffs = [
        (idx, float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.0, 2 * math.pi)))
        for idx in range(min(3, system.modes().count))
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
        h = assemble_fv_hamiltonian(kin)
        worst = max(worst, h.pseudo_hermiticity_defect)
    return [
        _at_most("pseudo_self_adjointness_all_catalog", worst, 1e-10,
                 f"worst relative defect over {len(CATALOG)} closures at n={grid.n}")
    ]


def _dispersion_errors(tag: str, n: int) -> np.ndarray:
    """|E^2 - exact| of the five lowest modes after the exact constant mode."""
    length = math.pi if tag != "periodic" else 2 * math.pi
    ms = System(Grid(0.0, length, n), CATALOG[tag].params).modes()
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


def check_conservation():
    grid = Grid(0.0, math.pi, 64)
    pot = _bump_potential()
    steps = 10_000
    config = EvolutionConfig(dt=2e-3, steps=steps, record_every=steps // 10)
    worst_norm = 0.0
    worst_energy = 0.0
    for tag in MAJORANA_TAGS:
        system = System(grid, CATALOG[tag].params, pot)
        state = charged_state(system, seed=11)
        summaries = [global_summary(rec.state, system) for rec in evolve(state, system, config)]
        n0 = summaries[0].norm
        e0 = summaries[0].energy_mean.real
        nd = max(abs(s.norm - n0) for s in summaries) / abs(n0)
        ed = max(abs(s.energy_mean.real - e0) for s in summaries) / abs(e0)
        worst_norm = max(worst_norm, nd)
        worst_energy = max(worst_energy, ed)
    return [
        _at_most("indefinite_norm_conservation", worst_norm, 1e-10,
                 f"worst relative drift over {steps} steps, all neutral-capable closures"),
        _at_most("energy_bracket_conservation", worst_energy, 1e-10,
                 f"worst relative drift over {steps} steps"),
    ]


def check_majorana_triviality():
    grid = Grid(0.0, math.pi, 64)
    pot = _bump_potential()
    steps = 10_000
    config = EvolutionConfig(dt=2e-3, steps=steps, record_every=steps // 5)
    worst_rho = worst_j = worst_im_rho = worst_im_j = 0.0
    for tag in ("dirichlet", "neumann", "robin_mit_plus", "periodic", "rotation:0.0"):
        system = System(grid, CATALOG[tag].params, pot)
        u = system.units
        # the step acts on the real and imaginary parts of a real closure's
        # state apart, so one run of plus + minus carries both sectors' runs
        i, jdx = _nondegenerate_pair(system)
        plus, minus = (
            system.synthesize([(i, 1.0, rng.uniform(0, 2)), (jdx, 0.7, rng.uniform(0, 2))],
                              t=0.3, kind=kind)
            for kind, rng in (("plus", np.random.default_rng(3)), ("minus", np.random.default_rng(4)))
        )
        state = KfgState(plus.psi + minus.psi, plus.psi_t + minus.psi_t, t=0.3)
        for rec in evolve(state, system, config):
            for kind in ("plus", "minus"):
                snap = Snapshot(majorana_project(rec.state, kind), system)
                fl = snap.fields
                rho_scale = max(float(np.max(np.abs(np.conj(snap.psi) * snap.e_psi))) / u.mc2, 1e-300)
                j_scale = max(float(np.max(np.abs(np.conj(snap.psi) * snap.cp_psi))) / (u.mass * u.c), 1e-300)
                re_scale = max(float(np.max(np.abs(fl.rho_E))), 1e-300)
                je_scale = max(float(np.max(np.abs(fl.j_E))), 1e-300)
                worst_rho = max(worst_rho, float(np.max(np.abs(fl.rho))) / rho_scale)
                worst_j = max(worst_j, float(np.max(np.abs(fl.j))) / j_scale)
                worst_im_rho = max(worst_im_rho, float(np.max(np.abs(fl.rho_E.imag))) / re_scale)
                worst_im_j = max(worst_im_j, float(np.max(np.abs(fl.j_E.imag))) / je_scale)
    grid2 = Grid(0.0, math.pi, 48)
    worst_dev = 0.0
    for tag in ("dirichlet", "periodic", "robin_mit_minus"):
        system = System(grid2, CATALOG[tag].params, pot)
        for kind in ("plus", "minus"):
            state = two_mode_neutral(system, seed=5)
            if kind == "minus":
                state = KfgState(1j * state.psi, 1j * state.psi_t, state.t)
            dev = check_majorana_preservation(state, system, dt=2e-3, steps=1000, kind=kind)
            worst_dev = max(worst_dev, dev)
    return [
        _at_most("neutral_charge_density_trivial", worst_rho, 1e-13,
                 "max |rho| / scale at every recorded step"),
        _at_most("neutral_charge_current_trivial", worst_j, 1e-13,
                 "max |j| / scale at every recorded step"),
        _at_most("neutral_energy_density_real", worst_im_rho, 1e-13, "max |Im rho_E| / scale"),
        _at_most("neutral_energy_current_real", worst_im_j, 1e-13, "max |Im j_E| / scale"),
        _at_most("neutral_sector_preserved", worst_dev, 1e-12,
                 "raw pairing deviation over 1000 un-projected steps"),
    ]


# --------------------------------------------------------------------------
# boundary currents
# --------------------------------------------------------------------------

BALANCED_TAGS = ("dirichlet", "neumann", "mixed_a0", "mixed_b0", "periodic", "antiperiodic")
PERMEABLE_TAGS = ("periodic", "antiperiodic", "rotation:1.0471975511965976", "rotation:0.0")


def check_boundary_currents():
    grid = Grid(0.0, math.pi, 256)
    pot = ScalarPotential()
    worst_eq = 0.0
    worst_confining = 0.0
    min_permeable = math.inf
    tilde_match = True
    tilde_detail = []
    for tag in MAJORANA_TAGS:
        entry = CATALOG[tag]
        system = System(grid, entry.params, pot)
        rep = classify(entry.params)
        je_a_max = 0.0
        tilde_gap = 0.0
        # probe several distinct-energy mode pairs: eigensolver gauge freedom
        # inside degenerate subspaces can align the boundary data of any one
        # pair and hide an open channel
        ms = system.modes()
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
                fl = snap.fields
                _, _, je_a, je_b, jt_a, jt_b = snap.ends
                diff = jt_b - jt_a
                s = max(float(np.max(np.abs(fl.j_E))), 1e-300)
                st = max(float(np.max(np.abs(fl.cT10))), 1e-300)
                worst_eq = max(worst_eq, abs(je_a - je_b) / s)
                je_a_max = max(je_a_max, abs(je_a) / s)
                tilde_gap = max(tilde_gap, abs(diff) / st)
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
    for tag in BALANCED_TAGS:
        system = System(grid, CATALOG[tag].params, pot)
        summ = global_summary(two_mode_neutral(system, seed=13), system)
        min_energy = min(min_energy, summ.energy_mean.real)
        worst_e_split = max(worst_e_split, summ.energy_split_residual)
        worst_c_split = max(worst_c_split, summ.current_split_residual)
    equal_gap = 0.0
    for tag in ("dirichlet", "periodic", "antiperiodic"):
        system = System(grid, CATALOG[tag].params, pot)
        summ = global_summary(two_mode_neutral(system, seed=17), system)
        scale = max(abs(summ.J_E), abs(summ.J_tilde_E),
                    grid.length * 1e-3, 1e-300)
        equal_gap = max(equal_gap, abs(summ.J_E.real - summ.J_tilde_E) / scale)
    system = System(grid, CATALOG["robin_mit_plus"].params, pot)
    gap = 0.0
    for t_probe in (0.4, 0.9, 1.5):
        snap = Snapshot(two_mode_neutral(system, seed=21, t=t_probe), system)
        summ, fl = snap.summary, snap.fields
        scale = max(grid.length * float(np.max(np.abs(fl.cT10))), 1e-300)
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
        synth = system.frozen(0.0)
        i, j = _nondegenerate_pair(synth)
        rng = np.random.default_rng(seed)
        coeffs = [(i, 1.0, rng.uniform(0, 2)), (j, 0.7, rng.uniform(0, 2))]
        state = synth.synthesize(coeffs, t=0.0, kind=kind or "none")
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
    worst = 0.0
    for k in range(100):
        system = systems[k % len(systems)]
        ms = system.modes()
        n_modes = int(rng.integers(2, 5))
        kind = "plus" if (k % 3 == 0) else "none"
        coeffs = [
            (int(idx), float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 2 * math.pi)))
            for idx in rng.choice(min(ms.count, 8), size=n_modes, replace=False)
        ]
        state = system.synthesize(coeffs, t=float(rng.uniform(0, 2)), kind=kind)
        fl = local_fields(state, system)
        fv = kfg_to_fv(state, system.units)
        rho2, j2, rho_e2, j_e2 = two_component_fields(fv, system)
        pairs = ((fl.rho, rho2), (fl.j, j2), (fl.rho_E, rho_e2), (fl.j_E, j_e2))
        # common physical scale: a neutral state's rho/j are exactly zero on
        # one path and round-off on the other, so per-field scales degenerate
        scale = max(
            max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))) for a, b in pairs
        )
        scale = max(scale, 1e-300)
        for a, b in pairs:
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return [
        _at_most("dual_path_observables", worst, 1e-11,
                 f"100 random on-shell states over {len(tags)} closures")
    ]


# --------------------------------------------------------------------------
# suite driver
# --------------------------------------------------------------------------


SUITES = {
    "bc_algebra": (check_bc_algebra,),
    "conservation": (
        check_pseudo_self_adjointness, check_conservation, check_majorana_triviality,
    ),
    "boundary_currents": (check_boundary_currents,),
    "positivity": (check_positivity,),
    "decompositions": (check_dual_path,),
    "convergence": (check_spectra, check_continuity_convergence),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> VerifySuiteResult:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    t0 = time.perf_counter()
    checks = [check for suite_check in SUITES[name] for check in suite_check()]
    return VerifySuiteResult(
        suite=name, checks=checks, elapsed_s=time.perf_counter() - t0
    )


def run_all_suites() -> list[VerifySuiteResult]:
    return [run_suite(name) for name in SUITE_NAMES]
