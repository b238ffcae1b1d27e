"""Every formula keeps its symbolic constants: identities away from natural units."""

import math

import numpy as np

from kfglab.core import (
    Grid,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    kfg_to_fv,
)
from kfglab.bc import params_from_tag
from kfglab.operators import System
from kfglab.observables import (
    continuity_residuals,
    global_summary,
    local_fields,
    two_component_fields,
)
from kfglab.evolution import EvolutionConfig, check_majorana_preservation, evolve

UNITS = PhysicalUnits(hbar=2.0, c=3.0, mass=0.5)
LAM = 1.5  # the boundary length scale of every closure here
GRID = Grid(0.0, 2.0, 96)
BUMP = ScalarPotential(
    profile=SpatialProfile(kind="quadratic", x0=1.0, coefficient=0.4), nonneg=True
)


def _system(tag, potential=BUMP):
    return System(GRID, params_from_tag(tag, lam=LAM), potential, UNITS)


def test_dispersion_with_constants():
    system = _system("dirichlet", ScalarPotential())
    ms = system.modes()
    for k in (1, 2, 3):
        exact = math.sqrt(
            UNITS.mc2**2 + (UNITS.hbar * UNITS.c * k * math.pi / GRID.length) ** 2
        )
        assert abs(ms.energies[k - 1] - exact) / exact < 1e-3


def test_split_identities_and_boundary_equality():
    for tag in ("dirichlet", "robin_mit_plus", "periodic", "rotation:0.7"):
        system = _system(tag)
        st = system.synthesize([(0, 1.0, 0.4), (1, 0.7, 1.3)], t=0.37, kind="plus")
        summ = global_summary(st, system)
        fl = local_fields(st, system)
        scale = max(float(np.max(np.abs(fl.j_E))), 1e-300)
        assert summ.energy_split_residual <= 1e-10, tag
        assert summ.current_split_residual <= 1e-10, tag
        assert abs(summ.jE_a - summ.jE_b) / scale <= 1e-12, tag
        assert np.max(np.abs(fl.rho)) == 0.0, tag


def test_dual_path_with_constants():
    system = _system("rotation:0.7")
    st = system.synthesize([(0, 0.9, 0.1), (1, 0.6, 1.9), (2, 0.4, 0.7)], t=0.8,
                           kind="none")
    fl = local_fields(st, system)
    rho, j, rho_e, j_e = two_component_fields(kfg_to_fv(st, UNITS), system)
    scale = float(np.max(np.abs(fl.rho_E)))
    assert np.max(np.abs(fl.rho - rho)) <= 1e-12 * scale
    assert np.max(np.abs(fl.j - j)) <= 1e-12 * scale
    assert np.max(np.abs(fl.rho_E - rho_e)) <= 1e-12 * scale
    assert np.max(np.abs(fl.j_E - j_e)) <= 1e-12 * scale


def test_conservation_and_sector_preservation():
    system = _system("periodic")
    stc = system.synthesize(
        [(0, 1.0, 0.2), (1, 0.6, 0.9), (2, 0.4, 1.6)], t=0.1, kind="none"
    )
    summaries = [global_summary(r.state, system) for r in
                 evolve(stc, system, EvolutionConfig(dt=1e-3, steps=2000, record_every=500))]
    n0 = summaries[0].norm
    e0 = summaries[0].energy_mean.real
    assert max(abs(s.norm - n0) for s in summaries) <= 1e-11 * abs(n0)
    assert max(abs(s.energy_mean.real - e0) for s in summaries) <= 1e-11 * abs(e0)
    stm = system.synthesize([(0, 1.0, 0.2), (1, 0.6, 0.9)], t=0.1, kind="plus")
    assert check_majorana_preservation(stm, system, 1e-3, 500) <= 1e-13


def test_continuity_laws_second_order():
    res = {}
    for n in (96, 191):
        grid = Grid(0.0, 2.0, n)
        system = System(grid, params_from_tag("dirichlet", lam=LAM),
                        BUMP, UNITS)
        st = system.synthesize([(0, 1.0, 0.4), (1, 0.7, 1.3)], t=0.0, kind="none")
        records = evolve(st, system,
                         EvolutionConfig(dt=grid.dx / (4 * UNITS.c), steps=4, record_every=1))
        res[n] = continuity_residuals([r.state for r in records], system)
    for law in ("charge", "energy", "emt_time", "emt_space"):
        ratio = getattr(res[96], law) / getattr(res[191], law)
        assert 3.6 < ratio < 4.4, law
