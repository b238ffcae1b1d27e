"""Cayley stepping: conservation, sector preservation, accuracy."""

import itertools
import math

import numpy as np
import pytest

from kfglab.core import (
    FvState,
    Grid,
    KfgState,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
    kfg_to_fv,
    majorana_project,
)
from kfglab.bc import CATALOG, params_from_tag
from kfglab.operators import Bands, KineticMatrix, NumericalFailure, System
from kfglab.evolution import (
    DENSE_STEP_MAX_DOF,
    CayleyPropagator,
    EvolutionConfig,
    check_majorana_preservation,
    evolve,
    evolve_stacked,
    state_to_wave,
    wave_to_state,
)
from kfglab.observables import global_summary
from kfglab.verify import (MAJORANA_TAGS, _bump_potential, _plus_minus_state,
                           charged_state, two_mode_neutral)
from oracles import (assemble_fv_hamiltonian, field_scale, fv_to_kfg, majorana_deviation,
                     propagator_matrix, step_cayley)

GRID = Grid(0.0, math.pi, 64)


def bilinear_bracket(a: KfgState, b: KfgState, grid: Grid) -> complex:
    """<<Psi, Phi>> from the one-component fields (natural units)."""
    integrand = 0.5 * (np.conj(a.psi) * (1j * b.psi_t) - 1j * np.conj(a.psi_t) * b.psi)
    return grid.integrate(integrand)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0, steps=10)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, steps=0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.1, steps=5, record_every=0)

    def test_trajectory_lengths(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        st0 = system.synthesize([(0, 1.0, 0.0)], t=0.0, kind="plus")
        records = list(evolve(st0, system, EvolutionConfig(dt=1e-3, steps=1, record_every=1)))
        assert len(records) == 2
        records = list(evolve(st0, system, EvolutionConfig(dt=1e-3, steps=10, record_every=4)))
        assert len(records) == math.ceil(10 / 4) + 1
        dts = np.diff([r.t for r in records])
        assert np.all(dts > 0)


class TestSnapshotGenerator:
    def test_records_are_taken_lazily(self, monkeypatch):
        # a record costs only the steps up to it: the first none, the k-th
        # (k - 1) * record_every
        calls = []
        advance = CayleyPropagator.advance

        def counted(self, z, t, steps=1, first=0):
            calls.append(steps)
            return advance(self, z, t, steps, first)

        monkeypatch.setattr(CayleyPropagator, "advance", counted)
        system = System(GRID, CATALOG["dirichlet"].params)
        st0 = system.synthesize([(0, 1.0, 0.0)], t=0.0, kind="plus")
        config = EvolutionConfig(dt=1e-3, steps=20, record_every=3)
        for k in range(1, 6):
            calls.clear()
            records = list(itertools.islice(evolve(st0, system, config), k))
            assert len(records) == k
            # one call of record_every steps per record after the first
            assert calls == [config.record_every] * (k - 1)

    @pytest.mark.parametrize("tag, driven, n", [
        *[(tag, False, n) for tag in ("dirichlet", "periodic", "rotation:0.0") for n in (64, 256)],
        ("robin_mit_plus", True, 64),
    ])
    def test_sector_sum_carries_both_sector_runs(self, tag, driven, n):
        # a real closure's step acts on the real and imaginary parts apart, so
        # one run of plus + minus projects onto each sector's own run to the
        # bit (n = 64 takes the dense step, n = 256 and the driven run the
        # banded one); np.array_equal leaves only the sign of a zero free
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
            time_factor=(TimeFactor(kind="sinusoidal", amplitude=0.5, omega=2.0, offset=1.0)
                         if driven else TimeFactor()),
        )
        system = System(Grid(0.0, math.pi, n), CATALOG[tag].params, pot)
        plus = system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], t=0.0, kind="plus")
        minus = system.synthesize([(0, 0.7, 1.4), (2, 0.8, 0.2)], t=0.0, kind="minus")
        both = KfgState(plus.psi + minus.psi, plus.psi_t + minus.psi_t, t=0.0)
        config = EvolutionConfig(dt=2e-3, steps=40, record_every=7)
        runs = (evolve(both, system, config), evolve(plus, system, config, majorana="plus"),
                evolve(minus, system, config, majorana="minus"))
        for rec, rec_plus, rec_minus in zip(*runs, strict=True):
            for kind, own in (("plus", rec_plus), ("minus", rec_minus)):
                part = majorana_project(rec.state, kind)
                assert part.t == own.t
                assert np.array_equal(part.psi, own.state.psi), (kind, rec.t)
                assert np.array_equal(part.psi_t, own.state.psi_t), (kind, rec.t)


class TestStackedRuns:
    @pytest.mark.parametrize("tag, n", [*[(tag, 64) for tag in MAJORANA_TAGS],
                                        ("dirichlet", 256), ("periodic", 256)])
    def test_each_state_of_a_stack_gets_the_records_of_its_own_run(self, tag, n):
        # the conservation suite's charged and plus + minus states, stepped
        # in one stack, against two separate runs, byte for byte (signed
        # zeros count): at n = 64 the dense step's product must give a row
        # the same bits in a 4-row stack as in a 2-row one
        system = System(Grid(0.0, math.pi, n), CATALOG[tag].params, _bump_potential())
        assert (system.closure.n_dof <= DENSE_STEP_MAX_DOF) == (n == 64)
        states = (charged_state(system, seed=11), _plus_minus_state(system))
        assert states[0].t != states[1].t
        config = EvolutionConfig(dt=2e-3, steps=2000, record_every=500)
        stacked = list(evolve_stacked(states, system, config))
        assert len(stacked) == 5
        for index, state in enumerate(states):
            for records, own in zip(stacked, evolve(state, system, config), strict=True):
                rec = records[index]
                assert rec.t == own.t and rec.majorana_deviation is own.majorana_deviation
                assert rec.state.psi.tobytes() == own.state.psi.tobytes(), (index, own.t)
                assert rec.state.psi_t.tobytes() == own.state.psi_t.tobytes(), (index, own.t)

    def test_neutral_one_row_packs_stack_on_the_banded_step(self):
        system = System(Grid(0.0, math.pi, 256), CATALOG["dirichlet"].params)
        states = [system.synthesize([(0, 1.0, 0.5), (k, 0.6, 1.1)], t=0.2 * k, kind="plus")
                  for k in (1, 2)]
        config = EvolutionConfig(dt=2e-3, steps=30, record_every=7)
        stacked = list(evolve_stacked(states, system, config, majorana="plus"))
        for index, state in enumerate(states):
            own = list(evolve(state, system, config, majorana="plus"))
            assert [r[index].t for r in stacked] == [r.t for r in own]
            assert [r[index].majorana_deviation for r in stacked] == [0.0] * len(own)
            for records, rec in zip(stacked, own, strict=True):
                assert records[index].state.psi.tobytes() == rec.state.psi.tobytes()
                assert records[index].state.psi_t.tobytes() == rec.state.psi_t.tobytes()

    def test_a_driven_stack_needs_one_start_time(self):
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
            time_factor=TimeFactor(kind="sinusoidal", amplitude=0.5, omega=2.0, offset=1.0),
        )
        system = System(GRID, CATALOG["dirichlet"].params, pot)
        early, late = (system.synthesize([(0, 1.0, 0.0)], t=t) for t in (0.0, 0.1))
        config = EvolutionConfig(dt=1e-3, steps=2)
        with pytest.raises(ValueError, match="one start time"):
            next(evolve_stacked((early, late), system, config))
        assert len(list(evolve_stacked((early, early), system, config))) == 3
        with pytest.raises(ValueError, match="no state"):
            next(evolve_stacked((), system, config))


class TestStepExamples:
    def test_mass_block_phases(self):
        # with zero kinetic energy each grid point evolves by the exact
        # 2x2 Cayley phases (1 - i kappa mc^2)/(1 + i kappa mc^2) and conjugate
        system = System(GRID, CATALOG["neumann"].params)
        kin = system.kinetic()
        nd = kin.n_dof
        flat = KineticMatrix(
            closure=kin.closure, units=kin.units, t=0.0, diag=kin.diag,
            kinetic_bands=Bands(np.zeros(nd), np.zeros(nd - 1), np.zeros(nd - 1), 0.0, 0.0),
            hermiticity_defect=0.0,
        )
        h = assemble_fv_hamiltonian(flat)
        dt = 0.3
        kappa = 0.5 * dt
        phase = (1 - 1j * kappa) / (1 + 1j * kappa)
        psi1 = np.full(GRID.n, 0.7 + 0.2j)
        psi2 = np.full(GRID.n, -0.1 + 0.5j)
        fv = step_cayley(FvState(psi1, psi2, t=0.0), h, dt, system)
        assert np.allclose(fv.psi1, phase * psi1, atol=1e-14)
        assert np.allclose(fv.psi2, np.conj(phase) * psi2, atol=1e-14)

    def test_one_period_return(self):
        system = System(Grid(0.0, math.pi, 128), CATALOG["dirichlet"].params)
        e0 = system.modes().energies[0]
        period = 2 * math.pi / e0
        st0 = system.synthesize([(0, 1.0, 0.0)], t=0.0, kind="plus")
        records = list(evolve(
            st0, system,
            EvolutionConfig(dt=period / 1000, steps=1000, record_every=1000),
        ))
        end = records[-1].state
        err = max(
            np.max(np.abs(end.psi - st0.psi)), np.max(np.abs(end.psi_t - st0.psi_t))
        ) / field_scale(st0)
        assert err < 1e-4

    def test_second_order_in_dt(self):
        # the psi component returns at a cosine extremum where the phase error
        # enters quadratically, so the honest dt^2 signal is in psi_t
        system = System(Grid(0.0, math.pi, 128), CATALOG["dirichlet"].params)
        e0 = system.modes().energies[0]
        period = 2 * math.pi / e0
        st0 = system.synthesize([(0, 1.0, 0.0)], t=0.0, kind="plus")
        errs = []
        for n_steps in (400, 800):
            records = list(evolve(
                st0, system,
                EvolutionConfig(dt=period / n_steps, steps=n_steps, record_every=n_steps),
            ))
            end = records[-1].state
            errs.append(np.max(np.abs(end.psi_t - st0.psi_t)))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_wave_and_two_component_steps_agree(self):
        system = System(GRID, CATALOG["periodic"].params)
        st0 = system.synthesize([(0, 1.0, 0.2), (1, 0.5, 1.0)], t=0.1, kind="none")
        dt = 3e-3
        fv1 = step_cayley(kfg_to_fv(st0), assemble_fv_hamiltonian(system.kinetic()), dt, system)
        k1 = fv_to_kfg(fv1)
        prop = CayleyPropagator(system, dt)
        k2 = wave_to_state(prop.advance(state_to_wave(st0, system), st0.t), system, st0.t + dt)
        assert np.max(np.abs(k1.psi - k2.psi)) < 1e-13
        assert np.max(np.abs(k1.psi_t - k2.psi_t)) < 1e-13


class TestConservation:
    def test_norm_drift_ten_thousand_steps(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        st0 = system.synthesize(
            [(0, 1.0, 0.1), (1, 0.7, 0.8), (2, 0.4, 1.7)], t=0.2, kind="none"
        )
        summaries = [global_summary(r.state, system) for r in
                     evolve(st0, system, EvolutionConfig(dt=2e-3, steps=10_000, record_every=2000))]
        n0 = summaries[0].norm
        drift = max(abs(s.norm - n0) for s in summaries) / abs(n0)
        assert drift <= 1e-12

    def test_energy_mean_constant_static(self):
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
            nonneg=True,
        )
        system = System(GRID, CATALOG["mixed_a0"].params, pot)
        st0 = system.synthesize([(0, 1.0, 0.4), (1, 0.6, 1.2)], t=0.0, kind="plus")
        summaries = [global_summary(r.state, system) for r in
                     evolve(st0, system, EvolutionConfig(dt=2e-3, steps=2000, record_every=400),
                            majorana="plus")]
        e0 = summaries[0].energy_mean.real
        drift = max(abs(s.energy_mean.real - e0) for s in summaries) / abs(e0)
        assert drift <= 1e-12

    def test_bilinear_bracket_constant(self):
        # overlapping mode content so the reference bracket is not zero
        system = System(GRID, CATALOG["antiperiodic"].params)
        a0 = system.synthesize([(0, 1.0, 0.3), (2, 0.5, 0.7)], t=0.0, kind="none")
        b0 = system.synthesize([(0, 0.8, 1.4), (2, 0.6, 0.2), (3, 0.5, 0.9)], t=0.0, kind="none")
        prop = CayleyPropagator(system, 2e-3)
        za, zb = state_to_wave(a0, system), state_to_wave(b0, system)
        ref = bilinear_bracket(a0, b0, GRID)
        for k in range(500):
            za = prop.advance(za, k * 2e-3)
            zb = prop.advance(zb, k * 2e-3)
        a1 = wave_to_state(za, system, 1.0)
        b1 = wave_to_state(zb, system, 1.0)
        assert abs(bilinear_bracket(a1, b1, GRID) - ref) <= 1e-12 * abs(ref)

    def test_driven_energy_tracks_source(self):
        # centered difference of the energy bracket along a driven run equals
        # the source integral to second order in (dx, dt)
        errs = []
        for n, dt in ((64, 4e-3), (127, 2e-3)):
            grid = Grid(0.0, math.pi, n)
            pot = ScalarPotential(
                profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.4),
                time_factor=TimeFactor(kind="sinusoidal", amplitude=1.0, omega=1.1),
            )
            system = System(grid, CATALOG["dirichlet"].params, pot)
            frozen = System(grid, CATALOG["dirichlet"].params, ScalarPotential())
            st0 = frozen.synthesize([(0, 1.0, 0.2), (1, 0.6, 0.9)], t=0.0, kind="plus")
            records = list(evolve(st0, system, EvolutionConfig(dt=dt, steps=2, record_every=1),
                                  majorana="plus"))
            e = [global_summary(r.state, system).energy_mean.real for r in records]
            mid = records[1]
            rate = (e[2] - e[0]) / (2 * dt)
            abs2 = (np.conj(mid.state.psi) * mid.state.psi).real
            source = grid.integrate(
                pot.time_derivative(grid.x, mid.t) * abs2
            ).real
            errs.append(abs(rate - source))
        assert errs[0] > 3.0 * errs[1]  # shrinks like the square of the step


class TestMajoranaPreservation:
    def test_structural_preservation_both_kinds(self):
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.2),
            nonneg=True,
        )
        for tag in ("dirichlet", "periodic", "robin_mit_minus"):
            system = System(GRID, CATALOG[tag].params, pot)
            for kind in ("plus", "minus"):
                st0 = system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], t=0.4, kind=kind)
                dev = check_majorana_preservation(st0, system, dt=2e-3, steps=1000, kind=kind)
                assert dev <= 1e-12, (tag, kind)

    def test_complex_state_reports_large_deviation(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        st0 = system.synthesize([(0, 1.0, 0.0), (1, 0.5, 0.3)], t=0.0, kind="none")
        dev = check_majorana_preservation(st0, system, dt=2e-3, steps=5)
        assert dev > 0.1

    @pytest.mark.parametrize("n", [64, 256], ids=["dense", "banded"])
    def test_other_sector_reports_full_deviation(self, n):
        # the zero row of the other sector's stack must not read as preserved
        system = System(Grid(0.0, math.pi, n), CATALOG["dirichlet"].params)
        for kind, other in (("plus", "minus"), ("minus", "plus")):
            st0 = system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], t=0.4, kind=other)
            dev = check_majorana_preservation(st0, system, dt=2e-3, steps=5, kind=kind)
            assert dev > 0.1, kind

    def test_blown_up_run_raises(self):
        # two quarantined E^2 < 0 modes grow from round-off until the stack is
        # NaN; the NaN deviations must not read as "preserved"
        lam = 0.05
        units = PhysicalUnits(mass=0.3)
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
            nonneg=True,
        )
        system = System(Grid(0.0, math.pi, 128), params_from_tag("robin_mit_minus", lam=lam),
                        pot, units)
        st0 = two_mode_neutral(system, seed=5)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="not finite"):
            check_majorana_preservation(st0, system, dt=2e-3, steps=20_000)

    def test_propagator_commutes_with_conjugation_swap(self):
        # tau_1 G* tau_1 = G for the two-component Cayley matrix (real closure)
        system = System(GRID, CATALOG["mixed_b0"].params)
        g = propagator_matrix(assemble_fv_hamiltonian(system.kinetic()), 1.5e-3, system.units)
        m = g.shape[0] // 2
        twin = np.block(
            [[np.conj(g[m:, m:]), np.conj(g[m:, :m])],
             [np.conj(g[:m, m:]), np.conj(g[:m, :m])]]
        )
        assert np.max(np.abs(twin - g)) < 1e-12

    def test_recorded_snapshots_projected_and_deviation_logged(self):
        system = System(GRID, CATALOG["neumann"].params)
        st0 = system.synthesize([(0, 1.0, 0.3)], t=0.0, kind="plus")
        records = list(evolve(st0, system, EvolutionConfig(dt=1e-3, steps=50, record_every=10),
                              majorana="plus"))
        for rec in records:
            assert rec.majorana_deviation is not None
            assert rec.majorana_deviation <= 1e-14
            assert majorana_deviation(rec.state, "plus") == 0.0
        assert max(r.majorana_deviation for r in records) <= 1e-14


class TestComplexClosureConservation:
    def test_energy_bracket_constant_quasiperiodic(self):
        # the complex (non-neutral) catalog closures conserve the brackets too
        system = System(GRID, CATALOG["quasiperiodic+"].params)
        st0 = system.synthesize([(0, 1.0, 0.2), (1, 0.6, 1.0)], t=0.0, kind="none")
        summaries = [global_summary(r.state, system) for r in
                     evolve(st0, system, EvolutionConfig(dt=2e-3, steps=2000, record_every=500))]
        n0 = summaries[0].norm
        e0 = summaries[0].energy_mean.real
        assert max(abs(s.norm - n0) for s in summaries) <= 1e-11 * abs(n0)
        assert max(abs(s.energy_mean.real - e0) for s in summaries) <= 1e-11 * abs(e0)


class TestTimeDependentDriver:
    def test_midpoint_reassembly_runs(self):
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
            time_factor=TimeFactor(kind="linear", rate=0.2, offset=1.0),
        )
        system = System(GRID, CATALOG["robin_mit_plus"].params, pot)
        frozen = System(GRID, CATALOG["robin_mit_plus"].params,
                        ScalarPotential(profile=pot.profile))
        st0 = frozen.synthesize([(0, 1.0, 0.0)], t=0.0, kind="plus")
        records = list(evolve(st0, system, EvolutionConfig(dt=1e-3, steps=20, record_every=5),
                              majorana="plus"))
        assert len(records) == 5
        # the energy bracket must move (the drive pumps energy)
        e = [global_summary(r.state, system).energy_mean.real for r in records]
        assert abs(e[-1] - e[0]) > 1e-6
