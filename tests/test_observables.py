"""Local observables, boundary currents, global integrals, and balance laws."""

import math

import numpy as np
import pytest

from kfglab.core import (
    Grid,
    KfgState,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
    kfg_to_fv,
)
from kfglab.bc import CATALOG, params_from_tag
from kfglab.operators import DiscreteClosure, NumericalFailure, System
from kfglab.observables import (
    DENSITY_NAMES,
    Snapshot,
    continuity_residuals,
    global_summary,
    local_fields,
    two_component_fields,
)
from kfglab.evolution import EvolutionConfig, evolve
from oracles import (
    boundary_Ej, decomposition_checks, dirac_norm, endpoint_data, energy_bracket,
    field_integral_summary, indefinite_norm, literal_fields,
)

GRID = Grid(0.0, math.pi, 96)
BUMP = ScalarPotential(
    profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3),
    nonneg=True,
)
DRIVEN = ScalarPotential(
    profile=BUMP.profile,
    time_factor=TimeFactor(kind="sinusoidal", amplitude=0.5, omega=1.3, offset=1.0),
    nonneg=True,
)


def neutral_state(system, seed=0, t=0.83):
    rng = np.random.default_rng(seed)
    return system.synthesize(
        [(0, 1.0, rng.uniform(0, 2)), (1, 0.8, rng.uniform(0, 2))], t=t, kind="plus"
    )


def charged(system, seed=0, t=0.5):
    rng = np.random.default_rng(seed)
    return system.synthesize(
        [(k, float(rng.uniform(0.4, 1.0)), float(rng.uniform(0, 2 * math.pi)))
         for k in range(3)],
        t=t, kind="none",
    )


class TestLocalFields:
    def test_neutral_charge_observables_vanish_exactly(self):
        system = System(GRID, CATALOG["mixed_a0"].params, BUMP)
        fl = local_fields(neutral_state(system), system)
        assert np.max(np.abs(fl.rho)) == 0.0
        assert np.max(np.abs(fl.j)) == 0.0
        assert np.max(np.abs(fl.rho_E.imag)) == 0.0
        assert np.max(np.abs(fl.j_E.imag)) == 0.0

    def test_tensor_fields_real_for_charged_states(self):
        system = System(GRID, CATALOG["periodic"].params, BUMP)
        fl = local_fields(charged(system), system)
        scale = np.max(np.abs(fl.T00))
        for name in ("rho_tilde_E", "T00", "cT10", "T11"):
            assert np.max(np.abs(getattr(fl, name).imag)) <= 1e-13 * scale

    def test_tensor_symmetry_cross_check(self):
        system = System(GRID, CATALOG["rotation:0.0"].params)
        fl = local_fields(charged(system), system)
        scale = max(np.max(np.abs(fl.cT10)), 1e-300)
        assert np.max(np.abs(fl.T01_check - fl.cT10)) <= 1e-13 * scale

    def test_single_charged_mode_density(self):
        # psi = e^{-iEt} u gives rho = E u^2 / mc^2 pointwise
        system = System(GRID, CATALOG["dirichlet"].params)
        ms = system.modes()
        st0 = system.synthesize([(1, 1.0, 0.0)], t=0.37, kind="none")
        fl = local_fields(st0, system)
        expect = ms.energies[1] * np.abs(ms.fields[1]) ** 2
        assert np.max(np.abs(fl.rho.real - expect)) < 1e-12

    def test_single_neutral_mode_energy_density(self):
        # rho_E = E^2 u^2 / (2 mc^2), time independent; j_E identically zero
        system = System(GRID, CATALOG["neumann"].params)
        ms = system.modes()
        for t in (0.0, 0.61):
            st0 = system.synthesize([(2, 1.0, 0.0)], t=t, kind="plus")
            fl = local_fields(st0, system)
            expect = 0.5 * ms.energies[2] ** 2 * ms.fields[2] ** 2
            assert np.max(np.abs(fl.rho_E.real - expect)) < 1e-11
            assert np.max(np.abs(fl.j_E)) < 1e-13

    @pytest.mark.parametrize("n", [64, 257])
    @pytest.mark.parametrize("tag", CATALOG)
    def test_each_field_read_alone_has_the_bits_of_the_field_set(self, tag, n):
        grid = Grid(0.0, math.pi, n)
        for potential in (BUMP, DRIVEN):
            system = System(grid, CATALOG[tag].params, potential)
            states = [charged(system, seed=31, t=0.7)]
            if not system.closure.is_complex:
                states.append(neutral_state(system, seed=32, t=0.7))
            for state in states:
                fields = Snapshot(state, system).fields
                literal = literal_fields(state, system)
                for name in DENSITY_NAMES:
                    alone = getattr(Snapshot(state, system), name)
                    assert alone.tobytes() == getattr(fields, name).tobytes(), name
                    assert alone.tobytes() == getattr(literal, name).tobytes(), name
                # S from the profile the system sampled once, with the bits
                # of a fresh sample
                want = potential.profile.sample(grid.x) * potential.time_factor.value(state.t)
                assert Snapshot(state, system).s.tobytes() == want.tobytes()


class TestTwoComponentPath:
    def test_zero_state(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        from kfglab.core import FvState

        rho, j, rho_e, j_e = two_component_fields(
            FvState(np.zeros(GRID.n), np.zeros(GRID.n)), system
        )
        assert np.all(rho == 0) and np.all(j == 0)
        assert np.all(rho_e == 0) and np.all(j_e == 0)

    def test_neutral_state_charge_density_vanishes(self):
        system = System(GRID, CATALOG["periodic"].params)
        fv = kfg_to_fv(neutral_state(system))
        rho, j, _, _ = two_component_fields(fv, system)
        assert np.max(np.abs(rho)) < 1e-15
        assert np.max(np.abs(j)) < 1e-15

    def test_matches_one_component_path(self):
        system = System(GRID, CATALOG["robin_mit_plus"].params, BUMP)
        st0 = charged(system, seed=5)
        fl = local_fields(st0, system)
        rho, j, rho_e, j_e = two_component_fields(kfg_to_fv(st0), system)
        scale = np.max(np.abs(fl.rho_E))
        assert np.max(np.abs(fl.rho - rho)) <= 1e-12 * scale
        assert np.max(np.abs(fl.j - j)) <= 1e-12 * scale
        assert np.max(np.abs(fl.rho_E - rho_e)) <= 1e-12 * scale
        assert np.max(np.abs(fl.j_E - j_e)) <= 1e-12 * scale


class TestBoundaryCurrents:
    def test_charge_current_equal_ends_permeable(self):
        system = System(Grid(0.0, 2 * math.pi, 96), CATALOG["periodic"].params)
        j_a, j_b = Snapshot(charged(system, seed=3), system).ends[:2]
        assert j_a == pytest.approx(j_b, abs=1e-14)
        assert abs(j_a) > 1e-4

    def test_charge_current_zero_for_neutral_and_dirichlet(self):
        system = System(GRID, CATALOG["periodic"].params)
        j_a, j_b = Snapshot(neutral_state(system), system).ends[:2]
        assert j_a == 0.0 and j_b == 0.0
        sysd = System(GRID, CATALOG["dirichlet"].params)
        j_a, j_b = Snapshot(charged(sysd, seed=2), sysd).ends[:2]
        assert abs(j_a) < 1e-15 and abs(j_b) < 1e-15

    def test_energy_current_formula_matches_direct(self):
        system = System(GRID, params_from_tag("rotation:0.7"))
        st0 = neutral_state(system, seed=8)
        je_a, je_b = Snapshot(st0, system).ends[2:4]  # formula at a, direct at b
        # direct evaluation at a for comparison
        u = system.units
        e_field = 1j * u.hbar * st0.psi_t
        psi_a, _, dpsi_a, _ = endpoint_data(system, st0.psi)
        epsi_a, _, depsi_a, _ = endpoint_data(system, e_field)
        direct_a = (
            np.conj(psi_a) * (-1j * dpsi_a * 0 + -1j * u.hbar * u.c * depsi_a)
            - (-1j * u.hbar * u.c * np.conj(dpsi_a)) * epsi_a
        ) / (2.0 * u.mass * u.c)
        assert je_a == pytest.approx(complex(direct_a), abs=1e-13)
        assert je_a == pytest.approx(je_b, abs=1e-13)

    def test_energy_current_confining_vs_permeable(self):
        confining = System(GRID, CATALOG["robin_mit_plus"].params)
        je_a, je_b = Snapshot(neutral_state(confining, seed=4), confining).ends[2:4]
        assert abs(je_a) < 1e-14 and abs(je_b) < 1e-14
        permeable = System(GRID, CATALOG["rotation:0.0"].params)
        st0 = neutral_state(permeable, seed=4)
        je_a, je_b = Snapshot(st0, permeable).ends[2:4]
        assert je_a == pytest.approx(je_b, abs=1e-14)
        fl = local_fields(st0, permeable)
        assert abs(je_a) > 1e-3 * np.max(np.abs(fl.j_E))

    def test_tensor_current_examples(self):
        sysd = System(GRID, CATALOG["dirichlet"].params)
        a, b = Snapshot(neutral_state(sysd), sysd).ends[4:]
        assert a == 0.0 and b == 0.0 and b - a == 0.0
        sysv = System(GRID, CATALOG["robin_mit_plus"].params)
        a, b = Snapshot(neutral_state(sysv, seed=6), sysv).ends[4:]
        assert abs(a) > 1e-6 and abs(b) > 1e-6 and abs(b - a) > 1e-6
        sysp = System(GRID, CATALOG["periodic"].params)
        # modes 1 and 2 are the free ring's degenerate pair: the probe mixes
        # both members with their own phases, so that no basis of the pair
        # (one member even about the ends, say) makes the end data vanish
        rng = np.random.default_rng(6)
        probe = sysp.synthesize(
            [(k, amp, rng.uniform(0, 2)) for k, amp in ((0, 1.0), (1, 0.8), (2, 0.6))],
            t=0.83, kind="plus",
        )
        a, b = Snapshot(probe, sysp).ends[4:]
        assert abs(a) > 1e-6
        assert b - a == pytest.approx(0.0, abs=1e-14)

    def test_half_current_rate_neutral_zero(self):
        for tag in ("dirichlet", "periodic", "rotation:0.7"):
            system = System(GRID, params_from_tag(tag))
            val = boundary_Ej(neutral_state(system, seed=7), system)
            assert abs(val) <= 1e-12

    def test_half_current_rate_equal_ends_charged(self):
        system = System(Grid(0.0, 2 * math.pi, 96), CATALOG["periodic"].params)
        st0 = charged(system, seed=9)
        val_a = boundary_Ej(st0, system)
        assert abs(val_a) > 1e-6
        assert val_a.real == pytest.approx(0.0, abs=1e-14)  # purely imaginary
        # direct rate at b from the stencil current's time derivative
        u = system.units
        _, psi_b, _, dpsi_b = endpoint_data(system, st0.psi)
        _, psit_b, _, dpsit_b = endpoint_data(system, st0.psi_t)
        val_b = (
            (1j * u.hbar**2 / (2.0 * u.mass))
            * np.imag(np.conj(psit_b) * dpsi_b + np.conj(psi_b) * dpsit_b)
        )
        assert val_a == pytest.approx(complex(val_b), abs=1e-14)

    @pytest.mark.parametrize("tag,make", [
        *((tag, make) for tag in ("dirichlet", "neumann", "robin_mit_minus", "periodic",
                                  "rotation:0.7") for make in (neutral_state, charged)),
        ("quasiperiodic+", charged), ("quasimixed-", charged),
    ])
    def test_direct_ends_equal_the_local_fields(self, tag, make):
        # the b-end (and both tensor ends) are the local densities on the end values
        system = System(GRID, params_from_tag(tag), BUMP)
        st0 = make(system, seed=16)
        fl = local_fields(st0, system)
        _, j_b, _, je_b, jt_a, jt_b = Snapshot(st0, system).ends
        for got, field, i in ((j_b, fl.j, -1), (je_b, fl.j_E, -1),
                              (jt_a, fl.cT10, 0), (jt_b, fl.cT10, -1)):
            scale = max(float(np.max(np.abs(field))), 1e-300)
            assert abs(complex(got) - field[i]) <= 1e-15 * scale


class TestGlobalSummary:
    def test_energy_bracket_real_for_charged_states(self):
        system = System(GRID, CATALOG["antiperiodic"].params, BUMP)
        summ = global_summary(charged(system, seed=11), system)
        assert abs(summ.energy_mean.imag) <= 1e-11 * abs(summ.energy_mean.real)

    def test_momentum_matches_energy_current_for_neutral(self):
        system = System(GRID, CATALOG["rotation:0.0"].params)
        st0 = neutral_state(system, seed=12)
        summ = global_summary(st0, system)
        fl = local_fields(st0, system)
        expect = GRID.integrate(fl.j_E).real  # 1/c with c = 1
        assert summ.momentum_mean.real == pytest.approx(expect, abs=1e-12)

    def test_split_identities_tight(self):
        for tag in ("dirichlet", "robin_mit_minus", "periodic", "rotation:0.7"):
            system = System(GRID, params_from_tag(tag), BUMP)
            summ = global_summary(neutral_state(system, seed=13), system)
            assert summ.energy_split_residual <= 1e-10, tag
            assert summ.current_split_residual <= 1e-10, tag

    def test_positivity_decomposition_terms(self):
        system = System(GRID, CATALOG["dirichlet"].params, BUMP)
        summ = global_summary(neutral_state(system, seed=14), system)
        boundary, kinetic, mass, tderiv, pot = summ.positivity
        assert boundary == pytest.approx(0.0, abs=1e-14)
        assert kinetic > 0 and mass > 0 and tderiv >= 0 and pot >= 0
        total = boundary + kinetic + mass + tderiv + pot
        assert summ.energy_mean.real == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize(
        "tag", ["dirichlet", "robin_mit_plus", "periodic", "rotation:0.0", "quasimixed+"]
    )
    def test_boundary_values_equal_a_fresh_snapshots_ends(self, tag):
        # the summary reuses its own derivatives of psi and E psi
        system = System(GRID, CATALOG[tag].params, BUMP)
        st0 = charged(system, seed=15)
        summ = global_summary(st0, system)
        public = Snapshot(st0, system).ends
        got = (summ.j_a, summ.j_b, summ.jE_a, summ.jE_b, summ.jtildeE_a, summ.jtildeE_b)
        assert [complex(v) for v in got] == [complex(v) for v in public]
        assert [type(v) for v in got] == [type(v) for v in public]

    def test_one_derivation_per_snapshot(self, monkeypatch):
        # psi and E psi are differentiated once each; S is never sampled
        # again: the potential piece and E^2 psi read the profile that the
        # system sampled once
        counts = dict.fromkeys(("DiscreteClosure.dx1", "SpatialProfile.sample"), 0)

        def counting(cls, name):
            original = getattr(cls, name)
            key = f"{cls.__name__}.{name}"

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counting(DiscreteClosure, "dx1")
        counting(SpatialProfile, "sample")
        system = System(GRID, CATALOG["robin_mit_plus"].params, BUMP)
        st0 = charged(system, seed=18)
        counts.update(dict.fromkeys(counts, 0))
        global_summary(st0, system)
        assert counts == {"DiscreteClosure.dx1": 2, "SpatialProfile.sample": 0}

    def test_summary_never_builds_the_fields(self, monkeypatch):
        def no_fields(snap):
            raise AssertionError("global_summary read Snapshot.fields")

        monkeypatch.setattr(Snapshot, "fields", property(no_fields))
        for tag in ("dirichlet", "robin_mit_plus", "periodic", "quasimixed+"):
            system = System(GRID, CATALOG[tag].params, BUMP)
            global_summary(charged(system, seed=19), system)

    @pytest.mark.parametrize("tag,kind", [
        (tag, kind) for tag, entry in CATALOG.items()
        for kind in ("none", "plus", "minus")
        if kind == "none" or entry.params.m2 == 0.0  # neutral needs a real closure
    ])
    def test_matches_the_field_integral_oracle(self, tag, kind):
        # norm, energy_mean and the endpoint currents keep their bits; the
        # quadratic forms differ from the summed fields by round-off only
        system = System(GRID, CATALOG[tag].params, BUMP)
        rng = np.random.default_rng(20)
        state = system.synthesize(
            [(k, float(rng.uniform(0.4, 1.0)), float(rng.uniform(0, 2 * math.pi)))
             for k in range(3)], t=0.7, kind=kind)
        got, want = global_summary(state, system), field_integral_summary(state, system)
        for name in ("t", "norm", "energy_mean", "j_a", "j_b", "jE_a", "jE_b",
                     "jtildeE_a", "jtildeE_b", "surface_term"):
            assert getattr(got, name) == getattr(want, name), name
        row, oracle = got.as_row(), want.as_row()
        scale = max(abs(v) for v in oracle.values())
        for name, value in oracle.items():
            assert abs(row[name] - value) <= 1e-14 * scale, name
        assert abs(got.momentum_mean - want.momentum_mean) <= 1e-14 * scale
        assert abs(got.J_E - want.J_E) <= 1e-14 * scale
        for a, b in zip(got.positivity, want.positivity):
            assert abs(a - b) <= 1e-14 * scale

    def test_overflowing_summary_raises(self):
        # a finite state whose bilinears overflow must not give an inf row
        system = System(GRID, CATALOG["dirichlet"].params)
        st0 = charged(system, seed=18)
        huge = KfgState(1e200 * st0.psi, 1e200 * st0.psi_t, st0.t)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="not finite"):
            global_summary(huge, system)

    def test_norms(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        stn = neutral_state(system)
        assert indefinite_norm(stn, system) == pytest.approx(0.0, abs=1e-14)
        assert dirac_norm(stn, system) > 0.0
        stc = charged(system)
        assert indefinite_norm(stc, system) > 0.0
        assert energy_bracket(stc, system).real > 0.0


class TestContinuityAndDecompositions:
    def test_window_validation(self):
        from kfglab.observables import InsufficientData

        system = System(GRID, CATALOG["dirichlet"].params)
        st0 = neutral_state(system)
        with pytest.raises(InsufficientData):
            continuity_residuals([st0, st0], system)

    def test_static_neutral_energy_law(self):
        system = System(GRID, CATALOG["dirichlet"].params, BUMP)
        st0 = neutral_state(system, seed=15, t=0.0)
        records = evolve(st0, system, EvolutionConfig(dt=GRID.dx / 4, steps=4, record_every=1),
                         majorana="plus")
        res = continuity_residuals([r.state for r in records], system)
        assert res.charge <= 1e-14          # trivially zero densities
        assert res.energy < 5e-3            # second-order small
        assert res.emt_time < 5e-3
        assert res.emt_space < 5e-2

    def test_omitting_source_breaks_laws(self):
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.5),
            time_factor=TimeFactor(kind="sinusoidal", amplitude=1.0, omega=1.4,
                                   phase=0.6),
        )
        system = System(GRID, CATALOG["dirichlet"].params, pot)
        frozen = System(GRID, CATALOG["dirichlet"].params,
                        ScalarPotential(profile=pot.profile,
                                        time_factor=TimeFactor(kind="constant",
                                                               scale=pot.time_factor.value(0.0))))
        st0 = frozen.synthesize([(0, 1.0, 0.4), (1, 0.7, 1.3)], t=0.0, kind="plus")
        records = evolve(st0, system, EvolutionConfig(dt=GRID.dx / 4, steps=4, record_every=1),
                         majorana="plus")
        states = [r.state for r in records]
        res = continuity_residuals(states, system)
        # recompute the energy law without its source term: O(1) violation
        dt = states[1].t - states[0].t
        f = [local_fields(s, system) for s in states]
        k = 2
        d_rho_e = (f[k + 1].rho_E - f[k - 1].rho_E) / (2 * dt)
        grad_j_e = np.gradient(f[k].j_E, GRID.dx, edge_order=2)
        no_source = float(np.max(np.abs((d_rho_e + grad_j_e)[2:-2])))
        assert res.energy < 5e-3
        assert no_source > 50 * res.energy

    def test_decomposition_orders(self):
        resids = {}
        for n in (96, 191):
            grid = Grid(0.0, math.pi, n)
            system = System(grid, CATALOG["mixed_b0"].params, BUMP)
            rng = np.random.default_rng(16)
            st0 = system.synthesize(
                [(0, 1.0, rng.uniform(0, 2)), (2, 0.7, rng.uniform(0, 2))],
                t=0.9, kind="plus",
            )
            resids[n] = decomposition_checks(st0, system)
        fine, coarse = resids[191], resids[96]
        assert coarse["time_split"] <= 1e-12 * coarse["scale"]
        assert 3.3 < coarse["space_split"] / fine["space_split"] < 4.7
        assert 3.3 < coarse["current_split"] / fine["current_split"] < 4.7

    def test_charged_decompositions(self):
        system = System(GRID, CATALOG["periodic"].params, BUMP)
        out = decomposition_checks(charged(system, seed=17), system)
        assert out["time_split"] <= 1e-12 * out["scale"]
        assert out["space_split"] <= 0.1 * out["scale"]
