"""Discrete operator assembly, spectra, and state synthesis."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kfglab.core import (NATURAL_UNITS, Grid, PhysicalUnits, ScalarPotential, SpatialProfile,
                         TimeFactor)
from kfglab.bc import BcParams, CATALOG, bc_realization, params_from_tag
from kfglab.operators import (
    Bands,
    InvalidMode,
    KineticMatrix,
    SingularClosure,
    System,
    assemble_kinetic,
    eigenmodes,
    pseudo_hermiticity_defect,
    synthesize_state,
)
from oracles import assemble_fv_hamiltonian, dense_pseudo_hermiticity_defect

GRID = Grid(0.0, math.pi, 128)
FREE = ScalarPotential()
UNIT_SYSTEMS = (NATURAL_UNITS, PhysicalUnits(hbar=2.0, c=3.0, mass=0.5))


def random_neutral_params():
    comps = st.tuples(*([st.floats(-1, 1, allow_nan=False)] * 3))
    mu = st.floats(0.0, math.pi - 1e-9, allow_nan=False)

    def build(t):
        (m0, m1, m3), m = t
        norm = math.sqrt(m0**2 + m1**2 + m3**2)
        assume(norm > 0.2)
        return BcParams(m0 / norm, m1 / norm, 0.0, m3 / norm, m)

    return st.tuples(comps, mu).map(build)


class TestAssembly:
    def test_all_catalog_closures_self_adjoint(self):
        for tag, entry in CATALOG.items():
            kin = assemble_kinetic(GRID, FREE, bc_realization(entry.params))
            assert kin.hermiticity_defect <= 1e-12, tag

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=random_neutral_params())
    def test_random_neutral_closures_self_adjoint(self, p):
        kin = assemble_kinetic(GRID, FREE, bc_realization(p))
        assert kin.hermiticity_defect <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=random_neutral_params())
    def test_ghosts_enforce_coupling_map_for_any_field(self, p):
        # the ghost construction makes the endpoint data of an *arbitrary*
        # grid field satisfy the boundary relations identically, which is why
        # endpoint-balance statements hold to round-off
        from kfglab.bc import CoupledBc, SeparatedBc

        real = bc_realization(p)
        closure = System(GRID, p).closure
        rng = np.random.default_rng(0)
        field = rng.normal(size=GRID.n) + 1j * rng.normal(size=GRID.n)
        if closure.pinned:
            field[list(closure.pinned)] = 0.0
        if closure.slaved is not None:
            pt, factor = closure.slaved
            field[pt] = factor * field[0]
        d1 = closure.dx1(field)
        lam = p.lam
        data_a = np.array([field[0], lam * d1[0]])
        data_b = np.array([field[-1], lam * d1[-1]])
        if isinstance(real, CoupledBc):
            resid = np.max(np.abs(data_b - real.matrix @ data_a))
        else:
            assert isinstance(real, SeparatedBc)
            resid = 0.0
            if abs(real.beta_a) > 1e-10:
                resid = max(resid, abs(real.alpha_a * data_a[0] + real.beta_a * data_a[1]))
            if abs(real.beta_b) > 1e-10:
                resid = max(resid, abs(real.alpha_b * data_b[0] + real.beta_b * data_b[1]))
        scale = max(float(np.max(np.abs(field))) / GRID.dx, 1.0)
        assert resid <= 1e-12 * scale

    def test_coupled_closures_have_corner_entries(self):
        kin = assemble_kinetic(GRID, FREE, bc_realization(params_from_tag("rotation:0.7")))
        n = kin.n_dof
        assert abs(kin.sym[0, n - 1]) > 0.0
        assert abs(kin.sym[n - 1, 0]) > 0.0

    def test_dirichlet_assembly_passes_tight_check(self):
        grid = Grid(0.0, math.pi, 64)
        kin = assemble_kinetic(grid, FREE, bc_realization(CATALOG["dirichlet"].params))
        h = assemble_fv_hamiltonian(kin)
        assert h.pseudo_hermiticity_defect <= 1e-14

    def test_zero_kinetic_hamiltonian_is_mass_block(self):
        # a kinetic matrix equal to (mc^2)^2 gives h = mc^2 tau_3 exactly
        kin = assemble_kinetic(GRID, FREE, bc_realization(CATALOG["neumann"].params))
        nd = kin.n_dof
        flat = KineticMatrix(
            closure=kin.closure, units=kin.units, t=0.0, diag=kin.diag,
            kinetic_bands=Bands(np.zeros(nd), np.zeros(nd - 1), np.zeros(nd - 1), 0.0, 0.0),
            hermiticity_defect=0.0,
        )
        h = assemble_fv_hamiltonian(flat)
        expect = np.zeros((2 * nd, 2 * nd), dtype=complex)
        expect[:nd, :nd] = np.eye(nd)
        expect[nd:, nd:] = -np.eye(nd)
        assert np.max(np.abs(h.matrix - expect)) == 0.0

    def test_corner_perturbation_breaks_pseudo_hermiticity_linearly(self):
        kin = assemble_kinetic(GRID, FREE, bc_realization(CATALOG["periodic"].params))
        h = assemble_fv_hamiltonian(kin).matrix
        nd = kin.n_dof
        for eps in (1e-4, 1e-6):
            bad = h.copy()
            bad[0, nd - 1] += eps  # one corner of the kinetic block only
            defect = dense_pseudo_hermiticity_defect(bad) * np.linalg.norm(bad)
            assert 0.1 * eps < defect < 10.0 * eps

    @pytest.mark.parametrize("units", UNIT_SYSTEMS, ids=["natural", "dimensional"])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_band_defect_matches_the_dense_hamiltonian_on_the_catalog(self, n, units):
        grid = Grid(0.0, math.pi, n)
        for tag, entry in CATALOG.items():
            kin = assemble_kinetic(grid, FREE, bc_realization(entry.params), units)
            fast = pseudo_hermiticity_defect(kin)
            dense = assemble_fv_hamiltonian(kin).pseudo_hermiticity_defect
            assert fast <= 1.3e-16 and dense <= 1.3e-16, (tag, fast, dense)

    @pytest.mark.parametrize("units", UNIT_SYSTEMS, ids=["natural", "dimensional"])
    @pytest.mark.parametrize("tag", ["dirichlet", "neumann", "periodic", "rotation:0.7",
                                     "quasimixed+"])
    def test_band_defect_matches_the_dense_hamiltonian_off_hermiticity(self, tag, units):
        # a random term of relative size `size` on the upper band alone makes
        # K non-Hermitian; the dense oracle's own cancellation error sets the
        # absolute floor
        kin = assemble_kinetic(Grid(0.0, math.pi, 64), FREE,
                               bc_realization(params_from_tag(tag)), units)
        bands = kin.kinetic_bands
        rng = np.random.default_rng(7)
        for size in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
            noise = rng.standard_normal(bands.upper.shape)
            if np.iscomplexobj(bands.upper):
                noise = noise + 1j * rng.standard_normal(bands.upper.shape)
            noise *= size * np.linalg.norm(bands.upper) / np.linalg.norm(noise)
            bad = dataclasses.replace(
                kin, kinetic_bands=dataclasses.replace(bands, upper=bands.upper + noise))
            fast = pseudo_hermiticity_defect(bad)
            dense = assemble_fv_hamiltonian(bad).pseudo_hermiticity_defect
            assert fast > 0.0
            assert abs(fast - dense) <= 1e-15 + 1e-12 * dense, (size, fast, dense)

    def test_identifying_closure_requires_matched_potential(self):
        lopsided = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=0.0, coefficient=0.2)
        )
        with pytest.raises(SingularClosure):
            assemble_kinetic(GRID, lopsided, bc_realization(CATALOG["periodic"].params))
        # separated closures accept any profile
        assemble_kinetic(GRID, lopsided, bc_realization(CATALOG["dirichlet"].params))


class TestSpectra:
    def test_dirichlet_dispersion(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        ms = system.modes()
        for k in range(1, 6):
            exact = math.sqrt(1.0 + k**2)
            assert ms.energies[k - 1] == pytest.approx(exact, rel=5e-3)

    def test_neumann_constant_mode(self):
        system = System(GRID, CATALOG["neumann"].params)
        assert system.modes().energies[0] ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_periodic_double_degeneracy(self):
        system = System(Grid(0.0, 2 * math.pi, 128), CATALOG["periodic"].params)
        e2 = system.modes().energies ** 2
        assert e2[0] == pytest.approx(1.0, abs=1e-10)
        assert e2[1] == pytest.approx(2.0, rel=1e-3)
        assert e2[2] == pytest.approx(e2[1], abs=1e-9)

    def test_second_order_eigenvalue_convergence(self):
        errs = []
        for n in (64, 127):
            system = System(Grid(0.0, math.pi, n), CATALOG["dirichlet"].params)
            errs.append(abs(system.modes().energies[2] ** 2 - (1.0 + 9.0)))
        ratio = errs[0] / errs[1]
        assert 3.6 < ratio < 4.4

    def test_constant_potential_shifts_spectrum_exactly(self):
        s0 = 0.37
        shifted = ScalarPotential(profile=SpatialProfile(kind="constant", value=s0))
        base = eigenmodes(assemble_kinetic(GRID, FREE, bc_realization(CATALOG["dirichlet"].params)))
        up = eigenmodes(assemble_kinetic(GRID, shifted, bc_realization(CATALOG["dirichlet"].params)))
        assert np.allclose(
            up.energies ** 2, base.energies ** 2 + 2.0 * s0, atol=1e-10
        )

    def test_negative_modes_quarantined(self):
        system = System(GRID, CATALOG["robin_mit_minus"].params)
        ms = system.modes()
        assert len(ms.diagnostics) == 1
        assert ms.diagnostics[0][1] < 0.0
        assert np.all(ms.energies > 0.0)

    def test_confining_spectra_stay_above_mass_gap(self):
        # with S >= 0 every eigenvalue of the four balanced confining
        # closures exceeds (mc^2)^2 (no boundary term to dip below the gap)
        pot = ScalarPotential(
            profile=SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.5),
            nonneg=True,
        )
        for tag in ("dirichlet", "neumann", "mixed_a0", "mixed_b0"):
            kin = assemble_kinetic(GRID, pot, bc_realization(CATALOG[tag].params))
            vals = np.linalg.eigvalsh(kin.sym)
            assert np.min(vals) > 1.0 - 1e-10, tag

    def test_rotation_family_near_angle_boundary(self):
        # behavior at mu -> pi^- is outside any analytic claim; assembly and
        # classification must still go through
        from kfglab.bc import classify

        p = params_from_tag(f"rotation:{math.pi - 1e-6}")
        kin = assemble_kinetic(GRID, FREE, bc_realization(p))
        assert kin.hermiticity_defect <= 1e-12
        rep = classify(p)
        assert rep.majorana_compatible and not rep.confining

    def test_modes_orthonormal_under_grid_weights(self):
        for tag in ("mixed_a0", "periodic", "rotation:0.7"):
            system = System(GRID, params_from_tag(tag))
            ms = system.modes()
            w = GRID.trapezoid_weights
            k = min(6, ms.count)
            gram = np.einsum("in,n,jn->ij", np.conj(ms.fields[:k]), w, ms.fields[:k])
            assert np.max(np.abs(gram - np.eye(k))) < 1e-12, tag

    def test_mode_equation_residual(self):
        system = System(GRID, CATALOG["mixed_b0"].params)
        kin = system.kinetic()
        ms = system.modes()
        for k in (0, 3, 7):
            u = ms.fields[k]
            resid = system.e2_apply(u) - ms.energies[k] ** 2 * u
            assert np.max(np.abs(resid)) <= 1e-8 * np.linalg.norm(kin.sym)


class TestSynthesis:
    def test_single_mode_at_zero_phase(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        ms = system.modes()
        st0 = synthesize_state(ms, [(0, 1.0, 0.0)], t=0.0, kind="plus")
        assert np.allclose(st0.psi, ms.fields[0])
        assert np.allclose(st0.psi_t, 0.0)

    def test_single_mode_periodicity(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        ms = system.modes()
        period = 2 * math.pi / ms.energies[0]
        s0 = synthesize_state(ms, [(0, 1.0, 0.0)], t=0.0, kind="plus")
        s1 = synthesize_state(ms, [(0, 1.0, 0.0)], t=period, kind="plus")
        assert np.allclose(s0.psi, s1.psi, atol=1e-12)
        assert np.allclose(s0.psi_t, s1.psi_t, atol=1e-12)

    def test_two_mode_energy_bracket_constant(self):
        from oracles import energy_bracket

        system = System(GRID, CATALOG["dirichlet"].params)
        ms = system.modes()
        a1, a2 = 0.8, 0.5
        expect = 0.5 * (a1**2 * ms.energies[0] ** 2 + a2**2 * ms.energies[1] ** 2)
        for t in (0.0, 0.43, 1.7):
            st0 = synthesize_state(ms, [(0, a1, 0.2), (1, a2, 1.0)], t=t, kind="plus")
            assert energy_bracket(st0, system).real == pytest.approx(expect, rel=1e-12)

    def test_synthesized_state_exactly_on_shell(self):
        system = System(GRID, CATALOG["robin_mit_plus"].params)
        st0 = system.synthesize([(0, 1.0, 0.3), (2, 0.5, 0.9)], t=0.7, kind="plus")
        # E^2 psi from the operator equals -hbar^2 psi_tt of the synthesis
        ms = system.modes()
        psi_tt = -sum(
            amp * e**2 * math.cos(e * st0.t + ph) * u
            for (e, u, amp, ph) in [
                (ms.energies[0], ms.fields[0], 1.0, 0.3),
                (ms.energies[2], ms.fields[2], 0.5, 0.9),
            ]
        )
        assert np.max(np.abs(system.e2_apply(st0.psi) + psi_tt)) < 1e-11

    def test_majorana_tags_exact(self):
        system = System(GRID, CATALOG["neumann"].params)
        plus = system.synthesize([(0, 1.0, 0.4)], t=0.3, kind="plus")
        minus = system.synthesize([(0, 1.0, 0.4)], t=0.3, kind="minus")
        assert plus.majorana_deviation("plus") == 0.0
        assert minus.majorana_deviation("minus") == 0.0

    def test_invalid_mode_index(self):
        system = System(GRID, CATALOG["dirichlet"].params)
        with pytest.raises(InvalidMode):
            system.synthesize([(10_000, 1.0, 0.0)], t=0.0, kind="plus")

    def test_complex_closure_rejects_neutral_synthesis(self):
        from kfglab.bc import NotMajoranaCompatible

        system = System(GRID, CATALOG["quasiperiodic+"].params)
        with pytest.raises(NotMajoranaCompatible):
            system.synthesize([(0, 1.0, 0.0)], t=0.0, kind="plus")
        system.synthesize([(0, 1.0, 0.0)], t=0.0, kind="none")

    def test_time_dependent_potential_blocks_modes(self):
        from kfglab.operators import NumericalFailure

        driven = ScalarPotential(time_factor=TimeFactor(kind="sinusoidal"))
        system = System(GRID, CATALOG["dirichlet"].params, driven)
        with pytest.raises(NumericalFailure):
            system.modes()
