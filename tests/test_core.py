"""Units, grid, potential, and state-representation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kfglab.core import (
    FvState,
    Grid,
    InvalidPotential,
    InvalidState,
    KfgState,
    NATURAL_UNITS,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
    fv_to_kfg,
    kfg_to_fv,
    majorana_project,
)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def complex_fields(n=16):
    re = arrays(np.float64, n, elements=finite_floats)
    im = arrays(np.float64, n, elements=finite_floats)
    return st.tuples(re, im).map(lambda t: t[0] + 1j * t[1])


class TestUnitsAndGrid:
    def test_natural_units_default(self):
        u = PhysicalUnits()
        assert u.hbar == u.c == u.mass == 1.0
        assert u.mc2 == 1.0

    def test_units_must_be_positive(self):
        with pytest.raises(ValueError):
            PhysicalUnits(hbar=0.0)
        with pytest.raises(ValueError):
            PhysicalUnits(mass=-1.0)

    def test_grid_geometry(self):
        g = Grid(0.0, math.pi, 11)
        assert g.dx == pytest.approx(math.pi / 10)
        assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(math.pi)
        assert len(g.x) == 11

    def test_grid_points_built_once_and_read_only(self):
        g = Grid(0.0, math.pi, 11)
        assert g.x is g.x
        assert not g.x.flags.writeable
        assert np.array_equal(g.x, np.linspace(0.0, math.pi, 11))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 16)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 7)

    def test_trapezoid_weights_integrate_linears_exactly(self):
        g = Grid(0.0, 2.0, 33)
        assert g.integrate(np.ones(33)).real == pytest.approx(2.0, abs=1e-14)
        assert g.integrate(g.x).real == pytest.approx(2.0, abs=1e-13)


class TestPotential:
    def test_profiles(self):
        x = np.linspace(0, 1, 9)
        assert np.allclose(SpatialProfile(kind="constant", value=2.0).sample(x), 2.0)
        step = SpatialProfile(kind="step", x0=0.5, left=1.0, right=3.0)
        assert step.sample(x)[0] == 1.0 and step.sample(x)[-1] == 3.0
        quad = SpatialProfile(kind="quadratic", x0=0.5, coefficient=2.0)
        assert quad.sample(x)[0] == pytest.approx(0.5)
        assert quad.gradient(x)[0] == pytest.approx(-2.0)

    def test_time_factors(self):
        tf = TimeFactor(kind="sinusoidal", amplitude=2.0, omega=3.0)
        assert tf.value(0.0) == pytest.approx(0.0)
        assert tf.derivative(0.0) == pytest.approx(6.0)
        lin = TimeFactor(kind="linear", rate=0.5, offset=1.0)
        assert lin.value(2.0) == pytest.approx(2.0)
        assert lin.derivative(9.0) == pytest.approx(0.5)
        assert TimeFactor().is_constant

    def test_static_iff_constant_factor(self):
        assert ScalarPotential().is_static
        driven = ScalarPotential(time_factor=TimeFactor(kind="sinusoidal"))
        assert not driven.is_static

    def test_nonneg_flag_enforced(self):
        pot = ScalarPotential(
            profile=SpatialProfile(kind="constant", value=-1.0), nonneg=True
        )
        with pytest.raises(InvalidPotential):
            pot.sample(np.linspace(0, 1, 8), 0.0)


class TestStateConversions:
    def test_zero_state_maps_to_zero(self):
        st0 = KfgState(np.zeros(8), np.zeros(8))
        fv = kfg_to_fv(st0)
        assert np.all(fv.psi1 == 0) and np.all(fv.psi2 == 0)

    def test_real_static_profile_splits_evenly(self):
        u = np.sin(np.linspace(0, math.pi, 16))
        fv = kfg_to_fv(KfgState(u, np.zeros(16)))
        assert np.allclose(fv.psi1, u / 2)
        assert np.allclose(fv.psi2, u / 2)

    def test_stationary_mode_components(self):
        # psi = e^{-iEt} u with E psi = E psi gives components (1 +/- E)/2
        E, t = 1.7, 0.4
        u = np.cos(np.linspace(0, 1, 12))
        psi = np.exp(-1j * E * t) * u
        psi_t = -1j * E * psi
        fv = kfg_to_fv(KfgState(psi, psi_t, t=t))
        assert np.allclose(fv.psi1, 0.5 * (1 + E) * psi, atol=1e-14)
        assert np.allclose(fv.psi2, 0.5 * (1 - E) * psi, atol=1e-14)

    def test_inverse_of_even_split(self):
        u = np.linspace(0.1, 1.0, 10)
        st1 = fv_to_kfg(FvState(u / 2 + 0j, u / 2 + 0j))
        assert np.allclose(st1.psi, u)
        assert np.allclose(st1.psi_t, 0.0)

    def test_single_component_gives_mass_phase_rate(self):
        u = np.linspace(0.1, 1.0, 10) + 0j
        st1 = fv_to_kfg(FvState(u, np.zeros(10)))
        assert np.allclose(st1.psi, u)
        assert np.allclose(st1.psi_t, -1j * u)  # -i mc^2 u / hbar, natural units

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(psi=complex_fields(), psi_t=complex_fields())
    def test_round_trip_is_identity(self, psi, psi_t):
        st0 = KfgState(psi, psi_t, t=0.3)
        back = fv_to_kfg(kfg_to_fv(st0))
        scale = max(np.max(np.abs(psi)), np.max(np.abs(psi_t)), 1.0)
        assert np.max(np.abs(back.psi - psi)) <= 1e-13 * scale
        assert np.max(np.abs(back.psi_t - psi_t)) <= 1e-13 * scale

    def test_round_trip_dimensional_units(self):
        units = PhysicalUnits(hbar=2.0, c=3.0, mass=0.5)
        rng = np.random.default_rng(1)
        st0 = KfgState(
            rng.normal(size=12) + 1j * rng.normal(size=12),
            rng.normal(size=12) + 1j * rng.normal(size=12),
        )
        back = fv_to_kfg(kfg_to_fv(st0, units), units)
        assert np.max(np.abs(back.psi - st0.psi)) < 1e-13
        assert np.max(np.abs(back.psi_t - st0.psi_t)) < 1e-13

    def test_nonfinite_rejected(self):
        bad = np.ones(8, dtype=complex)
        bad[3] = np.inf
        with pytest.raises(InvalidState):
            KfgState(bad, np.ones(8))
        with pytest.raises(InvalidState):
            FvState(np.ones(8), bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidState):
            KfgState(np.ones(8), np.ones(9))


class TestMajoranaProjection:
    def test_plus_keeps_real_part(self):
        u = np.linspace(0, 1, 9)
        st0 = KfgState((1 + 2j) * u, (1 + 2j) * u)
        out = majorana_project(st0, "plus")
        assert np.allclose(out.psi, u)
        assert out.majorana_deviation("plus") == 0.0

    def test_minus_keeps_imaginary_part(self):
        u = np.linspace(0, 1, 9)
        st0 = KfgState((1 + 2j) * u, np.zeros(9))
        out = majorana_project(st0, "minus")
        assert np.allclose(out.psi, 2j * u)
        assert out.majorana_deviation("minus") == 0.0

    def test_real_state_unchanged(self):
        u = np.linspace(0, 1, 9) + 0j
        st0 = KfgState(u, 2 * u)
        out = majorana_project(st0, "plus")
        assert np.array_equal(out.psi, st0.psi)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(psi=complex_fields(), kind=st.sampled_from(["plus", "minus"]))
    def test_idempotent(self, psi, kind):
        st0 = KfgState(psi, psi[::-1])
        once = majorana_project(st0, kind)
        twice = majorana_project(once, kind)
        assert np.array_equal(once.psi, twice.psi)
        assert np.array_equal(once.psi_t, twice.psi_t)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(psi=complex_fields())
    def test_projected_state_satisfies_two_component_pairing(self, psi):
        # a plus-projected state obeys Psi = tau_1 Psi* in the two-component form
        st0 = majorana_project(KfgState(psi, 0.5 * psi), "plus")
        fv = kfg_to_fv(st0)
        assert fv.majorana_deviation("plus") <= 1e-15 * max(1.0, np.max(np.abs(psi)))
