"""Boundary-condition family: parameterization, closures, classification."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import kfglab
from kfglab.bc import (
    ALG_TOL,
    BcParams,
    CATALOG,
    CONFINING_SOLUTIONS,
    CoupledBc,
    InvalidParams,
    NotMajoranaCompatible,
    SeparatedBc,
    WrongBranch,
    bc_realization,
    check_confining_conditions,
    check_energy_condition,
    check_tau1_condition,
    classify,
    confining_system_residual,
    enumerate_confining_solutions,
    enumerate_energy_slice_solutions,
    m_matrix,
    match_catalog,
    params_from_tag,
)
from oracles import majorana_restrict, u2_matrix


def random_params(draw_m2=False):
    comps = st.tuples(*([st.floats(-1, 1, allow_nan=False)] * 4))
    mu = st.floats(0.0, math.pi - 1e-9, allow_nan=False)

    def build(t):
        (m0, m1, m2, m3), m = t
        if not draw_m2:
            m2 = 0.0
        norm = math.sqrt(m0**2 + m1**2 + m2**2 + m3**2)
        assume(norm > 0.2)
        return BcParams(m0 / norm, m1 / norm, m2 / norm, m3 / norm, m)

    return st.tuples(comps, mu).map(build)


class TestParams:
    def test_unit_norm_enforced(self):
        with pytest.raises(InvalidParams):
            BcParams(0.5, 0.0, 0.0, 0.0, 0.0)

    def test_mu_normalized_with_sign_flip(self):
        p = BcParams(1.0, 0.0, 0.0, 0.0, math.pi + 0.25)
        assert 0.0 <= p.mu < math.pi
        assert p.mu == pytest.approx(0.25)
        assert p.m0 == -1.0  # odd pi-step flips every component

    def test_mu_normalization_preserves_u2_matrix(self):
        # (m, mu + pi) and (-m, mu) are the same U(2) element; folding must
        # keep the matrix of the *input* data
        p1 = BcParams(0.6, 0.8, 0.0, 0.0, 0.7)
        p2 = BcParams(0.6, 0.8, 0.0, 0.0, 0.7 + math.pi)
        assert np.allclose(u2_matrix(p2), -u2_matrix(p1), atol=1e-13)
        p3 = BcParams(-0.6, -0.8, 0.0, 0.0, 0.7)
        assert np.allclose(u2_matrix(p2), u2_matrix(p3), atol=1e-13)

    def test_exact_trig_override(self):
        p = BcParams(0.0, 1.0, 0.0, 0.0, math.pi / 2, cos_mu=0.0, sin_mu=1.0)
        assert p.cos_mu == 0.0 and p.sin_mu == 1.0


class TestU2Matrix:
    def test_dirichlet_is_minus_identity(self):
        u = u2_matrix(CATALOG["dirichlet"].params)
        assert np.allclose(u, -np.eye(2), atol=1e-15)

    def test_neumann_is_identity(self):
        u = u2_matrix(CATALOG["neumann"].params)
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_swap_case(self):
        p = BcParams(0.0, 1.0, 0.0, 0.0, math.pi / 2, cos_mu=0.0, sin_mu=1.0)
        assert np.allclose(u2_matrix(p), np.array([[0, 1], [1, 0]]), atol=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=random_params(draw_m2=True))
    def test_unitary(self, p):
        u = u2_matrix(p)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=random_params())
    def test_complex_symmetric_in_neutral_sector(self, p):
        u = u2_matrix(p)
        assert np.max(np.abs(u - u.T)) < 1e-12


class TestMajoranaRestrict:
    def test_dirichlet_unchanged(self):
        p = majorana_restrict(CATALOG["dirichlet"].params)
        assert p.m0 == -1.0 and p.m2 == 0.0

    def test_renormalization(self):
        p = majorana_restrict(BcParams(0.6, 0.0, 0.8, 0.0, 0.0))
        assert p.m0 == pytest.approx(1.0)
        assert p.m2 == 0.0

    def test_pure_complex_rejected(self):
        with pytest.raises(NotMajoranaCompatible):
            majorana_restrict(CATALOG["quasiperiodic+"].params)
        with pytest.raises(NotMajoranaCompatible):
            majorana_restrict(CATALOG["quasimixed+"].params)


class TestRealizations:
    def test_periodic_couples_with_identity(self):
        real = m_matrix(CATALOG["periodic"].params)
        assert isinstance(real, CoupledBc)
        assert np.allclose(real.matrix, np.eye(2), atol=1e-15)

    def test_antiperiodic_couples_with_minus_identity(self):
        real = m_matrix(CATALOG["antiperiodic"].params)
        assert np.allclose(real.matrix, -np.eye(2), atol=1e-15)

    def test_dirichlet_separated_pinning(self):
        real = m_matrix(CATALOG["dirichlet"].params)
        assert isinstance(real, SeparatedBc)
        assert (real.alpha_a, real.beta_a) == pytest.approx((1.0, 0.0))
        assert (real.alpha_b, real.beta_b) == pytest.approx((1.0, 0.0))

    def test_robin_pair_signs(self):
        real = m_matrix(CATALOG["robin_mit_plus"].params)
        assert isinstance(real, SeparatedBc)
        # psi(a) - lam psi_x(a) = 0 and psi(b) + lam psi_x(b) = 0
        assert real.alpha_a / real.beta_a == pytest.approx(-1.0)
        assert real.alpha_b / real.beta_b == pytest.approx(1.0)

    def test_m2_rejected_by_majorana_path(self):
        with pytest.raises(NotMajoranaCompatible):
            m_matrix(CATALOG["quasiperiodic+"].params)

    def test_complex_closure_has_unit_modulus_det(self):
        real = bc_realization(CATALOG["quasimixed+"].params)
        assert isinstance(real, CoupledBc)
        assert not real.is_real
        assert abs(abs(real.det) - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p=random_params())
    def test_coupled_det_one_and_symplectic(self, p):
        assume(abs(p.m1) > 1e-6)
        real = m_matrix(p)
        assert isinstance(real, CoupledBc)
        m = real.matrix
        # entries scale like 1/m1, so the identities hold relative to |M|^2
        scale = max(1.0, float(np.max(np.abs(m))) ** 2)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12 * scale
        symplectic_j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(m.T @ symplectic_j @ m - symplectic_j)) < 1e-11 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(p=random_params())
    def test_inverse_substitution_rule(self, p):
        # flipping (m0, m3) signs together with cos(mu) produces the inverse map
        assume(abs(p.m1) > 1e-3)
        assume(0.05 < p.mu < math.pi - 0.05)
        q = BcParams(-p.m0, p.m1, 0.0, -p.m3, math.pi - p.mu)
        m = m_matrix(p).matrix
        minv = m_matrix(q).matrix
        assert np.max(np.abs(minv @ m - np.eye(2))) < 1e-10


class TestConditionChecks:
    def test_confining_conditions_catalog(self):
        assert check_confining_conditions(CATALOG["dirichlet"].params) is True
        assert check_confining_conditions(CATALOG["mixed_a0"].params) is True
        assert check_confining_conditions(CATALOG["robin_mit_plus"].params) is False
        assert check_confining_conditions(CATALOG["robin_mit_minus"].params) is False

    def test_confining_conditions_are_the_confining_system(self):
        # one zero set: the check reads the residual of the six equations
        points = [e.params for e in CATALOG.values() if e.params.m1 == e.params.m2 == 0.0]
        for m0, m3, mu in CONFINING_SOLUTIONS:
            theta = math.atan2(m3, m0)
            for eps in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6):
                points.append(BcParams(math.cos(theta + eps), 0.0, 0.0,
                                       math.sin(theta + eps), mu))
                points.append(BcParams(m0, 0.0, 0.0, m3, abs(mu + eps)))
        assert len(points) > 48
        for p in points:
            expect = confining_system_residual(p.m0, p.m3, p.cos_mu, p.sin_mu) <= ALG_TOL
            assert check_confining_conditions(p) is expect, p

    def test_confining_conditions_wrong_branch(self):
        with pytest.raises(WrongBranch):
            check_confining_conditions(CATALOG["periodic"].params)

    def test_tau1_condition_catalog(self):
        assert check_tau1_condition(m_matrix(CATALOG["periodic"].params)) is True
        assert check_tau1_condition(m_matrix(CATALOG["antiperiodic"].params)) is True
        assert check_tau1_condition(m_matrix(params_from_tag("rotation:0.0"))) is False

    def test_tau1_condition_wrong_branch(self):
        with pytest.raises(WrongBranch):
            check_tau1_condition(m_matrix(CATALOG["dirichlet"].params))

    def test_energy_condition_catalog(self):
        assert check_energy_condition(CATALOG["dirichlet"].params) is True
        assert check_energy_condition(CATALOG["neumann"].params) is False
        assert check_energy_condition(CATALOG["periodic"].params) is True
        assert check_energy_condition(CATALOG["antiperiodic"].params) is True
        assert check_energy_condition(CATALOG["mixed_a0"].params) is False
        assert check_energy_condition(CATALOG["robin_mit_plus"].params) is False


class TestClassify:
    def test_dirichlet_report(self):
        rep = classify(CATALOG["dirichlet"].params)
        assert rep.majorana_compatible and rep.confining
        assert rep.tau1_condition and rep.energy_condition
        assert rep.named_match == "dirichlet" and rep.roman == "(i)"

    def test_robin_report(self):
        rep = classify(CATALOG["robin_mit_plus"].params)
        assert rep.majorana_compatible and rep.confining
        assert rep.tau1_condition is False and rep.energy_condition is False
        assert rep.roman == "(v)"

    def test_quasimixed_report(self):
        rep = classify(CATALOG["quasimixed+"].params)
        assert rep.majorana_compatible is False and rep.confining is False
        assert rep.tau1_condition is None and rep.energy_condition is None
        assert rep.roman == "(xii)"

    def test_catalog_round_trip(self):
        for tag in CATALOG:
            rep = classify(params_from_tag(tag))
            assert rep.named_match == tag, tag

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=random_params(draw_m2=True), lam=st.floats(0.1, 10.0))
    def test_lambda_invariance(self, p, lam):
        a = classify(p)
        b = classify(p.with_lam(lam))
        assert a.majorana_compatible == b.majorana_compatible
        assert a.confining == b.confining
        assert a.tau1_condition == b.tau1_condition
        assert a.energy_condition == b.energy_condition

    def test_rotation_family_romans(self):
        assert classify(params_from_tag("rotation:0.7")).roman == "(ix)"
        assert classify(params_from_tag("rotation:0.0")).roman == "(x)"
        assert classify(params_from_tag("rotation:1.5707963267948966")).roman == "(vii)"


class TestEnumeration:
    def test_four_clusters(self):
        found = enumerate_confining_solutions(10_000, 1e-6, seed=3)
        assert len(found) == 4
        for m0, m3, mu in CONFINING_SOLUTIONS:
            d = min(
                math.hypot(p[0] - m0, p[1] - m3, math.cos(p[2]) - math.cos(mu),
                           math.sin(p[2]) - math.sin(mu))
                for p in found
            )
            assert d < 1e-4

    def test_exact_catalog_points_at_zero_tol(self):
        for tag in ("dirichlet", "neumann", "mixed_a0", "mixed_b0"):
            p = CATALOG[tag].params
            assert confining_system_residual(p.m0, p.m3, p.cos_mu, p.sin_mu) == 0.0, tag

    @pytest.mark.parametrize("samples", [10_000, 100_000])
    @pytest.mark.parametrize("seed", range(5))
    def test_searches_land_on_exact_points(self, seed, samples):
        found = enumerate_confining_solutions(samples, 1e-6, seed=seed)
        assert len(found) == 4
        for m0, m3, mu in CONFINING_SOLUTIONS:
            d = min(
                math.hypot(p[0] - m0, p[1] - m3, math.cos(p[2]) - math.cos(mu),
                           math.sin(p[2]) - math.sin(mu))
                for p in found
            )
            assert d < 1e-14
        mus = enumerate_energy_slice_solutions(samples, 1e-6, seed=seed)
        assert len(mus) == 1
        assert abs(mus[0] - math.pi / 2) < 1e-14

    def test_robin_points_fail_the_system(self):
        p = CATALOG["robin_mit_plus"].params
        assert confining_system_residual(p.m0, p.m3, p.cos_mu, p.sin_mu) > 0.5

    def test_energy_slice_unique_angle(self):
        mus = enumerate_energy_slice_solutions(10_000, 1e-6, seed=5)
        assert len(mus) == 1
        assert mus[0] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            enumerate_confining_solutions(100, 1e-6)


def _literal_energy_checks(p):
    """The five energy-condition expressions, written out term by term."""
    c, s = p.cos_mu, p.sin_mu
    return [
        (p.m3 + s) * (p.m0 + c),
        (p.m3 + s) ** 2 - p.m1**2,
        (p.m0 + c) ** 2,
        (-p.m3 + s) * (p.m0 + c),
        (-p.m3 + s) ** 2 - p.m1**2,
    ]


def _energy_oracle_points():
    tags = [*CATALOG, "quasiperiodic-", "quasimixed-", "rotation:0.7", "rotation:2.1:-"]
    points = [params_from_tag(t) for t in tags]
    rng = np.random.default_rng(17)
    for k in range(200):
        m = rng.normal(size=4)
        if k % 2:
            m[2] = 0.0  # half of them in the Majorana sector
        m /= np.linalg.norm(m)
        points.append(BcParams(*m.tolist(), float(rng.uniform(0.0, math.pi))))
    return points


def test_energy_condition_matches_literal_form_bit_for_bit():
    for p in _energy_oracle_points():
        defect = max(abs(v) for v in _literal_energy_checks(p))
        for tol in (ALG_TOL, defect, math.nextafter(defect, -math.inf)):
            expected = all(abs(v) <= tol for v in _literal_energy_checks(p))
            assert check_energy_condition(p, tol) is expected, p
        details = classify(p).details
        if abs(p.m2) <= ALG_TOL:
            assert details["endpoint_weight_defect"] == defect, p
        else:
            assert "endpoint_weight_defect" not in details


def test_cli_import_leaves_scipy_optimize_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kfglab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, kfglab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestTagsAndCatalog:
    def test_twelve_entries(self):
        assert len(CATALOG) == 12
        romans = [e.roman for e in CATALOG.values()]
        assert romans == ["(i)", "(ii)", "(iii)", "(iv)", "(v)", "(vi)",
                          "(vii)", "(viii)", "(ix)", "(x)", "(xi)", "(xii)"]

    def test_unknown_tag(self):
        with pytest.raises(InvalidParams):
            params_from_tag("moebius")

    def test_rotation_tag_parsing(self):
        p = params_from_tag("rotation:0.25")
        assert p.m1 == 1.0 and p.mu == pytest.approx(0.25)
        q = params_from_tag("rotation:0.25:-")
        assert q.m1 == -1.0

    def test_minus_sign_partners(self):
        p = params_from_tag("quasiperiodic-")
        assert p.m2 == -1.0
        assert match_catalog(p)[1] == "(xi)"
