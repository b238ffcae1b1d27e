"""Acceptance gate: every headline claim at its pinned tolerance.

Each test drives one criterion through the verification machinery and prints
one pass/fail line per named check (run with -s to stream them)."""

import inspect

import pytest

from kfglab.verify import (
    SUITES,
    _conservation_checks,
    check_bc_algebra,
    check_boundary_currents,
    check_continuity_convergence,
    check_dual_path,
    check_positivity,
    check_pseudo_self_adjointness,
    check_spectra,
)


def _gate(checks):
    failures = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: measured={c.measured:.6g} "
              f"tolerance={c.tolerance:.6g}  {c.detail}")
        if not c.passed:
            failures.append(c.name)
    assert not failures, f"failed checks: {failures}"


def test_criterion_1_bc_algebra():
    """Four confining solutions; unique balanced angle; Dirichlet unique; <10 s."""
    _gate(check_bc_algebra())


def test_criterion_2_pseudo_self_adjointness():
    """tau_3 h^dag tau_3 = h to 1e-10 for all 12 catalog closures at n=128."""
    _gate(check_pseudo_self_adjointness())


def test_criterion_3_spectral_dispersion():
    """Dirichlet/Neumann/periodic eigenvalues: second-order error ratios."""
    _gate(check_spectra())


CONSERVATION_NAMES = ("indefinite_norm_conservation", "energy_bracket_conservation")


@pytest.fixture(scope="module")
def conservation_checks():
    """The conservation suite's one pass, shared by criteria 4 and 5."""
    return _conservation_checks()


def test_criterion_4_conservation(conservation_checks):
    """Indefinite norm and energy bracket drift <= 1e-10 over 1e4 steps."""
    _gate([c for c in conservation_checks if c.name in CONSERVATION_NAMES])


def test_criterion_5_majorana_triviality(conservation_checks):
    """rho, j, Im rho_E, Im j_E <= 1e-13 * scale; sector preserved to 1e-12."""
    _gate([c for c in conservation_checks if c.name not in CONSERVATION_NAMES])


def test_criterion_6_boundary_currents():
    """j_E endpoint equality/vanishing and the tensor-current classification."""
    _gate(check_boundary_currents())


def test_criterion_7_positivity_and_splits():
    """Mean-energy positivity; splitting identities at 1e-8; J_E vs J~_E."""
    _gate(check_positivity())


def test_criterion_8_continuity_convergence():
    """All four balance laws shrink by ~4x under simultaneous halving."""
    _gate(check_continuity_convergence())


def test_criterion_9_dual_path():
    """One- vs two-component observables agree to 1e-11 on 100 random states."""
    _gate(check_dual_path())


def test_every_check_takes_no_arguments():
    """Each check states its sizes, seeds and bound in its own body."""
    for checks in SUITES.values():
        for check in checks:
            assert not inspect.signature(check).parameters, check.__name__
