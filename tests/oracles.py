"""Literal forms kept as test oracles.

The literal two-component Cayley step maps the full-grid state (psi1, psi2)
by (1 + i dt h / 2 hbar)^(-1) (1 - i dt h / 2 hbar) with the dense 2n x 2n
generator h of `assemble_fv_hamiltonian`: O(n^3) per step, so only for
small grids.  The package steps the algebraically identical wave form
(`kfglab.evolution.CayleyPropagator`).  The dense modes solve the dense
Hermitian K (`KineticMatrix.sym`) with `scipy.linalg.eigh`, O(n^3); the
package solves every mode set from the bands.  The field-integral summary
sums the local densities that `global_summary` reads as quadratic forms.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from kfglab.core import FvState, KfgState, PhysicalUnits
from kfglab.evolution import SingularPropagator
from kfglab.observables import GlobalSummary, Snapshot
from kfglab.operators import (
    DEGENERACY_TOL,
    DiscreteHamiltonian,
    KineticMatrix,
    ModeSet,
    System,
    canonical_pairs,
    gauge,
)


def dense_modes(kinetic: KineticMatrix, positivity_tol: float = 1e-12) -> ModeSet:
    """Every mode from the dense `eigh` of K, with the quarantine, canonical
    pairs and gauge of `kfglab.operators.eigenmodes`."""
    vals, vecs = scipy.linalg.eigh(kinetic.sym)
    radius = float(np.max(np.abs(vals)))
    keep = vals > positivity_tol * max(1.0, radius)
    closure = kinetic.closure
    fields = canonical_pairs(
        vals[keep], vecs[:, keep].T / np.sqrt(closure.dof_weights), DEGENERACY_TOL * radius
    )
    return ModeSet(
        energies=np.sqrt(vals[keep]),
        fields=closure.extend(gauge(fields)),
        diagnostics=tuple((int(i), float(vals[i])) for i in np.flatnonzero(~keep)),
    )


def _cayley_matrices(h: np.ndarray, dt: float, hbar: float):
    kappa = 0.5 * dt / hbar
    eye = np.eye(h.shape[0])
    return eye + 1j * kappa * h, eye - 1j * kappa * h


def propagator_matrix(
    h: DiscreteHamiltonian, dt: float, units: PhysicalUnits
) -> np.ndarray:
    """Dense one-step Cayley matrix of the two-component generator."""
    a_plus, a_minus = _cayley_matrices(h.matrix, dt, units.hbar)
    try:
        return scipy.linalg.solve(a_plus, a_minus)
    except scipy.linalg.LinAlgError as exc:
        raise SingularPropagator(str(exc)) from exc


def step_cayley(
    state: FvState, h: DiscreteHamiltonian, dt: float, system: System
) -> FvState:
    """One Cayley step of a full-grid two-component state (literal form)."""
    u = system.units
    cl = system.closure
    sqw = np.sqrt(cl.dof_weights)
    vec = np.concatenate(
        [sqw * cl.restrict(state.psi1), sqw * cl.restrict(state.psi2)]
    )
    a_plus, a_minus = _cayley_matrices(h.matrix, dt, u.hbar)
    try:
        out = scipy.linalg.solve(a_plus, a_minus @ vec)
    except scipy.linalg.LinAlgError as exc:
        raise SingularPropagator(str(exc)) from exc
    m = cl.n_dof
    return FvState(
        psi1=cl.extend(out[:m] / sqw),
        psi2=cl.extend(out[m:] / sqw),
        t=state.t + dt,
    )


def pairing_deviation(z: np.ndarray, kind: str, units: PhysicalUnits) -> float:
    """Neutral-sector deviation of a 1-D complex wave vector, read off the
    complex weighted vector itself rather than off a packed stack."""
    m = len(z) // 2
    weighted = np.concatenate([z[:m], (units.hbar / units.mc2) * z[m:]])
    part = weighted.imag if kind == "plus" else weighted.real
    scale = float(max(np.max(np.abs(weighted)), 1e-300))
    return float(np.max(np.abs(part))) / scale


def field_integral_summary(state: KfgState, system: System) -> GlobalSummary:
    """The global summary integrated from the full set of local fields: the
    densities and staggered current densities are built point by point in
    complex arithmetic and then summed.  `global_summary` reads the same
    integrals as shared quadratic forms without building the fields."""
    u = system.units
    grid = system.grid
    mc2 = u.mc2
    dx = grid.dx
    snap = Snapshot(state, system)
    fields, psi, e_psi, e_psi_star = snap.fields, snap.psi, snap.e_psi, snap.e_psi_star

    norm = grid.integrate(fields.rho).real
    energy_mean = grid.integrate(fields.rho_E)
    cp_e_psi = -1j * u.hbar * u.c * snap.d_e_psi
    momentum_mean = grid.integrate(
        (np.conj(psi) * cp_e_psi - e_psi_star * snap.cp_psi) / (2.0 * mc2)
    )

    dif_psi = (psi[1:] - psi[:-1]) / dx
    dif_e = (e_psi[1:] - e_psi[:-1]) / dx
    mid_psi = 0.5 * (psi[:-1] + psi[1:])
    mid_e = 0.5 * (e_psi[:-1] + e_psi[1:])
    mid_e_star = 0.5 * (e_psi_star[:-1] + e_psi_star[1:])
    cp_dif = -1j * u.hbar * u.c * dif_psi
    cp_dif_star = -1j * u.hbar * u.c * np.conj(dif_psi)
    je_mid = (
        np.conj(mid_psi) * (-1j * u.hbar * u.c * dif_e) - cp_dif_star * mid_e
    ) / (2.0 * u.mass * u.c)
    jt_mid = -(mid_e_star * cp_dif + cp_dif_star * mid_e) / (2.0 * u.mass * u.c)
    # midpoint rule on the n - 1 cells
    j_e_total = complex(dx * np.sum(je_mid))
    jt_total = complex(dx * np.sum(jt_mid)).real

    im_psi_epsi = np.imag(psi * e_psi)
    current_boundary = (u.hbar / (2.0 * u.mass)) * (im_psi_epsi[-1] - im_psi_epsi[0])
    current_split = abs(j_e_total - current_boundary - jt_total)

    surf = (u.hbar / (2.0 * u.mass * u.c)) * (
        np.imag(np.conj(psi[-1]) * (-1j * u.hbar * u.c * snap.d_psi[-1]))
        - np.imag(np.conj(psi[0]) * (-1j * u.hbar * u.c * snap.d_psi[0]))
    )
    abs2 = (np.conj(psi) * psi).real
    kinetic = (u.hbar * u.c) ** 2 / (2.0 * mc2) * dx * float(np.sum(np.abs(dif_psi) ** 2))
    mass_term = 0.5 * mc2 * grid.integrate(abs2).real
    tderiv = u.hbar**2 / (2.0 * mc2) * grid.integrate(np.abs(state.psi_t) ** 2).real
    pot_term = grid.integrate(snap.s * abs2).real
    energy_split = abs(energy_mean - (surf + kinetic + mass_term + tderiv + pot_term))

    j_a, j_b, je_a, je_b, jt_a, jt_b = snap.ends
    return GlobalSummary(
        t=state.t, norm=norm, energy_mean=energy_mean, momentum_mean=momentum_mean,
        J_E=j_e_total, J_tilde_E=jt_total, j_a=j_a, j_b=j_b, jE_a=je_a, jE_b=je_b,
        jtildeE_a=jt_a, jtildeE_b=jt_b, surface_term=float(surf),
        energy_split_residual=float(energy_split),
        current_split_residual=float(current_split),
        positivity=(float(surf), kinetic, mass_term, tderiv, pot_term),
    )
