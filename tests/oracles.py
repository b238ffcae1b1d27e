"""Literal two-component Cayley step, kept as a dense test oracle.

One step maps the full-grid state (psi1, psi2) by
(1 + i dt h / 2 hbar)^(-1) (1 - i dt h / 2 hbar) with the dense 2n x 2n
generator h of `assemble_fv_hamiltonian`: O(n^3) per step, so only for
small grids.  The package steps the algebraically identical wave form
(`kfglab.evolution.CayleyPropagator`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from kfglab.core import FvState, PhysicalUnits
from kfglab.evolution import SingularPropagator
from kfglab.operators import DiscreteHamiltonian, System


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
