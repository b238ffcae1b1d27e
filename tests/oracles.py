"""Literal and reference forms kept as test oracles.

Nothing in `kfglab` reads these: each is either a slow literal form that a
fast package path is compared against, or a reference form of the
boundary algebra, the state maps or the observables that only the tests
compare against.  `tests/test_source.py` keeps it that way: a package
definition that only the tests read fails there, and moves here.

The dense 2n x 2n two-component Hamiltonian h (`assemble_fv_hamiltonian`)
and its dense pseudo-Hermiticity defect check the O(n) defect that
`kfglab.operators.pseudo_hermiticity_defect` reads off K's bands.  The
literal two-component Cayley step maps the full-grid state (psi1, psi2)
by (1 + i dt h / 2 hbar)^(-1) (1 - i dt h / 2 hbar) with that h: O(n^3)
per step, so only for small grids.  The package steps the algebraically
identical wave form (`kfglab.evolution.CayleyPropagator`).  The dense modes solve the dense
Hermitian K (`KineticMatrix.sym`) with `scipy.linalg.eigh`, O(n^3); the
package solves every mode set from the bands.  The field-integral summary
sums the local densities that `global_summary` reads as quadratic forms.
The literal fields build all nine local fields in one pass from a fresh
sample of S, in the operation order of the definitions, against which the
snapshot's one-at-a-time fields are compared bit for bit.
The two brackets and the Dirac norm are integrated on their own, as the
summary's norm and energy read them.  The corner fold builds the banded
step's end responses in one function, from the unit solves and the
capacitance; the package splits that work between `_ShiftedBandsFactor`
and `CayleyPropagator._fold`.  The transform spectra give every E^2 of the
four transform-diagonal closures under a constant potential in closed
form, at any n, where the package solves the bands.  The percent CSV
writer formats every value with one `%.17g` in one `%` over the table,
against which the package's array kernel (`kfglab.cli._format_block`) is
compared byte for byte.

Reference forms: the scattering-form U(2) matrix of a closure and its
neutral-sector restriction; the inverse two-component map; the field scale
and the neutral-sector deviations of a state; the endpoint data with
ghost-consistent derivatives and the half rate of the charge current at a;
and the pointwise splitting residuals of rho_E and j_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from kfglab.bc import NORM_TOL, BcParams, InvalidParams, NotMajoranaCompatible
from kfglab.core import NATURAL_UNITS, FvState, Grid, KfgState, PhysicalUnits, kfg_to_fv
from kfglab.evolution import CayleyPropagator
from kfglab.observables import GlobalSummary, ObservableFields, Snapshot, _density_gradient
from kfglab.operators import (
    DEGENERACY_TOL,
    POSITIVITY_TOL,
    KineticMatrix,
    ModeSet,
    SingularFactor,
    System,
    _flush_subnormals,
    canonical_pairs,
    gauge,
)


def dense_modes(kinetic: KineticMatrix) -> ModeSet:
    """Every mode from the dense `eigh` of K, with the quarantine, canonical
    pairs and gauge of `kfglab.operators.eigenmodes`, at the mode scale of
    the dense K, its infinity norm."""
    vals, vecs = scipy.linalg.eigh(kinetic.sym)
    scale = float(np.linalg.norm(kinetic.sym, np.inf))
    keep = vals > POSITIVITY_TOL * max(1.0, scale)
    closure = kinetic.closure
    fields = canonical_pairs(
        vals[keep], vecs[:, keep].T / np.sqrt(closure.dof_weights), DEGENERACY_TOL * scale
    )
    return ModeSet(
        energies=np.sqrt(vals[keep]),
        fields=closure.extend(gauge(fields)),
        diagnostics=tuple((int(i), float(vals[i])) for i in np.flatnonzero(~keep)),
    )


def transform_spectrum(tag: str, grid: Grid, s0: float, units: PhysicalUnits) -> np.ndarray:
    """Every E^2, ascending, of K on closure `tag` with the constant
    potential s0:
        E^2 = (mc^2)^2 + 2 mc^2 s0 + (hbar c)^2 (4/dx^2) sin^2(theta/2),
    theta over the frequencies of the transform that diagonalizes the
    closure's second difference (Strang, "The discrete cosine transform",
    SIAM Review 41 (1999) 135):
      dirichlet     DST-I on the m = n - 2 interior points, theta = j pi/(m+1);
      neumann       DCT-I on m = n points, theta = j pi/(m-1);
      periodic      the DFT on the ring of m = n - 1 points, theta = 2 pi j/m;
      antiperiodic  the twisted DFT on that ring, theta = (2j+1) pi/m."""
    m = {"dirichlet": grid.n - 2, "neumann": grid.n, "periodic": grid.n - 1,
         "antiperiodic": grid.n - 1}[tag]
    j = np.arange(m)
    theta = {"dirichlet": (j + 1) * np.pi / (m + 1), "neumann": j * np.pi / (m - 1),
             "periodic": 2.0 * np.pi * j / m, "antiperiodic": (2 * j + 1) * np.pi / m}[tag]
    mc2 = units.mc2
    kinetic = (units.hbar * units.c) ** 2 * (4.0 / grid.dx**2) * np.sin(theta / 2.0) ** 2
    return np.sort(mc2**2 + 2.0 * mc2 * s0 + kinetic)


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """2n x 2n first-order-in-time generator in the Hermitian representation.

    Blockwise [[W + mc^2, W], [-W, -W - mc^2]] with W = (K - (mc^2)^2)/(2 mc^2),
    i.e. the discrete p^2/2m + S.  Pseudo-Hermitian: tau_3 h^dag tau_3 = h.
    """

    matrix: np.ndarray
    pseudo_hermiticity_defect: float


def dense_pseudo_hermiticity_defect(h: np.ndarray) -> float:
    """Relative Frobenius defect of tau_3 h^dag tau_3 - h for a dense h."""
    m = h.shape[0] // 2
    t3 = np.ones(2 * m)
    t3[m:] = -1.0
    twisted = t3[:, None] * h.conj().T * t3[None, :]
    return float(np.linalg.norm(twisted - h) / max(np.linalg.norm(h), 1e-300))


def assemble_fv_hamiltonian(kinetic: KineticMatrix) -> DiscreteHamiltonian:
    """The dense two-component Hamiltonian of the closed kinetic matrix."""
    mc2 = kinetic.units.mc2
    nd = kinetic.n_dof
    w_block = (kinetic.sym - mc2**2 * np.eye(nd)) / (2.0 * mc2)
    h = np.zeros((2 * nd, 2 * nd), dtype=np.complex128)
    h[:nd, :nd] = w_block + mc2 * np.eye(nd)
    h[:nd, nd:] = w_block
    h[nd:, :nd] = -w_block
    h[nd:, nd:] = -w_block - mc2 * np.eye(nd)
    return DiscreteHamiltonian(h, dense_pseudo_hermiticity_defect(h))


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
        raise SingularFactor(str(exc)) from exc


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
        raise SingularFactor(str(exc)) from exc
    m = cl.n_dof
    return FvState(
        psi1=cl.extend(out[:m] / sqw),
        psi2=cl.extend(out[m:] / sqw),
        t=state.t + dt,
    )


def corner_fold(prop: CayleyPropagator) -> np.ndarray:
    """The end responses [H; G] of a corner closure's banded step at the
    propagator's current factor, all in one place and apart from
    `_ShiftedBandsFactor`'s rows: the two unit solves z of the factor's
    tridiagonal part, the capacitance from their end entries and the
    coefficients of [p; q] from it, the rows [2q; (2/k) q; 2p; (2/k) p] in
    one product of z, and the four w-half end entries from K's bands."""
    factor, bands, main = prop._factor, prop._kinetic.bands, prop._band[1]
    m = len(main)
    unit = np.zeros((m, 2), dtype=prop._band.dtype, order="F")
    unit[0, 0] = unit[-1, 1] = 1.0
    z = factor.tri_solve(unit, *factor.tri_flags)[0]
    if np.iscomplexobj(z) and not z.imag.any():
        # a real tridiagonal part: the factor solves its unit vectors in
        # real numbers, with these values
        z = np.asfortranarray(z.real)
    _flush_subnormals(z.T)
    top, bottom = (prop._m_scale * bands.corners).tolist()
    unit_ends = z[[0, 1, -2, -1]].tolist()
    (z00, z01), _, _, (z10, z11) = unit_ends
    a, b = 1.0 + top * z10, top * z11
    g, h = bottom * z00, 1.0 + bottom * z01
    det = a * h - b * g
    (p_0, p_1), (q_0, q_1) = ((top * h / det, -top * g / det),
                              (-bottom * b / det, bottom * a / det))
    s = prop._w_half
    scaled = np.array([2.0 * q_0, 2.0 * q_1, s * q_0, s * q_1,
                       2.0 * p_0, 2.0 * p_1, s * p_0, s * p_1]).reshape(4, 2)
    ends = np.empty((4, m), dtype=prop._band.dtype)
    if z.dtype != ends.dtype:
        np.matmul(z, scaled.view(np.float64).reshape(4, 2, 2),
                  out=ends.view(np.float64).reshape(4, -1, 2))
    else:
        np.matmul(scaled, z.T, out=ends)
    _flush_subnormals(ends)
    (q0, q1, q2, q3), (p0, p1, p2, p3) = zip(
        *[(q_0 * z0 + q_1 * z1, p_0 * z0 + p_1 * z1) for z0, z1 in unit_ends])
    d0, d1 = main[::m - 1].tolist()
    u, l = bands.upper[0].item(), bands.lower[-1].item()
    top, bottom = bands.corners.tolist()
    a = -prop._w_scale
    ends[1, 0] = a * (d0 * q0 + u * q1 + top * q3)
    ends[1, -1] = a * (l * q2 + d1 * q3 + bottom * (q0 - 1.0))
    ends[3, 0] = a * (d0 * p0 + u * p1 + top * (p3 - 1.0))
    ends[3, -1] = a * (l * p2 + d1 * p3 + bottom * p0)
    return ends


def pairing_deviation(z: np.ndarray, kind: str, units: PhysicalUnits) -> float:
    """Neutral-sector deviation of a 1-D complex wave vector, read off the
    complex weighted vector itself rather than off a packed stack."""
    m = len(z) // 2
    weighted = np.concatenate([z[:m], (units.hbar / units.mc2) * z[m:]])
    part = weighted.imag if kind == "plus" else weighted.real
    scale = float(max(np.max(np.abs(weighted)), 1e-300))
    return float(np.max(np.abs(part))) / scale


def literal_fields(state: KfgState, system: System) -> ObservableFields:
    """All nine local fields in one pass, each from its definition."""
    u = system.units
    mc2, cp = u.mc2, -1j * u.hbar * u.c
    psi, psi_t = state.psi, state.psi_t
    e_psi, e_psi_star = 1j * u.hbar * psi_t, 1j * u.hbar * np.conj(psi_t)
    d_psi = system.dx1(psi)
    e2_psi = system.e2_apply(psi, state.t)
    cp_psi, cp_psi_star, cp_e_psi = cp * d_psi, cp * np.conj(d_psi), cp * system.dx1(e_psi)
    pot = system.potential
    s = np.asarray(pot.profile.sample(system.grid.x) * pot.time_factor.value(state.t), dtype=float)
    mass_pot = (mc2**2 + 2.0 * mc2 * s) * (np.conj(psi) * psi)
    two_mc = 2.0 * u.mass * u.c
    return ObservableFields(
        t=state.t,
        rho=(np.conj(psi) * e_psi - e_psi_star * psi) / (2.0 * mc2),
        j=(np.conj(psi) * cp_psi - cp_psi_star * psi) / two_mc,
        rho_E=(np.conj(psi) * e2_psi - e_psi_star * e_psi) / (2.0 * mc2),
        j_E=(np.conj(psi) * cp_e_psi - cp_psi_star * e_psi) / two_mc,
        rho_tilde_E=(np.conj(psi) * e2_psi + np.conj(e2_psi) * psi) / (2.0 * mc2),
        T00=(-e_psi_star * e_psi - cp_psi_star * cp_psi + mass_pot) / (2.0 * mc2),
        cT10=-(e_psi_star * cp_psi + cp_psi_star * e_psi) / two_mc,
        T11=(e_psi_star * e_psi + cp_psi_star * cp_psi + mass_pot) / (2.0 * mc2),
        T01_check=-(u.hbar**2 / (2.0 * u.mass)) * (psi_t * np.conj(d_psi) + np.conj(psi_t) * d_psi),
    )


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


def indefinite_norm(state: KfgState, system: System) -> float:
    """<<Psi, Psi>>: trapezoid integral of the charge density."""
    return system.grid.integrate(Snapshot(state, system).rho).real


def energy_bracket(state: KfgState, system: System) -> complex:
    """<<Psi, E Psi>>: trapezoid integral of the proper energy density."""
    return system.grid.integrate(Snapshot(state, system).rho_E)


def dirac_norm(state: KfgState, system: System) -> float:
    """The positive-definite norm of the two-component representation."""
    fv = kfg_to_fv(state, system.units)
    dens = (np.conj(fv.psi1) * fv.psi1 + np.conj(fv.psi2) * fv.psi2).real
    return system.grid.integrate(dens).real


def u2_matrix(params: BcParams) -> np.ndarray:
    """The 2x2 unitary encoding the boundary closure in scattering form."""
    phase = params.cos_mu + 1j * params.sin_mu
    u = phase * np.array(
        [
            [params.m0 - 1j * params.m3, -params.m2 - 1j * params.m1],
            [params.m2 - 1j * params.m1, params.m0 + 1j * params.m3],
        ]
    )
    defect = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if defect > 1e-12:
        raise InvalidParams(f"unitarity defect {defect:.3e}")
    return u


def majorana_restrict(params: BcParams) -> BcParams:
    """Force m2 = 0 (the strictly neutral sector) and renormalize.

    Raises NotMajoranaCompatible for pure-m2 closures (the quasiperiodic and
    quasimixed families), which admit no real solutions.
    """
    rest = params.m0**2 + params.m1**2 + params.m3**2
    if rest < NORM_TOL:
        raise NotMajoranaCompatible(
            "boundary condition is purely complex (m0 = m1 = m3 = 0)"
        )
    r = math.sqrt(rest)
    return replace(
        params, m0=params.m0 / r, m1=params.m1 / r, m2=0.0, m3=params.m3 / r
    )


def fv_to_kfg(state: FvState, units: PhysicalUnits = NATURAL_UNITS) -> KfgState:
    """Inverse of `kfg_to_fv`: psi = psi1 + psi2, psi_t = mc^2 (psi1 - psi2)/(i hbar)."""
    psi = state.psi1 + state.psi2
    psi_t = units.mc2 * (state.psi1 - state.psi2) / (1j * units.hbar)
    return KfgState(psi=psi, psi_t=psi_t, t=state.t)


def field_scale(state: KfgState) -> float:
    """Characteristic field magnitude (for relative tolerances)."""
    return float(max(np.max(np.abs(state.psi)), np.max(np.abs(state.psi_t)), 1e-300))


def majorana_deviation(state: KfgState, kind: str) -> float:
    """Distance from the reality (plus) / pure-imaginarity (minus) condition."""
    if kind == "plus":
        dev = max(np.max(np.abs(state.psi.imag)), np.max(np.abs(state.psi_t.imag)))
    elif kind == "minus":
        dev = max(np.max(np.abs(state.psi.real)), np.max(np.abs(state.psi_t.real)))
    else:
        raise ValueError("kind must be 'plus' or 'minus'")
    return float(dev)


def fv_majorana_deviation(state: FvState, kind: str = "plus") -> float:
    """Max-norm violation of Psi = +/- tau_1 Psi* (component swap + conjugation)."""
    sign = {"plus": 1.0, "minus": -1.0}[kind]
    return float(np.max(np.abs(state.psi2 - sign * np.conj(state.psi1))))


def endpoint_data(system: System, field: np.ndarray):
    """(f_a, f_b, f_x(a), f_x(b)) with ghost-consistent endpoint derivatives."""
    field = np.asarray(field, dtype=np.complex128)
    d1 = system.closure.dx1(field)
    return field[0], field[-1], d1[0], d1[-1]


def boundary_Ej(state: KfgState, system: System) -> complex:
    """Half the time derivative of the charge current at x = a.

    Purely imaginary; vanishes identically for strictly neutral states.
    Uses the endpoint-coupling expression when regular, otherwise the direct
    time derivative of the stencil current.
    """
    u = system.units
    p = system.bc
    psi_a, psi_b, dpsi_a, _ = endpoint_data(system, state.psi)
    psit_a, psit_b, dpsit_a, _ = endpoint_data(system, state.psi_t)
    denom = p.m0 + p.cos_mu
    if abs(denom) > 1e-10:
        q = (p.m1 + 1j * p.m2) / denom
        return complex(
            -(1j * u.hbar**2 / (2.0 * u.mass * p.lam))
            * np.imag(q * (np.conj(psit_a) * psi_b + np.conj(psi_a) * psit_b))
        )
    return complex(
        (1j * u.hbar**2 / (2.0 * u.mass))
        * np.imag(np.conj(psit_a) * dpsi_a + np.conj(psi_a) * dpsit_a)
    )


def decomposition_checks(state: KfgState, system: System) -> dict[str, float]:
    """Pointwise residuals of the density/current splitting identities.

    Time derivatives are taken on shell (psi_tt from the wave equation), so
    the purely temporal split is exact to round-off while the splits
    involving spatial gradients of densities carry the stencil error.
    """
    u = system.units
    mc2 = u.mc2
    dx = system.grid.dx
    snap = Snapshot(state, system)
    psi, e_psi = snap.psi, snap.e_psi
    psi_t = state.psi_t
    psi_tt = -snap.e2_psi / u.hbar**2

    # E applied to Im(psi* E psi), on shell
    f_dot = np.imag(np.conj(psi_t) * e_psi + np.conj(psi) * (1j * u.hbar * psi_tt))
    e_im_psi_epsi = 1j * u.hbar * f_dot
    # E applied to rho, on shell
    rho_dot = (
        1j * u.hbar * (np.conj(psi) * psi_tt - np.conj(psi_tt) * psi)
    ) / (2.0 * mc2)
    e_rho = 1j * u.hbar * rho_dot

    time_split = snap.rho_E - (
        -(1j / (2.0 * mc2)) * e_im_psi_epsi + 0.5 * e_rho + snap.rho_tilde_E
    )

    g = np.imag(np.conj(psi) * snap.cp_psi)
    cp_g = -1j * u.hbar * u.c * _density_gradient(g, dx)
    space_split = snap.rho_E - (
        (1j / (2.0 * mc2)) * cp_g + 0.5 * e_rho + snap.T00
    )

    im_psi_epsi = np.imag(psi * e_psi)  # unconjugated; neutral-sector identity
    current_split = snap.j_E - (
        (u.hbar / (2.0 * u.mass)) * _density_gradient(im_psi_epsi, dx) + snap.cT10
    )

    scale = max(float(np.max(np.abs(snap.rho_E))), 1e-300)
    return {
        "time_split": float(np.max(np.abs(time_split))),
        "space_split": float(np.max(np.abs(space_split))),
        "current_split": float(np.max(np.abs(current_split))),
        "scale": scale,
    }


def percent_csv_bytes(columns: list[str], table, comments: list[str]) -> bytes:
    """The bytes of a CLI CSV with every value formatted by `%.17g`: the
    comment lines, the column names, then one line per row."""
    data = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    head = "".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\n"
    return (head + (row * len(data)) % tuple(data.ravel().tolist())).encode()
