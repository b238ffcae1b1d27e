"""Local observables, endpoint currents, global integrals, and the
continuity residuals that machine-verify the conservation structure.

Quadrature conventions
----------------------
All inner-product-type integrals use the trapezoid weights, the metric under
which the discrete operators are exactly self-adjoint; the gradient-energy
integral and the two global energy currents use staggered (cell-midpoint)
sums.  With these choices the energy-splitting identity
(mean energy = boundary term + energy-momentum-tensor energy) and the
current-splitting identity (J_E = boundary term + J~_E, strictly neutral
states) hold to round-off rather than to discretization order.

Derivatives of *solution* fields (psi and E psi) at the endpoints use the
boundary closure's ghost values, so discrete boundary data satisfies the
coupling relations identically.  Derivatives of *density* fields, which obey
no boundary condition, use plain centered differences with one-sided ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import KfgLabError, KfgState, FvState
from .operators import NumericalFailure, System


class InsufficientData(KfgLabError):
    """Too few snapshots for centered time differencing."""

DENSITY_NAMES = (
    "rho", "j", "rho_E", "j_E", "rho_tilde_E", "T00", "cT10", "T11", "T01_check",
)


@dataclass(frozen=True)
class ObservableFields:
    """Per-grid-point snapshot of every local density and current."""

    t: float
    rho: np.ndarray
    j: np.ndarray
    rho_E: np.ndarray
    j_E: np.ndarray
    rho_tilde_E: np.ndarray
    T00: np.ndarray
    cT10: np.ndarray
    T11: np.ndarray
    T01_check: np.ndarray


def _j(u, psi, cp_psi, cp_psi_star):
    return (np.conj(psi) * cp_psi - cp_psi_star * psi) / (2.0 * u.mass * u.c)


def _j_E(u, psi, e_psi, cp_psi_star, d_e_psi):
    cp_e_psi = -1j * u.hbar * u.c * d_e_psi
    return (np.conj(psi) * cp_e_psi - cp_psi_star * e_psi) / (2.0 * u.mass * u.c)


def _ct10(u, e_psi, e_psi_star, cp_psi, cp_psi_star):
    return -(e_psi_star * cp_psi + cp_psi_star * e_psi) / (2.0 * u.mass * u.c)


def _currents(u, psi, d_psi, e_psi, e_psi_star, d_e_psi):
    """(j, j_E, c T^10), pointwise: on whole fields or on end values."""
    cp_psi = -1j * u.hbar * u.c * d_psi
    cp_psi_star = -1j * u.hbar * u.c * np.conj(d_psi)
    return (_j(u, psi, cp_psi, cp_psi_star), _j_E(u, psi, e_psi, cp_psi_star, d_e_psi),
            _ct10(u, e_psi, e_psi_star, cp_psi, cp_psi_star))


class Snapshot:
    """One derivation per snapshot: psi, E psi, E psi* = -(E psi)* (applied to
    the conjugate) and the ghost-consistent x-derivatives of psi and E psi.
    Everything else is built when first read and kept: c p psi, E^2 psi, S,
    each local field (rho, j, rho_E, j_E, rho_tilde_E, T00, cT10, T11,
    T01_check) on its own, the end currents and the global summary.  A
    reader pays only for the fields it reads; `fields` assembles all nine
    with the same bits.  `ends` is the one endpoint derivation: the
    summary's six end currents, and with them the trajectory columns
    j_a ... jtildeE_b, are read from it."""

    def __init__(self, state: KfgState, system: System):
        u = system.units
        self.state, self.system = state, system
        self.psi = state.psi
        self.e_psi = 1j * u.hbar * state.psi_t
        self.e_psi_star = 1j * u.hbar * np.conj(state.psi_t)
        self.d_psi = system.dx1(self.psi)
        self.d_e_psi = system.dx1(self.e_psi)

    @cached_property
    def cp_psi(self) -> np.ndarray:
        u = self.system.units
        return -1j * u.hbar * u.c * self.d_psi

    @cached_property
    def cp_psi_star(self) -> np.ndarray:
        """c p applied to psi*."""
        u = self.system.units
        return -1j * u.hbar * u.c * np.conj(self.d_psi)

    @cached_property
    def e2_psi(self) -> np.ndarray:
        """E^2 psi at the snapshot's time (`System.e2_apply`'s bits)."""
        return self.system.e2_apply(self.psi, self.state.t)

    @cached_property
    def s(self) -> np.ndarray:
        """S(x, t): the profile `System.potential_diagonal` sampled once,
        times f(t), after its guards; the bits of `ScalarPotential.sample`."""
        diagonal, t = self.system.potential_diagonal, self.state.t
        f = diagonal.time_factor.value(t)
        diagonal.check(f, t)
        return diagonal.profile * f

    @cached_property
    def rho(self) -> np.ndarray:
        """Charge density; the field and the summary's norm read these bits."""
        mc2 = self.system.units.mc2
        return (np.conj(self.psi) * self.e_psi - self.e_psi_star * self.psi) / (2.0 * mc2)

    @cached_property
    def j(self) -> np.ndarray:
        """Charge current."""
        return _j(self.system.units, self.psi, self.cp_psi, self.cp_psi_star)

    @cached_property
    def rho_E(self) -> np.ndarray:
        """Proper energy density; the field and the summary's bracket read these bits."""
        mc2 = self.system.units.mc2
        return (np.conj(self.psi) * self.e2_psi - self.e_psi_star * self.e_psi) / (2.0 * mc2)

    @cached_property
    def j_E(self) -> np.ndarray:
        """Proper energy current."""
        return _j_E(self.system.units, self.psi, self.e_psi, self.cp_psi_star, self.d_e_psi)

    @cached_property
    def rho_tilde_E(self) -> np.ndarray:
        mc2 = self.system.units.mc2
        return (np.conj(self.psi) * self.e2_psi + np.conj(self.e2_psi) * self.psi) / (2.0 * mc2)

    @cached_property
    def _mass_pot(self) -> np.ndarray:
        """((mc^2)^2 + 2 mc^2 S) |psi|^2, the part T00 and T11 share."""
        mc2 = self.system.units.mc2
        return (mc2**2 + 2.0 * mc2 * self.s) * (np.conj(self.psi) * self.psi)

    @cached_property
    def T00(self) -> np.ndarray:
        mc2 = self.system.units.mc2
        return (-self.e_psi_star * self.e_psi - self.cp_psi_star * self.cp_psi
                + self._mass_pot) / (2.0 * mc2)

    @cached_property
    def cT10(self) -> np.ndarray:
        """Energy-momentum-tensor energy current c T^10."""
        return _ct10(self.system.units, self.e_psi, self.e_psi_star, self.cp_psi,
                     self.cp_psi_star)

    @cached_property
    def T11(self) -> np.ndarray:
        mc2 = self.system.units.mc2
        return (self.e_psi_star * self.e_psi + self.cp_psi_star * self.cp_psi
                + self._mass_pot) / (2.0 * mc2)

    @cached_property
    def T01_check(self) -> np.ndarray:
        u = self.system.units
        psi_t = self.state.psi_t
        return -(u.hbar**2 / (2.0 * u.mass)) * (
            psi_t * np.conj(self.d_psi) + np.conj(psi_t) * self.d_psi)

    @cached_property
    def ends(self) -> tuple:
        """(j_a, j_b, jE_a, jE_b, jtildeE_a, jtildeE_b): the pointwise
        densities on the end values.  At a, the charge current takes the
        endpoint-coupling closed form while m0 + cos(mu) is regular, and the
        proper energy current does too while the closure is also real
        (m2 = 0).

        Pseudo self-adjointness makes j and j_E equal at the two ends; both
        j values vanish for strictly neutral states, and both j_E values
        vanish exactly when the closure is confining (m1 = 0 in the neutral
        sector).  The tensor current c T^10 has no equality contract: its
        two ends agree only on closures that preserve the tau_1 bilinear
        form."""
        u, p = self.system.units, self.system.bc
        psi, e_psi = self.psi, self.e_psi
        (j_a, je_a, jt_a), (j_b, je_b, jt_b) = (
            _currents(u, psi[i], self.d_psi[i], e_psi[i], -np.conj(e_psi[i]), self.d_e_psi[i])
            for i in (0, -1)
        )
        j_a, je_a = j_a.real, complex(je_a)
        denom = p.m0 + p.cos_mu
        if abs(denom) > 1e-10:
            q = (p.m1 + 1j * p.m2) / denom
            j_a = float(
                -(u.hbar / (u.mass * p.lam)) * np.imag(q * np.conj(psi[0]) * psi[-1])
            )
        if abs(p.m2) <= 1e-10 and abs(denom) > 1e-10:
            q = p.m1 / denom
            je_a = complex(
                (1j * u.hbar / (2.0 * u.mass * p.lam))
                * q
                * (np.conj(psi[0]) * e_psi[-1] - np.conj(psi[-1]) * e_psi[0])
            )
        return j_a, j_b.real, je_a, complex(je_b), jt_a.real, jt_b.real

    @cached_property
    def summary(self) -> "GlobalSummary":
        """The global integrals and endpoint values; see `global_summary`."""
        return _summarize(self)

    @cached_property
    def fields(self) -> ObservableFields:
        """Every local density and current."""
        return ObservableFields(t=self.state.t, **{name: getattr(self, name)
                                                   for name in DENSITY_NAMES})


def local_fields(state: KfgState, system: System) -> ObservableFields:
    """All local densities/currents from the one-component representation."""
    return Snapshot(state, system).fields


def two_component_fields(
    fv: FvState, system: System
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rho, j, rho_E, j_E) from the two-component representation.

    Independent cross-check path: the bilinears are evaluated on the
    two-component vector itself, with E Psi obtained on shell from the
    first-order generator.  Agrees with `local_fields` to round-off.
    """
    u = system.units
    mc2 = u.mc2
    psi_sum = fv.psi1 + fv.psi2
    # (tau_3 + i tau_2) Psi has components (psi_sum, -psi_sum)
    up = psi_sum
    um = -psi_sum
    dup = system.dx1(up)
    dum = system.dx1(um)
    rho = np.conj(fv.psi1) * fv.psi1 - np.conj(fv.psi2) * fv.psi2
    j = (
        (1j * u.hbar / (4.0 * u.mass))
        * ((np.conj(dup) * up + np.conj(dum) * um)
           - (np.conj(up) * dup + np.conj(um) * dum))
    )
    # on-shell E Psi from the generator: (p^2/2m + S) acts as
    # (E^2 - (mc^2)^2) / (2 mc^2) on psi_sum
    w_psi = (system.e2_apply(psi_sum, fv.t) - mc2**2 * psi_sum) / (2.0 * mc2)
    e_psi1 = w_psi + mc2 * fv.psi1
    e_psi2 = -w_psi - mc2 * fv.psi2
    rho_e = np.conj(fv.psi1) * e_psi1 - np.conj(fv.psi2) * e_psi2
    # Psi_dot = E Psi / (i hbar); u_dot = (tau_3 + i tau_2) Psi_dot
    udp = (e_psi1 + e_psi2) / (1j * u.hbar)
    udm = -(e_psi1 + e_psi2) / (1j * u.hbar)
    d_udp = system.dx1(udp)
    d_udm = system.dx1(udm)
    j_e = (
        -(u.hbar**2 / (4.0 * u.mass))
        * ((np.conj(dup) * udp + np.conj(dum) * udm)
           - (np.conj(up) * d_udp + np.conj(um) * d_udm))
    )
    return rho, j, rho_e, j_e


# --------------------------------------------------------------------------
# global summary
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalSummary:
    """Global integrals, boundary values, and identity residuals at one time."""

    t: float
    norm: float                      # indefinite norm <<Psi, Psi>>
    energy_mean: complex             # <<Psi, E Psi>>
    momentum_mean: complex           # <<Psi, c p Psi>>
    J_E: complex                     # integral of the proper energy current
    J_tilde_E: float                 # integral of the tensor energy current
    j_a: float
    j_b: float
    jE_a: complex
    jE_b: complex
    jtildeE_a: float
    jtildeE_b: float
    surface_term: float              # hbar/2mc * [Im(psi* c p psi)] at b minus a
    energy_split_residual: float     # energy_mean - surface_term - T00 integral
    current_split_residual: float    # J_E - boundary term - J_tilde_E (neutral form)
    positivity: tuple[float, float, float, float, float]
    # (boundary, gradient, mass, time-derivative, potential) pieces of the mean energy

    def as_row(self) -> dict[str, float]:
        return {
            "t": self.t,
            "norm": self.norm,
            "energy_mean": self.energy_mean.real,
            "momentum_mean": self.momentum_mean.real,
            "J_E": self.J_E.real,
            "J_tilde_E": self.J_tilde_E,
            "j_a": self.j_a,
            "j_b": self.j_b,
            "jE_a": self.jE_a.real,
            "jE_b": self.jE_b.real,
            "jtildeE_a": self.jtildeE_a,
            "jtildeE_b": self.jtildeE_b,
            "surface_term": self.surface_term,
            "energy_split_residual": self.energy_split_residual,
            "current_split_residual": self.current_split_residual,
        }


def _trapezoid_vdot(a: np.ndarray, b: np.ndarray, dx: float) -> complex:
    """Trapezoid integral of conj(a) b: one dot product and the two end halves."""
    ends = np.conj(a[0]) * b[0] + np.conj(a[-1]) * b[-1]
    return complex(dx * (np.vdot(a, b) - 0.5 * ends))


def _summarize(snap: Snapshot) -> GlobalSummary:
    """The global integrals of one snapshot as quadratic forms in psi, E psi
    and their differences; the local fields are never built.

    norm and energy_mean integrate the snapshot's own rho and rho_E, the
    bits of the local fields.  The staggered currents share the cell
    differences dif f = (f[i+1] - f[i]) / dx and midpoints mid f of psi and
    E psi: with mid(E psi*) = -conj(mid(E psi)) exactly,
        J_E  = -(i hbar dx / 2m) (<mid psi, dif E psi> - <dif psi, mid E psi>),
        J~_E = -(hbar dx / m) Im <dif psi, mid E psi>,
    and the momentum and the mean-energy pieces are weighted dot products."""
    state, system = snap.state, snap.system
    u, grid = system.units, system.grid
    mc2, dx = u.mc2, grid.dx
    psi, e_psi, d_psi = snap.psi, snap.e_psi, snap.d_psi

    norm = grid.integrate(snap.rho).real
    energy_mean = grid.integrate(snap.rho_E)
    # E psi* c p psi = conj(E psi) c p psi, with c p = -i hbar c d/dx
    momentum_mean = (-1j * u.hbar * u.c / (2.0 * mc2)) * (
        _trapezoid_vdot(psi, snap.d_e_psi, dx) + _trapezoid_vdot(e_psi, d_psi, dx)
    )

    # staggered energy currents: midpoint products telescope exactly.  The
    # cell sums and differences below are dx dif and 2 mid of each field.
    d_cell, s_cell = psi[1:] - psi[:-1], psi[:-1] + psi[1:]
    d_cell_e, s_cell_e = e_psi[1:] - e_psi[:-1], e_psi[:-1] + e_psi[1:]
    cross = np.vdot(d_cell, s_cell_e)  # 2 dx <dif psi, mid E psi>
    j_e_total = complex((-0.25j * u.hbar / u.mass) * (np.vdot(s_cell, d_cell_e) - cross))
    jt_total = float(-(0.5 * u.hbar / u.mass) * cross.imag)

    im_psi_epsi = np.imag(psi[[0, -1]] * e_psi[[0, -1]])  # unconjugated product
    current_boundary = (u.hbar / (2.0 * u.mass)) * (im_psi_epsi[1] - im_psi_epsi[0])
    current_split = abs(j_e_total - current_boundary - jt_total)

    # mean-energy decomposition; the gradient piece is the staggered sum
    surf = (u.hbar / (2.0 * u.mass * u.c)) * (
        np.imag(np.conj(psi[-1]) * (-1j * u.hbar * u.c * d_psi[-1]))
        - np.imag(np.conj(psi[0]) * (-1j * u.hbar * u.c * d_psi[0]))
    )
    kinetic = (u.hbar * u.c) ** 2 / (2.0 * mc2 * dx) * float(np.vdot(d_cell, d_cell).real)
    mass_term = 0.5 * mc2 * _trapezoid_vdot(psi, psi, dx).real
    tderiv = u.hbar**2 / (2.0 * mc2) * _trapezoid_vdot(state.psi_t, state.psi_t, dx).real
    pot_term = _trapezoid_vdot(psi, snap.s * psi, dx).real
    energy_split = abs(energy_mean - (surf + kinetic + mass_term + tderiv + pot_term))

    j_a, j_b, je_a, je_b, jt_a, jt_b = snap.ends
    # the values of `GlobalSummary.as_row`
    row = (state.t, norm, energy_mean.real, momentum_mean.real, j_e_total.real, jt_total,
           j_a, j_b, je_a.real, je_b.real, jt_a, jt_b, surf, energy_split, current_split)
    if not all(map(math.isfinite, row)):
        raise NumericalFailure(f"the summary is not finite at t = {state.t:.6g}")
    return GlobalSummary(
        t=state.t,
        norm=norm,
        energy_mean=energy_mean,
        momentum_mean=momentum_mean,
        J_E=j_e_total,
        J_tilde_E=jt_total,
        j_a=j_a,
        j_b=j_b,
        jE_a=je_a,
        jE_b=je_b,
        jtildeE_a=jt_a,
        jtildeE_b=jt_b,
        surface_term=float(surf),
        energy_split_residual=float(energy_split),
        current_split_residual=float(current_split),
        positivity=(float(surf), kinetic, mass_term, tderiv, pot_term),
    )


def global_summary(state: KfgState, system: System) -> GlobalSummary:
    """Every global quantity for one snapshot (`Snapshot.summary`); a summary
    that is not finite (a state grown past the float range, say) raises
    NumericalFailure."""
    return Snapshot(state, system).summary


# --------------------------------------------------------------------------
# continuity equations
# --------------------------------------------------------------------------


def _density_gradient(field: np.ndarray, dx: float) -> np.ndarray:
    """Spatial derivative of a density field (no boundary condition applies)."""
    return np.gradient(np.asarray(field), dx, edge_order=2)


@dataclass(frozen=True)
class ContinuityResiduals:
    """Max-norm residuals of the four local balance laws over a time window.

    Residuals are the real-form balance laws (d_t density + d_x current -
    source), i.e. the operator statements divided by i*hbar; the max-norm is
    taken over grid points away from the two outermost points per side so the
    quoted numbers reflect pure centered stencils.
    """

    charge: float          # d_t rho + d_x j
    energy: float          # d_t rho_E + d_x j_E - S_t |psi|^2
    emt_time: float        # d_t T00 + d_x (c T10) - S_t |psi|^2
    emt_space: float       # -(1/c^2) d_t (c T01) + d_x T11 - S_x |psi|^2
    # the space sector uses the mixed component with lowered second index,
    # which is minus the all-upper T01 stored in ObservableFields


# grid points left out at each end by `continuity_residuals`, whose
# one-sided gradient stencils there are not centered
EDGE_SKIP = 2


def continuity_residuals(states: list[KfgState], system: System) -> ContinuityResiduals:
    """Centered-in-time residuals of the local balance laws.

    `states` must hold at least three uniformly spaced snapshots; residuals
    are evaluated at every interior snapshot and the worst is returned.
    """
    if len(states) < 3:
        raise InsufficientData("need at least three consecutive snapshots")
    times = np.array([s.t for s in states])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-10, atol=1e-14):
        raise ValueError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])
    dx = system.grid.dx
    grid_x = system.grid.x
    snaps = [Snapshot(s, system) for s in states]
    sl = slice(EDGE_SKIP, system.grid.n - EDGE_SKIP)

    worst = {"charge": 0.0, "energy": 0.0, "emt_time": 0.0, "emt_space": 0.0}
    c = system.units.c
    for k in range(1, len(states) - 1):
        fm, f0, fp = snaps[k - 1], snaps[k], snaps[k + 1]
        st = states[k]
        s_t = system.potential.time_derivative(grid_x, st.t)
        s_x = system.potential.space_derivative(grid_x, st.t)
        abs2 = (np.conj(st.psi) * st.psi).real

        def dt_of(name):
            return (getattr(fp, name) - getattr(fm, name)) / (2.0 * dt)

        r_charge = dt_of("rho") + _density_gradient(f0.j, dx)
        r_energy = dt_of("rho_E") + _density_gradient(f0.j_E, dx) - s_t * abs2
        r_emt_t = dt_of("T00") + _density_gradient(f0.cT10, dx) - s_t * abs2
        r_emt_x = (
            -dt_of("T01_check") / c**2
            + _density_gradient(f0.T11, dx)
            - s_x * abs2
        )
        worst["charge"] = max(worst["charge"], float(np.max(np.abs(r_charge[sl]))))
        worst["energy"] = max(worst["energy"], float(np.max(np.abs(r_energy[sl]))))
        worst["emt_time"] = max(worst["emt_time"], float(np.max(np.abs(r_emt_t[sl]))))
        worst["emt_space"] = max(worst["emt_space"], float(np.max(np.abs(r_emt_x[sl]))))
    return ContinuityResiduals(**worst)
