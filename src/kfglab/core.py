"""Units, grid, Lorentz scalar potential, and state representations.

Conventions used throughout the package:

- the energy operator is E = i*hbar*d/dt and the momentum operator is
  p = -i*hbar*d/dx;
- an operator written as acting on a conjugated field means
  apply-to-the-conjugate, i.e.  E psi* = i*hbar*d(psi*)/dt = -(E psi)*
  and likewise p psi* = -(p psi)*;
- natural units hbar = c = m = 1 are the default, but every formula keeps
  the symbolic constants so dimensional runs work;
- the second time derivative is never stored: E^2 psi is always evaluated
  on shell through the wave equation as c^2 p^2 psi + (mc^2)^2 psi
  + 2 mc^2 S psi.

Two equivalent state representations are provided: the one-component
(psi, d psi/dt) pair and the two-component first-order-in-time form
Psi = (psi1, psi2) with psi1 + psi2 = psi and psi1 - psi2 = E psi / mc^2;
`kfg_to_fv` maps the first to the second.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class KfgLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidState(KfgLabError):
    """A state contains non-finite entries or has the wrong shape."""


class InvalidPotential(KfgLabError):
    """Scalar potential violates a declared constraint (e.g. nonnegativity)."""


@dataclass(frozen=True)
class PhysicalUnits:
    """Dimensional constants: hbar, c, particle mass (lambda is `BcParams.lam`)."""

    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "mass"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive and finite, got {value}")
        try:  # the scales of K and the observables; ** raises where * gives inf
            scales = ((self.hbar * self.c) ** 2, self.mc2**2)
        except OverflowError:
            scales = (math.inf,)
        if not (all(map(math.isfinite, scales)) and self.mc2 > 0.0):
            raise ValueError("(hbar c)^2 and (mc^2)^2 must be finite and mc^2 positive, got "
                             f"hbar = {self.hbar}, c = {self.c}, mass = {self.mass}")

    @property
    def mc2(self) -> float:
        return self.mass * self.c**2


NATURAL_UNITS = PhysicalUnits()


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] including both endpoints."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"grid requires finite a and b, got a={self.a}, b={self.b}")
        if not self.b > self.a:
            raise ValueError("grid requires b > a")
        if self.n < 8:
            raise ValueError("grid requires at least 8 points")
        if not 0.0 < self.dx * self.dx < math.inf:
            raise ValueError(f"dx^2 must be positive and finite, got dx = {self.dx}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @property
    def length(self) -> float:
        return self.b - self.a

    @functools.cached_property
    def x(self) -> np.ndarray:
        """Grid points, built once and read-only."""
        x = np.linspace(self.a, self.b, self.n)
        x.flags.writeable = False
        return x

    @functools.cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights under which the discrete operators are
        self-adjoint, built once and read-only."""
        w = np.full(self.n, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    def integrate(self, f: np.ndarray) -> complex:
        """Trapezoid-rule integral of a grid field."""
        return complex(np.sum(self.trapezoid_weights * np.asarray(f)))


@dataclass(frozen=True)
class SpatialProfile:
    """Closed-form spatial part of the scalar potential.

    kinds: "constant" (value), "step" (x0, left, right),
    "quadratic" (x0, coefficient, offset), "tabulated" (values on the grid).
    """

    kind: str = "constant"
    value: float = 0.0
    x0: float = 0.0
    left: float = 0.0
    right: float = 0.0
    coefficient: float = 0.0
    offset: float = 0.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "step", "quadratic", "tabulated"):
            raise ValueError(f"unknown spatial profile kind {self.kind!r}")

    def sample(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        if self.kind == "step":
            return np.where(x < self.x0, self.left, self.right)
        if self.kind == "quadratic":
            return self.coefficient * (x - self.x0) ** 2 + self.offset
        vals = np.asarray(self.values, dtype=float)  # tabulated
        if len(vals) != len(x):
            raise InvalidPotential("tabulated profile length must match the grid")
        return vals

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(x)
        if self.kind == "step":
            # discontinuous; the a.e. derivative vanishes
            return np.zeros_like(x)
        if self.kind == "quadratic":
            return 2.0 * self.coefficient * (x - self.x0)
        return np.gradient(self.sample(x), x)  # tabulated


@dataclass(frozen=True)
class TimeFactor:
    """Closed-form time dependence multiplying the spatial profile.

    kinds: "constant" (scale), "sinusoidal" (amplitude*sin(omega*t + phase) + offset),
    "linear" (offset + rate*t).
    """

    kind: str = "constant"
    scale: float = 1.0
    amplitude: float = 1.0
    omega: float = 1.0
    phase: float = 0.0
    offset: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoidal", "linear"):
            raise ValueError(f"unknown time factor kind {self.kind!r}")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def value(self, t: float) -> float:
        if self.kind == "constant":
            return self.scale
        if self.kind == "sinusoidal":
            return self.amplitude * math.sin(self.omega * t + self.phase) + self.offset
        return self.offset + self.rate * t  # linear

    def extreme_times(self, t0: float, t1: float) -> list[float]:
        """Times at which the factor takes its least and its greatest value
        over [t0, t1]: both ends and, for a sinusoidal factor, the first
        crest and trough between them."""
        times = [t0, t1]
        if self.kind == "sinusoidal" and self.omega != 0.0:
            lo, hi = sorted(self.omega * t + self.phase for t in times)
            for crest in (0.5 * math.pi, 1.5 * math.pi):
                theta = crest + 2.0 * math.pi * math.ceil((lo - crest) / (2.0 * math.pi))
                if theta <= hi:
                    times.append((theta - self.phase) / self.omega)
        return times

    def derivative(self, t: float) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "sinusoidal":
            return self.amplitude * self.omega * math.cos(self.omega * t + self.phase)
        return self.rate  # linear


@dataclass(frozen=True)
class ScalarPotential:
    """Real Lorentz scalar interaction S(x, t) = profile(x) * factor(t).

    `nonneg` declares S >= 0.  `operators.PotentialDiagonal.check`, which
    every path that reads S goes through, raises InvalidPotential where a
    flagged S dips below -1e-14."""

    profile: SpatialProfile = field(default_factory=SpatialProfile)
    time_factor: TimeFactor = field(default_factory=TimeFactor)
    nonneg: bool = False

    @property
    def is_static(self) -> bool:
        return self.time_factor.is_constant

    def time_derivative(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.profile.sample(x) * self.time_factor.derivative(t)

    def space_derivative(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.profile.gradient(x) * self.time_factor.value(t)


def _as_field(arr, n_expect: int | None = None) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128)
    if out.ndim != 1:
        raise InvalidState("state fields must be one-dimensional")
    if n_expect is not None and len(out) != n_expect:
        raise InvalidState(f"state field has {len(out)} entries, expected {n_expect}")
    if not np.all(np.isfinite(out)):
        raise InvalidState("state field contains non-finite entries")
    return out


@dataclass(frozen=True)
class KfgState:
    """One-component state: wavefunction and its time derivative on the grid."""

    psi: np.ndarray
    psi_t: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        psi = _as_field(self.psi)
        psi_t = _as_field(self.psi_t, len(psi))
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "psi_t", psi_t)

    @property
    def n(self) -> int:
        return len(self.psi)


@dataclass(frozen=True)
class FvState:
    """Two-component first-order-in-time state on the grid."""

    psi1: np.ndarray
    psi2: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        psi1 = _as_field(self.psi1)
        psi2 = _as_field(self.psi2, len(psi1))
        object.__setattr__(self, "psi1", psi1)
        object.__setattr__(self, "psi2", psi2)


def kfg_to_fv(state: KfgState, units: PhysicalUnits = NATURAL_UNITS) -> FvState:
    """Map (psi, psi_t) to the two-component form.

    psi1 = (psi + E psi / mc^2)/2 and psi2 = (psi - E psi / mc^2)/2,
    with E psi = i hbar psi_t.
    """
    e_over_mc2 = 1j * units.hbar * state.psi_t / units.mc2
    return FvState(
        psi1=0.5 * (state.psi + e_over_mc2),
        psi2=0.5 * (state.psi - e_over_mc2),
        t=state.t,
    )


def majorana_project(state: KfgState, kind: str) -> KfgState:
    """Project onto the strictly neutral sector.

    "plus" keeps the real parts (psi = psi*), "minus" keeps i times the
    imaginary parts (psi = -psi*). Idempotent for both kinds.
    """
    if kind == "plus":
        return KfgState(
            psi=state.psi.real.astype(np.complex128),
            psi_t=state.psi_t.real.astype(np.complex128),
            t=state.t,
        )
    if kind == "minus":
        return KfgState(
            psi=1j * state.psi.imag,
            psi_t=1j * state.psi_t.imag,
            t=state.t,
        )
    raise ValueError("kind must be 'plus' or 'minus'")
