"""Metric-preserving time evolution of the interval states.

The update rule is the Cayley (implicit midpoint) form of the first-order
generator: one step maps the state by (1 - (dt/2) A)^(-1) (1 + (dt/2) A).
Applied to the two-component form with A = h/(i hbar) this is the usual
(1 + i dt h / 2 hbar)^(-1) (1 - i dt h / 2 hbar), kept only as a dense test
oracle.  The driver `evolve` steps the algebraically identical
wave form z = (v, v_t) with A = [[0, 1], [-K/hbar^2, 0]] in the weighted
representation, where the step is *real* whenever the boundary closure is
real.  It acts separately on the real and imaginary parts of z, so a
strictly neutral state (exactly real z, or exactly imaginary for the minus
sector) stays in its sector to the bit: sector preservation is structural
rather than a round-off budget.  K is tridiagonal plus two corner entries,
so the step reduces to one banded solve of size n (see `CayleyPropagator`).

Both forms preserve the indefinite inner product and, for static potentials,
the energy bracket exactly in exact arithmetic (the generator is
anti-self-adjoint for the corresponding quadratic forms), so conservation
tests measure pure round-off.  A time-dependent potential rebuilds the
generator at the step midpoint, keeping second order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .core import KfgLabError, KfgState, PhysicalUnits, majorana_project
from .operators import DENSE_STEP_MAX_DOF, Bands, NumericalFailure, System


class SingularPropagator(KfgLabError):
    """The implicit half of the Cayley step is not invertible."""


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    state: KfgState
    majorana_deviation: float | None


# --------------------------------------------------------------------------
# wave-form driver
# --------------------------------------------------------------------------


def state_to_wave(state: KfgState, system: System) -> np.ndarray:
    """Stack the weighted unknowns of (psi, psi_t)."""
    if state.n != system.grid.n:
        raise ValueError(
            f"state has {state.n} points but the grid has {system.grid.n}"
        )
    cl = system.closure
    sqw = np.sqrt(cl.dof_weights)
    return np.concatenate([sqw * cl.restrict(state.psi), sqw * cl.restrict(state.psi_t)])


def wave_to_state(z: np.ndarray, system: System, t: float) -> KfgState:
    cl = system.closure
    m = cl.n_dof
    sqw = np.sqrt(cl.dof_weights)
    return KfgState(
        psi=cl.extend(z[:m] / sqw), psi_t=cl.extend(z[m:] / sqw), t=t
    )


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Set the subnormal entries (real and imaginary parts apart) of a
    C-contiguous float array to zero, in place.  Each product with one is
    slow, and its term lies below 2.2e-308 times the other factor."""
    parts = a.view(np.float64)
    np.copyto(parts, 0.0, where=np.abs(parts) < np.finfo(np.float64).tiny)
    return a


class _ShiftedBandsFactor:
    """Factor of M = I + c B for tridiagonal-plus-corner bands B.

    LAPACK ?gttrf factors the tridiagonal part in O(m); the corners enter as
    a rank-2 Woodbury correction M = T + U C with U = [e_0, e_(m-1)].
    """

    def __init__(self, bands: Bands, c: float):
        gttrf, self._gttrs = scipy.linalg.lapack.get_lapack_funcs(
            ("gttrf", "gttrs"), (bands.main, bands.upper, bands.lower)
        )
        *lu, info = gttrf(c * bands.lower, 1.0 + c * bands.main, c * bands.upper)
        if info != 0:
            raise SingularPropagator(f"banded Cayley factor is singular (info {info})")
        self._lu = lu
        self._woodbury = None
        if bands.corners is not None:
            m = len(bands.main)
            corners = c * bands.corners
            unit = np.zeros((m, 2), dtype=lu[1].dtype, order="F")
            unit[0, 0] = unit[-1, 1] = 1.0
            z = self._gttrs(*lu, unit)[0]
            capacitance = np.eye(2) + corners[:, None] * z[[-1, 0], :]
            try:
                inverse = np.linalg.inv(capacitance)
            except np.linalg.LinAlgError as exc:
                raise SingularPropagator(str(exc)) from exc
            # row i of the correction is y[i, -1] p + y[i, 0] q
            self._woodbury = (corners[:, None] * inverse.T) @ z.T
            # p and q decay away from the ends into subnormal numbers (4474 of
            # 8191 entries on periodic at n = 8192), which made each step's
            # correction ten times slower
            _flush_subnormals(self._woodbury)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 applied along the last axis of a C-ordered (r, m) array, in
        place where the dtypes allow.  Each row is solved apart, with the
        same bits whatever r is: the correction is elementwise, not a matrix
        product, whose BLAS kernel (and last bits) would depend on r."""
        y = self._gttrs(*self._lu, rhs.T, overwrite_b=True)[0].T
        if self._woodbury is not None:
            p, q = self._woodbury
            correction = y[:, -1:] * p
            correction += y[:, :1] * q
            y -= correction
        return y


class CayleyPropagator:
    """Steps the weighted wave vector z = (v, w) by the Cayley map of
    A = [[0, 1], [-K/hbar^2, 0]], with K = `system.kinetic(t).bands` taken
    at the step midpoint.

    With k = dt/2 and M = I + k^2 K/hbar^2 the map (I - kA)^-1 (I + kA) is
    u = M^-1 (v + k w), v' = 2u - v, w' = w - 2 (k/hbar^2) K u: one solve with
    the banded M, O(m) per step.  A static run factors M once; a driven run
    refactors with the midpoint potential at each step.  A static run with
    at most DENSE_STEP_MAX_DOF unknowns applies the dense step matrix
    instead, whose row i is the banded step of unit vector i.

    The step acts on a packed stack (`pack`) row by row: on a real closure
    the real (2, 2m) stack [Re z, Im z], which keeps a neutral sector to the
    bit, and on a complex closure z as one (1, 2m) row.  A neutral z on the
    banded step of a real closure packs as one real row, its nonzero part:
    the banded step gives each row the same bits alone as in a stack.  The
    dense step does not (BLAS picks its kernel by the row count), so there
    a neutral z keeps both rows.  A run packs once and steps the stack;
    `unpack` gives z back.
    """

    def __init__(self, system: System, dt: float):
        self.system = system
        self.dt = dt
        hbar = system.units.hbar
        self._k = 0.5 * dt
        self._m_scale = (self._k / hbar) ** 2
        self._w_scale = 2.0 * self._k / hbar**2
        # a real closure has real bands at every time
        self._real = not system.closure.is_complex
        self._static_factor = self._factor_at(0.0) if system.is_static else None
        self._dense: np.ndarray | None = None
        if system.is_static and system.closure.n_dof <= DENSE_STEP_MAX_DOF:
            # on dirichlet from n = 128 the matrix holds subnormal entries
            # (558 at n = 128), which made a step two to three times slower
            self._dense = _flush_subnormals(
                self._step(np.eye(2 * system.closure.n_dof), *self._static_factor)
            )

    def _factor_at(self, t: float) -> tuple[Bands, _ShiftedBandsFactor]:
        bands = self.system.kinetic(t).bands
        return bands, _ShiftedBandsFactor(bands, self._m_scale)

    def _step(self, x: np.ndarray, bands: Bands, factor: _ShiftedBandsFactor) -> np.ndarray:
        """The step applied to each row of an (r, 2m) stack."""
        m = len(bands.main)
        v, w = x[:, :m], x[:, m:]
        rhs = self._k * w
        rhs += v
        u = factor.solve(rhs)
        out = np.empty(x.shape, dtype=u.dtype)
        v_new, w_new = out[:, :m], out[:, m:]
        np.multiply(u, 2.0, out=v_new)
        v_new -= v
        bands.matvec(u, out=w_new)
        w_new *= self._w_scale
        np.subtract(w, w_new, out=w_new)
        return out

    def pack(self, z: np.ndarray, kind: str | None = None) -> np.ndarray:
        """The stack the step acts on, for a 1-D wave vector z.

        With `kind` ("plus" or "minus") on the banded step of a real closure,
        a z whose other part is exactly zero packs as the one real row Re z
        (plus) or Im z (minus); otherwise a real closure gives [Re z, Im z].
        """
        if not self._real:
            return z[None, :]
        if kind is not None and self._dense is None:
            own, other = (z.real, z.imag) if kind == "plus" else (z.imag, z.real)
            if not np.any(other):
                return np.array([own])
        return np.array([z.real, z.imag])

    def unpack(self, x: np.ndarray, kind: str | None = None) -> np.ndarray:
        """The wave vector z held in a packed stack; a one-row real stack
        holds the part of z that `pack` kept for `kind`."""
        if not self._real:
            return x[0]
        if len(x) == 2:
            return x[0] + 1j * x[1]
        z = np.zeros(x.shape[1], dtype=np.complex128)
        if kind == "plus":
            z.real = x[0]
        else:
            z.imag = x[0]
        return z

    def advance(self, z: np.ndarray, t: float) -> np.ndarray:
        """One step from time t of a packed stack, or of a 1-D wave vector
        (packed before the step and unpacked after it)."""
        x = self.pack(z) if z.ndim == 1 else z
        bands, factor = self._static_factor or self._factor_at(t + 0.5 * self.dt)
        out = x @ self._dense if self._dense is not None else self._step(x, bands, factor)
        return self.unpack(out) if z.ndim == 1 else out


def _pairing_deviation(x: np.ndarray, kind: str, units: PhysicalUnits) -> float:
    """Max-norm violation of the neutral-sector condition in a packed stack,
    relative to its own scale.  The time-derivative half is weighted by
    hbar/mc^2 so both halves carry the dimensions of psi.  A real stack of
    one row holds only the part of z that `pack` kept for `kind`."""
    # cheap tests (about 1 us at n = 48): the neutral-sector check asks at
    # every step
    if x.dtype.kind == "f" and (len(x) == 1 or not np.count_nonzero(x[1 if kind == "plus" else 0])):
        return 0.0  # a real stack with no row of the other sector, or a zero one
    weighted = np.empty(x.shape[-1], dtype=np.complex128)
    if len(x) == 2:
        weighted.real, weighted.imag = x
    else:
        weighted[:] = x[0]
    weighted[len(weighted) // 2:] *= units.hbar / units.mc2
    part = weighted.imag if kind == "plus" else weighted.real
    scale = float(max(np.max(np.abs(weighted)), 1e-300))
    return float(np.max(np.abs(part))) / scale


def evolve(
    state0: KfgState,
    system: System,
    config: EvolutionConfig,
    majorana: str | None = None,
) -> Iterator[TrajectoryRecord]:
    """Propagate a state and yield a snapshot every `record_every` steps.

    The final step is always yielded, and a snapshot whose state is not
    finite raises NumericalFailure.  For a neutral run (majorana set) the
    yielded states are projected back onto the neutral sector and the raw
    sector deviation goes alongside; with a real closure the deviation is
    structurally zero.  Only the current packed stack is kept between
    snapshots, and z is rebuilt from it only at a snapshot: each caller takes
    the observables it reads from the records.

    A neutral run whose state starts exactly in its sector steps one real
    row (see `CayleyPropagator.pack`) when the step is banded: a real
    closure with more than DENSE_STEP_MAX_DOF unknowns, or any driven real
    run.  Its deviation is 0.0, as the exactly zero row it drops gave.  Any
    other run steps the full stack, so a start off its sector still reports
    its deviation.
    """
    prop = CayleyPropagator(system, config.dt)
    z = state_to_wave(state0, system)
    t0 = state0.t

    def snapshot(step_index: int, x: np.ndarray, zz: np.ndarray) -> TrajectoryRecord:
        t = t0 + step_index * config.dt
        if not np.all(np.isfinite(zz)):
            raise NumericalFailure(f"the state is not finite at t = {t:.6g}")
        state = wave_to_state(zz, system, t)
        dev = None
        if majorana is not None:
            dev = _pairing_deviation(x, majorana, system.units)
            state = majorana_project(state, majorana)
        return TrajectoryRecord(t=t, state=state, majorana_deviation=dev)

    x = prop.pack(z, majorana)
    yield snapshot(0, x, z)
    for k in range(1, config.steps + 1):
        x = prop.advance(x, t0 + (k - 1) * config.dt)
        if k % config.record_every == 0 or k == config.steps:
            yield snapshot(k, x, prop.unpack(x, majorana))


def check_majorana_preservation(
    state0: KfgState, system: System, dt: float, steps: int, kind: str = "plus"
) -> float:
    """Maximum raw neutral-sector deviation over an un-projected evolution.

    It steps the full stack, the other sector's row included, whatever the
    start: it is the check that a one-row neutral run in `evolve` relies on.
    Raises NumericalFailure when the final state is not finite (NaN and inf
    persist through the linear step, so one check at the end suffices).
    """
    prop = CayleyPropagator(system, dt)
    x = prop.pack(state_to_wave(state0, system))
    worst = _pairing_deviation(x, kind, system.units)
    t = state0.t
    for k in range(steps):
        x = prop.advance(x, t + k * dt)
        worst = max(worst, _pairing_deviation(x, kind, system.units))
    if not np.all(np.isfinite(x)):
        raise NumericalFailure(f"the state is not finite at t = {t + steps * dt:.6g}")
    return worst
