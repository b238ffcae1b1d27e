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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg.blas

from .core import KfgState, PhysicalUnits, majorana_project
from .operators import (
    NumericalFailure,
    System,
    _flush_subnormals,
    _ShiftedBandsFactor,
)

# The dense/banded switch of the static step, in unknowns: at or below it
# a static run steps with the dense 2m x 2m step matrix, one BLAS call a
# step, and the many short static runs of the verify suites sit at n <= 64.
# Against a neutral run's one-row banded step, run from record to record in
# one `advance` call, the dense two-row step won all 15 interleaved rounds at
# 88 unknowns on dirichlet, neumann, robin_mit_plus and periodic and lost at
# least 14 of 15 from 112 (200 steps a round, one BLAS thread, 2 shared
# vCPUs); between them its cost jumps with the size, 3.8-4.7 us a step at 96
# and 104 (won 8-15 rounds) but 6.0-7.2 us at 92 and 100 (lost all 15),
# against 4.5-5.5 us banded.  It stays above that crossover: a lower value
# changes the output bytes of every static run with the unknowns it moves.
DENSE_STEP_MAX_DOF = 160


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
    sqw = cl.sqrt_weights
    return np.concatenate([sqw * cl.restrict(state.psi), sqw * cl.restrict(state.psi_t)])


def wave_to_state(z: np.ndarray, system: System, t: float) -> KfgState:
    cl = system.closure
    m = cl.n_dof
    sqw = cl.sqrt_weights
    return KfgState(
        psi=cl.extend(z[:m] / sqw), psi_t=cl.extend(z[m:] / sqw), t=t
    )


class CayleyPropagator:
    """Steps the weighted wave vector z = (v, w) by the Cayley map of
    A = [[0, 1], [-K/hbar^2, 0]], with K = `system.kinetic(t).bands` taken
    at the step midpoint.

    With k = dt/2 and M = I + k^2 K/hbar^2 the map (I - kA)^-1 (I + kA) is
    u = M^-1 (v + k w), v' = 2u - v, w' = w - 2 (k/hbar^2) K u, in O(m) per
    step.  K = T + corners, with T tridiagonal, and the factor of M
    (`_ShiftedBandsFactor`, LDL^H where M is positive definite) writes
    M^-1 r = y - y[m-1] p - y[0] q with y = T'^-1 r, T' the tridiagonal
    part of M.  Both corner terms are linear in y[m-1] and y[0], so they
    fold into two end responses G = [2p, a(K p - top_right e_0)] and
    H = [2q, a(K q - bottom_left e_(m-1))], a = -2k/hbar^2, built with the
    factor, and a step is the tridiagonal solve for y, (v', w') =
    (2y - v, w + a T y) with T y one BLAS ?gbmv per row on T's band storage,
    and the rank-2 update (v', w') -= y[m-1] G + y[0] H, one BLAS ?gemv per
    row.  A static run factors M and builds the band and G, H once.  A
    driven run builds them at its first midpoint and keeps the LAPACK
    handles, the band and the entries of K that do not move with t; each
    later step rewrites the real part of the band's diagonal from the
    profile sampled once (`System.potential_diagonal`, whose O(1) guards
    check S >= 0 and S(a, t) = S(b, t) there, as `config.system_from_config`
    does over a run's times), refactors M and rebuilds G and H.  A static
    run with at most DENSE_STEP_MAX_DOF unknowns applies the dense step
    matrix instead, whose row i is the banded step of unit vector i.

    `advance` runs any number of steps in one call, from record to record:
    the banded steps update one work copy of the stack in place, through
    buffers and handles bound once per call, so a step costs the solve,
    the BLAS calls and four numpy operations.  A dense step is one BLAS call
    (`_dense_steps`): at n = 64 a two-row step took 2.4-2.7 us and a
    four-row one 3.3-3.8 us, against 3.3-3.5 and 4.4-4.9 us for `x @ P`.

    The step acts on a packed stack (`pack`) row by row: on a real closure
    the real (2, 2m) stack [Re z, Im z], which keeps a neutral sector to the
    bit, and on a complex closure z as one (1, 2m) row.  A neutral z on the
    banded step of a real closure packs as one real row, its nonzero part:
    the banded step gives each row the same bits alone as in a stack.  The
    dense step does not (one row takes ?gemv, and ?gemm picks its kernel by
    the row count), so there a neutral z keeps both rows.  A run packs once
    and steps the stack; `unpack` gives z back.
    """

    def __init__(self, system: System, dt: float):
        self.system = system
        self.dt = dt
        hbar = system.units.hbar
        self._k = 0.5 * dt
        self._m_scale = (self._k / hbar) ** 2
        self._w_scale = 2.0 * self._k / hbar**2
        self._w_half = 2.0 / self._k  # w halves of H and G off the ends (`_fold`)
        # a real closure has real bands at every time
        self._real = not system.closure.is_complex
        self._dtype = np.float64 if self._real else np.complex128
        self._gemv = scipy.linalg.blas.get_blas_funcs("gemv", dtype=self._dtype)
        self._factor: _ShiftedBandsFactor | None = None
        self._dense: np.ndarray | None = None
        self._driven = not system.is_static
        if system.is_static:
            self._move_to(0.0)
            if system.closure.n_dof <= DENSE_STEP_MAX_DOF:
                # on dirichlet from n = 128 the matrix holds subnormal entries
                # (558 at n = 128), which made a step two to three times slower
                self._dense = _flush_subnormals(
                    self._steps(np.eye(2 * system.closure.n_dof), 0.0, 1, 0))
                self._gemm = scipy.linalg.blas.get_blas_funcs("gemm", dtype=self._dtype)

    def _move_to(self, t: float) -> None:
        """Factor M and fold the end responses for K at time t: built from
        `system.kinetic(t)` once, then from a new diagonal."""
        if self._factor is not None:
            main = self._band[1]
            diag = self.system.potential_diagonal.diag(t, out=self._diag)
            self._kinetic.main(diag, out=main.real)
            self._factor.refactor(main)
        else:
            kinetic = self._kinetic = self.system.kinetic(t)
            bands = kinetic.bands
            m = len(bands.main)
            self._diag = np.empty(self.system.grid.n)
            # T's (3, m) band storage for ?gbmv, in Fortran order so that no
            # call copies it
            band = self._band = np.zeros((3, m), dtype=np.result_type(
                bands.main, bands.upper, bands.lower), order="F")
            band[0, 1:] = bands.upper
            main = band[1] = bands.main
            band[2, :-1] = bands.lower
            self._gbmv = scipy.linalg.blas.get_blas_funcs("gbmv", (band,))
            self._factor = _ShiftedBandsFactor(bands, self._m_scale)
            self._ends = self._end_columns = None
            if bands.corners is not None:
                # the entries of K the fold reads that do not move with t
                self._end_entries = (bands.upper[0].item(), bands.lower[-1].item(),
                                     *bands.corners.tolist())
                self._ends = np.empty((4, m), dtype=band.dtype)
                # the columns [H G] of a (2m, 2) array, as ?gemv reads them
                self._end_columns = self._ends.reshape(2, -1).T
        if self._ends is not None:
            self._fold(main)

    def _fold(self, main: np.ndarray) -> None:
        """The end responses into `_ends`, rows [H; G] = [2q, a (K q -
        bottom_left e_(m-1)); 2p, a (K p - top_right e_0)], from the
        factor's unit solves z, [p; q] = corner_coef z^T, and K's diagonal
        `main`."""
        # q and p combine the unit solves z of the tridiagonal part I + c T
        # of M, whose rows vanish away from the ends: there z + c T z = 0, so
        # a K [q; p] = -(a/c) [q; p] = (2/k) [q; p], and only the four end
        # entries take band products.  So the four rows [2q; (2/k) q; 2p;
        # (2/k) p] are one product of z with the scaled coefficients, and
        # lose the subnormal parts that a factor below one makes of z's
        # smallest entries (108 on quasimixed+ at n = 8192), as in p and q
        factor, ends = self._factor, self._ends
        (p_0, p_1), (q_0, q_1) = factor.corner_coef
        s = self._w_half
        scaled = np.array([2.0 * q_0, 2.0 * q_1, s * q_0, s * q_1,
                           2.0 * p_0, 2.0 * p_1, s * p_0, s * p_1]).reshape(4, 2)
        z = factor.unit_solves
        if z.dtype != ends.dtype:
            # complex coefficients, real unit solves: the real and imaginary
            # parts as real products, with the bits of the complex one and
            # without casting z (7.5 -> 4.5 us on quasimixed+ at n = 256)
            np.matmul(z, scaled.view(np.float64).reshape(4, 2, 2),
                      out=ends.view(np.float64).reshape(4, -1, 2))
        else:
            np.matmul(scaled, z.T, out=ends)
        _flush_subnormals(ends)
        (q0, q1, q2, q3), (p0, p1, p2, p3) = zip(
            *[(q_0 * z0 + q_1 * z1, p_0 * z0 + p_1 * z1) for z0, z1 in factor.unit_ends])
        d0, d1 = main[::len(main) - 1].tolist()
        u, l, top, bottom = self._end_entries
        a = -self._w_scale
        ends[1, 0] = a * (d0 * q0 + u * q1 + top * q3)
        ends[1, -1] = a * (l * q2 + d1 * q3 + bottom * (q0 - 1.0))
        ends[3, 0] = a * (d0 * p0 + u * p1 + top * (p3 - 1.0))
        ends[3, -1] = a * (l * p2 + d1 * p3 + bottom * p0)

    def _steps(self, x: np.ndarray, t: float, steps: int, first: int) -> np.ndarray:
        """`steps` banded steps, timed as in `advance`, applied to each row
        of an (r, 2m) stack on a work copy that every step updates in place."""
        x = np.array(x, dtype=np.result_type(x, self._dtype))
        m = x.shape[1] // 2
        v, w = x[:, :m], x[:, m:]
        rhs, twice = np.empty((2, *v.shape), dtype=x.dtype)
        rhs_columns, rows = rhs.T, list(zip(rhs, w, x))
        k, dt, a, gemv, driven = self._k, self.dt, -self._w_scale, self._gemv, self._driven
        for j in range(steps):
            if driven:
                self._move_to(t + (first + j) * dt + 0.5 * dt)
            if driven or not j:
                solve, flags = self._factor.tri_solve, self._factor.tri_flags
                gbmv, band, ends = self._gbmv, self._band, self._end_columns
            np.multiply(w, k, out=rhs)
            rhs += v
            solve(rhs_columns, *flags)  # y, in place over rhs (its dtype, Fortran order)
            np.multiply(rhs, 2.0, out=twice)
            np.subtract(twice, v, out=v)
            for y_row, w_row, x_row in rows:
                # w_row += a T y_row; after y_row: incx, offx, beta = 1, w_row,
                # incy, offy, trans, overwrite_y (by keyword they cost 0.6 us
                # more a call)
                gbmv(m, m, 1, 1, a, band, y_row, 1, 0, 1.0, w_row, 1, 0, 0, 1)
                if ends is not None:
                    # x_row -= [H G] [y_row[0], y_row[m-1]], reading the two
                    # ends of y_row with stride m - 1; after y_row: beta = 1,
                    # x_row, offx, incx, offy, incy, trans, overwrite_y
                    gemv(-1.0, ends, y_row, 1.0, x_row, 0, m - 1, 0, 1, 0, 1)
        return x

    def _dense_steps(self, x: np.ndarray, steps: int) -> np.ndarray:
        """`steps` (at least one) products x @ P with the dense step matrix P,
        each one positional call of ?gemv (one row) or ?gemm on transposed
        views bound once: the routines numpy's matmul calls for these shapes,
        so a step gives the bytes of `x @ P`.  The first step writes a new
        array; later ones alternate between it and one more, allocating
        nothing."""
        gemv, gemm, p_t, one = self._gemv, self._gemm, self._dense.T, len(x) == 1
        a = gemv(1.0, p_t, x[0]) if one else gemm(1.0, p_t, x.T)
        b = np.empty_like(a) if steps > 1 else None
        for _ in range(steps - 1):
            # after b: offx, incx, offy, incy, trans, overwrite_y (?gemv);
            # trans_a, trans_b, overwrite_c (?gemm)
            if one:
                gemv(1.0, p_t, a, 0.0, b, 0, 1, 0, 1, 0, 1)
            else:
                gemm(1.0, p_t, a, 0.0, b, 0, 0, 1)
            a, b = b, a
        return a[None, :] if one else a.T

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

    def advance(self, z: np.ndarray, t: float, steps: int = 1, first: int = 0) -> np.ndarray:
        """`steps` steps of a packed stack, or of a 1-D wave vector (packed
        before the steps and unpacked after them), into a new array.  Step j
        (from 0) starts at t + (first + j) dt, so a run that passes its start
        time and the number of steps already taken forms each step's time
        from the start, whichever call takes the step."""
        x = self.pack(z) if z.ndim == 1 else z
        if steps < 0:
            raise ValueError(f"steps must be at least 0, got {steps}")
        if self._real and x.dtype.kind == "c":
            raise ValueError("a real closure steps the real stack of `pack`, not a complex one")
        if self._dense is not None and steps:
            x = self._dense_steps(x, steps)
        else:  # no step gives the work copy of `_steps`
            x = self._steps(x, t, steps, first)
        return self.unpack(x) if z.ndim == 1 else x


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
    the observables it reads from the records.  Each record interval is one
    `advance` call, which steps a work copy of the stack in place; step k
    (from 1) starts at t0 + (k - 1) dt, formed from the start time in
    whichever interval it falls, and no record shares memory with the stack
    that later steps change.

    A neutral run whose state starts exactly in its sector steps one real
    row (see `CayleyPropagator.pack`) when the step is banded: a real
    closure with more than DENSE_STEP_MAX_DOF unknowns, or any driven real
    run.  Its deviation is 0.0, as the exactly zero row it drops gave.  Any
    other run steps the full stack, so a start off its sector still reports
    its deviation.
    """
    for (record,) in evolve_stacked((state0,), system, config, majorana):
        yield record


def evolve_stacked(
    states: Sequence[KfgState],
    system: System,
    config: EvolutionConfig,
    majorana: str | None = None,
) -> Iterator[tuple[TrajectoryRecord, ...]]:
    """`evolve` of several states on one system, stepped as one stack:
    at each record, a tuple of one record per state, in the order of
    `states`.

    Each state is packed as `evolve` packs it alone, the packs are stacked
    row after row, and each record interval is one `advance` of the whole
    stack, so a dense step reads its matrix once a step for every state.
    A state's record is rebuilt from its own rows and carries its own time,
    t0 + k dt from its own start t0; at step 0 it holds the state's own z,
    as in `evolve`.  The banded step gives each row the same bits in any
    stack.  The dense step's ?gemm picks its kernel by the row count, so
    there a state's records equal those of its run alone only where its
    rows get the same bits in the larger stack: the two-row packs of a real
    closure, stacked by two, do with the OpenBLAS scipy bundles.  The steps
    of a driven system are timed from one start, so its states must share
    their start time.
    """
    if not states:
        raise ValueError("no state to evolve")
    starts = [state.t for state in states]
    if not system.is_static and len(set(starts)) > 1:
        raise ValueError(f"a driven stack needs one start time, got {starts}")
    prop = CayleyPropagator(system, config.dt)
    waves = [state_to_wave(state, system) for state in states]
    packs = [prop.pack(z, majorana) for z in waves]
    ends = np.cumsum([len(x) for x in packs]).tolist()
    rows = [slice(end - len(x), end) for x, end in zip(packs, ends)]

    def snapshot(t0: float, step_index: int, x: np.ndarray, zz: np.ndarray) -> TrajectoryRecord:
        t = t0 + step_index * config.dt
        if not np.all(np.isfinite(zz)):
            raise NumericalFailure(f"the state is not finite at t = {t:.6g}")
        state = wave_to_state(zz, system, t)
        dev = None
        if majorana is not None:
            dev = _pairing_deviation(x, majorana, system.units)
            state = majorana_project(state, majorana)
        return TrajectoryRecord(t=t, state=state, majorana_deviation=dev)

    yield tuple(snapshot(t0, 0, x, z) for t0, x, z in zip(starts, packs, waves))
    x = np.concatenate(packs)
    for first in range(0, config.steps, config.record_every):
        k = min(first + config.record_every, config.steps)
        x = prop.advance(x, starts[0], k - first, first)
        yield tuple(snapshot(t0, k, x[own], prop.unpack(x[own], majorana))
                    for t0, own in zip(starts, rows))


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
