"""Discrete spatial operator with boundary closure, the pseudo-Hermiticity
of the two-component Hamiltonian, and the stationary eigenproblem.

Discretization scheme
---------------------
Vertex-centered grid with the standard three-point stencil for the second
derivative.  The boundary closure eliminates the two ghost points using the
boundary relations themselves:

- a Robin pair alpha*psi + beta*lam*psi_x = 0 with beta != 0 solves the
  centered endpoint derivative for the ghost;
- a degenerate pair (beta = 0) pins the endpoint value to zero, which
  removes that point from the unknowns;
- an endpoint-coupling matrix M with M[0,1] != 0 determines both ghosts
  from the two coupling relations (unit determinant makes the resulting
  corner couplings self-adjoint);
- M[0,1] = 0 identifies the endpoint values (psi(b) = M[0,0] psi(a));
  the last grid point is then slaved to the first and the ghosts follow
  from the derivative relation plus consistency of the slaved row.

The eliminated operator L acts on the remaining unknowns and is self-adjoint
with respect to the trapezoid quadrature weights (with the slaved point's
weight folded into its master).  The stored KineticMatrix is the
similarity-transformed representation K = W^(1/2) L W^(-1/2), which is
plainly Hermitian and shares L's spectrum exactly; physical mode fields u
satisfy L u = E^2 u and their weighted counterparts v = W^(1/2) u satisfy
K v = E^2 v.

Boundary derivatives evaluated anywhere in this package use the same ghost
values the operator uses, so discrete boundary data satisfies the coupling
relations identically and endpoint-balance statements hold to round-off.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .core import (
    Grid,
    InvalidPotential,
    KfgLabError,
    KfgState,
    NATURAL_UNITS,
    PhysicalUnits,
    ScalarPotential,
)
from .bc import (
    BcParams,
    BcRealization,
    NotMajoranaCompatible,
    SeparatedBc,
    bc_realization,
)

SLAVED_CUTOFF = 1e-10
PIN_CUTOFF = 1e-10


class SingularClosure(KfgLabError):
    """The boundary closure cannot be eliminated on this grid/potential."""


class NumericalFailure(KfgLabError):
    """Eigensolver or linear solver did not converge."""


class InvalidMode(KfgLabError):
    """Mode synthesis referenced a nonexistent or quarantined mode."""


class SingularFactor(KfgLabError):
    """A shifted band matrix d I + c K is exactly singular."""


@dataclass(frozen=True)
class GhostMap:
    """Ghost value as a sparse linear combination of grid values.

    Acts along the last axis, so a stack of fields gives a stack of ghosts.
    """

    indices: tuple[int, ...]
    coefs: np.ndarray

    @cached_property
    def _index(self) -> np.ndarray:
        return np.array(self.indices)

    def __call__(self, field: np.ndarray) -> np.ndarray:
        # in Fortran order, as fancy indexing lays out the gathered columns of
        # a stack: the product's BLAS kernel, and so its last bits, follows
        # the layout, and this one gives each row of a stack its own bits
        return np.asfortranarray(field.take(self._index, axis=-1)) @ self.coefs


@dataclass(frozen=True)
class DiscreteClosure:
    """Ghost-elimination data for one boundary realization on one grid."""

    grid: Grid
    dof: slice                           # the unknowns: one run of grid points
    pinned: tuple[int, ...]              # grid points held at zero
    slaved: tuple[int, complex] | None   # (grid point, factor): f[pt] = factor * f[0]
    ghost_a: GhostMap
    ghost_b: GhostMap
    dof_weights: np.ndarray              # metric weights of the unknowns
    is_complex: bool

    @property
    def n_dof(self) -> int:
        return self.dof.stop - self.dof.start

    @cached_property
    def sqrt_weights(self) -> np.ndarray:
        """W^(1/2): the square roots of `dof_weights`."""
        return np.sqrt(self.dof_weights)

    def restrict(self, full: np.ndarray) -> np.ndarray:
        return np.asarray(full)[self.dof]

    def extend(self, values: np.ndarray) -> np.ndarray:
        """Full-grid fields from the unknowns, along the last axis."""
        values = np.asarray(values)
        dtype = np.complex128 if (self.is_complex or np.iscomplexobj(values)) else np.float64
        full = np.zeros(values.shape[:-1] + (self.grid.n,), dtype=dtype)
        full[..., self.dof] = values
        if self.slaved is not None:
            pt, factor = self.slaved
            full[..., pt] = (factor.real if not np.iscomplexobj(full) else factor) * full[..., 0]
        return full

    def ghosts(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.ghost_a(full), self.ghost_b(full)

    def dx1(self, full: np.ndarray) -> np.ndarray:
        """First derivative along the last axis: centered everywhere, ghost
        values at the ends."""
        full = np.asarray(full, dtype=np.complex128)
        g_a, g_b = self.ghosts(full)
        out = np.empty_like(full)
        h2 = 2.0 * self.grid.dx
        out[..., 1:-1] = (full[..., 2:] - full[..., :-2]) / h2
        out[..., 0] = (full[..., 1] - g_a) / h2
        out[..., -1] = (g_b - full[..., -2]) / h2
        return out

    def second_difference(self, full: np.ndarray) -> np.ndarray:
        """(-f[i-1] + 2 f[i] - f[i+1]) / dx^2 at every grid point along the
        last axis, with ghosts."""
        full = np.asarray(full, dtype=np.complex128)
        g_a, g_b = self.ghosts(full)
        dx2 = self.grid.dx**2
        out = np.empty_like(full)
        # in place, bit for bit (-f[i-1] + 2 f[i] - f[i+1]) / dx^2
        mid = out[..., 1:-1]
        np.multiply(full[..., 1:-1], 2.0, out=mid)
        mid -= full[..., :-2]
        mid -= full[..., 2:]
        mid /= dx2
        out[..., 0] = (-g_a + 2.0 * full[..., 0] - full[..., 1]) / dx2
        out[..., -1] = (-full[..., -2] + 2.0 * full[..., -1] - g_b) / dx2
        return out


def _end_ghost_separated(alpha, beta, dx, lam, at_a: bool):
    """Ghost map for one separated end; None signals a pinned endpoint."""
    if abs(beta) <= PIN_CUTOFF:
        return None
    r = 2.0 * dx * alpha / (lam * beta)
    if at_a:
        return GhostMap(indices=(0, 1), coefs=np.array([r, 1.0]))
    return GhostMap(indices=(-2, -1), coefs=np.array([1.0, -r]))


def build_closure(grid: Grid, realization: BcRealization) -> DiscreteClosure:
    """Eliminate the ghost points of a boundary realization on a grid."""
    n, dx = grid.n, grid.dx
    lam = realization.lam
    w = grid.trapezoid_weights

    if isinstance(realization, SeparatedBc):
        ga = _end_ghost_separated(realization.alpha_a, realization.beta_a, dx, lam, True)
        gb = _end_ghost_separated(realization.alpha_b, realization.beta_b, dx, lam, False)
        pinned = []
        if ga is None:
            pinned.append(0)
            ga = GhostMap(indices=(0, 1), coefs=np.array([2.0, -1.0]))  # odd reflection
        if gb is None:
            pinned.append(n - 1)
            gb = GhostMap(indices=(-2, -1), coefs=np.array([-1.0, 2.0]))
        dof = slice(1 if 0 in pinned else 0, n - 1 if n - 1 in pinned else n)
        return DiscreteClosure(
            grid=grid, dof=dof, pinned=tuple(pinned), slaved=None,
            ghost_a=ga, ghost_b=gb, dof_weights=w[dof], is_complex=False,
        )

    m = realization.matrix
    m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    det = m11 * m22 - m12 * m21
    is_complex = not realization.is_real
    scale = 2.0 * dx / lam
    if abs(m12) > SLAVED_CUTOFF * (1.0 + np.max(np.abs(m))):
        # both endpoints remain unknowns; ghosts carry the corner coupling
        ga = GhostMap(
            indices=(0, 1, n - 1),
            coefs=np.array([scale * m11 / m12, 1.0, -scale / m12]),
        )
        gb = GhostMap(
            indices=(0, n - 2, n - 1),
            coefs=np.array([-scale * det / m12, 1.0, scale * m22 / m12]),
        )
        return DiscreteClosure(
            grid=grid, dof=slice(0, n), pinned=(), slaved=None,
            ghost_a=ga, ghost_b=gb, dof_weights=w, is_complex=is_complex,
        )

    # value-identifying closure: psi(b) = m11 psi(a)
    if abs(m11) <= SLAVED_CUTOFF:
        raise SingularClosure("coupling matrix has a vanishing first column")
    tr = m11 + m22
    if abs(tr) <= SLAVED_CUTOFF:
        raise SingularClosure("coupling matrix trace vanishes; ghosts undetermined")
    ga_coef = np.array([scale * m21 / tr, (m22 - m11) / tr, 2.0 / tr])
    ga = GhostMap(indices=(0, 1, n - 2), coefs=ga_coef)
    # g_b = m11 g_a + m11 psi[1] - psi[n-2]
    gb_coef = m11 * ga_coef + np.array([0.0, m11, -1.0])
    gb = GhostMap(indices=(0, 1, n - 2), coefs=gb_coef)
    weights = w[:-1].copy()
    weights[0] = w[0] + abs(m11) ** 2 * w[-1]
    return DiscreteClosure(
        grid=grid, dof=slice(0, n - 1), pinned=(), slaved=(n - 1, complex(m11)),
        ghost_a=ga, ghost_b=gb, dof_weights=weights, is_complex=is_complex,
    )


def e2_field(
    closure: DiscreteClosure,
    units: PhysicalUnits,
    diag: np.ndarray,
    field: np.ndarray,
) -> np.ndarray:
    """On-shell E^2 action on full-grid fields along the last axis (pinned
    rows vanish)."""
    out = closure.second_difference(field)
    out *= (units.hbar * units.c) ** 2
    out += diag * np.asarray(field)
    if closure.pinned:
        out[..., list(closure.pinned)] = 0.0
    return out


class PotentialDiagonal:
    """(mc^2)^2 + 2 mc^2 S(x, t) on a closure's grid for S = p(x) f(t), with
    the profile p sampled once: the potential's part of K(t)'s diagonal.

    `check(f, t)` runs the potential's two guards at factor value f in O(1),
    from the extremes and end values of p.  Rounding is monotone, so min S
    is f min p (f >= 0) or f max p (f < 0), and max |S| is max |p| |f|, bit
    for bit: the guards decide as they did on every sample of S.
    """

    def __init__(self, closure: DiscreteClosure, potential: ScalarPotential, units: PhysicalUnits):
        p = self.profile = np.asarray(potential.profile.sample(closure.grid.x), dtype=float)
        self.time_factor, self._mc2 = potential.time_factor, units.mc2
        self._range = (p.min(), p.max()) if potential.nonneg else None
        self._ends = (p[0], p[-1], np.max(np.abs(p))) if closure.slaved is not None else None

    def check(self, f: float, t: float) -> None:
        """Raise InvalidPotential for a potential flagged nonnegative with
        min S < -1e-14, and SingularClosure for an end-identifying closure
        with S(a) != S(b), at factor value f (time t)."""
        low = None if self._range is None else f * self._range[1 if f < 0.0 else 0]
        if low is not None and low < -1e-14:
            raise InvalidPotential(f"potential flagged nonnegative but min S = {low:.3e} at t = {t}")
        if self._ends is not None:
            a, b, top = self._ends
            if abs(a * f - b * f) > 1e-12 * (1.0 + top * abs(f)):
                raise SingularClosure(
                    "end-identifying boundary condition requires S(a, t) = S(b, t)")

    def diag(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """The diagonal at time t on the full grid, into `out` if given,
        after the guards; in place with the bits of mc2**2 + 2.0 * mc2 * p f."""
        f = self.time_factor.value(t)
        self.check(f, t)
        out = np.multiply(self.profile, f, out=out)
        out *= 2.0 * self._mc2
        out += self._mc2**2
        return out


@dataclass(frozen=True)
class Bands:
    """Tridiagonal matrix plus the two corner entries (0, m-1) and (m-1, 0).

    `upper[r]` is entry (r, r+1) and `lower[r]` is entry (r+1, r).  Every
    closure's eliminated operator has this shape: a ghost map reaches only
    an endpoint, its neighbour and the opposite end.
    """

    main: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    top_right: complex
    bottom_left: complex

    @property
    def tridiagonal(self) -> bool:
        """Real with no corner entries."""
        return self.corners is None and np.isrealobj(self.main)

    def dense(self) -> np.ndarray:
        m = len(self.main)
        out = np.zeros((m, m), dtype=np.result_type(self.main, self.upper, self.lower))
        i = np.arange(m)
        out[i, i] = self.main
        out[i[:-1], i[1:]] = self.upper
        out[i[1:], i[:-1]] = self.lower
        out[0, -1] = self.top_right
        out[-1, 0] = self.bottom_left
        return out

    @cached_property
    def corners(self) -> np.ndarray | None:
        """[top_right, bottom_left], or None when both are zero."""
        if self.top_right == 0.0 and self.bottom_left == 0.0:
            return None
        return np.array([self.top_right, self.bottom_left])

    @cached_property
    def certified_shift(self) -> tuple[float, "_ShiftedBandsFactor"]:
        """A shift below the spectrum and the factor that certifies it
        (`_certified_shift`), searched once for these bands."""
        return _certified_shift(self)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The matrix applied along the last axis of x."""
        out = self.main * x
        out[..., :-1] += self.upper * x[..., 1:]
        out[..., 1:] += self.lower * x[..., :-1]
        if self.corners is not None:
            # (0, m-1) and (m-1, 0) in one product: ends [0, m-1] += corners * x[m-1, 0]
            step = len(self.main) - 1
            out[..., ::step] += self.corners * x[..., ::-step]
        return out

    def similarity(self, s: np.ndarray) -> "Bands":
        """Bands of diag(s) B diag(s)^(-1).

        The diagonal goes through the same products as the off-diagonals,
        so dense forms match the dense similarity transform to the bit.
        """
        return Bands(
            main=s * self.main / s,
            upper=s[:-1] * self.upper / s[1:],
            lower=s[1:] * self.lower / s[:-1],
            top_right=s[0] * self.top_right / s[-1],
            bottom_left=s[-1] * self.bottom_left / s[0],
        )

    def hermiticity_norms(self) -> tuple[float, float]:
        """Frobenius norms of B - B^dag and of B."""
        corners = np.array([self.top_right, self.bottom_left])
        entries = np.concatenate([self.main, self.upper, self.lower, corners])
        # B^dag keeps the diagonal and swaps upper with lower and the corners
        adjoint = np.concatenate([self.main, self.lower, self.upper, corners[::-1]]).conj()
        return float(np.linalg.norm(entries - adjoint)), float(np.linalg.norm(entries))

    def hermiticity_defect(self) -> float:
        """Relative Frobenius norm of B - B^dag."""
        defect, norm = self.hermiticity_norms()
        return defect / max(norm, 1e-300)


TINY = np.finfo(np.float64).tiny  # the smallest normal float


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Set the subnormal entries (real and imaginary parts apart) of a
    float array with a contiguous last axis to zero, in place.  Each product
    with one is slow, and its term lies below 2.2e-308 times the other
    factor."""
    parts = a.view(np.float64)
    np.putmask(parts, np.abs(parts) < TINY, 0.0)
    return a


class _ShiftedBandsFactor:
    """Factor of M = d I + c B for Hermitian tridiagonal-plus-corner bands B:
    the Cayley step's I + (k/hbar)^2 K and the eigensolver's K - sigma I.

    LAPACK ?pttrf factors the tridiagonal part T as L D L^H in O(m), with
    d + c Re(main) as its diagonal and c lower as its subdiagonal.  Its
    pivots carry the signs of T's eigenvalues (Sylvester's law of inertia),
    so it fails only when T is not positive definite; then LU ?gttrf
    factors T instead.  The corners enter as a rank-2 Woodbury correction
    M = T + U C U^T, with U = [e_0, e_(m-1)] and C = c [[0, top_right],
    [bottom_left, 0]], built from the two unit solves `unit_solves` =
    T^-1 U with whichever factor was built.

    `positive_definite` says whether M is: ?pttrf succeeded and, with
    corners, the capacitance I + C U^T T^-1 U has a positive determinant.
    Inertia is additive over the Schur complements of [[T, U], [U^H, -C^-1]]
    (Haynsworth, 1968), and det C < 0 gives C one eigenvalue of each sign,
    so a positive definite T leaves M positive definite exactly then.

    `refactor(main)` factors M again with a new diagonal of B, keeping the
    LAPACK handles, c lower and the corners.  The unit solves decay from
    their end into subnormal numbers (4474 of 8191 entries on periodic at
    n = 8192), slow in every operation, so they are flushed to zero before
    anything reads them.  A complex closure whose tridiagonal part is real
    (the complex catalog ones, quasiperiodic+ and quasimixed+, keep their
    phases in the corners) has T factored by dpttrf and its unit vectors
    solved by dpttrs, with the bits of zpttrf and zpttrs and the unit solves
    at half the cost (4.3 against 9.3 us at m = 256); complex right-hand
    sides still go to zpttrs.

    Raises SingularFactor when T or the capacitance is exactly singular.
    """

    def __init__(self, bands: Bands, c: float, d: float = 1.0):
        arrays = (bands.main, bands.upper, bands.lower)
        self._pttrf, self._pttrs, self._gttrf, self._gttrs = scipy.linalg.lapack.get_lapack_funcs(
            ("pttrf", "pttrs", "gttrf", "gttrs"), arrays)
        self._c, self._d, self._upper = c, d, bands.upper
        lower = c * bands.lower
        # zpttrs takes the factor as L D L^H with `lower`, in complex numbers
        self._e_dtype = lower.dtype
        self._lower_kw = {"lower": 1} if np.iscomplexobj(lower) else {}
        # the positional arguments after b: lower (zpttrs only), overwrite_b
        self._pttrs_flags = (1, 1) if self._lower_kw else (1,)
        self._unit_pttrs = functools.partial(self._pttrs, **self._lower_kw)
        if self._lower_kw and not lower.imag.any():
            lower = lower.real
            self._pttrf, self._unit_pttrs = scipy.linalg.lapack.get_lapack_funcs(
                ("pttrf", "pttrs"), (lower,))
        self._lower = lower
        self._corners = None if bands.corners is None else (c * bands.corners).tolist()
        if self._corners is not None:
            self._unit = np.zeros((len(bands.main), 2), dtype=lower.dtype, order="F")
            self._unit[0, 0] = self._unit[-1, 1] = 1.0
        self.refactor(bands.main)

    def refactor(self, main: np.ndarray) -> None:
        """Factor M for the bands with `main` as their diagonal."""
        c, d = self._c, self._d
        diag, e, info = self._pttrf(d + c * main.real, self._lower, overwrite_d=1)
        self.positive_definite = info == 0
        if info == 0:
            # e is the subdiagonal of L in T = L D L^H, cast here once for
            # zpttrs when dpttrf built it
            self.tri_solve = functools.partial(
                self._pttrs, diag, e.astype(self._e_dtype, copy=False))
            self.tri_flags = self._pttrs_flags
            unit_solve = functools.partial(self._unit_pttrs, diag, e)
        else:
            *lu, info = self._gttrf(self._lower, d + c * main, c * self._upper)
            if info != 0:
                raise SingularFactor(f"banded factor is singular (info {info})")
            self.tri_solve = unit_solve = functools.partial(self._gttrs, *lu)
            self.tri_flags = ("N", 1)  # trans, overwrite_b
        self._corner_rows = None
        if self._corners is None:
            return
        z = self.unit_solves = unit_solve(self._unit)[0]
        _flush_subnormals(z.T)
        top, bottom = self._corners
        # the rows of z at the unknowns 0, 1, m-2 and m-1
        self.unit_ends = z[[0, 1, -2, -1]].tolist()
        (z00, z01), _, _, (z10, z11) = self.unit_ends
        # the capacitance I + C U^T T^-1 U from the four end entries
        a, b = 1.0 + top * z10, top * z11
        g, h = bottom * z00, 1.0 + bottom * z01
        det = a * h - b * g
        if det == 0.0:
            raise SingularFactor("banded factor's corner correction is singular")
        self.positive_definite = self.positive_definite and det.real > 0.0
        # row i of the correction is y[i, -1] p + y[i, 0] q, with
        # [p; q] = C (capacitance^-1)^T z^T = corner_coef z^T
        self.corner_coef = ((top * h / det, -top * g / det), (-bottom * b / det, bottom * a / det))

    @property
    def corner_rows(self) -> np.ndarray | None:
        """[p; q] = `corner_coef` `unit_solves`^T, None without corners."""
        if self._corner_rows is None and self._corners is not None:
            self._corner_rows = _flush_subnormals(np.array(self.corner_coef) @ self.unit_solves.T)
        return self._corner_rows

    def solve_tridiagonal(self, rhs: np.ndarray) -> np.ndarray:
        """T^-1 applied along the last axis of a C-ordered (r, m) array, in
        place where the dtypes allow; ?pttrs and ?gttrs solve each row on
        its own, so its bits do not depend on r.  `tri_solve(b, *tri_flags)`
        is the same solve of an (m, r) array b, with positional arguments
        only."""
        return self.tri_solve(rhs.T, *self.tri_flags)[0].T

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^-1 applied as `solve_tridiagonal` does, each row with the bits
        it has alone: the corner correction y -= y[:, -1] p + y[:, 0] q, with
        [p; q] = `corner_rows`, is elementwise, not a matrix product, whose
        BLAS kernel (and last bits) would depend on r."""
        y = self.solve_tridiagonal(rhs)
        if self.corner_rows is not None:
            p, q = self.corner_rows
            correction = y[:, -1:] * p
            correction += y[:, :1] * q
            y -= correction
        return y


def closure_bands(
    closure: DiscreteClosure, units: PhysicalUnits, diag: np.ndarray
) -> Bands:
    """Bands of the eliminated operator L = (hbar c)^2 D2 + diag on the unknowns.

    Read off `e2_field` with five probes in one stacked call: the two end
    unknowns, and three combs of spacing 3 over the interior unknowns (the
    comb colouring of Curtis, Powell & Reid, 1974).  No row reaches two
    unknowns of one probe, so every entry has the bits of a unit-vector
    probe, and the ghost maps stay the only encoding of the closure.

    Raises SingularClosure for a ghost map that reaches past an endpoint's
    neighbour (one on the comb of that neighbour would add into its band
    entry unseen), and when the bands do not reproduce the probes.
    """
    n = closure.grid.n
    reach = {i % n for g in (closure.ghost_a, closure.ghost_b) for i in g.indices}
    if not reach <= {0, 1, n - 2, n - 1}:
        raise SingularClosure("ghost map reaches an interior grid point")
    m = closure.n_dof
    col = np.arange(m)
    colour = np.where(col == 0, 0, np.where(col == m - 1, 1, 2 + col % 3))
    probes = (colour == np.arange(5)[:, None]).astype(float)
    out = e2_field(closure, units, diag, closure.extend(probes))[:, closure.dof]
    if not closure.is_complex:
        out = out.real
    # entry (r, c) of L sits in row r of the probe holding unknown c
    bands = Bands(
        main=out[colour, col],
        upper=out[colour[1:], col[:-1]],
        lower=out[colour[:-1], col[1:]],
        top_right=out[1, 0],
        bottom_left=out[0, m - 1],
    )
    if not np.array_equal(bands.matvec(probes), out, equal_nan=True):
        raise SingularClosure("ghost map couples points outside the band shape")
    return bands


def hermitian_frame(closure: DiscreteClosure, bands: Bands) -> tuple[Bands, float]:
    """K = W^(1/2) L W^(-1/2) and its Hermiticity defect.

    Raises SingularClosure when the defect exceeds 1e-12.
    """
    sym = bands.similarity(closure.sqrt_weights)
    defect = sym.hermiticity_defect()
    if defect > 1e-12:
        raise SingularClosure(f"closure is not self-adjoint (defect {defect:.3e})")
    return sym, defect


@dataclass(frozen=True)
class KineticMatrix:
    """Discrete c^2 p^2 + (mc^2)^2 + 2 mc^2 S with the closure baked in.

    `kinetic_bands` is K_0, the potential-free operator in the Hermitian
    frame; `bands` is K = K_0 + diag on the unknowns, which the step, the
    modes, the spectrum and the pseudo-Hermiticity check read, and `at`
    moves it to time t in O(n).  The dense `sym` (K) and `l_dof`
    (W^(-1/2) K W^(1/2), whose eigenvectors are the grid modes) are built
    on first read, only by the test oracles and the benchmark tracer.
    """

    closure: DiscreteClosure
    units: PhysicalUnits
    t: float
    diag: np.ndarray      # (mc^2)^2 + 2 mc^2 S on the full grid
    kinetic_bands: Bands
    hermiticity_defect: float

    @property
    def n_dof(self) -> int:
        return self.closure.n_dof

    @cached_property
    def bands(self) -> Bands:
        return dataclasses.replace(self.kinetic_bands, main=self.main(self.diag))

    def main(self, diag: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """K's diagonal for the potential's diagonal `diag` on the full grid:
        K_0's plus `diag` on the unknowns, or its real part into a real
        `out`."""
        k0 = self.kinetic_bands.main
        return np.add(k0 if out is None else k0.real, diag[self.closure.dof], out=out)

    @cached_property
    def sym(self) -> np.ndarray:
        return self.bands.dense()

    @cached_property
    def l_dof(self) -> np.ndarray:
        return self.bands.similarity(1.0 / self.closure.sqrt_weights).dense()

    def at(self, diagonal: PotentialDiagonal, t: float) -> "KineticMatrix":
        """The same operator with the potential's diagonal taken at time t."""
        return dataclasses.replace(self, t=t, diag=diagonal.diag(t))


def assemble_kinetic(
    grid: Grid,
    potential: ScalarPotential,
    bc: BcRealization,
    units: PhysicalUnits = NATURAL_UNITS,
    t: float = 0.0,
    closure: DiscreteClosure | None = None,
    diagonal: PotentialDiagonal | None = None,
) -> KineticMatrix:
    """Build the closed spatial operator at time t.

    `closure`, if given, is `build_closure(grid, bc)` already built, and
    `diagonal` the potential's `PotentialDiagonal` on it.  Raises
    SingularClosure when the closure cannot be eliminated, including an
    end-identifying closure over a potential with S(a) != S(b), and
    InvalidPotential for a potential flagged nonnegative with S < -1e-14.
    """
    if closure is None:
        closure = build_closure(grid, bc)
    if diagonal is None:
        diagonal = PotentialDiagonal(closure, potential, units)
    kinetic_bands, defect = hermitian_frame(
        closure, closure_bands(closure, units, np.zeros(grid.n))
    )
    return KineticMatrix(
        closure=closure, units=units, t=t,
        diag=diagonal.diag(t),
        kinetic_bands=kinetic_bands, hermiticity_defect=defect,
    )


def pseudo_hermiticity_defect(kinetic: KineticMatrix) -> float:
    """Relative Frobenius defect of tau_3 h^dag tau_3 - h for the two-component
    Hamiltonian h = [[W + mc^2, W], [-W, -W - mc^2]], W = (K - (mc^2)^2) /
    (2 mc^2), in O(n) from K's bands: every block of the difference is
    +-(W^dag - W), and ||h||_F^2 = (||K||_F^2 + m (mc^2)^4) / (mc^2)^2 for m
    unknowns (parallelogram law), so the defect is ||K^dag - K||_F /
    sqrt(||K||_F^2 + m (mc^2)^4)."""
    defect, norm = kinetic.bands.hermiticity_norms()
    mass = math.sqrt(kinetic.n_dof) * kinetic.units.mc2**2
    return defect / max(math.hypot(norm, mass), 1e-300)


@dataclass(frozen=True)
class ModeSet:
    """Stationary modes: positive energies with weight-orthonormal grid fields.

    Nonpositive squared energies (possible for Robin-type closures) are
    quarantined in `diagnostics` as (eigen index, E^2) pairs and never used
    for synthesis.
    """

    energies: np.ndarray          # shape (k,), strictly positive, ascending
    fields: np.ndarray            # shape (k, n) full-grid fields
    diagnostics: tuple = ()

    @property
    def count(self) -> int:
        return len(self.energies)


def _below_spectrum(bands: Bands, sigma: float) -> _ShiftedBandsFactor | None:
    """The factor of bands - sigma I if it is positive definite, that is if
    sigma lies below the spectrum, else None."""
    try:
        factor = _ShiftedBandsFactor(bands, 1.0, -sigma)
    except SingularFactor:
        return None
    return factor if factor.positive_definite else None


def _certified_shift(bands: Bands) -> tuple[float, _ShiftedBandsFactor]:
    """A shift sigma below the spectrum of Hermitian bands with corners, and
    the factor of bands - sigma I that certifies it.  The first shift is
    lambda_0(T) - (lambda_1(T) - lambda_0(T)) for the tridiagonal part T;
    while bands - sigma I is not positive definite the drop below
    lambda_0(T) doubles."""
    t0, t1 = scipy.linalg.eigvalsh_tridiagonal(
        bands.main.real, np.abs(bands.lower), select="i", select_range=(0, 1)
    )
    floor = t0 - 2.0 * abs(bands.bottom_left) - (t1 - t0)
    drop = max(t1 - t0, 1e-12 * max(1.0, abs(t0)))
    while True:
        sigma = max(t0 - drop, floor)
        factor = _below_spectrum(bands, sigma)
        if factor is not None:
            break
        if sigma == floor:
            raise NumericalFailure("no shift below the spectrum could be certified")
        drop *= 2.0
    return sigma, factor


def _lowest_eigenpairs(bands: Bands, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of Hermitian bands, ascending, in O(m k^2).

    Tridiagonal bands go to bisection and inverse iteration (LAPACK ?stebz,
    ?stein): 11 ms for three modes at m = 8190, where MRRR (?stemr) took
    291 ms.  With corners, shift-invert Lanczos (ARPACK) runs below a shift
    sigma certified to lie under the spectrum, with the O(m) factor of
    K - sigma I (`_ShiftedBandsFactor`) as its inverse and its
    `positive_definite` as the certificate.  The corners are a rank-2 term
    with one negative eigenvalue, so by interlacing at most one eigenvalue
    of K lies below the lowest one of its tridiagonal part T, and none below
    lambda_0(T) - |corner|.  The shift is certified once for the bands
    (`Bands.certified_shift`), so a count that grows does not search again.
    """
    if bands.tridiagonal:
        try:
            return scipy.linalg.eigh_tridiagonal(
                bands.main, bands.lower, select="i", select_range=(0, k - 1),
                lapack_driver="stebz",
            )
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    sigma, factor = bands.certified_shift
    m = len(bands.main)
    dtype = np.result_type(bands.lower, bands.bottom_left)
    inverse = scipy.sparse.linalg.LinearOperator(
        (m, m), matvec=lambda x: factor.solve(np.array([x], dtype=dtype))[0], dtype=dtype
    )
    # ARPACK reads only the shape and dtype of K in shift-invert mode
    k_op = scipy.sparse.linalg.LinearOperator((m, m), matvec=bands.matvec, dtype=dtype)
    # a fixed generic start vector: ones would be orthogonal to every mode
    # that is odd under a symmetry of the problem
    v0 = np.random.default_rng(0).standard_normal(m).astype(dtype)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            k_op, k=k, sigma=sigma, OPinv=inverse, v0=v0, tol=0.0
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    # ARPACK resolves theta = 1/(lambda - sigma) to about eps * max(theta),
    # so Ritz vectors whose theta lie closer than 1e9 times that can be
    # mixed beyond 1e-9.  A shift certified below a stiff quarantined mode
    # (E^2 ~ -1e12) squeezes every other theta that close; Rayleigh-Ritz on
    # K itself separates them again.
    theta = 1.0 / (vals - sigma)
    if k > 1 and np.finfo(float).eps * theta[0] > 1e-9 * np.min(-np.diff(theta)):
        vals, rot = scipy.linalg.eigh(vecs.conj().T @ bands.matvec(vecs.T).T)
        vecs = vecs @ rot
    return vals, vecs


def _mode_scale(bands: Bands) -> float:
    """The infinity norm of Hermitian bands, their largest absolute row sum,
    from the diagonal, the lower band and the bottom-left corner, in O(m):
    the scale of every mode decision.  It bounds max |E^2| from above
    (Gershgorin) and is at most four times it, as no row holds more than
    four entries."""
    rows = np.abs(bands.main.real)
    off = np.abs(bands.lower)
    rows[:-1] += off
    rows[1:] += off
    rows[[0, -1]] += abs(bands.bottom_left)
    return float(np.max(rows))


def _ring_band(bands: Bands) -> tuple[np.ndarray, np.ndarray]:
    """Lower band storage (3, m) of the bands in the ring order 0, m-1, 1,
    m-2, ..., and the position of each unknown in that order.

    The order takes the neighbours of the cyclic tridiagonal K at most two
    places apart (the bandwidth-minimizing order of a ring; Cuthill & McKee,
    1969), so with the corners K is a Hermitian band of half-width 2.  Its
    entries are those of the lower triangle and the bottom-left corner, as a
    dense Hermitian solver reads `sym`, conjugated where the ring order puts
    an entry above the diagonal.
    """
    m = len(bands.main)
    order = np.empty(m, dtype=np.intp)
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = np.arange(m - 1, (m - 1) // 2, -1)
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    dtype = np.result_type(bands.lower, bands.bottom_left)
    ab = np.zeros((3, m), dtype=dtype)
    ab[0, pos] = bands.main.real
    # entry (i + 1, i) of K is lower[i], at (pos[i + 1], pos[i]) in the ring order
    row, col = pos[1:], pos[:-1]
    below = row > col
    ab[np.abs(row - col), np.minimum(row, col)] = np.where(below, bands.lower, bands.lower.conj())
    ab[1, 0] = bands.bottom_left  # (m-1, 0) sits at (1, 0)
    return ab, pos


def _all_eigenpairs(bands: Bands) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of Hermitian bands, ascending: divide and conquer on a
    real tridiagonal K (LAPACK ?stevd), else on the ring-ordered band
    (?sbevd, ?hbevd), whose vectors go back to the unknowns' order."""
    try:
        if bands.tridiagonal:
            return scipy.linalg.eigh_tridiagonal(bands.main, bands.lower)
        ab, pos = _ring_band(bands)
        vals, vecs = scipy.linalg.eig_banded(ab, lower=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return vals, vecs[pos]


def _all_eigenvalues(bands: Bands) -> np.ndarray:
    """Every eigenvalue of Hermitian bands, ascending, in O(m) memory."""
    try:
        if bands.tridiagonal:
            return scipy.linalg.eigvalsh_tridiagonal(bands.main, bands.lower)
        return scipy.linalg.eig_banded(_ring_band(bands)[0], lower=True, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc


# Eigenvalues within DEGENERACY_TOL * ||K||_inf (`_mode_scale`) of each
# other form a degenerate pair.  The computed members of the free periodic
# and antiperiodic pairs lie up to 12 eps max|E^2| apart (n = 64 ... 1024,
# dense and banded drivers), and the next gaps there are above 1e10 eps
# max|E^2|; ||K||_inf lies between max|E^2| and 4 max|E^2|.
DEGENERACY_TOL = 64 * np.finfo(float).eps


def canonical_pairs(vals: np.ndarray, fields: np.ndarray, tol: float) -> np.ndarray:
    """Rotate each degenerate pair of mode rows to a basis fixed by the pair.

    Pairs are neighbours in the ascending vals within tol.  At the first
    unknown where |u_1|^2 + |u_2|^2 comes within GAUGE_TIE of its largest
    value (the same for every basis of the pair), the first row becomes the
    pair's projection of that unknown and the second row vanishes; the
    rotation is unitary, so the rows stay orthonormal.  Other rows are
    untouched.  Eigenvalues of these operators are at most double (an
    eigenvector is fixed by its first two entries), so a row that round-off
    puts in two pairs stays in the first.
    """
    i = np.flatnonzero(np.diff(vals) <= tol)
    i = i[np.diff(i, prepend=-2) > 1]
    if not len(i):
        return fields
    first, second = fields[i], fields[i + 1]
    weight = np.abs(first) ** 2 + np.abs(second) ** 2
    j = np.argmax(weight >= (1.0 - GAUGE_TIE) * weight.max(axis=1, keepdims=True), axis=1)
    pair = np.arange(len(i))
    a, b = first[pair, j, None], second[pair, j, None]
    r = np.sqrt(weight[pair, j, None])
    out = fields.copy()
    out[i] = (np.conj(a) * first + np.conj(b) * second) / r
    out[i + 1] = (a * second - b * first) / r
    return out


# E^2 at or below POSITIVITY_TOL * max(1, ||K||_inf) is quarantined.
POSITIVITY_TOL = 1e-12


def _quarantine(vals: np.ndarray, scale: float):
    """Mask of the positive E^2 and the (index, E^2) of the others, for the
    mode scale `scale`."""
    keep = vals > POSITIVITY_TOL * max(1.0, scale)
    return keep, tuple((int(i), float(vals[i])) for i in np.flatnonzero(~keep))


# Modes are gauged at the first entry within this relative distance of the
# largest |entry|, so that entries equal up to the solver's error (the two
# peaks of an odd mode on a symmetric problem) give the same choice on both
# paths.  Stiff closures at the pinning and slaving cutoffs reach a relative
# error of 2.5e-4 in their fields, where 1e-6 flipped 3 of 120 modes.
GAUGE_TIE = 1e-3


def gauge(fields: np.ndarray) -> np.ndarray:
    """Scale each row so that its largest-|entry| (the first one within
    GAUGE_TIE of it) is real and positive."""
    mag = np.abs(fields)
    pivot = np.argmax(mag >= (1.0 - GAUGE_TIE) * mag.max(axis=-1, keepdims=True), axis=-1)
    rows = np.arange(len(fields))
    return fields * (mag[rows, pivot] / fields[rows, pivot])[:, None]


def spectrum(kinetic: KineticMatrix) -> tuple[np.ndarray, tuple]:
    """Every eigenvalue of the closed kinetic operator, without vectors: the
    positive energies E = +sqrt(E^2), ascending, and the quarantined (index,
    E^2) pairs, by the rule of `eigenmodes`."""
    vals = _all_eigenvalues(kinetic.bands)
    keep, diagnostics = _quarantine(vals, _mode_scale(kinetic.bands))
    return np.sqrt(vals[keep]), diagnostics


# Below this many unknowns a count on bands with corners solves every mode:
# shift-invert ARPACK has a fixed cost of about 1 ms there.  Every mode
# against 5 modes took 0.87 / 1.04 ms on periodic at 111 unknowns and
# 1.15 / 1.07 at 127; 2.10 / 1.70 ms on quasiperiodic+ at 111 (best of 15,
# one BLAS thread, quadratic potential).  Tridiagonal bands take the
# partial solve (`?stebz`) at every size.
CORNER_PARTIAL_MIN_DOF = 112


def eigenmodes(kinetic: KineticMatrix, count: int | None = None) -> ModeSet:
    """Stationary modes of the closed kinetic operator, solved from its bands.

    Eigenvalues are E^2; modes store E = +sqrt(E^2) with fields extended to
    the full grid, orthonormal under the trapezoid weights, with each
    degenerate pair in its canonical basis (`canonical_pairs`) and gauged
    (see `gauge`).  E^2 <= POSITIVITY_TOL * max(1, ||K||_inf) is quarantined
    in `diagnostics`.  count=None gives every mode.  A count gives the k
    lowest modes, with k = count plus the quarantined ones among them, so
    that every quarantined mode is listed, while 2k < m for the m unknowns;
    a larger k gives every mode.  Bands with corners can hold degenerate
    pairs, so their solve takes one mode more, kept when it pairs with the
    k-th: a set never ends on the first member of a pair.

    The quarantine and the degenerate pairs compare against one scale, the
    infinity norm of the bands (`_mode_scale`), known in O(m) before any
    solve, so a partial set decides as the every-mode set and `spectrum`
    do.  Bands with corners and fewer than CORNER_PARTIAL_MIN_DOF unknowns
    solve every mode and keep the leading rows a partial solve would give,
    bit for bit those of the every-mode set.
    """
    if count is not None and count < 1:
        raise ValueError("count must be at least 1")
    bands = kinetic.bands
    m = kinetic.n_dof
    k = m if count is None else count
    extra = 0 if bands.tridiagonal else 1  # a tridiagonal K has simple eigenvalues
    scale = _mode_scale(bands)
    every = _all_eigenpairs(bands) if extra and 2 * k < m < CORNER_PARTIAL_MIN_DOF else None
    while 2 * k < m:
        if every is None:
            vals, vecs = _lowest_eigenpairs(bands, k + extra)
        else:
            vals, vecs = every[0][:k + extra], every[1][:, :k + extra]
        positive = np.count_nonzero(_quarantine(vals[:k], scale)[0])
        if positive < count:
            k += count - positive
            continue
        if extra and vals[k] - vals[k - 1] <= DEGENERACY_TOL * scale:
            k += 1
        vals, vecs = vals[:k], vecs[:, :k]
        break
    else:  # every mode
        vals, vecs = _all_eigenpairs(bands) if every is None else every
    keep, diagnostics = _quarantine(vals, scale)
    closure = kinetic.closure
    e2 = vals[keep]
    fields = canonical_pairs(e2, vecs[:, keep].T / closure.sqrt_weights, DEGENERACY_TOL * scale)
    return ModeSet(
        energies=np.sqrt(e2), fields=closure.extend(gauge(fields)), diagnostics=diagnostics
    )


def synthesize_state(
    modes: ModeSet,
    coefficients: list[tuple[int, float, float]],
    t: float,
    kind: str = "plus",
    units: PhysicalUnits = NATURAL_UNITS,
) -> KfgState:
    """Build an exactly on-shell state from stationary modes.

    coefficients: (mode index, amplitude, phase).  kind "plus"/"minus" give
    the two strictly neutral sectors psi = sum A cos(E t/hbar + phi) u (times i
    for "minus"); kind "none" gives the charged superposition
    psi = sum A exp(-i(E t/hbar + phi)) u.
    """
    n = modes.fields.shape[1] if modes.count else 0
    psi = np.zeros(n, dtype=np.complex128)
    psi_t = np.zeros(n, dtype=np.complex128)
    hbar = units.hbar
    for index, amp, phase in coefficients:
        if not 0 <= index < modes.count:
            raise InvalidMode(
                f"mode index {index} outside the {modes.count} synthesizable modes"
            )
        e = modes.energies[index]
        u = modes.fields[index]
        arg = e * t / hbar + phase
        if kind in ("plus", "minus"):
            psi = psi + amp * math.cos(arg) * u
            psi_t = psi_t - amp * (e / hbar) * math.sin(arg) * u
        elif kind == "none":
            ph = np.exp(-1j * arg)
            psi = psi + amp * ph * u
            psi_t = psi_t + amp * (-1j * e / hbar) * ph * u
        else:
            raise ValueError("kind must be 'plus', 'minus' or 'none'")
    if kind == "minus":
        psi, psi_t = 1j * psi, 1j * psi_t
    return KfgState(psi=psi, psi_t=psi_t, t=t)


class System:
    """Grid + units + potential + boundary condition, with cached operators."""

    def __init__(
        self,
        grid: Grid,
        bc: BcParams,
        potential: ScalarPotential | None = None,
        units: PhysicalUnits = NATURAL_UNITS,
    ):
        self.grid = grid
        self.bc = bc
        self.potential = potential if potential is not None else ScalarPotential()
        self.units = units
        self.realization = bc_realization(bc)
        self.closure = build_closure(grid, self.realization)
        self._kinetic: KineticMatrix | None = None
        self._modes: ModeSet | None = None

    @property
    def is_static(self) -> bool:
        return self.potential.is_static

    def kinetic(self, t: float = 0.0) -> KineticMatrix:
        """The operator at time t: assembled once, then only its diagonal moves."""
        if self._kinetic is None:
            self._kinetic = assemble_kinetic(
                self.grid, self.potential, self.realization, self.units, t=t,
                closure=self.closure, diagonal=self.potential_diagonal,
            )
        if self.is_static or t == self._kinetic.t:
            return self._kinetic
        return self._kinetic.at(self.potential_diagonal, t)

    @cached_property
    def potential_diagonal(self) -> PotentialDiagonal:
        return PotentialDiagonal(self.closure, self.potential, self.units)

    def modes(self, count: int | None = None) -> ModeSet:
        """Every mode (count=None), or a set holding at least `count`
        positive modes (see `eigenmodes`).  A cached set is reused when it
        is complete or holds enough positive modes."""
        if not self.is_static:
            raise NumericalFailure("stationary modes require a static potential")
        cached = self._modes
        if cached is None or not (
            cached.count + len(cached.diagnostics) == self.closure.n_dof
            or (count is not None and cached.count >= count)
        ):
            self._modes = eigenmodes(self.kinetic(), count=count)
        return self._modes

    def dx1(self, field: np.ndarray) -> np.ndarray:
        return self.closure.dx1(field)

    def e2_apply(self, field: np.ndarray, t: float = 0.0) -> np.ndarray:
        """On-shell E^2 psi = c^2 p^2 psi + (mc^2)^2 psi + 2 mc^2 S psi."""
        return e2_field(self.closure, self.units, self.potential_diagonal.diag(t), field)

    def synthesize(
        self,
        coefficients: list[tuple[int, float, float]],
        t: float = 0.0,
        kind: str = "plus",
    ) -> KfgState:
        """`synthesize_state` at time t from the modes of K(t), cached if static."""
        if kind in ("plus", "minus") and self.closure.is_complex:
            raise NotMajoranaCompatible(
                "complex boundary closure admits no strictly neutral states"
            )
        count = max([1] + [index + 1 for index, _, _ in coefficients])
        modes = self.modes(count) if self.is_static else eigenmodes(self.kinetic(t), count)
        return synthesize_state(modes, coefficients, t, kind, self.units)
