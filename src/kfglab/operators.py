"""Discrete spatial operator with boundary closure, the two-component
Hamiltonian, and the stationary eigenproblem.

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
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .core import (
    Grid,
    KfgLabError,
    KfgState,
    NATURAL_UNITS,
    PhysicalUnits,
    ScalarPotential,
)
from .bc import (
    BcParams,
    BcRealization,
    CoupledBc,
    NotMajoranaCompatible,
    SeparatedBc,
    bc_realization,
)

SLAVED_CUTOFF = 1e-10
PIN_CUTOFF = 1e-10

# The dense/banded crossover, in unknowns.  At or below it a static run
# steps with the dense 2m x 2m step matrix (one BLAS product beats the ~20
# small numpy calls of the banded step below about 160-200 unknowns, and the
# many short static runs of the verify suites sit at n <= 64), and
# `eigenmodes` solves for every mode, from the bands.  Above it
# `eigenmodes(count=k)` solves only for the lowest modes.  Every mode against
# 3 modes plus the extreme eigenvalue, ms, at n = 128 / 160 / 192 grid points
# (best of 7, one BLAS thread, 2 shared vCPUs, quadratic potential):
# periodic 1.65/3.84, 2.77/2.75, 3.88/4.13; rotation:0.0 1.77/3.89,
# 2.81/4.15, 4.02/4.13; quasimixed+ 3.71/3.34, 6.87/3.33, 18.5/4.55;
# dirichlet 1.14/0.36, 2.16/0.41, 3.08/0.49.  A neutral run's one-row
# banded step (see `CayleyPropagator.pack`) meets the dense two-row product,
# with the dense matrix's subnormal entries set to zero, between n = 128 and
# 162 on dirichlet, neumann and robin_mit_plus and between n = 162 and 192 on
# periodic (best of 7, same host); the crossover stays at 160.
DENSE_STEP_MAX_DOF = 160


class SingularClosure(KfgLabError):
    """The boundary closure cannot be eliminated on this grid/potential."""


class ClosureNotSelfAdjoint(KfgLabError):
    """Assembled Hamiltonian failed the pseudo-Hermiticity check."""


class NumericalFailure(KfgLabError):
    """Eigensolver or linear solver did not converge."""


class InvalidMode(KfgLabError):
    """Mode synthesis referenced a nonexistent or quarantined mode."""


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
    lam: float
    dof: np.ndarray                      # indices of the unknowns
    pinned: tuple[int, ...]              # grid points held at zero
    slaved: tuple[int, complex] | None   # (grid point, factor): f[pt] = factor * f[0]
    ghost_a: GhostMap
    ghost_b: GhostMap
    dof_weights: np.ndarray              # metric weights of the unknowns
    is_complex: bool

    @property
    def n_dof(self) -> int:
        return len(self.dof)

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
        dof = np.array([i for i in range(n) if i not in pinned])
        return DiscreteClosure(
            grid=grid, lam=lam, dof=dof, pinned=tuple(pinned), slaved=None,
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
        dof = np.arange(n)
        return DiscreteClosure(
            grid=grid, lam=lam, dof=dof, pinned=(), slaved=None,
            ghost_a=ga, ghost_b=gb, dof_weights=w.copy(), is_complex=is_complex,
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
    dof = np.arange(n - 1)
    weights = w[:-1].copy()
    weights[0] = w[0] + abs(m11) ** 2 * w[-1]
    return DiscreteClosure(
        grid=grid, lam=lam, dof=dof, pinned=(), slaved=(n - 1, complex(m11)),
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


def potential_diag(
    closure: DiscreteClosure,
    potential: ScalarPotential,
    units: PhysicalUnits,
    t: float,
) -> np.ndarray:
    """(mc^2)^2 + 2 mc^2 S(x, t) on the full grid.

    Raises SingularClosure for an end-identifying closure over a potential
    with S(a, t) != S(b, t).
    """
    s = np.asarray(potential.sample(closure.grid.x, t), dtype=float)
    return sampled_diag(closure, units, s)


def sampled_diag(closure: DiscreteClosure, units: PhysicalUnits, s: np.ndarray) -> np.ndarray:
    """(mc^2)^2 + 2 mc^2 s for a potential s already sampled on the full grid;
    raises SingularClosure as `potential_diag` does."""
    check_end_values(closure, s)
    mc2 = units.mc2
    return mc2**2 + 2.0 * mc2 * s


def check_end_values(closure: DiscreteClosure, s: np.ndarray) -> None:
    """Raise SingularClosure when an end-identifying closure meets a grid
    field s (a potential or a profile) with s(a) != s(b)."""
    if closure.slaved is not None and abs(s[0] - s[-1]) > 1e-12 * (1.0 + np.max(np.abs(s))):
        raise SingularClosure(
            "end-identifying boundary condition requires S(a, t) = S(b, t)"
        )


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

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The matrix applied along the last axis of x, into `out` if given."""
        out = np.multiply(self.main, x, out=out)
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

    def hermiticity_defect(self) -> float:
        """Relative Frobenius norm of B - B^dag."""
        corners = np.array([self.top_right, self.bottom_left])
        entries = np.concatenate([self.main, self.upper, self.lower, corners])
        # B^dag keeps the diagonal and swaps upper with lower and the corners
        adjoint = np.concatenate([self.main, self.lower, self.upper, corners[::-1]]).conj()
        return float(np.linalg.norm(entries - adjoint) / max(np.linalg.norm(entries), 1e-300))


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
    sym = bands.similarity(np.sqrt(closure.dof_weights))
    defect = sym.hermiticity_defect()
    if defect > 1e-12:
        raise SingularClosure(f"closure is not self-adjoint (defect {defect:.3e})")
    return sym, defect


@dataclass(frozen=True)
class KineticMatrix:
    """Discrete c^2 p^2 + (mc^2)^2 + 2 mc^2 S with the closure baked in.

    `kinetic_bands` is K_0, the potential-free operator in the Hermitian
    frame; `bands` is K = K_0 + diag on the unknowns, which the step, the
    modes, the spectrum and the oracles read, and `at` moves it to time t in
    O(n).  The dense `sym` (K, for the dense Hamiltonian and the test
    oracles) and `l_dof` (W^(-1/2) K W^(1/2), whose eigenvectors are the
    grid modes) are built on first read; no solver reads them.
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
        k0 = self.kinetic_bands
        return dataclasses.replace(k0, main=k0.main + self.diag[self.closure.dof])

    @cached_property
    def sym(self) -> np.ndarray:
        return self.bands.dense()

    @cached_property
    def l_dof(self) -> np.ndarray:
        return self.bands.similarity(1.0 / np.sqrt(self.closure.dof_weights)).dense()

    def at(self, potential: ScalarPotential, t: float) -> "KineticMatrix":
        """The same operator with the potential taken at time t."""
        diag = potential_diag(self.closure, potential, self.units, t)
        return dataclasses.replace(self, t=t, diag=diag)


def assemble_kinetic(
    grid: Grid,
    potential: ScalarPotential,
    bc: BcRealization,
    units: PhysicalUnits = NATURAL_UNITS,
    t: float = 0.0,
    closure: DiscreteClosure | None = None,
) -> KineticMatrix:
    """Build the closed spatial operator at time t.

    `closure`, if given, is `build_closure(grid, bc)` already built.
    Raises SingularClosure when the closure cannot be eliminated, including
    an end-identifying closure over a potential with S(a) != S(b).
    """
    if closure is None:
        closure = build_closure(grid, bc)
    kinetic_bands, defect = hermitian_frame(
        closure, closure_bands(closure, units, np.zeros(grid.n))
    )
    return KineticMatrix(
        closure=closure, units=units, t=t,
        diag=potential_diag(closure, potential, units, t),
        kinetic_bands=kinetic_bands, hermiticity_defect=defect,
    )


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """2n x 2n first-order-in-time generator in the Hermitian representation.

    Blockwise [[W + mc^2, W], [-W, -W - mc^2]] with W = (K - (mc^2)^2)/(2 mc^2),
    i.e. the discrete p^2/2m + S.  Pseudo-Hermitian: tau_3 h^dag tau_3 = h.
    """

    kinetic: KineticMatrix
    matrix: np.ndarray
    pseudo_hermiticity_defect: float

    @property
    def n_dof(self) -> int:
        return self.kinetic.n_dof


def pseudo_hermiticity_defect(h: np.ndarray) -> float:
    """Relative Frobenius defect of tau_3 h^dag tau_3 - h."""
    m = h.shape[0] // 2
    t3 = np.ones(2 * m)
    t3[m:] = -1.0
    twisted = t3[:, None] * h.conj().T * t3[None, :]
    return float(np.linalg.norm(twisted - h) / max(np.linalg.norm(h), 1e-300))


def assemble_fv_hamiltonian(
    kinetic: KineticMatrix, tol: float = 1e-10
) -> DiscreteHamiltonian:
    """Assemble the two-component Hamiltonian from the closed kinetic matrix."""
    units = kinetic.units
    mc2 = units.mc2
    nd = kinetic.n_dof
    w_block = (kinetic.sym - mc2**2 * np.eye(nd)) / (2.0 * mc2)
    h = np.zeros((2 * nd, 2 * nd), dtype=np.complex128)
    h[:nd, :nd] = w_block + mc2 * np.eye(nd)
    h[:nd, nd:] = w_block
    h[nd:, :nd] = -w_block
    h[nd:, nd:] = -w_block - mc2 * np.eye(nd)
    defect = pseudo_hermiticity_defect(h)
    if defect > tol:
        raise ClosureNotSelfAdjoint(
            f"pseudo-Hermiticity defect {defect:.3e} exceeds {tol:.1e}"
        )
    return DiscreteHamiltonian(kinetic=kinetic, matrix=h, pseudo_hermiticity_defect=defect)


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


def _hermitian_csc(bands: Bands) -> scipy.sparse.csc_array:
    """The bands as a sparse Hermitian matrix, read from the lower triangle
    and the bottom-left corner as a dense Hermitian solver reads `sym`."""
    m = len(bands.main)
    i = np.arange(m)
    rows = np.concatenate([i, i[1:], i[:-1], [m - 1, 0]])
    cols = np.concatenate([i, i[:-1], i[1:], [0, m - 1]])
    corner = bands.bottom_left
    data = np.concatenate(
        [bands.main.real, bands.lower, bands.lower.conj(), [corner, np.conj(corner)]]
    )
    return scipy.sparse.csc_array((data, (rows, cols)), shape=(m, m))


def _positive_definite_factor(a: scipy.sparse.csc_array, sigma: float):
    """LU of a - sigma I without pivoting if every pivot is positive, else
    None.  Unpivoted LU of a Hermitian matrix is its LDL^H, so by
    Sylvester's law of inertia positive pivots mean sigma lies below the
    spectrum of a."""
    shifted = a - sigma * scipy.sparse.eye_array(a.shape[0], format="csc")
    try:
        lu = scipy.sparse.linalg.splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError:  # exactly singular
        return None
    natural = np.arange(a.shape[0])
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        return None
    return lu if np.all(lu.U.diagonal().real > 0.0) else None


def _lowest_eigenpairs(bands: Bands, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of Hermitian bands, ascending, in O(m k^2).

    Tridiagonal bands go to bisection and inverse iteration (LAPACK ?stebz,
    ?stein): 11 ms for three modes at m = 8190, where MRRR (?stemr) took
    291 ms.  With corners, shift-invert Lanczos (ARPACK) runs below a shift
    sigma certified to lie under the spectrum.  The corners are a rank-2
    term with one negative eigenvalue, so by interlacing at most one
    eigenvalue of K lies below the lowest one of its tridiagonal part T, and
    none below lambda_0(T) - |corner|.  The first shift is lambda_0(T) -
    (lambda_1(T) - lambda_0(T)); while a pivot of K - sigma I is not
    positive the drop below lambda_0(T) doubles.
    """
    if bands.tridiagonal:
        try:
            return scipy.linalg.eigh_tridiagonal(
                bands.main, bands.lower, select="i", select_range=(0, k - 1),
                lapack_driver="stebz",
            )
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    a = _hermitian_csc(bands)
    t0, t1 = scipy.linalg.eigvalsh_tridiagonal(
        bands.main.real, np.abs(bands.lower), select="i", select_range=(0, 1)
    )
    floor = t0 - 2.0 * abs(bands.bottom_left) - (t1 - t0)
    drop = max(t1 - t0, 1e-12 * max(1.0, abs(t0)))
    while True:
        sigma = max(t0 - drop, floor)
        lu = _positive_definite_factor(a, sigma)
        if lu is not None:
            break
        if sigma == floor:
            raise NumericalFailure("no shift below the spectrum could be certified")
        drop *= 2.0
    m = a.shape[0]
    inverse = scipy.sparse.linalg.LinearOperator((m, m), matvec=lu.solve, dtype=a.dtype)
    # a fixed generic start vector: ones would be orthogonal to every mode
    # that is odd under a symmetry of the problem
    v0 = np.random.default_rng(0).standard_normal(m).astype(a.dtype)
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            a, k=k, sigma=sigma, OPinv=inverse, v0=v0, tol=0.0
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
        vals, rot = scipy.linalg.eigh(vecs.conj().T @ (a @ vecs))
        vecs = vecs @ rot
    return vals, vecs


def _spectral_radius(bands: Bands, lowest: float) -> float:
    """max |E^2| over the spectrum, given its lowest eigenvalue."""
    m = len(bands.main)
    if bands.tridiagonal:
        top = scipy.linalg.eigvalsh_tridiagonal(
            bands.main, bands.lower, select="i", select_range=(m - 1, m - 1)
        )[0]
    else:
        negated = Bands(-bands.main, -bands.upper, -bands.lower,
                        -bands.top_right, -bands.bottom_left)
        top = -_lowest_eigenpairs(negated, 1)[0][0]
    return max(abs(lowest), abs(top))


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


# Eigenvalues within DEGENERACY_TOL * max|E^2| of each other form a
# degenerate pair.  The computed members of the free periodic and
# antiperiodic pairs lie up to 12 eps max|E^2| apart (n = 64 ... 1024, dense
# and banded drivers), and the next gaps there are above 1e10 eps max|E^2|.
DEGENERACY_TOL = 64 * np.finfo(float).eps


def _splits_a_pair(bands: Bands, vals: np.ndarray, vecs: np.ndarray, tol: float) -> bool:
    """Whether the eigenvalue after the k lowest (vals, vecs) lies within tol
    of the last one, so that a set of these k splits a degenerate pair.

    One step of inverse iteration at the last eigenvalue from a vector
    orthogonal to the k modes: its Rayleigh quotient is at least the next
    eigenvalue (Courant-Fischer) and, when that one is degenerate with the
    last, lands within round-off of it.  Tridiagonal bands have simple
    eigenvalues, and two members of a pair already in the set leave none
    to split: an eigenvector is fixed by its first two entries.
    """
    if bands.tridiagonal or (len(vals) > 1 and vals[-1] - vals[-2] <= tol):
        return False
    ab, pos = _ring_band(bands)
    m = len(pos)
    # K - sigma I in the ring order, in the general band storage of ?gbsv
    shifted = np.zeros((5, m), dtype=ab.dtype)
    shifted[2:] = ab
    shifted[2] -= vals[-1] + 0.5 * tol
    shifted[1, 1:] = ab[1, :-1].conj()
    shifted[0, 2:] = ab[2, :-2].conj()
    x = np.random.default_rng(1).standard_normal(m).astype(ab.dtype)
    x -= vecs @ (vecs.conj().T @ x)
    ring = np.empty_like(x)
    ring[pos] = x
    x = scipy.linalg.solve_banded((2, 2), shifted, ring)[pos]
    x -= vecs @ (vecs.conj().T @ x)
    return np.vdot(x, bands.matvec(x)).real / np.vdot(x, x).real - vals[-1] <= tol


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


def _quarantine(vals: np.ndarray, radius: float, positivity_tol: float):
    """Mask of the positive E^2 and the (index, E^2) of the others."""
    keep = vals > positivity_tol * max(1.0, radius)
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


def spectrum(
    kinetic: KineticMatrix, positivity_tol: float = 1e-12
) -> tuple[np.ndarray, tuple]:
    """Every eigenvalue of the closed kinetic operator, without vectors: the
    positive energies E = +sqrt(E^2), ascending, and the quarantined (index,
    E^2) pairs, by the rule of `eigenmodes`."""
    vals = _all_eigenvalues(kinetic.bands)
    keep, diagnostics = _quarantine(vals, max(abs(vals[0]), abs(vals[-1])), positivity_tol)
    return np.sqrt(vals[keep]), diagnostics


def eigenmodes(
    kinetic: KineticMatrix, positivity_tol: float = 1e-12, count: int | None = None
) -> ModeSet:
    """Stationary modes of the closed kinetic operator, solved from its bands.

    Eigenvalues are E^2; modes store E = +sqrt(E^2) with fields extended to
    the full grid, orthonormal under the trapezoid weights, with each
    degenerate pair in its canonical basis (`canonical_pairs`) and gauged
    (see `gauge`).  E^2 <= positivity_tol * max(1, max |E^2|) is
    quarantined in `diagnostics`.  count=None gives every mode.  With a
    count and more than DENSE_STEP_MAX_DOF unknowns only the lowest modes
    are computed, until `count` of them are positive, so every quarantined
    mode is among them; a set that would end on the first member of a
    degenerate pair grows by one, and a count that would need half of the
    unknowns or more gives every mode.
    """
    if count is not None and count < 1:
        raise ValueError("count must be at least 1")
    bands = kinetic.bands
    m = kinetic.n_dof
    k = count if count is not None and m > DENSE_STEP_MAX_DOF else m
    radius = None
    while 2 * k < m:
        vals, vecs = _lowest_eigenpairs(bands, k)
        if radius is None:
            radius = _spectral_radius(bands, vals[0])
        keep, diagnostics = _quarantine(vals, radius, positivity_tol)
        if np.count_nonzero(keep) < count:
            k = count + np.count_nonzero(~keep)
        elif _splits_a_pair(bands, vals, vecs, DEGENERACY_TOL * radius):
            k += 1
        else:
            break
    else:  # every mode
        vals, vecs = _all_eigenpairs(bands)
        radius = max(abs(vals[0]), abs(vals[-1]))
        keep, diagnostics = _quarantine(vals, radius, positivity_tol)
    closure = kinetic.closure
    fields = canonical_pairs(
        vals[keep], vecs[:, keep].T / np.sqrt(closure.dof_weights), DEGENERACY_TOL * radius
    )
    return ModeSet(
        energies=np.sqrt(vals[keep]), fields=closure.extend(gauge(fields)), diagnostics=diagnostics
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
                closure=self.closure,
            )
        if self.is_static or t == self._kinetic.t:
            return self._kinetic
        return self._kinetic.at(self.potential, t)

    def frozen(self, t: float) -> "System":
        """This system with its potential frozen at time t (itself if static)."""
        if self.is_static:
            return self
        return System(self.grid, self.bc, self.potential.frozen(t), self.units)

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
        diag = potential_diag(self.closure, self.potential, self.units, t)
        return e2_field(self.closure, self.units, diag, field)

    def synthesize(
        self,
        coefficients: list[tuple[int, float, float]],
        t: float = 0.0,
        kind: str = "plus",
    ) -> KfgState:
        if kind in ("plus", "minus") and self.closure.is_complex:
            raise NotMajoranaCompatible(
                "complex boundary closure admits no strictly neutral states"
            )
        count = max([1] + [index + 1 for index, _, _ in coefficients])
        return synthesize_state(self.modes(count), coefficients, t, kind, self.units)
