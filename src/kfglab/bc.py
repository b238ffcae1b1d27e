"""Boundary-condition families for the interval problem.

The most general pseudo self-adjoint boundary closure couples the endpoint
data (psi, lam*psi_x) at x=a and x=b through a U(2) matrix parameterized by
a phase mu in [0, pi) and a real unit vector (m0, m1, m2, m3).  Strictly
neutral (Majorana) particles force m2 = 0; the remaining family splits into

- a coupled branch (m1 != 0): [psi(b), lam*psi_x(b)] = M [psi(a), lam*psi_x(a)]
  with M real and det M = 1, and
- a separated branch (m1 = 0): one Robin pair per endpoint.

Two algebraic conditions classify the closures further:

- the tau_1 condition -- the bilinear form with the antidiagonal Pauli
  matrix is preserved, which balances Im(psi * (c p psi)) at the two ends
  and hence the endpoint values of the energy-momentum-tensor current;
- the energy condition -- the bilinear form with 1 + tau_3 is preserved,
  which balances Im(psi * (E psi)) at the ends and makes the two global
  energy currents coincide.

A catalog of twelve named closures (Dirichlet, Neumann, two mixed, two
MIT-bag-like Robin, periodic, antiperiodic, an SO(2) rotation family with
its mu=0 corner, and two complex quasi-periodic/quasi-mixed families)
provides golden parameter points, stored with exact trigonometric values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import KfgLabError

ALG_TOL = 1e-10          # tolerance for all algebraic condition checks
NORM_TOL = 1e-12

TAU1 = np.array([[0.0, 1.0], [1.0, 0.0]])


class InvalidParams(KfgLabError):
    """Boundary parameters violate the unit-norm or range constraints."""


class NotMajoranaCompatible(KfgLabError):
    """Operation requires m2 = 0 but the parameters have a complex part."""


class WrongBranch(KfgLabError):
    """Condition check applied to the wrong realization branch."""


def _normalize_mu(m: tuple[float, float, float, float], mu: float):
    """Fold mu into [0, pi); each pi step flips the sign of every m (same U(2) point)."""
    k = math.floor(mu / math.pi)
    mu_n = mu - k * math.pi
    if mu_n >= math.pi:  # guard against floating wrap
        mu_n -= math.pi
        k += 1
    if k % 2:
        m = tuple(-v for v in m)
    return m, mu_n


@dataclass(frozen=True)
class BcParams:
    """Point on the boundary-condition manifold.

    (m0, m1, m2, m3) has unit norm, mu lies in [0, pi), and lam is the
    length scale multiplying psi_x in the boundary data.  cos_mu/sin_mu may
    be supplied exactly (the catalog does) so that algebraic residuals on
    golden points vanish in exact floating-point arithmetic.
    """

    m0: float
    m1: float
    m2: float
    m3: float
    mu: float
    lam: float = 1.0
    cos_mu: float | None = None
    sin_mu: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m0, self.m1, self.m2, self.m3, self.mu, self.lam))):
            raise InvalidParams("m0, m1, m2, m3, mu and lam must be finite")
        m, mu = _normalize_mu((self.m0, self.m1, self.m2, self.m3), self.mu)
        if mu != self.mu:
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "m0", m[0])
            object.__setattr__(self, "m1", m[1])
            object.__setattr__(self, "m2", m[2])
            object.__setattr__(self, "m3", m[3])
            object.__setattr__(self, "cos_mu", None)
            object.__setattr__(self, "sin_mu", None)
        if self.cos_mu is None:
            object.__setattr__(self, "cos_mu", math.cos(self.mu))
        if self.sin_mu is None:
            object.__setattr__(self, "sin_mu", math.sin(self.mu))
        norm2 = self.m0**2 + self.m1**2 + self.m2**2 + self.m3**2
        if abs(norm2 - 1.0) > NORM_TOL:
            raise InvalidParams(f"|m|^2 = {norm2!r} is not 1 within {NORM_TOL}")
        if self.lam == 0.0:
            raise InvalidParams("lam must be nonzero")
        if self.sin_mu < -1e-15:
            raise InvalidParams("sin(mu) must be nonnegative for mu in [0, pi)")

    @property
    def majorana_compatible(self) -> bool:
        """|m2| <= ALG_TOL, the one rule that admits strictly neutral states."""
        return abs(self.m2) <= ALG_TOL

    @property
    def confining(self) -> bool:
        """Majorana-compatible with |m1| <= ALG_TOL."""
        return self.majorana_compatible and abs(self.m1) <= ALG_TOL

    def with_lam(self, lam: float) -> "BcParams":
        return replace(self, lam=lam)


@dataclass(frozen=True)
class CoupledBc:
    """Endpoint-coupling closure [psi(b), lam psi_x(b)] = M [psi(a), lam psi_x(a)].

    M is real with det M = 1 for Majorana-compatible parameters; otherwise
    it is complex with a unit-modulus determinant.
    """

    matrix: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (2, 2):
            raise InvalidParams("coupling matrix must be 2x2")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if np.isrealobj(m) or np.max(np.abs(m.imag)) < 1e-15:
            m = m.real.astype(float)
            if abs(det.real - 1.0) > NORM_TOL * max(1.0, np.max(np.abs(m)) ** 2):
                raise InvalidParams(f"real coupling matrix must have det 1, got {det}")
        else:
            m = m.astype(np.complex128)
            if abs(abs(det) - 1.0) > NORM_TOL * max(1.0, np.max(np.abs(m)) ** 2):
                raise InvalidParams(f"coupling matrix determinant must have modulus 1, got {det}")
        object.__setattr__(self, "matrix", m)

    @property
    def is_real(self) -> bool:
        return np.isrealobj(self.matrix)

    @property
    def det(self) -> complex:
        m = self.matrix
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@dataclass(frozen=True)
class SeparatedBc:
    """One Robin pair per endpoint: alpha*psi + beta*lam*psi_x = 0."""

    alpha_a: float
    beta_a: float
    alpha_b: float
    beta_b: float
    lam: float = 1.0

    def __post_init__(self):
        if math.hypot(self.alpha_a, self.beta_a) < 1e-14:
            raise InvalidParams("(alpha_a, beta_a) must not both vanish")
        if math.hypot(self.alpha_b, self.beta_b) < 1e-14:
            raise InvalidParams("(alpha_b, beta_b) must not both vanish")


BcRealization = CoupledBc | SeparatedBc


def _separated_pair(c1: tuple[float, float], c2: tuple[float, float]) -> tuple[float, float]:
    """Pick the better-conditioned of two proportional Robin relations and normalize."""
    n1 = math.hypot(*c1)
    n2 = math.hypot(*c2)
    alpha, beta = c1 if n1 >= n2 else c2
    n = math.hypot(alpha, beta)
    if n < ALG_TOL:
        raise InvalidParams("degenerate Robin pair")
    alpha, beta = alpha / n, beta / n
    # deterministic sign: alpha >= 0, and beta > 0 on the alpha = 0 ray
    if alpha < -ALG_TOL or (abs(alpha) <= ALG_TOL and beta < 0.0):
        alpha, beta = -alpha, -beta
    return alpha, beta


def bc_realization(params: BcParams) -> BcRealization:
    """Concrete closure for any U(2) parameter point (complex coupling
    allowed); a Majorana-compatible point has m2 taken as 0."""
    w = params.m1 + 1j * (0.0 if params.majorana_compatible else params.m2)
    c, s = params.cos_mu, params.sin_mu
    if abs(w) > ALG_TOL:
        mat = (
            np.array(
                [
                    [params.m3 + s, -(params.m0 + c)],
                    [-params.m0 + c, -params.m3 + s],
                ],
                dtype=np.complex128,
            )
            / w
        )
        return CoupledBc(matrix=mat, lam=params.lam)
    # separated branch: two proportional relations per endpoint
    alpha_a, beta_a = _separated_pair(
        (params.m3 + s, -(params.m0 + c)), (params.m0 - c, params.m3 - s)
    )
    alpha_b, beta_b = _separated_pair(
        (params.m3 - s, -(params.m0 + c)), (params.m0 - c, params.m3 + s)
    )
    return SeparatedBc(alpha_a, beta_a, alpha_b, beta_b, lam=params.lam)


def m_matrix(params: BcParams) -> BcRealization:
    """Closure for the Majorana-restricted family (`majorana_compatible`)."""
    if not params.majorana_compatible:
        raise NotMajoranaCompatible(f"|m2| = {abs(params.m2)} exceeds ALG_TOL = {ALG_TOL}")
    return bc_realization(params)


def _confining_residuals(m0, m3, cos_mu, sin_mu):
    """The six equations whose simultaneous zeros are the confining closures
    with balanced endpoint products, stacked along a new last axis.

    Polynomial in its arguments, so it also takes complex input (the
    complex-step Jacobian of `_polish`)."""
    return np.stack(
        [
            m0 * m3,
            sin_mu * cos_mu,
            m0 * sin_mu,
            m3 * cos_mu,
            m0 * m0 - cos_mu * cos_mu,
            m3 * m3 - sin_mu * sin_mu,
        ],
        axis=-1,
    )


def check_confining_conditions(params: BcParams) -> bool:
    """For a confining (m1 = m2 = 0) closure: do both endpoint bilinear
    products of the form Im(psi * c p psi) vanish?

    True exactly for the Dirichlet, Neumann and two mixed closures: the
    zeros of the confining system on the unit circles.
    """
    if not params.confining:
        raise WrongBranch("confining conditions apply only when m1 = m2 = 0")
    p = params
    return confining_system_residual(p.m0, p.m3, p.cos_mu, p.sin_mu) <= ALG_TOL


def check_tau1_condition(realization: BcRealization) -> bool:
    """Does the coupling matrix preserve the tau_1 bilinear form (and its inverse too)?

    Preservation balances Im(psi * (c p psi)) at the two ends, which is what
    the energy-momentum-tensor current needs to have equal endpoint values.
    """
    if not isinstance(realization, CoupledBc):
        raise WrongBranch("tau_1 matrix condition applies to coupled closures only")
    m = realization.matrix
    minv = np.linalg.inv(m)
    d1 = np.max(np.abs(m.T @ TAU1 @ m - TAU1))
    d2 = np.max(np.abs(minv.T @ TAU1 @ minv - TAU1))
    return bool(d1 <= ALG_TOL and d2 <= ALG_TOL)


def check_energy_condition(params: BcParams, tol: float = ALG_TOL) -> bool:
    """Does the closure preserve the (1 + tau_3) bilinear form?

    Preservation balances Im(psi * (E psi)) at the two ends; it is what makes
    the two global energy currents equal and the mean energy positive for
    nonnegative potentials.  Expects the Majorana sector (m2 = 0).
    """
    return _energy_defect(params) <= tol


def _energy_residuals(m0, m1, m3, cos_mu, sin_mu):
    """The five (1 + tau_3) bilinear-form equations of the energy condition,
    stacked along a new last axis (polynomial, like `_confining_residuals`)."""
    return np.stack(
        [
            (m3 + sin_mu) * (m0 + cos_mu),
            (m3 + sin_mu) ** 2 - m1**2,
            (m0 + cos_mu) ** 2,
            (-m3 + sin_mu) * (m0 + cos_mu),
            (-m3 + sin_mu) ** 2 - m1**2,
        ],
        axis=-1,
    )


def _energy_defect(params: BcParams) -> float:
    """Max-norm residual of the energy condition at one parameter point."""
    r = _energy_residuals(params.m0, params.m1, params.m3, params.cos_mu, params.sin_mu)
    return float(np.max(np.abs(r)))


# --------------------------------------------------------------------------
# named catalog
# --------------------------------------------------------------------------

SQ3_2 = math.sqrt(3.0) / 2.0
ROTATION_REPR_MU = math.pi / 3.0


@dataclass(frozen=True)
class CatalogEntry:
    tag: str
    roman: str
    params: BcParams
    description: str


def _entry(tag, roman, m0, m1, m2, m3, mu, cmu, smu, description):
    return CatalogEntry(
        tag=tag,
        roman=roman,
        params=BcParams(m0, m1, m2, m3, mu, cos_mu=cmu, sin_mu=smu),
        description=description,
    )


CATALOG: dict[str, CatalogEntry] = {
    e.tag: e
    for e in [
        _entry("dirichlet", "(i)", -1, 0, 0, 0, 0.0, 1.0, 0.0, "psi(a) = psi(b) = 0"),
        _entry("neumann", "(ii)", +1, 0, 0, 0, 0.0, 1.0, 0.0, "psi_x(a) = psi_x(b) = 0"),
        _entry("mixed_a0", "(iii)", 0, 0, 0, +1, math.pi / 2, 0.0, 1.0, "psi(a) = 0, psi_x(b) = 0"),
        _entry("mixed_b0", "(iv)", 0, 0, 0, -1, math.pi / 2, 0.0, 1.0, "psi_x(a) = 0, psi(b) = 0"),
        _entry("robin_mit_plus", "(v)", +1, 0, 0, 0, math.pi / 2, 0.0, 1.0,
               "psi(a) - lam psi_x(a) = 0, psi(b) + lam psi_x(b) = 0"),
        _entry("robin_mit_minus", "(vi)", -1, 0, 0, 0, math.pi / 2, 0.0, 1.0,
               "psi(a) + lam psi_x(a) = 0, psi(b) - lam psi_x(b) = 0"),
        _entry("periodic", "(vii)", 0, +1, 0, 0, math.pi / 2, 0.0, 1.0,
               "psi and psi_x both periodic"),
        _entry("antiperiodic", "(viii)", 0, -1, 0, 0, math.pi / 2, 0.0, 1.0,
               "psi and psi_x both antiperiodic"),
        _entry(f"rotation:{ROTATION_REPR_MU!r}", "(ix)", 0, +1, 0, 0,
               ROTATION_REPR_MU, 0.5, SQ3_2,
               "endpoint data rotated by pi/2 - mu (representative mu = pi/3)"),
        _entry("rotation:0.0", "(x)", 0, +1, 0, 0, 0.0, 1.0, 0.0,
               "psi(a) = lam psi_x(b), psi(b) = -lam psi_x(a)"),
        _entry("quasiperiodic+", "(xi)", 0, 0, +1, 0, math.pi / 2, 0.0, 1.0,
               "psi(a) = +i psi(b), psi_x(a) = +i psi_x(b) (complex; not Majorana)"),
        _entry("quasimixed+", "(xii)", 0, 0, +1, 0, 0.0, 1.0, 0.0,
               "psi(a) = +i lam psi_x(b), psi(b) = +i lam psi_x(a) (complex; not Majorana)"),
    ]
}

# aliases for the sign partners reachable by tag
_EXTRA_TAGS = {
    "quasiperiodic-": BcParams(0, 0, -1, 0, math.pi / 2, cos_mu=0.0, sin_mu=1.0),
    "quasimixed-": BcParams(0, 0, -1, 0, 0.0, cos_mu=1.0, sin_mu=0.0),
}


def params_from_tag(tag: str, lam: float = 1.0) -> BcParams:
    """Resolve a config tag ("dirichlet", "rotation:<mu>", ...) to parameters."""
    name = tag.strip()
    if name in CATALOG:
        return CATALOG[name].params.with_lam(lam)
    if name in _EXTRA_TAGS:
        return _EXTRA_TAGS[name].with_lam(lam)
    if name.startswith("rotation:"):
        rest = name[len("rotation:"):]
        sign = 1.0
        if rest.endswith(":-"):
            sign = -1.0
            rest = rest[:-2]
        try:
            mu = float(rest)
        except ValueError as exc:
            raise InvalidParams(f"cannot parse rotation angle in tag {tag!r}") from exc
        return BcParams(0.0, sign, 0.0, 0.0, mu, lam=lam)
    raise InvalidParams(f"unknown boundary-condition tag {tag!r}")


def _params_close(p: BcParams, q: BcParams) -> bool:
    return (
        abs(p.m0 - q.m0) <= ALG_TOL
        and abs(p.m1 - q.m1) <= ALG_TOL
        and abs(p.m2 - q.m2) <= ALG_TOL
        and abs(p.m3 - q.m3) <= ALG_TOL
        and abs(p.cos_mu - q.cos_mu) <= ALG_TOL
        and abs(p.sin_mu - q.sin_mu) <= ALG_TOL
    )


def match_catalog(params: BcParams) -> tuple[str | None, str | None]:
    """(tag, roman label) of the catalog entry equal to params, if any."""
    for tag, entry in CATALOG.items():
        if tag.startswith("rotation:"):
            continue  # family handled below so arbitrary mu values match
        if _params_close(params, entry.params):
            return tag, entry.roman
    for tag, q in _EXTRA_TAGS.items():
        if _params_close(params, q):
            return tag, "(xi)" if "periodic" in tag else "(xii)"
    if (
        params.majorana_compatible
        and abs(params.m0) <= ALG_TOL
        and abs(params.m3) <= ALG_TOL
        and abs(abs(params.m1) - 1.0) <= ALG_TOL
    ):
        roman = "(x)" if abs(params.sin_mu) <= ALG_TOL else "(ix)"
        suffix = "" if params.m1 > 0 else ":-"
        return f"rotation:{params.mu!r}{suffix}", roman
    return None, None


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BcReport:
    """Classification of one boundary-condition parameter point."""

    majorana_compatible: bool
    confining: bool
    tau1_condition: bool | None
    energy_condition: bool | None
    named_match: str | None
    roman: str | None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Every field, with each detail as its own `value_<name>` key."""
        out = dict(vars(self))
        out.update({f"value_{k}": v for k, v in out.pop("details").items()})
        return out


def classify(params: BcParams) -> BcReport:
    """Fill every report field for one parameter point.

    The tau_1 and energy conditions are only meaningful in the Majorana
    sector; off it (|m2| > ALG_TOL) they are reported as None.
    """
    tau1: bool | None = None
    energy: bool | None = None
    details: dict = {"m1": params.m1, "m2": params.m2}
    if params.majorana_compatible:
        if params.confining:
            tau1 = check_confining_conditions(params)
        else:
            tau1 = check_tau1_condition(m_matrix(params))
        energy = check_energy_condition(params)
        details["endpoint_weight_defect"] = _energy_defect(params)
    tag, roman = match_catalog(params)
    return BcReport(
        majorana_compatible=params.majorana_compatible,
        confining=params.confining,
        tau1_condition=tau1,
        energy_condition=energy,
        named_match=tag,
        roman=roman,
        details=details,
    )


# --------------------------------------------------------------------------
# exhaustive search for the confining solutions of the tau_1 system
# --------------------------------------------------------------------------

CONFINING_SOLUTIONS = (
    (-1.0, 0.0, 0.0),
    (+1.0, 0.0, 0.0),
    (0.0, +1.0, math.pi / 2),
    (0.0, -1.0, math.pi / 2),
)


def confining_system_residual(m0, m3, cmu, smu) -> float:
    """Max-norm residual of the six scalar equations whose simultaneous
    zeros are the confining closures with balanced endpoint products."""
    return float(np.max(np.abs(_confining_residuals(m0, m3, cmu, smu))))


def _canonical_point(theta: float, mu: float) -> tuple[float, float, float]:
    """(m0, m3, mu) with mu folded into [0, pi) and signs adjusted.

    Points within 1e-6 of mu = pi are folded onto the sign-flipped mu ~ 0
    representative of the same U(2) element, so clustering never splits one
    physical solution across the chart boundary.
    """
    m0, m3 = math.cos(theta), math.sin(theta)
    (m0, _, _, m3), mu_n = _normalize_mu((m0, 0.0, 0.0, m3), mu % (2 * math.pi))
    if mu_n > math.pi - 1e-6:
        mu_n -= math.pi
        m0, m3 = -m0, -m3
    return m0, m3, mu_n


_GN_ITERATIONS = 8  # the screened starts converge to round-off in four
_COMPLEX_STEP = 1e-20


def _polish(residuals, starts: np.ndarray, keep: int):
    """Screen `starts` (shape (samples, p)) by max-norm residual and polish
    the best `keep` of them at once with damped Gauss-Newton steps.

    `residuals` maps points (..., p) to residuals (..., r) and must be
    analytic, so its Jacobian comes from one complex step per coordinate.
    The damping |r|^2 (Levenberg-Marquardt with a vanishing parameter)
    keeps the normal equations solvable away from the zeros and leaves the
    quadratic convergence at simple zeros intact.  Returns the polished
    points and their max-norm residuals.
    """
    screen = np.max(np.abs(residuals(starts)), axis=-1)
    x = starts[np.argsort(screen)[:keep]]
    eye = np.eye(x.shape[-1])
    for _ in range(_GN_ITERATIONS):
        r = residuals(x)
        # row j of jac_t is dr/dx_j, from r(x + i h e_j).imag / h
        jac_t = residuals(x[:, None, :] + 1j * _COMPLEX_STEP * eye).imag / _COMPLEX_STEP
        lhs = jac_t @ jac_t.swapaxes(-1, -2) + np.sum(r * r, axis=-1)[:, None, None] * eye
        x = x - np.linalg.solve(lhs, jac_t @ r[..., None])[..., 0]
    return x, np.max(np.abs(residuals(x)), axis=-1)


def enumerate_confining_solutions(
    samples: int, tol: float, seed: int = 0
) -> list[tuple[float, float, float]]:
    """Search the confining slice (m1 = m2 = 0) for closures that balance the
    endpoint products, i.e. the zeros of the six-equation system.

    Random samples over (theta, mu) are screened by residual, the best 256
    are polished together (`_polish`), and converged points are clustered.

    Returns the cluster representatives as (m0, m3, mu) tuples.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a meaningful search")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * math.pi, samples)
    mu = rng.uniform(0.0, math.pi, samples)

    def residuals(z):
        th, m = z[..., 0], z[..., 1]
        return _confining_residuals(np.cos(th), np.sin(th), np.cos(m), np.sin(m))

    x, res = _polish(residuals, np.column_stack([theta, mu]), 256)
    return _cluster([_canonical_point(th, m) for th, m in x[res <= tol].tolist()])


def enumerate_energy_slice_solutions(
    samples: int, tol: float, seed: int = 0
) -> list[float]:
    """On the m0 = m3 = 0, |m1| = 1 slice, find the mu values at which the
    energy condition holds.  The unique zero is mu = pi/2."""
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for a meaningful search")
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, math.pi, samples)

    def residuals(z):
        return _energy_residuals(0.0, 1.0, 0.0, np.cos(z[..., 0]), np.sin(z[..., 0]))

    x, res = _polish(residuals, mu[:, None], 128)
    return [p[0] for p in _cluster([(m % math.pi,) for m in x[res <= tol, 0].tolist()])]


def _cluster(points: list[tuple[float, ...]]):
    """Group points whose last entry is an angle, compared through (cos, sin):
    a point within 1e-3 of a group's first point joins that group.  Returns
    the first point of each group, sorted."""
    reps: list[tuple[float, ...]] = []
    for p in points:
        for q in reps:
            d = math.hypot(
                *(a - b for a, b in zip(p[:-1], q[:-1])),
                math.cos(p[-1]) - math.cos(q[-1]),
                math.sin(p[-1]) - math.sin(q[-1]),
            )
            if d < 1e-3:
                break
        else:
            reps.append(p)
    return sorted(reps)
