"""Banded operator and banded Cayley step: the bands against the matrix-free
E^2 action, the step against the dense oracle, conservation and exact
neutral sectors over long runs, and the midpoint closure check."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

from kfglab import evolution, operators
from kfglab.bc import CATALOG, BcParams, bc_realization
from kfglab.core import (
    Grid,
    PhysicalUnits,
    ScalarPotential,
    SpatialProfile,
    TimeFactor,
    majorana_project,
)
from kfglab.evolution import (
    DENSE_STEP_MAX_DOF,
    CayleyPropagator,
    EvolutionConfig,
    check_majorana_preservation,
    evolve,
    state_to_wave,
    wave_to_state,
)
from kfglab.observables import global_summary
from kfglab.operators import (
    Bands,
    GhostMap,
    SingularClosure,
    SingularFactor,
    System,
    build_closure,
    closure_bands,
    e2_field,
    hermitian_frame,
    PotentialDiagonal,
    _ShiftedBandsFactor,
    _flush_subnormals,
)
from oracles import corner_fold, pairing_deviation

# above the crossover, so static runs step banded as well as driven ones;
# static runs at N_DENSE step with the dense step matrix
N = DENSE_STEP_MAX_DOF + 8
N_DENSE = DENSE_STEP_MAX_DOF - 8
DT = 2e-3
# one closure of each elimination branch, and the complex coupled one
BRANCHES = ("dirichlet", "robin_mit_plus", "periodic", "rotation:0.0", "quasimixed+")
REAL_BRANCHES = BRANCHES[:-1]
QUADRATIC = SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3)
DRIVE = TimeFactor(kind="sinusoidal", amplitude=0.5, omega=2.0, offset=1.0)


def make_system(
    tag: str, driven: bool, n: int = N, units: PhysicalUnits = PhysicalUnits()
) -> System:
    pot = ScalarPotential(profile=QUADRATIC, time_factor=DRIVE if driven else TimeFactor())
    system = System(Grid(0.0, math.pi, n), CATALOG[tag].params, pot, units)
    assert (system.closure.n_dof > DENSE_STEP_MAX_DOF) == (n == N)
    return system


def packet_wave(system: System) -> np.ndarray:
    """Weighted wave vector of a charged Gaussian packet on the unknowns."""
    x = system.grid.x[system.closure.dof]
    psi = np.exp(-(((x - 1.2) / 0.3) ** 2) + 4j * x)
    sqw = np.sqrt(system.closure.dof_weights)
    return np.concatenate([sqw * psi, -1j * math.sqrt(17.0) * sqw * psi])


def dense_oracle(system: System):
    """Step z -> (I - kA)^-1 (I + kA) z with the dense generator
    A = [[0, 1], [-K/hbar^2, 0]], K taken at the step midpoint."""

    def cayley_pair(t_mid: float):
        sym = system.kinetic(t_mid).sym
        m = sym.shape[0]
        a = np.zeros((2 * m, 2 * m), dtype=sym.dtype)
        a[:m, m:] = np.eye(m)
        a[m:, :m] = -sym / system.units.hbar**2
        eye = np.eye(2 * m)
        return eye - 0.5 * DT * a, eye + 0.5 * DT * a

    def solve(lhs, rhs):
        if np.isrealobj(lhs):  # real LU on the real and imaginary parts
            parts = np.linalg.solve(lhs, np.stack([rhs.real, rhs.imag], axis=1))
            return parts[:, 0] + 1j * parts[:, 1]
        return np.linalg.solve(lhs, rhs)

    if system.is_static:
        lhs, rhs = cayley_pair(0.0)
        r = np.linalg.solve(lhs, rhs)
        return lambda z, t_mid: r @ z

    def step(z, t_mid):
        lhs, rhs = cayley_pair(t_mid)
        return solve(lhs, rhs @ z)

    return step


@pytest.mark.parametrize("tag", list(CATALOG))
def test_bands_reproduce_e2_field(tag):
    units = PhysicalUnits(hbar=0.7, c=1.3, mass=0.9)
    grid = Grid(0.0, math.pi, 40)
    closure = build_closure(grid, bc_realization(CATALOG[tag].params))
    diag = PotentialDiagonal(closure, ScalarPotential(profile=QUADRATIC), units).diag(0.0)
    bands = closure_bands(closure, units, diag)
    rng = np.random.default_rng(11)
    u = rng.normal(size=closure.n_dof) + 1j * rng.normal(size=closure.n_dof)
    expect = e2_field(closure, units, diag, closure.extend(u))[closure.dof]
    tol = 1e-13 * np.max(np.abs(expect))
    assert np.max(np.abs(bands.matvec(u) - expect)) <= tol
    # the Hermitian frame acts on weighted unknowns
    sym, defect = hermitian_frame(closure, bands)
    sqw = np.sqrt(closure.dof_weights)
    assert np.max(np.abs(sym.matvec(sqw * u) - sqw * expect)) <= tol
    assert defect <= 1e-15


@pytest.mark.parametrize("n", [8, 9, 10, 64])
@pytest.mark.parametrize("tag", list(CATALOG))
def test_dense_bands_equal_unit_vector_probes(tag, n):
    # the five comb probes give every entry the bits of its own unit probe
    units = PhysicalUnits(hbar=0.7, c=1.3, mass=0.9)
    closure = build_closure(Grid(0.0, math.pi, n), bc_realization(CATALOG[tag].params))
    diag = PotentialDiagonal(closure, ScalarPotential(profile=QUADRATIC), units).diag(0.0)
    dense = closure_bands(closure, units, diag).dense()
    unit = np.eye(closure.n_dof)
    columns = [e2_field(closure, units, diag, closure.extend(e))[closure.dof] for e in unit]
    expect = np.array(columns).T
    if not closure.is_complex:
        expect = expect.real
    assert dense.dtype == expect.dtype
    assert dense.tobytes() == np.ascontiguousarray(expect).tobytes()


def test_ghost_map_reaching_an_interior_point_is_singular():
    # 3, 4, 5 and 7 are interior points, 4 and 7 on the comb of point 1;
    # 14 = n - 2 is an allowed index that the band shape cannot hold here
    closure = build_closure(Grid(0.0, math.pi, 16), bc_realization(CATALOG["neumann"].params))
    for far in (3, 4, 5, 7, 14):
        reach = dataclasses.replace(
            closure, ghost_a=GhostMap((0, 1, far), np.array([0.0, 1.0, 0.5]))
        )
        with pytest.raises(SingularClosure):
            closure_bands(reach, PhysicalUnits(), np.ones(16))


@pytest.mark.parametrize("tag", BRANCHES)
def test_closure_maps_act_on_stacks_row_by_row(tag):
    system = make_system(tag, driven=False)
    closure, n = system.closure, system.grid.n
    diag = system.potential_diagonal.diag(0.0)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(4, closure.n_dof)) + 1j * rng.normal(size=(4, closure.n_dof))
    full = closure.extend(u)
    assert full.shape == (4, n)
    stacked = {
        "extend": full,
        "e2_field": e2_field(closure, system.units, diag, full),
        "dx1": closure.dx1(full),
    }
    rows = {
        "extend": [closure.extend(r) for r in u],
        "e2_field": [e2_field(closure, system.units, diag, f) for f in full],
        "dx1": [closure.dx1(f) for f in full],
    }
    for name, out in stacked.items():
        assert out.tobytes() == np.array(rows[name]).tobytes(), name
    # each ghost map gives the stack the bits of the fancy-index gather
    for ghost in (closure.ghost_a, closure.ghost_b):
        fancy = full[..., list(ghost.indices)] @ ghost.coefs
        assert ghost(full).tobytes() == fancy.tobytes()


def test_dense_step_without_subnormals_keeps_the_records(monkeypatch):
    # dirichlet at the crossover: the dense step matrix holds subnormal
    # entries, which the propagator sets to zero
    system = System(Grid(0.0, math.pi, DENSE_STEP_MAX_DOF + 2), CATALOG["dirichlet"].params,
                    ScalarPotential(profile=QUADRATIC))
    assert system.closure.n_dof == DENSE_STEP_MAX_DOF
    st0 = system.synthesize([(0, 1.0, 0.1), (1, 0.7, 0.8), (2, 0.4, 1.7)], kind="none")
    config = EvolutionConfig(dt=DT, steps=2000, record_every=100)

    def records():
        return [(r.state.psi.tobytes(), r.state.psi_t.tobytes())
                for r in evolve(st0, system, config)]

    def subnormals():
        dense = CayleyPropagator(system, DT)._dense
        return np.count_nonzero((dense != 0.0) & (np.abs(dense) < np.finfo(np.float64).tiny))

    flushed = records()
    assert subnormals() == 0
    monkeypatch.setattr(evolution, "_flush_subnormals", lambda a: a)
    assert subnormals() > 0
    assert records() == flushed


@pytest.mark.parametrize("driven, n", [(False, N), (True, N), (False, N_DENSE)],
                         ids=["static", "driven", "dense"])
@pytest.mark.parametrize("tag", BRANCHES)
def test_banded_step_matches_dense_oracle(tag, driven, n):
    system = make_system(tag, driven, n)
    prop = CayleyPropagator(system, DT)
    oracle = dense_oracle(system)
    z = zd = packet_wave(system)
    for k in range(200):
        z = prop.advance(z, k * DT)
        zd = oracle(zd, (k + 0.5) * DT)
    assert np.linalg.norm(z - zd) <= 1e-9 * np.linalg.norm(zd)


def lapack_routines(monkeypatch, failing: str | None = None) -> list:
    """Names, without the type letter, of the LAPACK routines called from
    now on through `get_lapack_funcs`; the one named `failing` raises."""
    called = []
    get = scipy.linalg.lapack.get_lapack_funcs

    def watch(name, func):
        def call(*args, **kwargs):
            called.append(name)
            if name == failing:
                raise AssertionError(f"?{name} was called")
            return func(*args, **kwargs)

        return call

    def watched(names, *args, **kwargs):
        funcs = get(names, *args, **kwargs)
        if isinstance(names, str):
            return watch(names, funcs)
        return [watch(name, f) for name, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", watched)
    return called


# a Robin end with ghost coefficient ~ 2/eps has one quarantined E^2: about
# -2.1e8 at eps = 1e-6, below -(hbar/k)^2 = -1e6, so M is indefinite and
# ?gttrf factors it, and about -2.1e5 at eps = 1e-3, where M stays positive
# definite.  That mode grows from round-off by 1.15x (eps = 1e-6) or 2.7x
# (eps = 1e-3) per step, in the oracle too, which sets the number of steps
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("eps, routine, steps", [(1e-6, "gttrf", 120), (1e-3, "pttrf", 10)],
                         ids=["lu", "ldl"])
def test_stiff_closure_step_matches_dense_oracle(eps, routine, steps, driven, monkeypatch):
    pot = ScalarPotential(profile=QUADRATIC, time_factor=DRIVE if driven else TimeFactor())
    bc = BcParams(-math.cos(eps), 0.0, 0.0, math.sin(eps), 0.0)
    system = System(Grid(0.0, math.pi, N), bc, pot)
    assert system.closure.n_dof > DENSE_STEP_MAX_DOF
    called = lapack_routines(monkeypatch)
    prop = CayleyPropagator(system, DT)
    oracle = dense_oracle(system)
    z = zd = packet_wave(system)
    for k in range(steps):
        z = prop.advance(z, k * DT)
        zd = oracle(zd, (k + 0.5) * DT)
    assert np.linalg.norm(z - zd) <= 1e-9 * np.linalg.norm(zd)
    assert "pttrf" in called
    assert ("gttrf" in called) == (routine == "gttrf")


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("tag", list(CATALOG))
def test_catalog_closures_step_on_the_ldl_factor(tag, driven, monkeypatch):
    called = lapack_routines(monkeypatch, failing="gttrf")
    system = make_system(tag, driven)
    prop = CayleyPropagator(system, DT)
    x = prop.pack(packet_wave(system))
    for k in range(3):
        x = prop.advance(x, k * DT)
    assert called.count("pttrf") == (1 if not driven else 3)
    assert np.all(np.isfinite(x))


def random_entries(rng, size, dtype):
    """Entries of magnitude at most 1, with random phases if complex."""
    x = rng.uniform(-1.0, 1.0, size)
    return x if dtype is np.float64 else x * np.exp(1j * rng.uniform(0.0, 2 * math.pi, size))


def random_hermitian_bands(rng, m, dtype, corners: bool) -> Bands:
    """Hermitian bands with entries of magnitude at most 1 and main[5] = -0.9."""
    main = rng.uniform(-1.0, 1.0, m).astype(dtype)
    main[5] = -0.9
    lower = random_entries(rng, m - 1, dtype)
    corner = random_entries(rng, 1, dtype)[0] if corners else 0.0
    bands = Bands(main, lower.conj(), lower, corner, np.conj(corner))
    assert bands.hermiticity_defect() == 0.0
    assert (bands.corners is None) == (not corners)
    return bands


def test_hermiticity_defect_of_bands_whose_squares_overflow():
    # K's entries reach about 4e302: their squares overflow a float
    system = System(Grid(0.0, math.pi, 64), CATALOG["dirichlet"].params,
                    ScalarPotential(profile=QUADRATIC), PhysicalUnits(c=1e150, mass=1e-300))
    big = system.kinetic(0.0).bands
    defects = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bands in (big, dataclasses.replace(big, main=big.main / 1e300, upper=big.upper / 1e300,
                                                lower=big.lower / 1e300)):
            assert bands.hermiticity_defect() == 0.0
            defects.append(dataclasses.replace(bands, upper=1.5 * bands.upper).hermiticity_defect())
    assert defects[0] == pytest.approx(defects[1], rel=1e-14)
    assert defects[0] == pytest.approx(0.26, abs=0.005)


@pytest.mark.parametrize("c, routine", [(0.2, "pttrf"), (3.0, "gttrf")], ids=["ldl", "lu"])
@pytest.mark.parametrize("corners", [False, True], ids=["tridiagonal", "corners"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_shifted_factor_solves_the_dense_system(dtype, corners, c, routine, monkeypatch):
    # entries of magnitude at most 1 keep I + 0.2 B positive definite
    # (Gershgorin); I + 3 B has a negative diagonal entry, so it is not
    rng = np.random.default_rng(11)
    m = 40
    bands = random_hermitian_bands(rng, m, dtype, corners)
    dense = np.eye(m) + c * bands.dense()
    rhs = np.stack([random_entries(rng, m, dtype) for _ in range(3)]).astype(dtype)
    want = np.linalg.solve(dense, rhs.T).T
    called = lapack_routines(monkeypatch)
    got = _ShiftedBandsFactor(bands, c).solve(rhs.copy())
    assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.cond(dense) * np.max(np.abs(want))
    assert ("gttrf" in called) == (routine == "gttrf")


@pytest.mark.parametrize("corners", [False, True], ids=["tridiagonal", "corners"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_positive_definite_agrees_with_the_dense_lowest_eigenvalue(dtype, corners):
    # d I + c B at shifts d that put its lowest eigenvalue just below and
    # just above zero, and at random shifts; with corners, some cases have a
    # positive definite tridiagonal part, so the capacitance decides
    rng = np.random.default_rng(12)
    decided_by_capacitance = 0
    for _ in range(20):
        bands = random_hermitian_bands(rng, 40, dtype, corners)
        for c in (1.0, 0.3):
            lowest = scipy.linalg.eigvalsh(c * bands.dense())[0]
            tridiagonal = dataclasses.replace(bands, top_right=0.0, bottom_left=0.0)
            for d in (-lowest - 1e-8, -lowest + 1e-8, rng.uniform(-2.0, 2.0)):
                dense = d * np.eye(40) + c * bands.dense()
                want = scipy.linalg.eigvalsh(dense)[0] > 0.0
                assert _ShiftedBandsFactor(bands, c, d).positive_definite == want
                tri_definite = scipy.linalg.eigvalsh(d * np.eye(40) + c * tridiagonal.dense())[0] > 0
                decided_by_capacitance += tri_definite and not want
    assert (decided_by_capacitance > 0) == corners


@pytest.mark.parametrize("tag", BRANCHES)
def test_charged_brackets_conserved_over_ten_thousand_steps(tag):
    system = make_system(tag, driven=False)
    st0 = system.synthesize([(0, 1.0, 0.1), (1, 0.7, 0.8), (2, 0.4, 1.7)], kind="none")
    summaries = [global_summary(r.state, system) for r in
                 evolve(st0, system, EvolutionConfig(dt=DT, steps=10_000, record_every=2_500))]
    n0 = summaries[0].norm
    e0 = summaries[0].energy_mean.real
    assert max(abs(s.norm - n0) for s in summaries) <= 1e-10 * abs(n0)
    assert max(abs(s.energy_mean.real - e0) for s in summaries) <= 1e-10 * abs(e0)


@pytest.mark.parametrize("kind, n", [("plus", N), ("minus", N), ("plus", N_DENSE),
                                     ("minus", N_DENSE)],
                         ids=["plus", "minus", "plus-dense", "minus-dense"])
@pytest.mark.parametrize("tag", REAL_BRANCHES)
def test_neutral_sector_exact_over_ten_thousand_steps(tag, kind, n):
    system = make_system(tag, driven=False, n=n)
    st0 = system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], kind=kind)
    prop = CayleyPropagator(system, DT)
    z = state_to_wave(st0, system)
    leaks = 0
    for k in range(10_000):
        z = prop.advance(z, k * DT)
        leaks += np.count_nonzero(z.imag if kind == "plus" else z.real)
    assert leaks == 0
    e0 = global_summary(st0, system).energy_mean.real
    e1 = global_summary(wave_to_state(z, system, 10_000 * DT), system).energy_mean.real
    assert abs(e1 - e0) <= 1e-10 * abs(e0)


@pytest.mark.parametrize("tag", BRANCHES)
def test_kinetic_at_later_time_matches_fresh_assembly(tag):
    system = make_system(tag, driven=True)
    first = system.kinetic(0.0)
    kin = system.kinetic(0.37)
    closure, units = system.closure, system.units
    diag = PotentialDiagonal(closure, system.potential, units).diag(0.37)
    bands = closure_bands(closure, units, diag)
    fresh, _ = hermitian_frame(closure, bands)
    for got, want in ((kin.bands, fresh), (kin.l_dof, bands.dense())):
        got = got.dense() if isinstance(got, Bands) else got
        want = want.dense() if isinstance(want, Bands) else want
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert kin.kinetic_bands is first.kinetic_bands
    assert kin.sym is kin.sym and kin.l_dof is kin.l_dof
    assert system.kinetic(0.0) is first


def counting_closure_bands(monkeypatch) -> list:
    calls = []
    original = operators.closure_bands

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "closure_bands", counted)
    return calls


def test_static_run_from_modes_builds_bands_once(monkeypatch):
    calls = counting_closure_bands(monkeypatch)
    for n in (N, N_DENSE):
        system = make_system("periodic", driven=False, n=n)
        st0 = system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], kind="plus")
        list(evolve(st0, system, EvolutionConfig(dt=DT, steps=4, record_every=2),
                    majorana="plus"))
    assert len(calls) == 2


def test_driven_run_builds_bands_once_per_system(monkeypatch):
    calls = counting_closure_bands(monkeypatch)
    system = make_system("robin_mit_plus", driven=True)
    st0 = wave_to_state(packet_wave(system), system, 0.0)
    list(evolve(st0, system, EvolutionConfig(dt=DT, steps=4, record_every=2)))
    assert len(calls) == 1
    # from modes, the start state reads the same System's bands at t0
    system = make_system("robin_mit_plus", driven=True)
    st0 = system.synthesize([(0, 1.0, 0.5)], kind="none")
    list(evolve(st0, system, EvolutionConfig(dt=DT, steps=4, record_every=2)))
    assert len(calls) == 2


def test_driven_run_looks_up_lapack_and_builds_the_band_once(monkeypatch):
    # counted as `counting_closure_bands` counts the bands: a driven run keeps
    # its LAPACK and BLAS handles and the band, and refactors every step
    lookups, blas = [], []
    get = scipy.linalg.lapack.get_lapack_funcs
    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs",
                        lambda *args, **kwargs: lookups.append(args[0]) or get(*args, **kwargs))
    get_blas = scipy.linalg.blas.get_blas_funcs
    monkeypatch.setattr(scipy.linalg.blas, "get_blas_funcs",
                        lambda *args, **kwargs: blas.append(args[0]) or get_blas(*args, **kwargs))
    for tag in ("robin_mit_plus", "periodic", "quasimixed+"):
        system = make_system(tag, driven=True)
        st0 = wave_to_state(packet_wave(system), system, 0.0)
        list(evolve(st0, system, EvolutionConfig(dt=DT, steps=6, record_every=3)))
    # quasimixed+ factors its real tridiagonal part with the real routines
    assert lookups == [("pttrf", "pttrs", "gttrf", "gttrs")] * 3 + [("pttrf", "pttrs")]
    # the band is built with its ?gbmv handle
    assert blas == ["gemv", "gbmv"] * 3
    # and stays the same array, rewritten in place, across steps and calls
    system = make_system("periodic", driven=True)
    prop = CayleyPropagator(system, DT)
    x = prop.advance(prop.pack(packet_wave(system)), 0.0)
    band = prop._band
    for first in (1, 3):
        x = prop.advance(x, 0.0, 2, first)
        assert prop._band is band


@pytest.mark.parametrize("tag", list(CATALOG))
def test_driven_step_diagonal_is_the_assembled_one(tag):
    # the fused per-step diagonal has the bits of K_0 + (mc^2)^2 + 2 mc^2 S,
    # with S sampled afresh at each midpoint
    system = make_system(tag, driven=True)
    prop = CayleyPropagator(system, DT)
    x = prop.pack(packet_wave(system))
    mc2, x_grid, pot = system.units.mc2, system.grid.x, system.potential
    for k in range(3):
        x = prop.advance(x, k * DT)
        s = pot.profile.sample(x_grid) * pot.time_factor.value((k + 0.5) * DT)
        diag = mc2**2 + 2.0 * mc2 * s
        want = system.kinetic(0.0).kinetic_bands.main + diag[system.closure.dof]
        assert prop._band[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("tag", ["periodic", "quasimixed+"])
def test_corner_unit_solves_hold_no_subnormal_entry(tag):
    # at n = 8192 the unit solves, and so the rows [2q; (2/k) q; 2p; (2/k) p]
    # built from them, decay below the smallest normal float within about
    # 1900 unknowns
    pot = ScalarPotential(profile=QUADRATIC, time_factor=DRIVE)
    system = System(Grid(0.0, math.pi, 8192), CATALOG[tag].params, pot)
    prop = CayleyPropagator(system, DT)
    x = prop.pack(packet_wave(system))
    for k in range(3):
        x = prop.advance(x, k * DT)
    rows = prop._factor.rows
    parts = rows.view(np.float64)
    assert not np.any((parts != 0.0) & (np.abs(parts) < np.finfo(np.float64).tiny))
    assert np.count_nonzero(parts == 0.0) > parts.size // 4
    # the rows of the unit solves that the step's own solve gives, flushed;
    # quasimixed+ solves them in real arithmetic, with the complex solve's bits
    assert rows.tobytes() == corner_fold(prop).tobytes()


CORNER_TAGS = ("periodic", "antiperiodic", *(tag for tag in CATALOG if tag.startswith("rotation:")),
               "quasiperiodic+", "quasimixed+")


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("n", [64, 257, 2049])
@pytest.mark.parametrize("tag", CORNER_TAGS)
def test_end_responses_have_the_bytes_of_the_reference_fold(tag, n, driven):
    # the factor's correction rows and the propagator's end entries give the
    # bytes of the reference fold (`oracles.corner_fold`): a static run's,
    # and a driven run's after two refactors
    pot = ScalarPotential(profile=QUADRATIC, time_factor=DRIVE if driven else TimeFactor())
    system = System(Grid(0.0, math.pi, n), CATALOG[tag].params, pot)
    prop = CayleyPropagator(system, DT)
    if driven:
        prop.advance(prop.pack(packet_wave(system)), 0.0, 3)
    assert prop._ends.tobytes() == corner_fold(prop).tobytes()


def test_driven_identifying_closure_checks_every_midpoint():
    # S(a, t) = S(b, t) only at t = 0, where the modes are taken
    lopsided = ScalarPotential(
        profile=SpatialProfile(kind="quadratic", x0=0.0, coefficient=0.2),
        time_factor=TimeFactor(kind="sinusoidal", amplitude=1.0, omega=2.0),
    )
    system = System(Grid(0.0, math.pi, N), CATALOG["periodic"].params, lopsided)
    st0 = system.synthesize([(0, 1.0, 0.0)], kind="plus")
    with pytest.raises(SingularClosure):
        list(evolve(st0, system, EvolutionConfig(dt=DT, steps=3), majorana="plus"))


@pytest.mark.parametrize("main, corner", [(-2.0, 0.0), (0.0, 2.0)],
                         ids=["tridiagonal", "corners"])
def test_singular_factor_raises(main, corner):
    # M = I + B/2 has a zero pivot, or a singular 2x2 block [[1, 1], [1, 1]]
    # on the first and last unknowns
    m = 12
    bands = Bands(np.full(m, main), np.zeros(m - 1), np.zeros(m - 1), corner, corner)
    with pytest.raises(SingularFactor):
        _ShiftedBandsFactor(bands, 0.5)


# the kept stack: a run packs z once and steps the packed stack; it must give
# the bits of stepping z itself one vector at a time.  np.array_equal is the
# bit test here: only the sign of an exact zero may differ between the paths
# (z = x0 + 1j x1 turns -0.0 into 0.0)

# hbar / mc^2 != 1, so the pairing deviation weights the time-derivative half
UNITS = PhysicalUnits(hbar=0.7, c=1.3, mass=0.9)
PATHS = pytest.mark.parametrize("driven, n", [(False, N), (True, N), (False, N_DENSE)],
                                ids=["static", "driven", "dense"])


def single_vector_steps(system: System, z: np.ndarray, t0: float, steps: int) -> list:
    """z after each of `steps` one-vector `advance` calls, z itself first."""
    prop = CayleyPropagator(system, DT)
    out = [z]
    for k in range(steps):
        out.append(prop.advance(out[-1], t0 + k * DT))
    return out


@PATHS
@pytest.mark.parametrize("tag", BRANCHES)
def test_advance_on_a_wave_vector_matches_the_stack(tag, driven, n):
    system = make_system(tag, driven, n)
    prop = CayleyPropagator(system, DT)
    z = packet_wave(system)
    x = prop.pack(z)
    rows = 1 if system.closure.is_complex else 2
    assert x.shape == (rows, len(z)) and np.isrealobj(x) == (rows == 2)
    for k in range(30):
        z = prop.advance(z, k * DT)
        x = prop.advance(x, k * DT)
        assert z.ndim == 1 and x.shape == (rows, len(z))
    assert np.array_equal(prop.unpack(x), z)


@PATHS
@pytest.mark.parametrize("majorana", [None, "minus"])
@pytest.mark.parametrize("tag", BRANCHES)
def test_evolve_matches_single_vector_steps(tag, driven, n, majorana):
    system = make_system(tag, driven, n, UNITS)
    st0 = wave_to_state(packet_wave(system), system, 0.1)
    records = list(evolve(st0, system, EvolutionConfig(dt=DT, steps=40, record_every=7),
                          majorana=majorana))
    waves = single_vector_steps(system, state_to_wave(st0, system), st0.t, 40)
    expect = [waves[k] for k in (0, 7, 14, 21, 28, 35, 40)]
    assert len(records) == len(expect)
    for rec, z in zip(records, expect):
        state = wave_to_state(z, system, rec.t)
        if majorana is not None:
            assert rec.majorana_deviation == pairing_deviation(z, majorana, system.units)
            state = majorana_project(state, majorana)
        assert np.array_equal(rec.state.psi, state.psi)
        assert np.array_equal(rec.state.psi_t, state.psi_t)
        assert (global_summary(rec.state, system).as_row()
                == global_summary(state, system).as_row())


@pytest.mark.parametrize("kind", ["plus", "minus"])
@pytest.mark.parametrize("n", [N, N_DENSE], ids=["banded", "dense"])
@pytest.mark.parametrize("tag, neutral", [(t, True) for t in REAL_BRANCHES]
                         + [(t, False) for t in BRANCHES])
def test_majorana_preservation_matches_single_vector_steps(tag, neutral, n, kind):
    # a complex closure has no neutral states
    system = make_system(tag, driven=False, n=n, units=UNITS)
    st0 = (system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], t=0.2, kind=kind) if neutral
           else wave_to_state(packet_wave(system), system, 0.2))
    waves = single_vector_steps(system, state_to_wave(st0, system), st0.t, 60)
    expect = max(pairing_deviation(z, kind, system.units) for z in waves)
    got = check_majorana_preservation(st0, system, DT, 60, kind=kind)
    assert got == expect
    assert (got == 0.0) == neutral


# a neutral run on the banded step drops the exactly zero row of the other
# sector, so the banded step must give a row of a stack the bits it has alone.
# A BLAS product's last bits can depend on the row count and on where the
# operands sit in memory, so every step is checked, each on fresh arrays
REAL_CATALOG = [tag for tag in CATALOG if not build_closure(
    Grid(0.0, math.pi, 8), bc_realization(CATALOG[tag].params)).is_complex]


@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
@pytest.mark.parametrize("tag", REAL_CATALOG)
def test_banded_step_gives_each_row_its_own_bits(tag, driven):
    system = make_system(tag, driven)
    prop = CayleyPropagator(system, DT)
    x = prop.pack(packet_wave(system))
    rows = [x[:1], x[1:]]
    for k in range(200):
        x = prop.advance(x, k * DT)
        rows = [prop.advance(r, k * DT) for r in rows]
        assert x.tobytes() == np.concatenate(rows).tobytes(), k


@pytest.mark.parametrize("start, kind", [("plus", "plus"), ("minus", "minus"),
                                         ("plus", "minus"), ("minus", "plus")])
@pytest.mark.parametrize("tag, driven", [("dirichlet", False), ("periodic", False),
                                         ("rotation:0.0", False), ("robin_mit_plus", True)])
def test_neutral_banded_run_steps_one_row(tag, driven, start, kind, monkeypatch):
    # a start in its own sector steps the one nonzero row with the bits of
    # the two-row stack; a start in the other sector keeps both rows and
    # reports its deviation
    pot = ScalarPotential(profile=QUADRATIC, time_factor=DRIVE if driven else TimeFactor())
    system = System(Grid(0.0, math.pi, 256), CATALOG[tag].params, pot, UNITS)
    assert system.closure.n_dof > DENSE_STEP_MAX_DOF
    st0 = system.synthesize([(0, 1.0, 0.5), (1, 0.6, 1.1)], t=0.1, kind=start)
    advance = CayleyPropagator.advance
    shapes, steps = set(), []

    def watched(self, x, t, *args):
        shapes.add(x.shape)
        steps.append(args)
        return advance(self, x, t, *args)

    monkeypatch.setattr(CayleyPropagator, "advance", watched)
    records = list(evolve(st0, system, EvolutionConfig(dt=DT, steps=40, record_every=7),
                          majorana=kind))
    rows = 1 if start == kind else 2
    assert shapes == {(rows, 2 * system.closure.n_dof)}
    # one call per record interval: (steps, steps already taken)
    assert steps == [(7, 0), (7, 7), (7, 14), (7, 21), (7, 28), (5, 35)]

    prop = CayleyPropagator(system, DT)
    x = prop.pack(state_to_wave(st0, system))
    waves = [prop.unpack(x)]
    for k in range(40):
        x = advance(prop, x, st0.t + k * DT)
        waves.append(prop.unpack(x))
    expect = [waves[k] for k in (0, 7, 14, 21, 28, 35, 40)]
    assert len(records) == len(expect)
    for rec, z in zip(records, expect):
        state = majorana_project(wave_to_state(z, system, rec.t), kind)
        assert rec.majorana_deviation == pairing_deviation(z, kind, system.units)
        assert np.array_equal(rec.state.psi, state.psi)
        assert np.array_equal(rec.state.psi_t, state.psi_t)
    worst = max(rec.majorana_deviation for rec in records)
    assert (worst == 0.0) if start == kind else (worst > 0.1)


# `advance(x, t, steps, first)` runs a record interval in one call, on a work
# copy of x; it must give the bytes of `steps` single steps, step j from
# t + (first + j) dt


def single_steps(prop: CayleyPropagator, x: np.ndarray, t0: float, first: int,
                 steps: int) -> np.ndarray:
    for k in range(first, first + steps):
        x = prop.advance(x, t0 + k * DT)
    return x


@pytest.mark.parametrize("tag", list(CATALOG))
def test_many_steps_in_one_call_match_single_steps(tag):
    # static banded at n = 256 (two rows and one real row on a real closure,
    # the complex row on a complex one) and static dense at n = 64
    for n in (256, 64):
        system = System(Grid(0.0, math.pi, n), CATALOG[tag].params,
                        ScalarPotential(profile=QUADRATIC))
        assert (system.closure.n_dof > DENSE_STEP_MAX_DOF) == (n == 256)
        prop = CayleyPropagator(system, DT)
        z = packet_wave(system)
        stacks = [prop.pack(z)]
        if n == 256 and not system.closure.is_complex:
            stacks.append(prop.pack(z.real + 0j, "plus"))
            assert stacks[-1].shape == (1, len(z))
        for x in stacks:
            start = x.copy()
            got = prop.advance(x, 0.1, 13)
            assert got.tobytes() == single_steps(prop, x, 0.1, 0, 13).tobytes()
            assert x.tobytes() == start.tobytes() and got.dtype == x.dtype


@pytest.mark.parametrize("tag", list(CATALOG))
def test_dense_steps_give_the_bytes_of_the_matrix_product(tag):
    # the dense step calls scipy's ?gemv (one row) or ?gemm (more rows),
    # the routines numpy's matmul calls for these shapes.  numpy (OpenBLAS
    # 0.3.31, ILP64) and scipy (OpenBLAS 0.3.30, LP64) bundle different
    # copies of OpenBLAS, and every step kernel, banded or dense, runs on
    # scipy's copy, so the bytes of `x @ P` pin that the two agree here
    rng = np.random.default_rng(3)
    for n in (24, 64):
        system = System(Grid(0.0, math.pi, n), CATALOG[tag].params,
                        ScalarPotential(profile=QUADRATIC))
        prop = CayleyPropagator(system, DT)
        dense = prop._dense
        assert dense.flags.c_contiguous
        one_row = prop.pack(packet_wave(system))[:1]
        assert np.iscomplexobj(one_row) == system.closure.is_complex
        for x in (one_row, rng.normal(size=(2, dense.shape[0])),
                  rng.normal(size=(4, dense.shape[0]))):
            want = x
            for _ in range(50):
                want = want @ dense
            got = prop.advance(x, 0.1, 50)
            assert got.shape == x.shape and got.tobytes() == want.tobytes(), (n, x.shape)


@pytest.mark.parametrize("n", [64, 256], ids=["dense", "banded"])
@pytest.mark.parametrize("tag", ["dirichlet", "quasimixed+"])
def test_zero_steps_give_a_new_array_and_negative_steps_fail(tag, n):
    system = System(Grid(0.0, math.pi, n), CATALOG[tag].params, ScalarPotential(profile=QUADRATIC))
    prop = CayleyPropagator(system, DT)
    assert (prop._dense is None) == (n == 256)
    z = packet_wave(system)
    for x in (z, prop.pack(z)):
        got = prop.advance(x, 0.1, 0)
        assert got is not x and not np.shares_memory(got, x)
        assert got.tobytes() == x.tobytes()
        with pytest.raises(ValueError, match="at least 0"):
            prop.advance(x, 0.1, -1)
    # a real closure steps real stacks only: the banded step would drop the
    # imaginary part
    if not system.closure.is_complex:
        with pytest.raises(ValueError, match="real stack"):
            prop.advance(z[None, :], 0.1)


@pytest.mark.parametrize("tag", ["robin_mit_plus", "quasimixed+"])
def test_driven_intervals_time_each_step_from_the_start(tag):
    # intervals of 7 over 80 steps from t0 = 0.3: step k of the run starts at
    # t0 + k dt in whichever call it falls, as in 80 single steps.  Forming it
    # as (t0 + first dt) + j dt instead moves 13 midpoints by the last bit; a
    # strong potential on a coarse grid lets that reach the band's diagonal
    strong = SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=300.0)
    system = System(Grid(0.0, math.pi, 32), CATALOG[tag].params,
                    ScalarPotential(profile=strong, time_factor=DRIVE))
    prop = CayleyPropagator(system, DT)
    x = want = prop.pack(packet_wave(system))
    for first in range(0, 80, 7):
        steps = min(7, 80 - first)
        x = prop.advance(x, 0.3, steps, first)
        want = single_steps(prop, want, 0.3, first, steps)
        assert x.tobytes() == want.tobytes(), first


@pytest.mark.parametrize("tag, driven, n, majorana", [
    ("quasimixed+", False, N, None), ("quasimixed+", True, N, None),
    ("dirichlet", False, N, "plus"), ("periodic", False, N, None),
    ("periodic", False, N_DENSE, None),
])
def test_changing_a_record_leaves_later_records_unchanged(tag, driven, n, majorana):
    # no record aliases the stack the run keeps stepping (a complex closure's
    # `unpack` returns a view of it)
    system = make_system(tag, driven, n)
    st0 = wave_to_state(packet_wave(system), system, 0.0)
    if majorana is not None:
        st0 = majorana_project(st0, majorana)
    config = EvolutionConfig(dt=DT, steps=20, record_every=6)
    clean = list(evolve(st0, system, config, majorana=majorana))
    changed = []
    for rec in evolve(st0, system, config, majorana=majorana):
        changed.append((rec.state.psi.tobytes(), rec.state.psi_t.tobytes()))
        rec.state.psi[:] = np.nan
        rec.state.psi_t[:] = np.nan
    assert len(changed) == len(clean) == 5
    for (psi, psi_t), rec in zip(changed, clean):
        assert psi == rec.state.psi.tobytes() and psi_t == rec.state.psi_t.tobytes()
