"""The partial eigensolve (only the lowest modes, from the bands) against the
dense `eigh` oracle of every mode: eigenvalues, quarantine, gauged fields,
the certified shift, the mode-set cache and the errors of mode synthesis."""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from kfglab import operators
from kfglab.bc import CATALOG, BcParams, params_from_tag
from kfglab.core import Grid, PhysicalUnits, ScalarPotential, SpatialProfile
from kfglab.evolution import DENSE_STEP_MAX_DOF
from kfglab.operators import (
    DEGENERACY_TOL,
    PIN_CUTOFF,
    SLAVED_CUTOFF,
    InvalidMode,
    System,
    eigenmodes,
    gauge,
    spectrum,
)
from oracles import dense_modes

# the grid of the banded step tests, above the static step's dense crossover
N = DENSE_STEP_MAX_DOF + 8
COUNT = 4
QUADRATIC = ScalarPotential(SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3))
# rotation:2.1:- has a negative E^2 below the first shift tried
TAGS = list(CATALOG) + ["rotation:2.1:-"]


def both_paths(params: BcParams, count: int = COUNT):
    kin = System(Grid(0.0, math.pi, N), params, QUADRATIC).kinetic()
    fresh = dataclasses.replace(kin)
    partial = eigenmodes(fresh, count=count)
    assert "sym" not in vars(fresh)  # the partial path never forms the dense matrix
    return dense_modes(kin), partial


def assert_agree(dense, partial, field_tol):
    """Same quarantine and eigenvalues within 1e-12 max|E^2|; fields within
    field_tol[i] of their scale, gauge included."""
    e2 = np.concatenate([[v for _, v in dense.diagnostics], dense.energies**2])
    top = np.max(np.abs(e2))
    k = partial.count
    assert [i for i, _ in partial.diagnostics] == [i for i, _ in dense.diagnostics]
    quarantined = [v for _, v in dense.diagnostics]
    assert np.allclose([v for _, v in partial.diagnostics], quarantined, rtol=0, atol=1e-12 * top)
    assert np.max(np.abs(partial.energies**2 - dense.energies[:k] ** 2)) <= 1e-12 * top
    scale = np.max(np.abs(dense.fields[:k]), axis=1)
    err = np.max(np.abs(partial.fields - dense.fields[:k]), axis=1) / scale
    assert np.all(err <= field_tol), err


@pytest.mark.parametrize("tag", TAGS)
def test_partial_modes_match_dense(tag, monkeypatch):
    shifts = []
    certify = operators._below_spectrum

    def recorded(bands, sigma):
        factor = certify(bands, sigma)
        shifts.append(factor is not None)
        return factor

    monkeypatch.setattr(operators, "_below_spectrum", recorded)
    dense, partial = both_paths(params_from_tag(tag))
    assert partial.count == COUNT
    assert_agree(dense, partial, 1e-9)
    if tag == "rotation:2.1:-":
        assert dense.diagnostics and shifts[0] is False  # the shift was lowered
    elif CATALOG[tag].params.m1 == 0.0 and CATALOG[tag].params.m2 == 0.0:
        assert shifts == []  # separated: tridiagonal, no shift-invert


@settings(max_examples=30, deadline=None)
@given(
    cutoff=st.sampled_from(["pin", "slave"]),
    offset=st.floats(-0.5, 0.5),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(cutoff="slave", offset=0.125, sign=-1.0)  # E^2 ~ -9e11 below a near pair
def test_paths_agree_near_the_branch_cutoffs(cutoff, offset, sign):
    """U(2) points on either side of the pinning and slaving cutoffs, where
    the closure is stiff (E^2 up to ~1e12): the fields agree to the solvers'
    error, 1e-14 max|E^2| / gap, and keep the same gauge."""
    if cutoff == "pin":  # beta_a = beta_b ~ -eps/2; dirichlet at eps = 0
        eps = sign * 2.0 * PIN_CUTOFF * (1.0 + offset)
        params = BcParams(-math.cos(eps), 0.0, 0.0, math.sin(eps), 0.0)
    else:  # M[0, 1] ~ -eps; periodic at eps = 0
        eps = sign * 2.0 * SLAVED_CUTOFF * (1.0 + offset)
        params = BcParams(eps, math.sqrt(1.0 - eps**2), 0.0, 0.0, math.pi / 2)
    dense, partial = both_paths(params, count=3)
    e2 = np.concatenate([[v for _, v in dense.diagnostics], dense.energies**2])
    lo = len(dense.diagnostics)
    gaps = [np.min(np.abs(np.delete(e2, lo + i) - e2[lo + i])) for i in range(3)]
    assert_agree(dense, partial, 1e-9 + 1e-14 * np.max(np.abs(e2)) / np.array(gaps))


def test_gauge_makes_the_largest_entry_real_and_positive():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((5, 40)) + 1j * rng.standard_normal((5, 40))
    out = gauge(rows)
    pivot = np.argmax(np.abs(rows), axis=1)
    top = out[np.arange(5), pivot]
    assert np.allclose(top.imag, 0.0, atol=1e-15) and np.all(top.real > 0.0)
    assert np.allclose(np.abs(out), np.abs(rows), rtol=1e-15)
    # a tie up to round-off resolves to the first of the two entries
    odd = np.array([[0.0, -1.0, 0.5, 1.0 + 1e-15, 0.0]])
    assert gauge(odd)[0, 1] == 1.0
    assert np.array_equal(gauge(-odd), gauge(odd))


def test_mode_sets_are_cached_and_grown():
    system = System(Grid(0.0, math.pi, N), CATALOG["periodic"].params, QUADRATIC)
    small = system.modes(2)
    assert small.count == 2
    assert system.modes(1) is small
    larger = system.modes(5)
    assert larger.count == 5 and system.modes(3) is larger
    full = system.modes()
    assert full.count == system.closure.n_dof
    assert system.modes(7) is full


def test_index_beyond_the_positive_modes_raises(monkeypatch):
    seen = []
    lowest = operators._lowest_eigenpairs

    def recorded(bands, k):
        seen.append(k)
        return lowest(bands, k)

    monkeypatch.setattr(operators, "_lowest_eigenpairs", recorded)
    system = System(Grid(0.0, math.pi, N), params_from_tag("rotation:2.1:-"), QUADRATIC)
    m = system.closure.n_dof
    positive = m - 1  # one quarantined mode
    for index in (2, positive - 1):
        state = system.synthesize([(index, 1.0, 0.0)], kind="plus")
        assert np.all(np.isfinite(state.psi))
    for index in (positive, m, 10**9):
        with pytest.raises(InvalidMode):
            system.synthesize([(index, 1.0, 0.0)], kind="plus")
    assert seen and all(2 * k < m for k in seen)


def test_a_growing_count_certifies_its_shift_once(monkeypatch):
    # on rotation:2.1:- the count of 3 meets the quarantined mode, so the set
    # is solved twice, with k = 3 and 4 (plus one for the corners)
    kin = System(Grid(0.0, math.pi, 512), params_from_tag("rotation:2.1:-"), QUADRATIC).kinetic()
    certified, solved = [], []
    certify, lowest = operators._below_spectrum, operators._lowest_eigenpairs

    def recorded_certify(bands, sigma):
        factor = certify(bands, sigma)
        certified.append(factor is not None)
        return factor

    def recorded_lowest(bands, k):
        solved.append(k)
        return lowest(bands, k)

    monkeypatch.setattr(operators, "_below_spectrum", recorded_certify)
    monkeypatch.setattr(operators, "_lowest_eigenpairs", recorded_lowest)
    modes = eigenmodes(dataclasses.replace(kin), count=3)
    assert solved == [4, 5] and len(modes.diagnostics) == 1
    # one search: the shifts that failed, then the one certified
    assert certified.count(True) == 1 and certified[-1] and len(certified) > 1
    searched = len(certified)

    def search_again(bands, k):
        vars(bands).pop("certified_shift", None)
        return lowest(bands, k)

    monkeypatch.setattr(operators, "_lowest_eigenpairs", search_again)
    again = eigenmodes(dataclasses.replace(kin), count=3)
    assert len(certified) == 3 * searched
    assert np.array_equal(again.energies, modes.energies)
    assert np.array_equal(again.fields, modes.fields)
    assert again.diagnostics == modes.diagnostics


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("tag", ["dirichlet", "robin_mit_plus", "periodic", "quasimixed+"])
def test_a_count_takes_the_partial_path_on_small_grids(tag, n, monkeypatch):
    kin = System(Grid(0.0, math.pi, n), CATALOG[tag].params, QUADRATIC).kinetic()
    every = eigenmodes(dataclasses.replace(kin))

    def unused(bands):
        raise AssertionError("_all_eigenpairs was called")

    monkeypatch.setattr(operators, "_all_eigenpairs", unused)
    partial = eigenmodes(dataclasses.replace(kin), count=3)
    assert partial.count == 3
    assert_agree(every, partial, 1e-9)


@pytest.mark.parametrize("tag", list(CATALOG))
def test_partial_sets_factor_only_at_the_shifts_they_certify(tag, monkeypatch):
    # a corner band learns whether its set ends on a pair from one mode more,
    # not from a factor of K - sigma I at a shift inside the spectrum
    built, certifying = [], []
    factor, certify = operators._ShiftedBandsFactor, operators._below_spectrum

    def recorded_factor(*args):
        built.append(bool(certifying))
        return factor(*args)

    def recorded_certify(bands, sigma):
        certifying.append(sigma)
        try:
            return certify(bands, sigma)
        finally:
            certifying.pop()

    monkeypatch.setattr(operators, "_ShiftedBandsFactor", recorded_factor)
    monkeypatch.setattr(operators, "_below_spectrum", recorded_certify)
    kin = System(Grid(0.0, math.pi, N), CATALOG[tag].params, QUADRATIC).kinetic()
    for count in (1, 2, 3):
        eigenmodes(dataclasses.replace(kin), count=count)
    assert all(built) and bool(built) == (kin.bands.corners is not None)


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(0.0, math.pi, exclude_max=True),
    sign=st.sampled_from(["", ":-"]),
    n=st.integers(12, 160),
    quadratic=st.booleans(),
)
@example(mu=1.5703125, sign=":-", n=41, quadratic=False)  # E^2_0, E^2_1 7.3e-7 apart
def test_every_count_gives_the_leading_rows_of_the_every_mode_set(mu, sign, n, quadratic):
    system = System(Grid(0.0, math.pi, n), params_from_tag(f"rotation:{mu!r}{sign}"),
                    QUADRATIC if quadratic else None)
    kin = system.kinetic()
    every = eigenmodes(dataclasses.replace(kin))
    e2 = np.concatenate([[v for _, v in every.diagnostics], every.energies**2])
    norm = np.linalg.norm(kin.sym, np.inf)
    # E^2 i and i + 1 form a degenerate pair, which no set ends between
    paired = np.diff(e2) <= DEGENERACY_TOL * norm
    # rows closer than 1e8 eps ||K||_inf to a neighbour form a cluster: a
    # solver fixes each row only to eps ||K|| / gap, but the cluster's span to
    # eps ||K|| / (gap to the rest), so a clustered row is held to that span
    near = np.diff(every.energies**2) < 1e8 * np.finfo(float).eps * norm
    cluster = np.concatenate([[0], np.cumsum(~near)])
    clustered = np.bincount(cluster)[cluster] > 1
    q = len(every.diagnostics)
    for count in range(1, 7):
        partial = eigenmodes(dataclasses.replace(kin), count=count)
        k = q + count
        want = every.count if 2 * k >= kin.n_dof else count + paired[k - 1]
        assert partial.count == want
        assert_agree(every, partial, np.where(clustered[:want], np.inf, 1e-8))
        for r in np.flatnonzero(clustered[:want]):
            span = every.fields[cluster == cluster[r]].T
            row = partial.fields[r]
            residual = row - span @ np.linalg.lstsq(span, row, rcond=None)[0]
            assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(row)), (r, residual)


@pytest.mark.parametrize("tag", ["periodic", "antiperiodic"])
def test_a_count_that_splits_a_pair_grows_by_one(tag):
    # the free ring: periodic has the constant mode and then pairs,
    # antiperiodic only pairs
    kin = System(Grid(0.0, math.pi, N), CATALOG[tag].params).kinetic()
    dense = dense_modes(kin)
    first = 1 if tag == "periodic" else 0
    for count in range(1, 6):
        partial = eigenmodes(dataclasses.replace(kin), count=count)
        assert partial.count == count + (count - first) % 2
        err = np.max(np.abs(partial.fields - dense.fields[:partial.count]), axis=1)
        assert np.all(err <= 1e-10 * np.max(np.abs(dense.fields[:partial.count]), axis=1))


def test_every_quarantined_mode_is_listed():
    # the count grows past the two negative E^2 of robin_mit_minus at a
    # small mass and length scale
    lam = 0.05
    units = PhysicalUnits(mass=0.3)
    params = CATALOG["robin_mit_minus"].params.with_lam(lam)
    kin = System(Grid(0.0, math.pi, N), params, QUADRATIC, units).kinetic()
    dense = dense_modes(kin)
    assert len(dense.diagnostics) == 2
    for count in (1, 2, 3):
        partial = eigenmodes(dataclasses.replace(kin), count=count)
        assert partial.count == count
        assert [i for i, _ in partial.diagnostics] == [0, 1]


def test_the_quarantine_reads_the_infinity_norm():
    # on neumann ||K||_inf lies about 10 % above max|E^2|, and this constant
    # well puts the lowest E^2 (about 1.70e-9) between 1e-12 max|E^2|
    # (about 1.61e-9) and 1e-12 ||K||_inf (about 1.78e-9): every path
    # quarantines it
    well = ScalarPotential(SpatialProfile(kind="constant", value=-0.5 + 8.5e-10))
    kin = System(Grid(0.0, math.pi, 64), CATALOG["neumann"].params, well).kinetic()
    vals = scipy.linalg.eigvalsh(kin.sym)
    scale = np.linalg.norm(kin.sym, np.inf)
    assert 1e-12 * np.max(np.abs(vals)) < vals[0] <= 1e-12 * scale
    sets = [eigenmodes(dataclasses.replace(kin), count=c) for c in (1, 2, None)]
    for diagnostics in [s.diagnostics for s in sets] + [spectrum(kin)[1],
                                                         dense_modes(kin).diagnostics]:
        assert [i for i, _ in diagnostics] == [0]


@pytest.fixture
def no_splu(monkeypatch):
    """scipy's sparse LU `splu` failing, in every scipy module that holds
    it (ARPACK's shift-invert mode builds one when given no inverse)."""
    splu = scipy.sparse.linalg.splu

    def failing(*args, **kwargs):
        raise AssertionError("scipy.sparse.linalg.splu was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("scipy") and vars(module).get("splu") is splu:
            monkeypatch.setattr(module, "splu", failing)


@pytest.mark.parametrize("tag", list(CATALOG))
def test_partial_modes_never_reach_a_sparse_lu(tag, no_splu):
    system = System(Grid(0.0, math.pi, 512), CATALOG[tag].params, QUADRATIC)
    assert system.modes(3).count >= 3
    assert "sym" not in vars(system.kinetic())


@pytest.mark.parametrize("n", [N, 512])
@pytest.mark.parametrize("tag", list(CATALOG))
def test_mode_scale_is_the_infinity_norm(tag, n):
    kin = System(Grid(0.0, math.pi, n), CATALOG[tag].params, QUADRATIC).kinetic()
    want = np.linalg.norm(kin.sym, np.inf)
    assert abs(operators._mode_scale(kin.bands) - want) <= 1e-14 * want
