"""Every mode and the spectrum from the bands against the dense `eigh`
oracle, the canonical basis of degenerate pairs, and that no solver
diagonalizes, or `spectrum` forms, the dense n x n K."""

import argparse
import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from kfglab import cli, operators, verify
from kfglab.bc import CATALOG
from kfglab.core import Grid, ScalarPotential, SpatialProfile
from kfglab.observables import Snapshot
from kfglab.operators import (
    DEGENERACY_TOL,
    System,
    canonical_pairs,
    eigenmodes,
    gauge,
    spectrum,
)
from kfglab.verify import SUITE_NAMES, run_suite
from oracles import dense_modes

N = 168
QUADRATIC = ScalarPotential(SpatialProfile(kind="quadratic", x0=math.pi / 2, coefficient=0.3))
FREE = ScalarPotential()


def kinetic(tag, potential=QUADRATIC, n=N):
    return System(Grid(0.0, math.pi, n), CATALOG[tag].params, potential).kinetic()


def squared(energies, diagnostics):
    """Every E^2 of a set, the quarantined first."""
    return np.concatenate([[v for _, v in diagnostics], energies**2])


def field_errors(got, want):
    """Max |difference| of each mode field, relative to the field's scale."""
    return np.max(np.abs(got.fields - want.fields), axis=1) / np.max(np.abs(want.fields), axis=1)


@pytest.mark.parametrize("tag", CATALOG)
def test_full_sets_and_spectrum_match_the_dense_oracle(tag):
    kin = kinetic(tag)
    fresh = dataclasses.replace(kin)
    full = eigenmodes(fresh)
    energies, diagnostics = spectrum(fresh)
    assert "sym" not in vars(fresh) and "l_dof" not in vars(fresh)
    dense = dense_modes(kin)
    want = squared(dense.energies, dense.diagnostics)
    top = np.max(np.abs(want))
    for e2, quarantined in ((squared(full.energies, full.diagnostics), full.diagnostics),
                            (squared(energies, diagnostics), diagnostics)):
        assert [i for i, _ in quarantined] == [i for i, _ in dense.diagnostics]
        assert np.max(np.abs(e2 - want)) <= 1e-12 * top
    assert full.count == dense.count == len(energies)
    assert np.all(field_errors(full, dense) <= 1e-9)


@pytest.mark.parametrize("tag", ["periodic", "antiperiodic"])
def test_free_degenerate_pairs_take_the_canonical_basis(tag):
    kin = kinetic(tag, FREE)
    full, dense = eigenmodes(kin), dense_modes(kin)
    e2 = full.energies**2
    pairs = np.flatnonzero(np.diff(e2) <= DEGENERACY_TOL * np.max(e2))
    assert len(pairs) == (kin.n_dof - 1) // 2
    assert np.all(field_errors(full, dense) <= 1e-10)
    # every second member vanishes at the first unknown, the first point
    # where a free pair on the ring is largest
    assert np.all(full.fields[pairs + 1, 0] == 0.0)


def test_canonical_pairs_do_not_depend_on_the_basis():
    kin = kinetic("antiperiodic", FREE, n=64)
    vals, vecs = scipy.linalg.eigh(kin.sym)
    rows = vecs.T / np.sqrt(kin.closure.dof_weights)
    tol = DEGENERACY_TOL * np.max(np.abs(vals))
    pairs = np.flatnonzero(np.diff(vals) <= tol)
    assert len(pairs) == kin.n_dof // 2
    want = gauge(canonical_pairs(vals, rows, tol))
    rng = np.random.default_rng(7)
    for dtype in (float, complex):
        rotated = rows.astype(dtype)
        for i in pairs:
            z = rng.standard_normal((2, 2)).astype(dtype)
            if dtype is complex:
                z += 1j * rng.standard_normal((2, 2))
            rotated[i:i + 2] = np.linalg.qr(z)[0] @ rotated[i:i + 2]
        got = gauge(canonical_pairs(vals, rotated, tol))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sets_without_pairs_are_untouched():
    kin = kinetic("periodic")
    vals, vecs = scipy.linalg.eigh(kin.sym)
    rows = vecs.T
    assert np.array_equal(canonical_pairs(vals, rows, DEGENERACY_TOL * np.max(np.abs(vals))), rows)


@pytest.fixture
def no_dense_eigh(monkeypatch):
    """`scipy.linalg.eigh`, as the package sees it, failing on a matrix of
    32 rows or more: every system below has at least 46 unknowns, and the
    Rayleigh-Ritz step of the partial solve is k x k for a few modes.  No
    dense operator is built either: `Bands.dense`, behind `KineticMatrix.sym`
    and `l_dof`, fails on any bands."""
    dense_eigh = scipy.linalg.eigh

    def guarded(a, *args, **kwargs):
        assert len(a) < 32, f"dense eigh of a {len(a)}-row matrix"
        return dense_eigh(a, *args, **kwargs)

    def dense(bands):
        raise AssertionError(f"dense form of {len(bands.main)}-row bands")

    monkeypatch.setattr(operators.scipy.linalg, "eigh", guarded)
    monkeypatch.setattr(operators.Bands, "dense", dense)


def spectrum_config(path, tag, n):
    cfg = {
        "grid": {"a": 0.0, "b": math.pi, "n": n},
        "potential": {"profile": {"kind": "quadratic", "x0": math.pi / 2, "coefficient": 0.3}},
        "bc": tag,
    }
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("tag", CATALOG)
def test_spectrum_and_modes_never_diagonalize_the_dense_k(tag, tmp_path, no_dense_eigh):
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", spectrum_config(tmp_path / "c.json", tag, 64),
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=3)
    system = System(Grid(0.0, math.pi, 64), CATALOG[tag].params, QUADRATIC)
    assert len(rows) == system.closure.n_dof
    for n in (64, N):
        system = System(Grid(0.0, math.pi, n), CATALOG[tag].params, QUADRATIC)
        modes = system.modes()
        assert modes.count + len(modes.diagnostics) == system.closure.n_dof
        assert "sym" not in vars(system.kinetic())


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_suites_never_diagonalize_the_dense_k(suite, no_dense_eigh):
    assert run_suite(suite).passed


def test_a_dense_solve_in_a_verify_worker_fails_the_suite(no_dense_eigh, monkeypatch):
    # the suites' per-closure runs go to forked children, which inherit the
    # guard: a dense solve of every mode there fails the suite here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()
    banded = operators._lowest_eigenpairs

    def dense_in_a_child(bands, k):
        if os.getpid() == parent:
            return banded(bands, k)
        vals, vecs = scipy.linalg.eigh(bands.dense())
        return vals[:k], vecs[:, :k]

    monkeypatch.setattr(operators, "_lowest_eigenpairs", dense_in_a_child)
    with pytest.raises(AssertionError, match="dense form of"):
        run_suite("boundary_currents")


@pytest.mark.parametrize("suite", ["boundary_currents", "convergence", "positivity"])
def test_verify_solves_and_derives_only_what_its_checks_read(suite, monkeypatch):
    # these suites solve K on 126 to 255 unknowns and read at most eight
    # modes: no solve of every mode there, and no snapshot builds all nine
    # local fields where a check reads two to eight of them.  A raise in a
    # forked worker fails the suite here.
    solve = operators.eigenmodes

    def sized(kinetic, count=None):
        modes = solve(kinetic, count)
        every = modes.count + len(modes.diagnostics) == kinetic.n_dof
        assert not (every and kinetic.n_dof >= 128), (
            f"every mode of {kinetic.n_dof} unknowns (count={count})")
        return modes

    def no_fields(snap):
        raise AssertionError("a check built Snapshot.fields")

    monkeypatch.setattr(operators, "eigenmodes", sized)
    monkeypatch.setattr(verify, "eigenmodes", sized)
    monkeypatch.setattr(Snapshot, "fields", property(no_fields))
    assert run_suite(suite).passed


@pytest.mark.parametrize("tag", ["periodic", "quasimixed+"])
def test_spectrum_memory_stays_far_below_the_dense_k(tag, tmp_path):
    # the dense K alone takes 2047^2 * 8 bytes = 33 MB (twice that complex)
    args = argparse.Namespace(config=spectrum_config(tmp_path / "c.json", tag, 2048),
                              out=str(tmp_path))
    tracemalloc.start()
    try:
        assert cli.cmd_spectrum(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
