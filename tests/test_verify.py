"""The verify suites' process map: the results of a loop, in order and bit
for bit, on one usable CPU and on several; a child's exception raised again
in the parent with its type; no child left after a return or a raise."""

import json
import os
import time

import pytest

from kfglab import cli, evolution, verify
from kfglab.operators import NumericalFailure
from kfglab.verify import SUITE_NAMES, _map, run_suite


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPUs to the given count."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return set_count


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child that os.fork makes."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_keeps_the_item_order_and_deals_round_robin(cpus, forks):
    cpus(3)
    parent = os.getpid()
    out = _map(lambda x: (x * x, os.getpid()), range(8))
    assert [value for value, _ in out] == [x * x for x in range(8)]
    pids = [pid for _, pid in out]
    # one share per process: items 0, 3, 6 here, the others in two children
    assert pids[::3] == [parent] * 3
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3 and len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("count,items,children", [(1, 5, 0), (2, 5, 1), (4, 2, 1), (4, 9, 3)])
def test_map_makes_one_child_per_further_usable_cpu_at_most(cpus, forks, count, items,
                                                             children):
    cpus(count)
    assert _map(str, range(items)) == [str(x) for x in range(items)]
    assert len(forks) == children
    assert_no_child_left()


def test_without_an_affinity_call_the_cpu_count_decides(monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _map(str, range(3)) == ["0", "1", "2"]
    assert len(forks) == 1
    assert_no_child_left()


def test_map_without_fork_runs_here(cpus, monkeypatch):
    cpus(4)
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert _map(lambda x: os.getpid(), range(5)) == [parent] * 5


@pytest.mark.parametrize("error", [ValueError("bad item 1"), AssertionError("bad item 1"),
                                   NumericalFailure("bad item 1")])
def test_a_childs_exception_is_raised_again_with_its_type(cpus, error):
    cpus(2)

    def fn(x):
        if x == 1:  # the second item: the child's share
            raise error
        return x

    with pytest.raises(type(error), match="bad item 1") as caught:
        _map(fn, range(4))
    assert type(caught.value) is type(error)
    # the child's traceback is the cause
    assert "in verify worker" in str(caught.value.__cause__)
    assert "raise error" in str(caught.value.__cause__)
    assert_no_child_left()


def test_a_raise_in_the_parents_share_kills_and_reaps_the_children(cpus, forks):
    cpus(3)

    def fn(x):
        if x == 0:
            raise KeyError("parent share")
        time.sleep(60)  # the children's shares

    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        _map(fn, range(3))
    assert time.perf_counter() - t0 < 30
    assert len(forks) == 2
    assert_no_child_left()


def test_a_result_that_does_not_pickle_fails_the_map(cpus):
    cpus(2)
    with pytest.raises(ChildProcessError, match="lambda"):
        _map(lambda x: (lambda: x), range(2))
    assert_no_child_left()


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_give_the_same_checks_on_one_and_on_two_cpus(suite, cpus):
    results = {}
    for count in (1, 2):
        cpus(count)
        results[count] = run_suite(suite)
        assert_no_child_left()
    one, two = results[1], results[2]
    assert one.passed and two.passed
    # only the measured run time of the bc algebra differs between runs
    assert [c for c in one.checks if c.name != "bc_algebra_runtime"] == [
        c for c in two.checks if c.name != "bc_algebra_runtime"]
    assert one.workers == 1
    assert two.workers == (
        2 if suite in ("conservation", "boundary_currents", "decompositions") else 1)


def test_the_conservation_suite_runs_each_closure_once_in_one_map(cpus, forks, monkeypatch):
    grids = []
    init = evolution.CayleyPropagator.__init__

    def counted(self, system, dt):
        grids.append(system.grid.n)
        init(self, system, dt)

    monkeypatch.setattr(evolution.CayleyPropagator, "__init__", counted)
    cpus(1)
    assert run_suite("conservation").passed
    # one propagator per closure run: the ten closures at n = 64, each
    # stepping its charged state (and its neutral one) in one stack, and the
    # six sector-preservation runs at n = 48
    assert sorted(grids) == [48] * 6 + [64] * 10
    assert not forks
    cpus(2)
    assert run_suite("conservation").workers == 2
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2])
def test_verify_json_records_the_process_count(count, cpus, tmp_path, capsys):
    cpus(count)
    assert cli.main(["verify", "--suite", "boundary_currents", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify_boundary_currents.json").read_text())
    assert payload["workers"] == count
    # the lines the benchmark reads do not change
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite boundary_currents: PASS (")
    assert all(line.startswith("  [PASS] ") for line in lines[1:])
    assert_no_child_left()


def test_a_suite_without_a_map_records_one_process(cpus):
    cpus(2)
    _map(str, range(2))  # a map before the suite does not count for it
    assert verify._workers >= 2
    assert run_suite("positivity").workers == 1
