"""The construction's memo tables live in one ``construction.Scope``.

An extraction keeps no table alive once it returns or raises, so a batch
of systems in one process does not hold every earlier system's tables, and
extractions in separate scopes, in one thread or in two, share nothing.
"""

import gc
import random
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from multiauto import cli, construction as C
from multiauto.presburger import BudgetExceeded, to_sexpr

from conftest import load_fixture


def _refs(system):
    return [weakref.ref(system)] + [weakref.ref(a) for a in system.automata]


def _assert_collected(refs):
    gc.collect()
    alive = sum(r() is not None for r in refs)
    assert alive == 0, f"{alive} of {len(refs)} systems and automata still referenced"


@pytest.mark.parametrize("name", ["crosser2", "racer2", "rebounder"])
def test_extraction_leaves_no_table_behind(name):
    system = load_fixture(name)
    refs = _refs(system)
    C.recognized_set(system)
    del system
    _assert_collected(refs)


def test_fuzz_systems_leave_no_table_behind():
    rng = random.Random(20240817)
    refs = []
    for _ in range(4):
        system = cli.generate_system(rng, 4, 3, 3)
        refs += _refs(system)
        C.recognized_set(system)
    del system
    _assert_collected(refs)


def _completes(monkeypatch, system, budget):
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", str(budget))
    try:
        C.recognized_set(system)
    except BudgetExceeded:
        return False
    return True


def _runs_eliminated_before_raising(system):
    sc = C.Scope()
    with pytest.raises(BudgetExceeded):
        C.recognized_set(system, sc)
    return len(sc.tables["_run_qf"])


def test_failed_extraction_leaves_no_table_behind(monkeypatch):
    # The largest QE budget under which walker's extraction raises, so that
    # it raises part way through, on its largest formula.  A larger budget
    # never raises where a smaller one completes, so the budget is found by
    # bisection and follows the formula sizes when a change shrinks them.
    system = load_fixture("walker")
    refs = _refs(system)
    lo, hi = 0, 1
    while not _completes(monkeypatch, system, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _completes(monkeypatch, system, mid) else (mid, hi)
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", str(lo))
    assert _runs_eliminated_before_raising(system) > 0
    with pytest.raises(BudgetExceeded):
        C.recognized_set(system)
    del system
    _assert_collected(refs)


def test_extraction_frees_its_scope_without_the_cycle_collector():
    # The tables go when the extraction returns, not at some later
    # collection: no reference cycle holds the scope.
    sc = C.Scope()
    ref = weakref.ref(sc)
    gc.disable()
    try:
        C.recognized_set(load_fixture("crosser2"), sc)
        del sc
        assert ref() is None
    finally:
        gc.enable()


def test_a_repeated_build_in_one_scope_is_a_hit():
    aut = load_fixture("crosser2").automata[0]
    sc = C.Scope()
    run = C.run_formula(sc, aut, frozenset(), "x", "y", 4)
    assert sc.tables["_run_canonical"]
    assert C.run_formula(sc, aut, frozenset(), "x", "y", 4).formula is run.formula


def test_scopes_share_nothing():
    aut = load_fixture("crosser2").automata[0]
    first, second = C.Scope(), C.Scope()
    a = C.run_formula(first, aut, frozenset(), "x", "y", 4).formula
    assert not second.tables
    b = C.run_formula(second, aut, frozenset(), "x", "y", 4).formula
    assert a is not b
    assert to_sexpr(a) == to_sexpr(b)


def test_concurrent_extractions_match_sequential_ones():
    """Two threads extracting at once, in opposite orders, get the sets of
    a sequential run, and a Run built in each is the one built alone."""
    names = ["crosser2", "racer2", "rebounder", "trio"]
    systems = {name: load_fixture(name) for name in names}
    want = {name: C.recognized_set(system) for name, system in systems.items()}
    aut = systems["crosser2"].automata[0]

    def run():
        return C.run_formula(C.Scope(), aut, frozenset(), "x", "y", 4).formula

    solo = run()

    def extract(order):
        out = []
        for _ in range(2):
            out += [(name, C.recognized_set(systems[name])) for name in order]
            out.append(("run", run()))
        return out

    with ThreadPoolExecutor(max_workers=2) as pool:
        jobs = [pool.submit(extract, order) for order in (names, names[::-1])]
        results = [job.result() for job in jobs]
    for out in results:
        assert len(out) == 2 * (len(names) + 1)
        for name, got in out:
            assert got == (solo if name == "run" else want[name]), name
