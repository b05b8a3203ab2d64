"""The construction's memo tables live for one extraction scope.

An extraction keeps no table alive once it returns or raises, so a batch
of systems in one process does not hold every earlier system's tables.
"""

import gc
import random
import weakref

import pytest

from multiauto import cli, construction as C
from multiauto.presburger import BudgetExceeded

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


def test_failed_extraction_leaves_no_table_behind(monkeypatch):
    # A QE budget below what walker's extraction needs makes it raise part
    # way through.
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", "40")
    system = load_fixture("walker")
    refs = _refs(system)
    with pytest.raises(BudgetExceeded):
        C.recognized_set(system)
    del system
    _assert_collected(refs)


def test_nested_scopes_share_the_outer_tables():
    aut = load_fixture("crosser2").automata[0]
    with C.scope() as outer:
        run = C.run_formula(aut, frozenset(), "x", "y", 4)
        with C.scope() as inner:
            assert inner is outer
        assert outer["_run_canonical"]
        # A repeated call is a hit: the very same formula comes back.
        assert C.run_formula(aut, frozenset(), "x", "y", 4).formula is run.formula
    assert C._active is None
    with C.scope() as fresh:
        assert fresh is not outer and not fresh


def test_scope_closes_on_an_exception():
    with pytest.raises(KeyError):
        with C.scope():
            raise KeyError("x")
    assert C._active is None


def test_memoized_helper_needs_a_scope():
    with pytest.raises(RuntimeError, match="needs an open construction.scope"):
        C._sample_lengths(load_fixture("walker"))


def test_fresh_names_need_a_scope():
    with pytest.raises(RuntimeError, match="needs an open construction.scope"):
        C._fresh_var("t")
