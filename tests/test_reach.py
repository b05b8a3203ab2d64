import numpy as np
import pytest

from multiauto import construction as C
from multiauto.presburger import Term, eliminate, evaluate, substitute, var

from conftest import FIXTURE_NAMES, load_fixture
from oracles import reach_trajectory, vector_eval


def _holds(pf, **point):
    return evaluate(eliminate(pf.formula), point)


def test_signature():
    aut = load_fixture("walker").automata[0]
    pf = C.reach_formula(C.Scope(), aut, frozenset(), "w", "w")
    assert pf.signature == ("N", "p", "pp", "T")


def test_walker_reach_is_straight_line():
    aut = load_fixture("walker").automata[0]
    pf = C.reach_formula(C.Scope(), aut, frozenset(), "w", "w")
    g = eliminate(pf.formula)
    for n, p, t in ((9, 3, 4), (9, 0, 1), (9, 1, 9), (5, 5, 1)):
        assert evaluate(g, {"N": n, "p": p, "pp": p + t, "T": t})
        assert not evaluate(g, {"N": n, "p": p, "pp": p + t - 1, "T": t})


def test_reach_time_zero_is_reflexive():
    aut = load_fixture("pingpong").automata[0]
    pf = C.reach_formula(C.Scope(), aut, frozenset({"r"}), "r", "r")
    # The start may sit in a stop state or on an endmarker.
    assert _holds(pf, N=4, p=0, pp=0, T=0)
    assert _holds(pf, N=4, p=2, pp=2, T=0)


def test_pingpong_reach_with_stop_set():
    aut = load_fixture("pingpong").automata[0]
    pf = C.reach_formula(C.Scope(), aut, frozenset({"l"}), "r", "l")
    g = eliminate(pf.formula)
    # r at position 2 enters the stop state l one step later at position 3.
    assert evaluate(g, {"N": 9, "p": 2, "pp": 3, "T": 1})
    # ... and may not pass through l to reach it again later.
    assert not evaluate(g, {"N": 9, "p": 2, "pp": 3, "T": 3})


def test_no_passing_through_endmarkers():
    aut = load_fixture("walker").automata[0]
    pf = C.reach_formula(C.Scope(), aut, frozenset(), "w", "w")
    g = eliminate(pf.formula)
    # Reaching N+1 is fine; continuing beyond it is not endmarker-free.
    assert evaluate(g, {"N": 4, "p": 2, "pp": 5, "T": 3})
    assert not evaluate(g, {"N": 4, "p": 2, "pp": 5, "T": 4})


def test_reach_exhaustive_drift3():
    # Small-scale version of the acceptance grid: every (p, p', T) on N <= 10.
    aut = load_fixture("drift3").automata[0]
    tmax = 60
    for stop in (frozenset(), frozenset({"d1"})):
        for s in sorted(aut.states):
            for s2 in sorted(aut.states):
                g = eliminate(C.reach_formula(C.Scope(), aut, stop, s, s2).formula)
                for N in range(11):
                    got = vector_eval(
                        g,
                        {
                            "N": np.array(N),
                            "p": np.arange(N + 2)[:, None, None],
                            "pp": np.arange(N + 2)[None, :, None],
                            "T": np.arange(tmax + 1)[None, None, :],
                        },
                    )
                    want = np.zeros_like(got)
                    for p in range(N + 2):
                        for cs, cp, t in reach_trajectory(aut, stop, s, p, N, tmax):
                            if cs == s2:
                                want[p, cp, t] = True
                    assert np.array_equal(got, want), (stop, s, s2, N)


def test_endmarker_start_instance_is_the_whole_canonical_there():
    # A Reach instance from 0 or N + 1 substitutes into that endmarker's
    # branch alone; at that start the other two branches fold to false, so
    # it is the very formula that substituting into the whole canonical
    # gives.
    for name in FIXTURE_NAMES:
        sc = C.Scope()
        for aut in load_fixture(name).automata:
            for stop in (frozenset(), aut.broadcasting):
                for s in sorted(aut.states):
                    for s2 in sorted(aut.states):
                        whole = C._reach_canonical(sc, aut, stop, s, s2)
                        for start in (Term(0), C._N + 1):
                            for PP, Tm in ((var("pp"), var("T")), (C._N + 1, var("_d1"))):
                                got = C._reach(sc, aut, stop, s, s2, start, PP, Tm)
                                want = substitute(whole, {"p": start, "pp": PP, "T": Tm})
                                assert got == want, (name, s, s2, start, PP)
