import numpy as np
import pytest

from multiauto import construction as C, dynamics, sim
from multiauto.model import bounds_profile
from multiauto.presburger import eliminate, evaluate, vector_eval

from conftest import load_fixture
from oracles import first_broadcast_time, run_trajectory


def _nmin(aut):
    return dynamics.min_sufficient_length(aut)


def test_run_signature_and_time_zero():
    aut = load_fixture("walker").automata[0]
    pf = C.run_formula(aut, frozenset(), "w", "w", 4)
    assert pf.signature == ("N", "p", "pp", "T")
    g = eliminate(pf.formula)
    assert evaluate(g, {"N": 5, "p": 3, "pp": 3, "T": 0})


def test_rebounder_crosses_three_times():
    aut = load_fixture("rebounder").automata[0]
    g = eliminate(C.run_formula(aut, frozenset(), "f1", "f2", 6).formula)
    for n in range(_nmin(aut), _nmin(aut) + 12):
        # Cross, reflect, return, relaunch: f2 reaches the right marker at
        # time 3(N+1) having left position 0 at time 0.
        assert evaluate(g, {"N": n, "p": 0, "pp": n + 1, "T": 3 * (n + 1)}), n
        assert not evaluate(g, {"N": n, "p": 0, "pp": n + 1, "T": 3 * (n + 1) - 1}), n


def test_run_matches_trajectory_with_stops():
    aut = load_fixture("crosser2").automata[0]
    stop = frozenset({"y"})
    tmax = 80
    for s in sorted(aut.states):
        for s2 in sorted(aut.states):
            g = eliminate(C.run_formula(aut, stop, s, s2, 6).formula)
            for N in range(_nmin(aut), _nmin(aut) + 8):
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
                    for cs, cp, t in run_trajectory(aut, stop, s, p, N, tmax):
                        if cs == s2:
                            want[p, cp, t] = True
                assert np.array_equal(got, want), (s, s2, N)


def test_race_first_broadcast_times():
    system = load_fixture("slowracer")
    for aut, start in zip(system.automata, ("w", "c0")):
        g = eliminate(C.race_formula(aut, start, 6).formula)
        for n in range(_nmin(aut), _nmin(aut) + 6):
            t_first = first_broadcast_time(aut, start, 0, n, 300)
            for t in range(t_first + 3):
                assert evaluate(g, {"N": n, "p": 0, "T": t}) == (t == t_first), (
                    aut.name,
                    n,
                    t,
                )


def test_mute_formula():
    system = load_fixture("zigzag")
    aut = system.automata[0]
    g = eliminate(C.mute_formula(aut, "f", 6).formula)
    # No broadcasting states at all: mute everywhere.
    for n in (2, 7):
        assert evaluate(g, {"N": n, "p": 0})

    noisy = load_fixture("walker").automata[0]
    g2 = eliminate(C.mute_formula(noisy, "w", 6).formula)
    assert not evaluate(g2, {"N": 5, "p": 0})


def test_run_deterministic_on_sample():
    # At most one (s', p') satisfies the run predicate per (N, p, T).
    aut = load_fixture("drift3").automata[0]
    gs = {
        s2: eliminate(C.run_formula(aut, frozenset(), "d0", s2, 6).formula)
        for s2 in sorted(aut.states)
    }
    env = {
        "N": np.arange(2, 12)[:, None, None, None],
        "p": np.arange(14)[None, :, None, None],
        "pp": np.arange(14)[None, None, :, None],
        "T": np.arange(120)[None, None, None, :],
    }
    total = sum(
        vector_eval(g, env).sum(axis=2).astype(int) for g in gs.values()
    )
    assert total.max() <= 1


@pytest.mark.parametrize(
    "first, second",
    [
        # the rebound time grows with N
        (dynamics.Return("w", 4), dynamics.Return("w", 5)),
        # a crossing turns into a trap
        (dynamics.Traverse("w", 4), dynamics.Oscillate(p=2, T1=1, T2=2)),
    ],
)
def test_unstable_launch_raises(monkeypatch, first, second):
    aut = load_fixture("walker").automata[0]
    outcomes = iter([first, second])
    monkeypatch.setattr(dynamics, "takeoff", lambda *args: next(outcomes))
    # A scope of its own: no earlier classification is returned or kept.
    with C.scope(), pytest.raises(C.UnstableLaunch):
        C._launch(aut, "w", "L")
