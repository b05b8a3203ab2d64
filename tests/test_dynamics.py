import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from multiauto import cli, construction as C, dynamics, sim
from multiauto.model import Automaton

from conftest import FIXTURE_NAMES, load_fixture, unique_automata
from oracles import traversal_slope


def test_walker_basic_sequence():
    aut = load_fixture("walker").automata[0]
    prof = dynamics.basic_sequence(aut, "w")
    assert prof.sequence == ("w", "w")
    assert prof.lambdas == (0, 1)
    assert prof.net_cycle_displacement == 1
    assert prof.amplitude == 1
    assert prof.direction == "Right"


def test_pingpong_basic_sequence():
    aut = load_fixture("pingpong").automata[0]
    prof = dynamics.basic_sequence(aut, "r")
    assert prof.direction == "Motionless"
    assert prof.amplitude == 1
    assert prof.net_cycle_displacement == 0


def test_drift3_basic_sequence():
    aut = load_fixture("drift3").automata[0]
    prof = dynamics.basic_sequence(aut, "d0")
    assert prof.net_cycle_displacement == 1
    assert prof.amplitude == 2
    assert prof.direction == "Right"


def test_walker_takeoff():
    aut = load_fixture("walker").automata[0]
    n = aut.hops.nmin
    assert isinstance(dynamics.takeoff(aut, "w", "L", n), dynamics.Traverse)
    out = dynamics.takeoff(aut, "w", "R", n)
    assert isinstance(out, dynamics.Return) and out.T == 1


def test_pingpong_takeoff_oscillates():
    aut = load_fixture("pingpong").automata[0]
    n = aut.hops.nmin
    out = dynamics.takeoff(aut, "r", "L", n)
    assert isinstance(out, dynamics.Oscillate)


def _replay_launch(aut, s, side, n):
    """The launch by the simulator's own step: its first endmarker contact
    or its first repeated interior configuration."""
    start = 0 if side == "L" else n + 1
    q, p = s, start
    seen = {}
    # n * |Q| interior configurations: one more step repeats one.
    for t in range(1, n * len(aut.states) + 2):
        q, p = sim._step_one(aut, q, p, n)
        if p in (0, n + 1):
            return (dynamics.Return if p == start else dynamics.Traverse)(q, t)
        if (q, p) in seen:
            return dynamics.Oscillate(p, seen[q, p], t - seen[q, p])
        seen[q, p] = t
    raise AssertionError("no interior configuration repeated")


def test_takeoff_landing_matches_replay(systems):
    # Every launch of the fixtures at N_min, and of seeded random automata
    # at N_min and 2 * N_min + 1, against a replay with the simulator's own
    # step.
    rng = random.Random(11)
    random_automata = [
        _random_automaton(rng.randrange(10**6), rng.randint(1, 6)) for _ in range(300)
    ]
    cases = [(aut, aut.hops.nmin) for aut in unique_automata(systems)]
    for aut in random_automata:
        n = aut.hops.nmin
        cases += [(aut, n), (aut, 2 * n + 1)]
    kinds = set()
    for aut, n in cases:
        for s in sorted(aut.states):
            for side in ("L", "R"):
                out = dynamics.takeoff(aut, s, side, n)
                assert out == _replay_launch(aut, s, side, n), (aut.name, s, side, n)
                kinds.add(type(out))
    assert kinds == {dynamics.Return, dynamics.Traverse, dynamics.Oscillate}


def test_takeoff_rejects_short_input():
    aut = load_fixture("walker").automata[0]
    with pytest.raises(dynamics.InputTooShort):
        dynamics.takeoff(aut, "w", "L", 0)


def test_takeoff_classification_is_length_independent(systems):
    # The construction classifies each launch once, on a^N_min, and relies
    # on the answer for every longer input: a Return in full, any other
    # outcome in kind.  Every fixture automaton and those of 200 random
    # systems, for N_min .. N_min + 12.
    rng = random.Random(7)
    automata = unique_automata(systems)
    for _ in range(200):
        automata += cli.generate_system(rng, 8, 3, 3).automata
    kinds = set()
    for aut in automata:
        n = aut.hops.nmin
        for s in sorted(aut.states):
            for side in ("L", "R"):
                a = dynamics.takeoff(aut, s, side, n)
                assert C._launch(aut, s, side) == a
                kinds.add(type(a))
                for m in range(n + 1, n + 13):
                    b = dynamics.takeoff(aut, s, side, m)
                    if isinstance(a, dynamics.Return):
                        assert a == b, (aut.name, s, side, m)
                    else:
                        assert type(a) is type(b), (aut.name, s, side, m)
    assert kinds == {dynamics.Return, dynamics.Traverse, dynamics.Oscillate}


def _random_automaton(seed, k):
    """k states with random transitions."""
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(k)]

    def tbl(moves):
        return {s: (rng.choice(states), rng.choice(moves)) for s in states}

    return Automaton(
        name="A",
        states=frozenset(states),
        initial=states[0],
        finals=frozenset(),
        broadcasting=frozenset(),
        delta_inner=tbl((-1, 0, 1)),
        delta_left=tbl((0, 1)),
        delta_right=tbl((-1, 0)),
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 5))
def test_basic_sequence_shape(seed, k):
    aut = _random_automaton(seed, k)
    for s in sorted(aut.states):
        prof = dynamics.basic_sequence(aut, s)
        # s_0..s_k with s_k the first repeat of s_loop_entry.
        assert prof.sequence[0] == s
        assert prof.sequence[-1] == prof.sequence[prof.loop_entry]
        assert len(set(prof.sequence[:-1])) == len(prof.sequence) - 1
        assert len(prof.sequence) <= k + 1
        assert prof.lambdas[0] == 0
        assert all(abs(a - b) <= 1 for a, b in zip(prof.lambdas, prof.lambdas[1:]))
        assert prof.amplitude == max(prof.lambdas) - min(prof.lambdas)
        assert prof.net_cycle_displacement == prof.lambdas[-1] - prof.lambdas[prof.loop_entry]


def test_traversal_slope_zero_without_drift():
    aut = load_fixture("pingpong").automata[0]
    assert aut.hops.slope == 0


def test_traversal_slope_positive_for_drifters():
    assert load_fixture("walker").automata[0].hops.slope >= 1
    assert load_fixture("drift3").automata[0].hops.slope >= 1


def test_hops_constants_match_basic_sequences(systems):
    # Hops derives N_min and G in its one walk over the basic sequences;
    # recompute both per state on every fixture automaton and on random
    # automata.
    rng = random.Random(5)
    automata = unique_automata(systems) + [
        _random_automaton(rng.randrange(10**6), rng.randint(1, 8)) for _ in range(200)
    ]
    for aut in automata:
        amplitudes = [dynamics.basic_sequence(aut, s).amplitude for s in aut.states]
        assert aut.hops.nmin == 1 + max(amplitudes), aut.name
        assert aut.hops.slope == traversal_slope(aut), aut.name


def test_extraction_builds_each_basic_sequence_once(monkeypatch):
    # Hops is the one reader of the basic sequences on the extraction path:
    # one recognized_set walks each (automaton, state) at most once.
    calls = Counter()
    basic_sequence = dynamics.basic_sequence

    def counted(aut, s):
        calls[id(aut), s] += 1
        return basic_sequence(aut, s)

    monkeypatch.setattr(dynamics, "basic_sequence", counted)
    rng = random.Random(20240817)
    fuzz = [cli.generate_system(rng, 4, 3, 3) for _ in range(8)]
    for system in [load_fixture(name) for name in FIXTURE_NAMES] + fuzz:
        calls.clear()
        C.recognized_set(system)
        assert max(calls.values(), default=0) <= 1, sorted(calls.items())
