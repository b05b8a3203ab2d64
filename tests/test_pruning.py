"""The pruned phase search against the unpruned one.

``recognized_set`` searches only the frontiers where automaton 1 is in a
live state (``dynamics.live_states``), plus a dead frontier that sits on a
broadcast in a final state.  The reference is the unpruned loop:
``accept_formula`` over every frontier ``phase_frontiers`` yields.  The two
must give the same set, and every acceptance formula the pruning leaves out
must be unsatisfiable for every N, N = 0 included.
"""

import random

import pytest

from multiauto import cli, construction as C, dynamics, sim
from multiauto.model import validate_system
from multiauto.presburger import (
    UltimatelyPeriodicSet,
    ge,
    land,
    lor,
    satisfiable,
    solution_set,
    var,
)

from conftest import FIXTURE_NAMES, load_fixture

FUZZ_SEED = 20240817
FUZZ_SLICE = 40  # the systems of the benchmark's fuzz workload


def _kept(system, live, fr):
    """Whether the pruned search yields ``fr`` (phase_frontiers' rule)."""
    s = fr.sigma[0]
    return s in live or (fr.messages_spent > 0 and s in system.automata[0].finals)


def _reference_set(system, parts):
    """recognized_set's lowering of the given acceptance formulas."""
    nmin = dynamics.min_sufficient_length(system)
    ups = solution_set(land(lor(*parts), ge(var("N"), nmin)), "N")
    width = max(ups.threshold, nmin)
    period = max(ups.period, 1)
    bits = [
        sim.accepts(system, n) if n < nmin else ups.member(n)
        for n in range(width + period)
    ]
    return UltimatelyPeriodicSet.from_bits(bits, width, period).canonical()


def _check(system):
    """Pruned == unpruned on one system; returns how many frontiers the
    pruning left out."""
    m = system.message_bound
    live = dynamics.live_states(system.automata[0])
    sc = C.Scope()
    every = [(fr, C.accept_formula(sc, system, fr)) for fr in C.phase_frontiers(sc, system, m)]
    pruned = C.recognized_set(system, sc)
    skipped = [f for fr, f in every if not _kept(system, live, fr)]
    for f in skipped:
        assert not satisfiable(f, "N"), f
    assert pruned == _reference_set(system, [f for _, f in every])
    return len(skipped)


def _spec(moves, finals, broadcasting=(), message_bound=1):
    """One automaton from {state: ((symbol, next, move), ...)}."""
    automaton = {
        "name": "A1",
        "states": sorted(moves),
        "initial": "q0",
        "finals": sorted(finals),
        "broadcasting": sorted(broadcasting),
        "delta": [
            {"state": s, "symbol": sym, "next": nxt, "move": mv}
            for s, rows in moves.items()
            for sym, nxt, mv in rows
        ],
    }
    return validate_system(
        {"version": 1, "automata": [automaton], "message_bound": message_bound}
    )


def _sink(state):
    return tuple((sym, state, 0) for sym in "LaR")


def left_landing_only():
    """Accepts a^0 only: q0 steps off the left endmarker into the final f,
    which lands on N + 1 only when N = 0; f then sinks."""
    return _spec(
        {"q0": (("L", "f", 1), ("a", "g", 0), ("R", "g", 0)), "f": _sink("g"), "g": _sink("g")},
        finals={"f"},
    )


def right_stay_only():
    """Accepts every a^N: q0 sweeps right and enters the final f only by a
    stay on the right endmarker; f walks back left and stays there."""
    return _spec(
        {"q0": (("L", "q0", 1), ("a", "q0", 1), ("R", "f", 0)),
         "f": (("L", "f", 0), ("a", "f", -1), ("R", "f", -1))},
        finals={"f"},
    )


def accepting_broadcast():
    """Accepts every a^N at a broadcasting step: q0 sweeps right and stays
    on the right endmarker into f, which is final and broadcasts, and then
    sinks.  f is not live, and only the frontier on f's broadcast has a
    satisfiable acceptance formula: the phase before it requires silence
    up to and including the accepting time."""
    return _spec(
        {"q0": (("L", "q0", 1), ("a", "q0", 1), ("R", "f", 0)),
         "f": (("L", "g", 0), ("a", "g", 0), ("R", "g", -1)),
         "g": _sink("g")},
        finals={"f"},
        broadcasting={"f"},
    )


CRAFTED = {
    "left_landing_only": (left_landing_only, {"q0"}, "t=1 p=1 low=1 residues={}"),
    "right_stay_only": (right_stay_only, {"q0"}, "t=0 p=1 low= residues={0}"),
    "accepting_broadcast": (accepting_broadcast, {"q0"}, "t=0 p=1 low= residues={0}"),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_landing_cases(name):
    build, live, language = CRAFTED[name]
    system = build()
    assert dynamics.live_states(system.automata[0]) == live
    ups = C.recognized_set(system)
    assert str(ups) == language
    for n in range(8):
        assert ups.member(n) == sim.accepts(system, n), n
    _check(system)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pruned_matches_unpruned_on_fixtures(name):
    _check(load_fixture(name))


def test_pruned_matches_unpruned_on_fuzz_slice():
    rng = random.Random(FUZZ_SEED)
    skipped = sum(_check(cli.generate_system(rng, 4, 3, 3)) for _ in range(FUZZ_SLICE))
    assert skipped > 20


def test_pruned_matches_unpruned_on_random_dead_systems():
    # Every system has a dead state in automaton 1; two in three start
    # live, so the search is cut below the initial frontier.
    rng = random.Random(5)
    checked = skipped = 0
    while checked < 150:
        system = cli.generate_system(rng, 2, 2, 2)
        aut = system.automata[0]
        live = dynamics.live_states(aut)
        if live == aut.states or (checked % 3 and aut.initial not in live):
            continue
        skipped += _check(system)
        checked += 1
    assert skipped > 100


def test_dead_system_builds_no_formula(monkeypatch):
    # Automaton 1 has no final state: nothing is built, the set is empty.
    system = right_stay_only()
    raw = cli.serialize_system(system)
    raw["automata"][0]["finals"] = []
    system = validate_system(raw)
    calls = []
    for name in ("accept_formula", "advance_frontier"):
        fn = getattr(C, name)
        monkeypatch.setattr(C, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert str(C.recognized_set(system)) == "t=0 p=1 low= residues={}"
    assert calls == []
