import random

import pytest

from multiauto import cli, sim
from multiauto.model import MOVES, validate_system
from multiauto.sim import Accepted, GlobalConfiguration, RejectedLoop

import oracles
from conftest import FIXTURE_NAMES, load_fixture
from oracles import NoStopWithinBudget, segment_run


def test_walker_accepts_everything():
    system = load_fixture("walker")
    for n in (0, 1, 2, 5, 17):
        trace = sim.run(system, n)
        assert isinstance(trace.outcome, Accepted)
        assert trace.outcome.time == n + 1


def test_even_fixture_parity():
    system = load_fixture("even")
    assert isinstance(sim.run(system, 6).outcome, Accepted)
    assert isinstance(sim.run(system, 7).outcome, RejectedLoop)


def test_pingpong_oscillates_in_the_interior():
    system = load_fixture("pingpong")
    trace = sim.run(system, 9)
    positions = [cfg.pi[0] for cfg in trace.steps]
    assert isinstance(trace.outcome, RejectedLoop)
    # After launch the head swings between positions 1 and 2 forever.
    assert set(positions[1:]) == {1, 2}


def test_pingpong_segment_run():
    aut = load_fixture("pingpong").automata[0]
    assert segment_run(aut, "r", 2, 9, {"l"}) == ("l", 3, 1)


def test_segment_run_stops_at_endmarkers():
    aut = load_fixture("walker").automata[0]
    assert segment_run(aut, "w", 3, 5, set()) == ("w", 6, 3)


def test_segment_run_budget():
    aut = load_fixture("pingpong").automata[0]
    with pytest.raises(NoStopWithinBudget):
        segment_run(aut, "r", 2, 9, set(), budget=50)


def test_broadcasts_respect_the_message_bound():
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        trace = sim.run(system, 12)
        assert len(trace.broadcasts) <= system.message_bound, name
        assert trace.steps[-1].messages_used <= system.message_bound, name


def _free_run_broadcasts(system, n, steps):
    """Broadcast events when the system keeps stepping regardless of
    acceptance (the model's automata never halt)."""
    config = GlobalConfiguration(
        tuple(a.initial for a in system.automata), (0,) * system.n, 0
    )
    events = []
    for t in range(steps):
        config, broadcasters = sim.global_step(system, config, n)
        if broadcasters:
            events.append((t, broadcasters))
    return events


def test_simultaneous_broadcasts_share_one_message():
    system = load_fixture("slowracer")
    # At N=1 both racers dispatch on the same step, spending one message.
    events = _free_run_broadcasts(system, 1, 12)
    assert events == [(3, frozenset({0, 1}))]


def test_slowracer_winner_depends_on_length():
    system = load_fixture("slowracer")
    first = {n: _free_run_broadcasts(system, n, 20)[0][1] for n in (0, 1, 4)}
    assert first[0] == frozenset({0})
    assert first[1] == frozenset({0, 1})
    assert first[4] == frozenset({1})


def test_accepts_matches_full_run():
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        for n in range(0, 40):
            full = isinstance(sim.run(system, n).outcome, Accepted)
            assert sim.accepts(system, n) == full, (name, n)


def _random_one_automaton(rng):
    """One automaton of 1 to 5 states with random moves, all that validation
    allows on each symbol."""
    states = [f"q{j}" for j in range(rng.randint(1, 5))]
    automaton = {
        "name": "A1",
        "states": states,
        "initial": "q0",
        "finals": rng.sample(states, rng.randint(0, len(states))),
        "broadcasting": [],
        "delta": [
            {"state": s, "symbol": sym, "next": rng.choice(states), "move": rng.choice(MOVES[sym])}
            for s in states
            for sym in "LaR"
        ],
    }
    return validate_system({"version": 1, "automata": [automaton], "message_bound": 1})


def test_accepts_matches_step_reference():
    # The hop-by-hop walk against the step loop, on short tapes and on
    # tapes of about 1000 and 2000.
    systems = [load_fixture(name) for name in FIXTURE_NAMES]
    rng = random.Random(20240817)
    systems += [cli.generate_system(rng, 4, 3, 3) for _ in range(100)]
    rng = random.Random(3)
    systems += [_random_one_automaton(rng) for _ in range(1000)]
    lengths = list(range(120)) + [999, 1000, 2000, 2001]
    seen = set()
    for i, system in enumerate(systems):
        for n in lengths:
            want = oracles.accepts(system, n)
            assert sim.accepts(system, n) == want, (i, n)
            seen.add(want)
    assert seen == {True, False}


def test_run_halts_within_configuration_space_bound():
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        for n in (0, 3, 20):
            bound = 1
            for aut in system.automata:
                bound *= len(aut.states) * (n + 2)
            bound *= system.message_bound + 1
            trace = sim.run(system, n)
            assert len(trace.steps) <= bound + 1, (name, n)


def test_trace_log_format():
    log = sim.trace_log(sim.run(load_fixture("walker"), 2))
    lines = log.strip().splitlines()
    assert lines[0] == "t=0 sigma=w pi=0 m=0 B=1"
    assert lines[-1] == "outcome=Accepted t=3 N=2"


def test_global_step_initial_broadcast():
    system = load_fixture("even")
    config = GlobalConfiguration(("e",), (0,), 0)
    nxt, broadcasters = sim.global_step(system, config, 5)
    assert broadcasters == frozenset({0})
    assert nxt.messages_used == 1
    assert nxt.pi == (1,)
