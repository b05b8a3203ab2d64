"""The phase pipeline's sampling kernel against the step-by-step reference.

``sim.broadcast_events`` steps quiet stretches on int tables and only the
broadcasting steps through ``sim.global_step``; ``oracles.phase_trace``
takes every step through ``global_step``.  Their events must be equal.
"""

import random

import pytest

from multiauto import cli, construction as C, sim
from multiauto.model import validate_system

import oracles
from conftest import FIXTURE_NAMES, falloff_spec, load_fixture

# The criterion-1 fuzz batch; its first systems include both slow-tailed
# runs (message bound never spent) and runs that spend it at once.
FUZZ_SEED = 20240817
FUZZ_SLICE = 8


def _fuzz_slice():
    rng = random.Random(FUZZ_SEED)
    return [cli.generate_system(rng, 4, 3, 3) for _ in range(FUZZ_SLICE)]


def _sweeper():
    """One automaton that sweeps right in a, left in b, and broadcasts in
    c for one step back on the left: every gap between broadcasts is about
    2N quiet steps, longer than the N + 2 cells of the tape."""
    moves = {
        "a": (("L", "a", 1), ("a", "a", 1), ("R", "b", -1)),
        "b": (("L", "c", 1), ("a", "b", -1), ("R", "b", -1)),
        "c": (("L", "a", 1), ("a", "a", 1), ("R", "b", -1)),
    }
    automaton = {
        "name": "S",
        "states": ["a", "b", "c"],
        "initial": "a",
        "finals": [],
        "broadcasting": ["c"],
        "delta": [
            {"state": s, "symbol": sym, "next": nxt, "move": mv}
            for s, rows in moves.items()
            for sym, nxt, mv in rows
        ],
    }
    return validate_system({"version": 1, "automata": [automaton], "message_bound": 3})


def _outcome(trace, system, N):
    try:
        return trace(system, N)
    except sim.HeadFellOff as exc:
        return ("HeadFellOff", str(exc))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kernel_matches_reference_on_fixtures(name):
    system = load_fixture(name)
    with C.scope():
        for N in C._sample_lengths(system):
            want = oracles.phase_trace(system, N)
            assert sim.broadcast_events(system, N) == want, (name, N)
            assert C._phase_trace(system, N) == want, (name, N)


def test_kernel_matches_reference_across_long_quiet_gaps():
    system = _sweeper()
    for N in range(40):
        want = oracles.phase_trace(system, N)
        assert len(want) == 3
        assert sim.broadcast_events(system, N) == want, N
        assert oracles.phase_trace(system, N, stretch=2) == want, N


def test_kernel_matches_reference_on_fuzz_slice():
    events = 0
    for i, system in enumerate(_fuzz_slice()):
        with C.scope():
            lengths = C._sample_lengths(system)
        for N in lengths:
            want = oracles.phase_trace(system, N)
            assert sim.broadcast_events(system, N) == want, (i, N)
            events += len(want)
    assert events > 1000


@pytest.mark.parametrize("loud", [False, True])
def test_kernel_head_fell_off_like_reference(loud):
    # The head falls off on a quiet step, or (loud) on a broadcasting step
    # that global_step takes.
    raw = falloff_spec()
    if loud:
        raw["automata"][0]["broadcasting"] = ["w"]
    system = validate_system(raw)
    for N in range(6):
        want = _outcome(oracles.phase_trace, system, N)
        assert want[0] == "HeadFellOff"
        assert _outcome(sim.broadcast_events, system, N) == want


def test_kernel_head_fell_off_after_broadcasts():
    # A second automaton broadcasts at every step while the first walks
    # right, bounces and falls off the left endmarker.
    raw = falloff_spec()
    walker = raw["automata"][0]
    walker["delta"] = [
        {"state": "w", "symbol": "L", "next": "w", "move": 1},
        {"state": "w", "symbol": "a", "next": "w", "move": 1},
        {"state": "w", "symbol": "R", "next": "x", "move": -1},
        {"state": "x", "symbol": "L", "next": "x", "move": -1},
        {"state": "x", "symbol": "a", "next": "x", "move": -1},
        {"state": "x", "symbol": "R", "next": "x", "move": 0},
    ]
    shouter = {
        "name": "A2",
        "states": ["s"],
        "initial": "s",
        "finals": [],
        "broadcasting": ["s"],
        "delta": [
            {"state": "s", "symbol": sym, "next": "s", "move": mv}
            for sym, mv in (("L", 0), ("a", 0), ("R", 0))
        ],
    }
    raw["automata"].append(shouter)
    raw["message_bound"] = 50
    system = validate_system(raw)
    for N in range(12):
        want = _outcome(oracles.phase_trace, system, N)
        assert want[0] == "HeadFellOff"
        assert _outcome(sim.broadcast_events, system, N) == want


def test_measured_crossings_match_step_one_resimulation():
    systems = [load_fixture(name) for name in FIXTURE_NAMES] + _fuzz_slice()
    seen = set()
    for system in systems:
        with C.scope():
            lengths = C._sample_lengths(system)
            got = C._measured_crossings(system)
        assert got == oracles.measured_crossings(system, lengths), system
        seen.add(got)
    assert len(seen) > 1


def test_solo_positions_follow_step_one():
    for name in FIXTURE_NAMES:
        for aut in load_fixture(name).automata:
            for N in (0, 1, 5, 13):
                s, p = aut.initial, 0
                want = []
                for _ in range(4 * (N + 2)):
                    s, p = sim._step_one(aut, s, p, N)
                    want.append(p)
                assert sim.solo_positions(aut, N, len(want)) == want, (name, N)


def test_patience_is_exact():
    # broadcast_events' docstring proves that no broadcast (and no head
    # falling off) can follow more than `patience` quiet steps; waiting
    # twice as long must find nothing new.
    systems = [load_fixture(name) for name in FIXTURE_NAMES] + _fuzz_slice()
    for system in systems:
        with C.scope():
            lengths = C._sample_lengths(system)
        for N in lengths[::5]:
            assert oracles.phase_trace(system, N, stretch=2) == oracles.phase_trace(
                system, N
            ), (system, N)
