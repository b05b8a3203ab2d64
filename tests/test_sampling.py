"""The phase pipeline's sampling kernel against the step-by-step reference.

``sim.broadcast_events`` walks quiet stretches hop by hop in closed form
(``dynamics.Hops``) and takes only the broadcasting steps through
``sim.global_step``; ``oracles.phase_trace`` takes every step through
``global_step``.  Their events must be equal.
"""

import random

import pytest

from multiauto import cli, construction as C, sim
from multiauto.model import validate_system

import oracles
from conftest import FIXTURE_NAMES, load_fixture

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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kernel_matches_reference_on_fixtures(name):
    system = load_fixture(name)
    sc = C.Scope()
    for N in C._sample_lengths(sc, system):
        want = oracles.phase_trace(system, N)
        assert sim.broadcast_events(system, N) == want, (name, N)
        assert C._phase_trace(sc, system, N) == want, (name, N)


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
        lengths = C._sample_lengths(C.Scope(), system)
        for N in lengths:
            want = oracles.phase_trace(system, N)
            assert sim.broadcast_events(system, N) == want, (i, N)
            events += len(want)
    assert events > 1000


def _hop_by_steps(aut, s, p, N):
    """What ``Hops.hop`` must return, stepped with ``_step_one``: a walk
    that reaches no endmarker within q·(N + 2) steps never does."""
    b = None
    for i in range(len(aut.states) * (N + 2) + 1):
        if i and p in (0, N + 1):
            return i, s, p, b
        if b is None and s in aut.broadcasting:
            b = i
        s, p = sim._step_one(aut, s, p, N)
    return None, None, None, b


def test_hop_follows_step_one():
    trapped = 0
    for name in FIXTURE_NAMES:
        for aut in load_fixture(name).automata:
            hops = aut.hops
            for s in sorted(aut.states):
                for N in (0, 1, 5, 13, 40):
                    for p in range(1, N + 1):
                        T, s2, p2, b = hops.hop(hops.index[s], p, N)
                        got = (T, None if s2 is None else hops.names[s2], p2, b)
                        assert got == _hop_by_steps(aut, s, p, N), (name, s, p, N)
                        trapped += T is None and b is None
    assert trapped


def test_kernel_matches_reference_at_large_n():
    # Three quiet stretches of about 2N steps each: the hop kernel takes a
    # handful of hops where a step loop would take 6·10^6 steps.
    N = 10**6
    events = sim.broadcast_events(_sweeper(), N)
    assert [(t, cfg.pi) for t, _, cfg in events] == [
        (2 * N + 3, (1,)),
        (4 * N + 5, (1,)),
        (6 * N + 7, (1,)),
    ]


def test_kernel_matches_reference_on_random_systems():
    # Larger systems than the criterion-1 batch, over every short length
    # and a few long ones.
    rng = random.Random(7)
    lengths = list(range(60)) + [97, 150, 321]
    for i in range(150):
        system = cli.generate_system(rng, 5, 3, 3)
        for N in lengths:
            assert sim.broadcast_events(system, N) == oracles.phase_trace(system, N), (i, N)


def test_patience_is_exact():
    # The reference stops after `patience` quiet steps.  That is exact:
    # an automaton walking alone repeats a (state, position) pair within
    # (N + 2)·q steps, after which it settles (broadcast_events' docstring),
    # so no broadcast comes later.  Waiting twice as long must find nothing
    # new.
    systems = [load_fixture(name) for name in FIXTURE_NAMES] + _fuzz_slice()
    for system in systems:
        lengths = C._sample_lengths(C.Scope(), system)
        for N in lengths[::5]:
            assert oracles.phase_trace(system, N, stretch=2) == oracles.phase_trace(
                system, N
            ), (system, N)
