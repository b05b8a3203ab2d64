"""The pruned phase search against the unpruned one.

``recognized_set`` advances only the frontiers that lead to some sampled
length's first-acceptance frontier, and builds the acceptance formulas of
the first-acceptance frontiers alone (``construction._sampled_runs``).  The
reference is the unpruned loop: ``accept_formula`` over every frontier
``phase_frontiers`` yields without a table.  The two must give the same
set, and the acceptance formulas the pruning leaves out must add no
N >= N_min to the union of the ones it builds.
"""

import random

import pytest

from multiauto import cli, construction as C, dynamics, sim
from multiauto.model import validate_system
from multiauto.presburger import (
    UltimatelyPeriodicSet,
    ge,
    land,
    lnot,
    lor,
    satisfiable,
    solution_set,
    var,
)

import oracles
from conftest import FIXTURE_NAMES, load_fixture

FUZZ_SEED = 20240817
FUZZ_SLICE = 40  # the systems of the benchmark's fuzz workload


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
    """Pruned == unpruned on one system; returns how many acceptance
    formulas the pruning left out."""
    m = system.message_bound
    sc = C.Scope()
    every = [C.accept_formula(sc, system, fr) for fr in C.phase_frontiers(sc, system, m)]
    sample = C._sampled_runs(sc, system)
    kept = [
        C.accept_formula(sc, system, fr)
        for fr in C.phase_frontiers(sc, system, m, sample.lead)
        if (fr.messages_spent, fr.sigma) in sample.first
    ]
    pruned = C.recognized_set(system, sc)
    nmin = ge(var("N"), dynamics.min_sufficient_length(system))
    assert not satisfiable(land(lor(*every), lnot(lor(*kept)), nmin), "N")
    assert pruned == _reference_set(system, every)
    return len(every) - len(kept)


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
    sinks.  Only the frontier on f's broadcast has a satisfiable acceptance
    formula: the phase before it requires silence up to and including the
    accepting time.  So the first-acceptance frontier is the one after
    the broadcast at the accepting time, not the one before it."""
    return _spec(
        {"q0": (("L", "q0", 1), ("a", "q0", 1), ("R", "f", 0)),
         "f": (("L", "g", 0), ("a", "g", 0), ("R", "g", -1)),
         "g": _sink("g")},
        finals={"f"},
        broadcasting={"f"},
    )


# (system, first-acceptance keys, leading keys, language).  a^0 alone is
# below N_min, so left_landing_only files nothing.
CRAFTED = {
    "left_landing_only": (left_landing_only, set(), set(), "t=1 p=1 low=1 residues={}"),
    "right_stay_only": (right_stay_only, {(0, ("q0",))}, set(), "t=0 p=1 low= residues={0}"),
    "accepting_broadcast": (
        accepting_broadcast,
        {(1, ("f",))},
        {(0, ("q0",))},
        "t=0 p=1 low= residues={0}",
    ),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_landing_cases(name):
    build, first, lead, language = CRAFTED[name]
    system = build()
    sample = C._sampled_runs(C.Scope(), system)
    assert (sample.first, sample.lead) == (first, lead)
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
    # One system in three is dead, accepting no sampled length >= N_min,
    # so nothing is built; the others accept one, so the search is cut
    # where no frontier leads to an acceptance.
    rng = random.Random(5)
    checked = skipped = 0
    while checked < 150:
        system = cli.generate_system(rng, 2, 2, 2)
        nmin = dynamics.min_sufficient_length(system)
        accepted = any(sim.accepts(system, N) for N in C._sample_lengths(system)[nmin:])
        if accepted != bool(checked % 3):
            continue
        skipped += _check(system)
        checked += 1
    assert skipped > 100


def test_dead_system_builds_no_formula(monkeypatch):
    # Automaton 1 has no final state: nothing is sampled or built, the set
    # is empty.
    system = right_stay_only()
    raw = cli.serialize_system(system)
    raw["automata"][0]["finals"] = []
    system = validate_system(raw)
    calls = []
    for module, name in ((C, "accept_formula"), (C, "advance_frontier"), (sim, "broadcast_events")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert str(C.recognized_set(system)) == "t=0 p=1 low= residues={}"
    assert calls == []


def left_parity():
    """Accepts the even N: q0 sweeps right, and the cycle e, o sweeps back
    left two cells a lap, so it lands on the left endmarker in e exactly
    when N is even; e then sends the final f right, and o sinks.  N_min
    is 3, one above e's amplitude, and L_1 is 2, so the class of N_min
    rejects and the next one accepts."""
    return _spec(
        {
            "q0": (("L", "q0", 1), ("a", "q0", 1), ("R", "e", -1)),
            "e": (("L", "f", 1), ("a", "o", -1), ("R", "e", -1)),
            "o": (("L", "z", 0), ("a", "e", -1), ("R", "o", -1)),
            "f": (("L", "f", 1), ("a", "f", 1), ("R", "f", 0)),
            "z": _sink("z"),
        },
        finals={"f"},
    )


def _decision_batch():
    """The fixtures, ``left_parity``, fuzz-0..99 and seeded batches of
    larger systems, with message bounds up to 6: 531 systems."""
    systems = [load_fixture(name) for name in FIXTURE_NAMES] + [left_parity()]
    for args, seed, count in (
        ((4, 3, 3), FUZZ_SEED, 100),
        ((5, 3, 3), 7, 60),
        ((6, 4, 4), 11, 40),
        ((8, 3, 6), 13, 100),
        ((4, 3, 3), 5, 218),
    ):
        rng = random.Random(seed)
        systems += [cli.generate_system(rng, *args) for _ in range(count)]
    return systems


def test_acceptance_past_nmin_is_decided_per_class():
    # recognized_set decides on automaton 1's walk on [N_min, N_min + L_1)
    # alone whether any N >= N_min is accepted.  The decision must be the
    # one the sample window makes.  Its premise, that each class modulo
    # L_1 is accepted whole or not at all, must hold for the step loop on
    # two periods L_1 from 1000, and a system it calls non-accepting must
    # also reject the next 60 lengths from N_min.
    systems = _decision_batch()
    assert len(systems) == 531
    decided = {True: 0, False: 0}
    for i, system in enumerate(systems):
        nmin = dynamics.min_sufficient_length(system)
        period1 = system.automata[0].hops.period
        accepting = C._accepts_past_nmin(system, nmin)
        assert accepting == bool(C._sampled_runs(C.Scope(), system).first), i
        decided[accepting] += 1
        classes = [oracles.accepts(system, r) for r in range(nmin, nmin + period1)]
        for N in range(1000, 1000 + 2 * period1):
            assert oracles.accepts(system, N) == classes[(N - nmin) % period1], (i, N)
        if not accepting:
            assert not any(oracles.accepts(system, N) for N in range(nmin, nmin + 60)), i
    assert min(decided.values()) > 50
