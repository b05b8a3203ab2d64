"""The phase pipeline's sampling kernel against the step-by-step reference.

``sim.broadcast_events`` merges each automaton's broadcasting times from
its closed-form walk (``dynamics.first_broadcasts``) and takes only the
broadcasting steps through ``sim.global_step``; ``oracles.phase_trace``
takes every step through ``global_step``.  Their events must be equal, and
so must the branches that the phase pipeline files from them
(``construction._sampled_runs``).  The window of lengths the pipeline
samples (``construction._sample_lengths``) must file every branch, every
first-acceptance frontier and every frontier leading to one that a long
fixed window files, and the merge it is derived from, on a residue class
of lengths, must give the kernel's times.
"""

import random
from collections import Counter, defaultdict
from math import lcm

import pytest

from multiauto import cli, construction as C, dynamics, sim
from multiauto.model import validate_system

import oracles
from conftest import FIXTURE_NAMES, load_fixture, spec_automaton

# The criterion-1 fuzz batch; its first systems include both slow-tailed
# runs (message bound never spent) and runs that spend it at once.
FUZZ_SEED = 20240817
FUZZ_SLICE = 8


def _fuzz_slice():
    rng = random.Random(FUZZ_SEED)
    return [cli.generate_system(rng, 4, 3, 3) for _ in range(FUZZ_SLICE)]


def _sweeper(*others):
    """One automaton that sweeps right in a, left in b, and broadcasts in
    c for one step back on the left: every gap between broadcasts is about
    2N quiet steps, longer than the N + 2 cells of the tape.  The automata
    ``others`` (spec entries) run beside it."""
    moves = {
        "a": (("L", "a", 1), ("a", "a", 1), ("R", "b", -1)),
        "b": (("L", "c", 1), ("a", "b", -1), ("R", "b", -1)),
        "c": (("L", "a", 1), ("a", "a", 1), ("R", "b", -1)),
    }
    delta = [(s, sym, nxt, mv) for s, rows in moves.items() for sym, nxt, mv in rows]
    automata = [spec_automaton("S", [], ["c"], delta), *others]
    return validate_system({"version": 1, "automata": automata, "message_bound": 3})


def _automaton(name, loud, moves, finals=()):
    """The spec entry of an automaton from its (state, symbol) -> (next,
    move) rows; every other row of its states stays put.  The first row's
    state is the initial one."""
    states = dict.fromkeys([s for s, _ in moves] + [t for t, _ in moves.values()])
    delta = [(s, sym, *moves.get((s, sym), (s, 0))) for s in states for sym in "LaR"]
    return spec_automaton(name, list(finals), loud, delta)


def _left_stepper(n, loud, back):
    """Steps through b0 .. b<n-1> on the left endmarker, one a step,
    broadcasting in ``loud``; from the last state back to b0 when
    ``back``, else it stays there."""
    states = [f"b{i}" for i in range(n)]
    after = states[1:] + (states[:1] if back else states[-1:])
    return _automaton("B", loud, {(s, "L"): (t, 0) for s, t in zip(states, after)})


def _trapped():
    """Steps off the left endmarker into a quiet cycle of three states that
    moves +1, -1, 0 and never leaves the tape."""
    moves = {
        ("b0", "L"): ("b1", 1),
        ("b1", "a"): ("b2", 1),
        ("b2", "a"): ("b3", -1),
        ("b3", "a"): ("b1", 0),
    }
    return _automaton("B", [], moves)


def _racers():
    """A crosses the tape and broadcasts after one step on the right
    endmarker, at N + 2; B broadcasts on the left endmarker at time 5.  A
    broadcasts first for N < 3, both at N = 3 and B first from N = 4 on."""
    moves = {("a0", "L"): ("a0", 1), ("a0", "a"): ("a0", 1), ("a0", "R"): ("a1", 0)}
    a = _automaton("A", ["a1"], moves)
    b = _left_stepper(7, ["b5"], back=False)
    return validate_system({"version": 1, "automata": [a, b], "message_bound": 2})


def late_acceptance():
    """A crosses the tape, stays on the right endmarker through r1 .. r6
    and then in its final state f for good: it first accepts at N + 8.  B
    sweeps to the right endmarker and back and broadcasts its one message
    on the left one, at 2N + 3.  The two meet at N = 5; below, the first
    acceptance falls after the broadcast, and above, before it.  At 2N + 3
    A sits on its repeated stretch, (f, R) again and again, which crosses
    the tape nowhere, so the bounds on the broadcasting times alone end the
    window at N = 5 (``construction._settling``), short of the lengths that
    accept before the broadcast."""
    stays = ["r1", "r2", "r3", "r4", "r5", "r6", "f"]
    moves = {("q0", "L"): ("q0", 1), ("q0", "a"): ("q0", 1), ("q0", "R"): ("r1", 0)}
    moves.update({(r, "R"): (nxt, 0) for r, nxt in zip(stays, stays[1:])})
    a = _automaton("A", [], moves, finals=["f"])
    moves = {
        ("b0", "L"): ("b0", 1),
        ("b0", "a"): ("b0", 1),
        ("b0", "R"): ("b1", -1),
        ("b1", "a"): ("b1", -1),
        ("b1", "L"): ("z", 0),
        ("z", "L"): ("w", 1),
    }
    b = _automaton("B", ["z"], moves)
    return validate_system({"version": 1, "automata": [a, b], "message_bound": 1})


def _long_window(system):
    """Every N up to max(320, N_min + 30·period + 60) + K·M, period the lcm
    of the net cycle displacements, K the run cap and M the message bound:
    a fixed window far longer than the derived one
    (``construction._sample_lengths``), for the tests that check the
    kernel and the window on many lengths."""
    nmin = dynamics.min_sufficient_length(system)
    period = lcm(*(abs(i.c) for aut in system.automata for i in aut.hops.inner if i.c))
    end = max(320, nmin + 30 * period + 60) + C._run_caps(system) * system.message_bound
    return range(end + 1)


def _union_window(system):
    """The derived window and the long one together; both start at 0."""
    return range(max(len(C._sample_lengths(system)), len(_long_window(system))))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kernel_matches_reference_on_fixtures(name):
    system = load_fixture(name)
    for N in _long_window(system):
        assert sim.broadcast_events(system, N) == oracles.phase_trace(system, N), (name, N)


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
        for N in _long_window(system):
            want = oracles.phase_trace(system, N)
            assert sim.broadcast_events(system, N) == want, (i, N)
            events += len(want)
    assert events > 1000


def _hop_by_steps(aut, s, p, N):
    """What ``Hops.hop`` must return, stepped with ``_step_one``: a walk
    that reaches no endmarker within q·(N + 2) steps never does."""
    for i in range(len(aut.states) * (N + 2) + 1):
        if i and p in (0, N + 1):
            return i, s, p
        s, p = sim._step_one(aut, s, p, N)
    return None, None, None


def test_hop_follows_step_one():
    trapped = 0
    for name in FIXTURE_NAMES:
        for aut in load_fixture(name).automata:
            hops = aut.hops
            for s in sorted(aut.states):
                for N in (0, 1, 5, 13, 40):
                    for p in range(1, N + 1):
                        T, s2, p2 = hops.hop(hops.index[s], p, N)
                        got = (T, None if s2 is None else hops.names[s2], p2)
                        assert got == _hop_by_steps(aut, s, p, N), (name, s, p, N)
                        trapped += T is None
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
        for N in _long_window(system)[::5]:
            assert oracles.phase_trace(system, N, stretch=2) == oracles.phase_trace(
                system, N
            ), (system, N)


def _drifter(M=45):
    """One automaton that steps right through a cycle of 8 states, on the
    letter and on the left endmarker, and stays on the right one.  Every
    state is final and s0 broadcasts, once per 8-cell lap.  With message
    bound M every N >= 8·(M - 1) spends every message in its first
    traversal and accepts in the final phase.  The derived window reaches
    those runs through the index of the traversal's M-th broadcast
    (``construction._sample_lengths``)."""
    states = [f"s{i}" for i in range(8)]
    delta = []
    for s, nxt in zip(states, states[1:] + states[:1]):
        delta += [(s, "L", nxt, 1), (s, "a", nxt, 1), (s, "R", s, 0)]
    automaton = spec_automaton("A1", states, ["s0"], delta)
    return validate_system({"version": 1, "automata": [automaton], "message_bound": M})


def test_sample_window_covers_runs_that_spend_the_message_bound():
    system = _drifter()
    ups = C.recognized_set(system)
    for N in range(800):
        assert ups.member(N) == oracles.accepts(system, N), N


def _branch_table(system, lengths, events):
    """The (pattern, I, sigma') triples that the runs on ``lengths`` take,
    by (messages spent, global state) before the broadcast, with each run's
    events from ``events(system, N)``."""
    table = defaultdict(set)
    for N in lengths:
        sigma, pi = tuple(a.initial for a in system.automata), (0,) * system.n
        for k, (_, I, cfg) in enumerate(events(system, N)):
            pattern = tuple("L" if p == 0 else "R" if p == N + 1 else "M" for p in pi)
            table[k, sigma].add((pattern, I, cfg.sigma))
            sigma, pi = cfg.sigma, cfg.pi
    return table


# fuzz-50's runs take (R, {0}, A1.q2) from the keys of its depth-1 and
# depth-2 frontiers only at N = 1, below N_min; fuzz-49 and fuzz-51 start
# dead.
BRANCH_SLICE = range(48, 53)


def _system(name):
    if not name.startswith("fuzz-"):
        return load_fixture(name)
    rng = random.Random(FUZZ_SEED)
    return [cli.generate_system(rng, 4, 3, 3) for _ in range(int(name[5:]) + 1)][-1]


def _key(fr):
    return fr.messages_spent, fr.sigma


@pytest.mark.parametrize("name", FIXTURE_NAMES + [f"fuzz-{i}" for i in BRANCH_SLICE])
def test_frontiers_build_the_branches_the_step_loop_takes(name, monkeypatch):
    # Each advanced frontier builds every branch the step loop takes from
    # its messages spent and global state, and no other; each sampled
    # length is simulated once per extraction, and the frontiers advanced
    # are exactly those whose keys lead to a sampled first acceptance.
    system = _system(name)
    simulated = Counter()
    kernel, advance, frontiers = sim.broadcast_events, C.advance_frontier, C.phase_frontiers

    def counting(system, N):
        simulated[N] += 1
        return kernel(system, N)

    advanced, yielded = [], []

    def recording(sc, system, fr):
        advanced.append((fr, C._realized_branches(sc, system, fr)))
        return advance(sc, system, fr)

    def listing(*args):
        for fr in frontiers(*args):
            yielded.append(fr)
            yield fr

    monkeypatch.setattr(sim, "broadcast_events", counting)
    monkeypatch.setattr(C, "advance_frontier", recording)
    monkeypatch.setattr(C, "phase_frontiers", listing)
    sc = C.Scope()
    C.recognized_set(system, sc)
    assert simulated == Counter(C._sample_lengths(system))
    lead = C._sampled_runs(sc, system).lead
    assert [fr for fr, _ in advanced] == [fr for fr in yielded if _key(fr) in lead]
    assert {_key(fr) for fr, _ in advanced} == lead
    # The step loop's branches over the long window too: the derived
    # window misses none that a frontier asks for.
    want = _branch_table(system, _union_window(system), oracles.phase_trace)
    for fr, got in advanced:
        assert set(got) == want.get(_key(fr), set()), (name, fr.sigma)


def _window_systems():
    """The fixtures, fuzz-0..99, the sweeper, the drifter at three message
    bounds, the late acceptance and a seeded batch of larger random systems
    with message bounds up to 12."""
    systems = [load_fixture(name) for name in FIXTURE_NAMES]
    rng = random.Random(FUZZ_SEED)
    systems += [cli.generate_system(rng, 4, 3, 3) for _ in range(100)]
    systems += [_sweeper()] + [_drifter(M) for M in (1, 8, 45)]
    # Runs whose branches depend on the order of two broadcasting times
    # that cross at N = 3, or on the residue of the sweeper's broadcasting
    # times modulo a quiet cycle of the other automaton: one inside the
    # tape of lap length 3, one on the left endmarker of period 5.
    systems += [_racers(), _sweeper(_trapped()), _sweeper(_left_stepper(5, [], back=True))]
    systems += [late_acceptance()]
    rng = random.Random(13)
    for shape in ((5, 3, 12), (6, 4, 12)):
        systems += [cli.generate_system(rng, *shape) for _ in range(100)]
    return systems


def test_derived_window_files_every_branch_of_the_long_window():
    for i, system in enumerate(_window_systems()):
        got = C._sampled_runs(C.Scope(), system).branches
        assert got == _branch_table(system, _union_window(system), sim.broadcast_events), i
    # The drifter at M = 45 spends every message in its first traversal
    # from N = 8·44 on.
    assert C._sample_lengths(_drifter(45))[-1] > 8 * 44


def _acceptance_keys(system, lengths):
    """The first-acceptance keys and the leading keys of the runs on the
    ``lengths`` >= N_min that automaton 1 accepts, with its first accepting
    time from the step loop (``oracles.first_acceptance``): the frontier on
    the last broadcast at or before that time, and every one before it."""
    nmin = dynamics.min_sufficient_length(system)
    first, lead = set(), set()
    for N in lengths:
        accept = oracles.first_acceptance(system, N) if N >= nmin else None
        if accept is None:
            continue
        keys = [(0, tuple(a.initial for a in system.automata))]
        for k, (t, _, cfg) in enumerate(sim.broadcast_events(system, N)):
            if t > accept:
                break
            keys.append((k + 1, cfg.sigma))
        first.add(keys[-1])
        lead.update(keys[:-1])
    return first, lead


def test_derived_window_files_every_first_acceptance_of_the_long_window():
    # The first-acceptance and leading keys, with the first accepting time
    # from the step loop, over the long window are the derived window's.
    filed = 0
    for i, system in enumerate(_window_systems()):
        got = C._sampled_runs(C.Scope(), system)
        assert (got.first, got.lead) == _acceptance_keys(system, _union_window(system)), i
        filed += len(got.first)
    assert filed > 100
    # The late acceptance accepts before its broadcast from N = 6 on, and
    # the window reaches that far only through automaton 1's acceptance
    # mark.
    system = late_acceptance()
    assert C._sample_lengths(system)[-1] == 6
    assert (0, ("q0", "b0")) in C._sampled_runs(C.Scope(), system).first
    ups = C.recognized_set(system)
    assert [ups.member(N) for N in range(40)] == [oracles.accepts(system, N) for N in range(40)]


def _premise_systems():
    """The fixtures, fuzz-0..99, the hand-built runs of the window test
    and a seeded batch of larger systems with message bounds up to 8."""
    systems = [load_fixture(name) for name in FIXTURE_NAMES]
    rng = random.Random(FUZZ_SEED)
    systems += [cli.generate_system(rng, 4, 3, 3) for _ in range(100)]
    systems += [_sweeper()] + [_drifter(M) for M in (1, 8, 45)]
    systems += [_racers(), _sweeper(_trapped()), _sweeper(_left_stepper(5, [], back=True))]
    rng = random.Random(11)
    return systems + [cli.generate_system(rng, 6, 4, 8) for _ in range(100)]


def test_merged_affine_times_match_the_kernel():
    # The window's premise (construction._settling): from q_0 on, the first
    # M broadcasting times of the run on r + P·q are the affine ones that
    # dynamics.first_broadcasts merges, with the same broadcasters.  Checked
    # over two repeat periods past q_0 on every class r.
    checked = 0
    for i, system in enumerate(_premise_systems()):
        hops = [aut.hops for aut in system.automata]
        starts = [h.index[aut.initial] for h, aut in zip(hops, system.automata)]
        period = lcm(*(abs(inner.c) for h in hops for inner in h.inner if inner.c))
        nmin, m = dynamics.min_sufficient_length(system), system.message_bound
        for r in range(nmin, nmin + period):
            walks = [dynamics.AffineWalk(h, s, r, period) for h, s in zip(hops, starts)]
            events, _ = dynamics.first_broadcasts(walks, m)
            q0, repeat = C._settling(walks, m)
            for q in range(q0, q0 + 2 * repeat + 2):
                N = r + period * q
                want = [(t, I) for t, I, _ in sim.broadcast_events(system, N)]
                got = [(a * q + b, frozenset(fired)) for (a, b), fired, _ in events]
                assert got == want, (i, r, q)
                checked += 1
    assert checked > 1000
