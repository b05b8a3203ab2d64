import random

import numpy as np
import pytest

from multiauto import cli, construction as C, dynamics, sim
from multiauto.model import validate_system
from multiauto.presburger import FALSE, Term, eliminate, evaluate, exists, var

from conftest import FIXTURE_NAMES, load_fixture, spec_automaton
from oracles import (
    accepts,
    canonical_accept_formula,
    differ_witness,
    free_run_phase_expr,
    stepped_start,
    vector_eval,
)


def _pi_names(n):
    return [f"pi{i}" for i in range(1, n + 1)]


def _layers_by_messages(system):
    """phase_frontiers grouped by the number of messages spent."""
    m = system.message_bound
    layers = [[] for _ in range(m + 1)]
    for fr in C.phase_frontiers(C.Scope(), system, m):
        layers[fr.messages_spent].append(fr)
    return layers


def test_initial_frontier_pins_heads_to_zero():
    system = load_fixture("trio")
    fr = C.initial_frontier(system)
    assert fr.messages_spent == 0
    assert fr.sigma == tuple(a.initial for a in system.automata)
    g = eliminate(fr.position_graph.formula)
    assert evaluate(g, {"N": 9, "pi1": 0, "pi2": 0, "pi3": 0})
    assert not evaluate(g, {"N": 9, "pi1": 1, "pi2": 0, "pi3": 0})


def test_racer2_first_dispatch_is_a2_alone():
    # A2 sits in a broadcasting state at time 0; only I={A2} is realizable.
    system = load_fixture("racer2")
    branches = C.advance_frontier(C.Scope(), system, C.initial_frontier(system))
    assert branches
    for (I, _sigma2), _fr in branches:
        assert I == frozenset({1})


def test_frontier_positions_match_simulation():
    for name in ("even", "crosser2", "racer2"):
        system = load_fixture(name)
        layers = _layers_by_messages(system)
        for depth, layer in enumerate(layers[1:], start=1):
            for N in (3, 8, 15, 24):
                events = sim.broadcast_events(system, N)
                if len(events) < depth:
                    continue
                _t, _idxs, cfg = events[depth - 1]
                heads = dict(zip(_pi_names(system.n), cfg.pi), N=N)
                matching = [
                    fr
                    for fr in layer
                    if fr.sigma == cfg.sigma and evaluate(fr.position_graph.formula, heads)
                ]
                assert len(matching) == 1, (name, depth, N)


def test_frontier_graphs_are_functional():
    # Each position graph admits at most one head tuple per N.
    for name in ("even", "slowracer", "trio"):
        system = load_fixture(name)
        n = system.n
        for layer in _layers_by_messages(system):
            for fr in layer:
                g = eliminate(fr.position_graph.formula)
                env = {"N": np.arange(41).reshape((41,) + (1,) * n)}
                for i, v in enumerate(_pi_names(n)):
                    shape = [1] * (n + 1)
                    shape[i + 1] = 42
                    env[v] = np.arange(42).reshape(shape)
                counts = vector_eval(g, env).reshape(41, -1).sum(axis=1)
                assert counts.max() <= 1, (name, fr.messages_spent, fr.sigma)


def test_advance_requires_remaining_messages():
    system = load_fixture("walker")
    layers = _layers_by_messages(system)
    final = layers[-1][0]
    assert final.messages_spent == system.message_bound
    with pytest.raises(ValueError):
        C.advance_frontier(C.Scope(), system, final)


def test_accept_formula_walker():
    system = load_fixture("walker")
    layers = _layers_by_messages(system)
    # Before its (time-0) broadcast the walker has no chance to accept ...
    f0 = C.accept_formula(C.Scope(), system, layers[0][0])
    assert eliminate(f0) is not None
    accept0 = eliminate(exists(["N"], f0))
    # ... afterwards it accepts every length.
    f1 = C.accept_formula(C.Scope(), system, layers[1][0])
    g1 = eliminate(f1)
    for n in (1, 2, 9, 30):
        assert evaluate(g1, {"N": n}), n


def _free_run_keys(system):
    """The keys of the Runs with the empty stop set that an extraction
    eliminates, and the states of automaton 1 on the final-phase
    frontiers."""
    m = system.message_bound
    live = dynamics.live_states(system.automata[0])
    sc = C.Scope()
    C.recognized_set(system, sc)
    free = [key for key in sc.tables["_run_qf"] if not key[1]]
    last = {
        fr.sigma[0]
        for fr in C.phase_frontiers(C.Scope(), system, m, live)
        if fr.messages_spent == m
    }
    return free, last


def test_free_runs_only_in_final_phase_acceptance():
    # Every run inside a phase stops at the broadcasting states; only
    # automaton 1's acceptance in the final phase runs free, and so does
    # every run of an automaton that never broadcasts.
    # Those acceptance runs end on the right endmarker, so they are built
    # with end N + 1.
    rng = random.Random(20240817)
    systems = [load_fixture(name) for name in ("crosser2", "racer2", "trio")]
    systems += [cli.generate_system(rng, 4, 3, 3) for _ in range(12)]
    n_checked = 0
    for system in systems:
        aut1 = system.automata[0]
        free, last = _free_run_keys(system)
        for aut, _stop, s, s2, _K, start, end, accepting in free:
            if not aut.broadcasting:
                continue
            assert aut == aut1 and s in last and s2 in aut1.finals, (aut.name, s, s2)
            want = (var("p"), var("N") + 1, True)
            assert (start, end, accepting) == want, (aut.name, s, s2)
            n_checked += 1
    assert n_checked >= 5


def test_phase_runs_stopping_at_broadcasts_match_free_runs():
    # The guard next to each run rules out every walk on which its stop
    # set changes anything: each realized branch's phase formula is the
    # displayed one, with free runs, for every N and head positions.
    n_checked = 0
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        if not any(aut.broadcasting for aut in system.automata):
            continue
        sc = C.Scope()
        n = system.n
        pos = [var(x) for x in _pi_names(n)]
        pos2 = [var(f"pip{i}") for i in range(1, n + 1)]
        for fr in C.phase_frontiers(sc, system, system.message_bound - 1):
            for pattern, I, sigma2 in C._realized_branches(sc, system, fr):
                if fr.messages_spent == 0:
                    states, terms = fr.sigma, [Term(0)] * n
                else:
                    _, states, terms = stepped_start(system, fr.sigma, pattern, pos)
                new = eliminate(C._phase_expr(sc, system, states, sigma2, I, terms, pos2))
                ref = eliminate(free_run_phase_expr(sc, system, states, sigma2, I, terms, pos2))
                assert differ_witness(new, ref) is FALSE, (name, fr.sigma, sorted(I), sigma2)
                n_checked += 1
    assert n_checked >= 15


def test_acceptance_runs_stopping_at_broadcasts_match_free_runs(monkeypatch):
    # Before the final phase automaton 1's silence guard covers every time
    # its run could meet a broadcasting state, so the acceptance formula
    # is the one built with free runs, for every N.
    n_checked = 0
    run = C._run
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        if not system.automata[0].broadcasting:
            continue
        sc = C.Scope()
        for fr in C.phase_frontiers(sc, system, system.message_bound):
            new = C.accept_formula(sc, system, fr)
            with monkeypatch.context() as m:
                m.setattr(
                    C,
                    "_run",
                    lambda sc, aut, stop, *rest, **kw: run(sc, aut, frozenset(), *rest, **kw),
                )
                ref = C.accept_formula(sc, system, fr)
            assert differ_witness(new, ref) is FALSE, (name, fr.sigma, fr.messages_spent)
            n_checked += fr.messages_spent < system.message_bound
    assert n_checked >= 5


def _bouncer():
    """Automaton 1 broadcasts its one message at time 0 on the left
    endmarker, crosses to the right one, back to the left and again to
    the right, where it accepts: final-phase acceptance needs a run chain
    through two traversals, which few random systems do."""
    rows = [
        ("A1.s", "L", "A1.r", 1), ("A1.s", "a", "A1.s", 0), ("A1.s", "R", "A1.s", 0),
        ("A1.r", "L", "A1.r", 1), ("A1.r", "a", "A1.r", 1), ("A1.r", "R", "A1.l", -1),
        ("A1.l", "L", "A1.g", 1), ("A1.l", "a", "A1.l", -1), ("A1.l", "R", "A1.l", -1),
        ("A1.g", "L", "A1.g", 1), ("A1.g", "a", "A1.g", 1), ("A1.g", "R", "A1.f", 0),
        ("A1.f", "L", "A1.f", 0), ("A1.f", "a", "A1.f", 0), ("A1.f", "R", "A1.f", 0),
    ]
    bouncer = spec_automaton("A1", ["A1.f"], ["A1.s"], rows)
    return validate_system({"version": 1, "automata": [bouncer], "message_bound": 1})


def _left_final(broadcasting):
    """Automaton 1 steps off the left endmarker, comes back onto it in its
    final state f and walks in f to the right endmarker, where it accepts:
    its first endmarker visit in a final state is not an accepting one.
    With ``broadcasting`` its initial state sends the one message at time
    0, so acceptance falls in the final phase; without, in the initial
    one."""
    rows = [
        ("A1.s", "L", "A1.s", 1), ("A1.s", "a", "A1.f", -1), ("A1.s", "R", "A1.s", 0),
        ("A1.f", "L", "A1.f", 1), ("A1.f", "a", "A1.f", 1), ("A1.f", "R", "A1.f", 0),
    ]
    aut = spec_automaton("A1", ["A1.f"], ["A1.s"] if broadcasting else [], rows)
    return validate_system({"version": 1, "automata": [aut], "message_bound": 1})


def _two_accepting_visits():
    """Automaton 1 crosses to the right endmarker in its final state f,
    back to the left one and again to the right one in its final state h,
    and only then broadcasts: an acceptance Run to h that went on past its
    first accepting visit would find a second one."""
    rows = [
        ("A1.s", "L", "A1.s", 1), ("A1.s", "a", "A1.f", 1), ("A1.s", "R", "A1.s", 0),
        ("A1.f", "L", "A1.f", 1), ("A1.f", "a", "A1.f", 1), ("A1.f", "R", "A1.g", -1),
        ("A1.g", "L", "A1.h", 1), ("A1.g", "a", "A1.g", -1), ("A1.g", "R", "A1.g", -1),
        ("A1.h", "L", "A1.h", 1), ("A1.h", "a", "A1.h", 1), ("A1.h", "R", "A1.b", 0),
        ("A1.b", "L", "A1.b", 1), ("A1.b", "a", "A1.b", 1), ("A1.b", "R", "A1.b", 0),
    ]
    aut = spec_automaton("A1", ["A1.f", "A1.h"], ["A1.b"], rows)
    return validate_system({"version": 1, "automata": [aut], "message_bound": 1})


def test_accept_formulas_match_the_canonical_runs_for_every_n():
    # Each acceptance Run is built at its end N + 1, the initial
    # frontier's runs and guards from start 0, a later frontier's silence
    # is a product over the heads of each head's phase starts, and every
    # acceptance Run ends at automaton 1's first accepting visit: on every
    # frontier the formula is the one built from the Run canonicals over
    # p, pp and T and summed over every endmarker pattern, for every N.
    crafted = [_bouncer(), _left_final(False), _left_final(True), _two_accepting_visits()]
    for system in crafted:
        ups = C.recognized_set(system)
        assert [ups.member(N) for N in range(40)] == [accepts(system, N) for N in range(40)]
    rng = random.Random(20240817)
    systems = [load_fixture(name) for name in FIXTURE_NAMES] + crafted
    systems += [cli.generate_system(rng, 4, 3, 3) for _ in range(40)]
    n_checked = 0
    for system in systems:
        sc = C.Scope()
        for fr in C.phase_frontiers(sc, system, system.message_bound):
            new = C.accept_formula(sc, system, fr)
            ref = canonical_accept_formula(sc, system, fr)
            assert differ_witness(new, ref) is FALSE, (fr.sigma, fr.messages_spent)
            n_checked += new is not FALSE
    assert n_checked >= 20


def test_warm_accept_formula_eliminates_once(monkeypatch):
    # Every Run and race that an acceptance formula reads is memoized in
    # the scope, and the silence of each head is one disjunction over its
    # phase starts, so a second build in the same scope hands the whole
    # formula to one elimination, on every frontier.
    calls = []
    real_eliminate = C.eliminate

    def counting(f, *args, **kw):
        calls.append(f)
        return real_eliminate(f, *args, **kw)

    n_checked = 0
    for name in ("trio", "crosser2", "racer2"):
        system = load_fixture(name)
        sc = C.Scope()
        frontiers = list(C.phase_frontiers(sc, system, system.message_bound))
        cold = [C.accept_formula(sc, system, fr) for fr in frontiers]
        with monkeypatch.context() as m:
            m.setattr(C, "eliminate", counting)
            for fr, want in zip(frontiers, cold):
                calls.clear()
                assert C.accept_formula(sc, system, fr) == want
                assert len(calls) == 1, (name, fr.sigma, fr.messages_spent, len(calls))
                n_checked += 0 < fr.messages_spent < system.message_bound
    assert n_checked >= 5


def test_acceptance_runs_end_at_the_first_accepting_visit(monkeypatch):
    # No acceptance Run builds a chain segment from an accepting junction,
    # automaton 1 in a final state on the right endmarker: its chains end
    # there.  Automaton 1 of these systems broadcasts, so its acceptance
    # Runs stop at its broadcasting states before the final phase and have
    # the empty stop set in it, and its phase Runs, which are not
    # acceptance Runs, do go on from such a junction.
    N = var("N")
    building = []
    run_expr, reach = C._run_expr, C._reach

    def recording_build(sc, aut, stop, s, s2, K, P, PP, Tm, accepting):
        building.append((accepting, bool(stop), []))
        out = run_expr(sc, aut, stop, s, s2, K, P, PP, Tm, accepting)
        builds.append(building.pop())
        return out

    def recording_reach(sc, aut, stop, u, v, A, B, Tm):
        if building and aut is aut1 and u in aut1.finals and A == N + 1:
            building[-1][2].append((u, v))
        return reach(sc, aut, stop, u, v, A, B, Tm)

    monkeypatch.setattr(C, "_run_expr", recording_build)
    monkeypatch.setattr(C, "_reach", recording_reach)
    systems = {name: load_fixture(name) for name in ("crosser2", "racer2")}
    systems["two_accepting_visits"] = _two_accepting_visits()
    stopping = set()
    for name, system in systems.items():
        aut1 = system.automata[0]
        assert aut1.broadcasting
        builds = []
        C.recognized_set(system)
        accepting = [(stops, segments) for acc, stops, segments in builds if acc]
        stopping |= {stops for stops, _ in accepting}
        assert accepting and all(not segments for _, segments in accepting), name
        assert any(segments for acc, _, segments in builds if not acc), name
    assert stopping == {False, True}


def test_recognized_set_matches_step_loop_on_wider_systems():
    # More states, automata and messages than the fuzz batch draws.
    rng = random.Random(11)
    for i in range(20):
        system = cli.generate_system(rng, 6, 4, 4)
        ups = C.recognized_set(system)
        for N in range(120):
            assert ups.member(N) == accepts(system, N), (i, N)
