import json
import random

import numpy as np

from multiauto import cli, construction as C, dynamics, presburger as P, sim
from multiauto.model import bounds_profile, validate_system
from multiauto.presburger import eliminate, evaluate

import oracles
from conftest import FIXTURE_NAMES, ROOT, load_fixture, spec_automaton
from oracles import (
    ever_qf,
    first_broadcast_time,
    mute_expr,
    mute_formula,
    run_trajectory,
    vector_eval,
)


def _nmin(aut):
    return aut.hops.nmin


def test_run_signature_and_time_zero():
    aut = load_fixture("walker").automata[0]
    pf = C.run_formula(C.Scope(), aut, frozenset(), "w", "w", 4)
    assert pf.signature == ("N", "p", "pp", "T")
    g = eliminate(pf.formula)
    assert evaluate(g, {"N": 5, "p": 3, "pp": 3, "T": 0})


def test_rebounder_crosses_three_times():
    aut = load_fixture("rebounder").automata[0]
    g = eliminate(C.run_formula(C.Scope(), aut, frozenset(), "f1", "f2", 6).formula)
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
            g = eliminate(C.run_formula(C.Scope(), aut, stop, s, s2, 6).formula)
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


def _fuzz(i):
    """Fuzz system i of seed 20240817.  Automaton 1 has two broadcasting
    states in system 0 and three in system 10; no fixture automaton has
    more than one."""
    rng = random.Random(20240817)
    for _ in range(i):
        cli.generate_system(rng, 4, 3, 3)
    return cli.generate_system(rng, 4, 3, 3)


def _race_starts():
    """(automaton, start state, K) for every distinct automaton of the
    fixtures and of fuzz system 0."""
    seen = set()
    for system in [load_fixture(name) for name in FIXTURE_NAMES] + [_fuzz(0)]:
        K = bounds_profile(system).K
        for aut in system.automata:
            if (aut, K) not in seen:
                seen.add((aut, K))
                for s in sorted(aut.states):
                    yield aut, s, K


def _grid(f, N, tmax):
    """f over p in 0..N+1 (axis 0) and T in 0..tmax (axis 1)."""
    return vector_eval(
        f,
        {"N": np.array(N), "p": np.arange(N + 2)[:, None], "T": np.arange(tmax + 1)[None, :]},
    )


def test_race_first_broadcast_times():
    """The race holds exactly at the first broadcast time, for every
    automaton, every start state (broadcasting ones included) and every
    start position."""
    for aut, s, K in _race_starts():
        g = eliminate(C._race_expr(C.Scope(), aut, s, K, P.var("p"), P.var("T")))
        for N in range(_nmin(aut), _nmin(aut) + 4):
            # A first broadcast comes before a configuration repeats.
            tmax = len(aut.states) * (N + 2)
            want = np.zeros((N + 2, tmax + 1), dtype=bool)
            for p in range(N + 2):
                t_first = first_broadcast_time(aut, s, p, N, tmax)
                if t_first is not None:
                    want[p, t_first] = True
            assert np.array_equal(_grid(g, N, tmax), want), (aut.name, s, N)


def test_no_broadcast_by_T_is_the_displayed_non_racer_clause():
    """not (race by T) is mute or a race strictly after T, on a grid."""
    p, T, ti = P.var("p"), P.var("T"), P.var("ti")
    for aut, s, K in _race_starts():
        sc = C.Scope()
        silent = P.lnot(C._broadcast_by_expr(sc, aut, s, K, p, T))
        later = P.exists("ti", P.land(C._race_expr(sc, aut, s, K, p, ti), P.ge(ti, T + 1)))
        displayed = P.lor(mute_expr(sc, aut, s, K, p), later)
        silent, displayed = eliminate(silent), eliminate(displayed)
        for N in range(_nmin(aut), _nmin(aut) + 4):
            tmax = len(aut.states) * (N + 2) + 2
            assert np.array_equal(_grid(silent, N, tmax), _grid(displayed, N, tmax)), (
                aut.name,
                s,
                N,
            )


def test_races_stop_at_every_broadcasting_state():
    """Every occupancy a race builds stops at all of its automaton's
    broadcasting states, not at the occupied one alone, and projects the
    Run from the same start with its end left free."""
    sc = C.Scope()
    C.recognized_set(_fuzz(10), sc)
    keys = list(sc.tables["_occupancy_qf"])
    assert any(len(aut.broadcasting) > 1 for aut, *_ in keys)
    runs = sc.tables["_run_qf"]
    for aut, stop, s, b, K, start in keys:
        assert stop == aut.broadcasting
        assert (aut, stop, s, b, K, start, P.var("pp"), False) in runs


def test_mute_formula():
    system = load_fixture("zigzag")
    aut = system.automata[0]
    g = eliminate(mute_formula(aut, "f", 6))
    # No broadcasting states at all: mute everywhere.
    for n in (2, 7):
        assert evaluate(g, {"N": n, "p": 0})

    noisy = load_fixture("walker").automata[0]
    g2 = eliminate(mute_formula(noisy, "w", 6))
    assert not evaluate(g2, {"N": 5, "p": 0})


def test_run_deterministic_on_sample():
    # At most one (s', p') satisfies the run predicate per (N, p, T).
    aut = load_fixture("drift3").automata[0]
    gs = {
        s2: eliminate(C.run_formula(C.Scope(), aut, frozenset(), "d0", s2, 6).formula)
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


def test_occupancy_and_ever_projections_match_trajectory():
    """exists pp. Run and exists T, pp. Run stopping at every broadcasting
    state, against the replayed run, for every start position and T <= 80;
    in the same scope, the occupancy from the endmarker starts 0 and N + 1
    and exists T. Run to each endmarker end, whose Runs are built with
    those terms in their chains."""
    tmax = 80
    ends = (P.Term(0), P.var("N") + 1)
    for name in ("crosser2", "racer2", "slowracer"):
        system = load_fixture(name)
        K = bounds_profile(system).K
        for aut in system.automata:
            stop = aut.broadcasting
            for b in sorted(stop):
                for s in sorted(aut.states):
                    sc = C.Scope()
                    occ = C._occupancy_qf(sc, aut, stop, s, b, K, P.var("p"))
                    ever = ever_qf(sc, aut, stop, s, b, K)
                    occ_at = [C._occupancy_qf(sc, aut, stop, s, b, K, e) for e in ends]
                    ever_at = [
                        eliminate(
                            P.exists("T", C._run_qf(sc, aut, stop, s, b, K, P.var("p"), e, False))
                        )
                        for e in ends
                    ]
                    for N in range(_nmin(aut), _nmin(aut) + 7):
                        # A deterministic walk repeats a configuration within
                        # this many steps, so T <= tmax sees every first visit.
                        assert len(aut.states) * (N + 2) <= tmax
                        got = _grid(occ, N, tmax)
                        want = np.zeros_like(got)
                        want_at = np.zeros((2, N + 2), dtype=bool)
                        for p in range(N + 2):
                            for cs, cp, t in run_trajectory(aut, stop, s, p, N, tmax):
                                if cs == b:
                                    want[p, t] = True
                                    if cp in (0, N + 1):
                                        want_at[int(cp > 0), p] = True
                        where = (name, aut.name, b, s, N)
                        assert np.array_equal(got, want), where
                        got = vector_eval(ever, {"N": np.array(N), "p": np.arange(N + 2)})
                        assert np.array_equal(got, want.any(axis=1)), where
                        for k, (f, g) in enumerate(zip(occ_at, ever_at)):
                            got = vector_eval(f, {"N": np.array(N), "T": np.arange(tmax + 1)})
                            assert np.array_equal(got, want[k * (N + 1)]), where + (k,)
                            got = vector_eval(g, {"N": np.array(N), "p": np.arange(N + 2)})
                            assert np.array_equal(got, want_at[k]), where + (k,)


def _bound_vars(f, out):
    if isinstance(f, P._Quant):
        out.add(f.v)
        _bound_vars(f.f, out)
    elif isinstance(f, P.Not):
        _bound_vars(f.f, out)
    elif isinstance(f, P._Junction) and not f.qf:
        for a in f.args:
            _bound_vars(a, out)
    return out


def _key_term(term, name):
    """A Run's start or end as its memo key records it: the term when it
    depends on N alone, else the variable ``name``."""
    return term if {v for v, _ in term.coeffs} <= {"N"} else P.var(name)


def test_each_run_is_built_and_eliminated_once(monkeypatch):
    """One extraction of trio builds each Run once per key (automaton,
    stop set, s, s', K, start, end, accepting), with every start
    and end that depends on N alone in the key, hands each Run built to
    eliminate once, and no other eliminate input holds a run chain.

    Only a Run binds the chain time ``_d0`` of a first segment
    (``C._chain_time``), and substituting terms for its free variables
    keeps that name.  So an eliminate input that binds it and is not a
    built Run holds a substitution instance of one, and redoes that Run's
    elimination.
    """
    built, wanted, inputs = {}, [], []
    run_expr, run, eliminate_ = C._run_expr, C._run, C.eliminate

    def recording_build(sc, aut, stop, s, s2, K, start, end, Tm, accepting):
        out = run_expr(sc, aut, stop, s, s2, K, start, end, Tm, accepting)
        key = (aut, frozenset(stop), s, s2, K, start, end, accepting)
        assert key not in built
        built[key] = out
        return out

    def recording_run(sc, aut, stop, s, s2, K, start, end, Tm, accepting=False):
        key_start, key_end = _key_term(start, "p"), _key_term(end, "pp")
        key = (aut, frozenset(stop), s, s2, K, key_start, key_end, accepting)
        wanted.append(key)
        return run(sc, aut, stop, s, s2, K, start, end, Tm, accepting)

    def recording_eliminate(f, *args, **kwargs):
        inputs.append(f)
        return eliminate_(f, *args, **kwargs)

    monkeypatch.setattr(C, "_run_expr", recording_build)
    monkeypatch.setattr(C, "_run", recording_run)
    monkeypatch.setattr(C, "eliminate", recording_eliminate)
    C.recognized_set(load_fixture("trio"))
    assert set(wanted) <= set(built)
    # Acceptance ends on the right endmarker, and some phase run starts on
    # an endmarker.
    N = P.var("N")
    assert any(end == N + 1 and acc for *_, end, acc in wanted)
    assert any(not start.coeffs for *_, start, _end, _acc in built)
    for f in built.values():
        assert sum(f is g for g in inputs) == 1
    chained = [f for f in inputs if C._chain_time(0) in _bound_vars(f, set())]
    assert chained
    for f in chained:
        assert any(f is g for g in built.values()), P.to_sexpr(f)[:200]


def _chains(f):
    """(bound names, conjuncts) of each chain disjunct of a Run canonical."""
    out = []
    for d in f.args:
        names, body = [], d
        while isinstance(body, P.Exists):
            names.append(body.v)
            body = body.f
        if names[:1] == [C._chain_time(0)]:
            out.append((names, body.args))
    return out


def test_chains_sharing_a_prefix_share_its_segments():
    """A chain closed by a rebound cycle and the chain that stops at the
    same junction share that prefix, and hold the same stop segment object,
    not two copies that differ in the names of their times."""
    aut = load_fixture("rebounder").automata[0]
    f = C.run_formula(C.Scope(), aut, frozenset(), "f1", "f2", 6).formula
    chains = _chains(f)
    loops = [args for names, args in chains if C._LAPS in names]
    stops = [args for names, args in chains if C._LAPS not in names]
    assert loops and stops

    def stop_segment(args):
        # The final reach: the one conjunct that is no atom and reads pp.
        (seg,) = [a for a in args if "pp" in a.fv and not isinstance(a, P._Leaf)]
        return seg

    for args in loops:
        seg = stop_segment(args)
        assert any(stop_segment(other) is seg for other in stops)


def test_reach_instances_are_built_once_per_scope(monkeypatch):
    """Every Reach instance a run chain or a crossing constraint uses comes
    from one table per scope, which holds fewer entries than there are
    uses: chains restate their prefixes, and runs share segments."""
    uses = []
    reach = C._reach

    def counting(*args):
        uses.append(args[1:])
        return reach(*args)

    monkeypatch.setattr(C, "_reach", counting)
    sc = C.Scope()
    C.recognized_set(load_fixture("rebounder"), sc)
    table = sc.tables["_reach"]
    assert 0 < len(table) < len(uses)
    assert set(table) == set(uses)


# ---------------------------------------------------------------------------
# The run cap: the analysis bound K, not a sample


def test_run_cap_and_run_dump_simulate_nothing(capsys, monkeypatch):
    def no_simulation(*args):
        raise AssertionError("the run cap must not simulate")

    monkeypatch.setattr(sim, "broadcast_events", no_simulation)
    system = load_fixture("rebounder")
    assert C._run_caps(system) == bounds_profile(system).K
    cli._dump_stage(C.Scope(), system, "run:1:f1:f2")
    golden = (ROOT / "tests" / "data" / "golden" / "rebounder-reach-run.txt").read_text()
    assert capsys.readouterr().out == golden.splitlines(keepends=True)[0]


def _crawler_and_sweeper(q):
    """Automaton 1 crawls right at speed 1/q, then broadcasts and accepts
    on the right endmarker at t = qN + 2.  Automaton 2 sweeps back and
    forth without end: every launch of it is a traversal, so its run chain
    never closes, and only the cap stops the unrolling."""
    xs = [f"A1.x{i}" for i in range(q)]
    crawler = spec_automaton("A1", ["A1.f"], ["A1.f"], [
        row
        for i, x in enumerate(xs)
        for row in (
            (x, "L", xs[0], 1),
            (x, "a", xs[i + 1], 0) if i + 1 < q else (x, "a", xs[0], 1),
            (x, "R", "A1.f", 0),
        )
    ] + [("A1.f", "L", "A1.f", 0), ("A1.f", "a", "A1.f", 0), ("A1.f", "R", "A1.f", 0)])
    sweeper = spec_automaton("A2", [], [], [
        ("A2.r", "L", "A2.r", 1), ("A2.r", "a", "A2.r", 1), ("A2.r", "R", "A2.l", -1),
        ("A2.l", "L", "A2.r", 1), ("A2.l", "a", "A2.l", -1), ("A2.l", "R", "A2.l", -1),
    ])
    return {"version": 1, "automata": [crawler, sweeper], "message_bound": 1}


def test_verify_holds_where_the_cap_cuts_the_chain(capsys, tmp_path):
    spec = _crawler_and_sweeper(4)
    system = validate_system(spec)
    sweeper = system.automata[1]
    K = C._run_caps(system)
    for s in sorted(sweeper.states):
        for side in ("L", "R"):
            launch = dynamics.takeoff(sweeper, s, side, 2 * sweeper.hops.nmin)
            assert isinstance(launch, dynamics.Traverse), (s, side)
    capped = C.run_formula(C.Scope(), sweeper, frozenset(), "A2.r", "A2.r", K).formula
    longer = C.run_formula(C.Scope(), sweeper, frozenset(), "A2.r", "A2.r", K + 1).formula
    assert capped != longer
    path = tmp_path / "sweeper.spec"
    path.write_text(json.dumps(spec))
    assert cli.main(["verify", str(path), "--n-max", "300"]) == 0
    assert capsys.readouterr().out == "OK 301\n"


def test_phase_traversals_stay_below_the_run_cap():
    """The argument of ``_run_caps`` step by step, for every N < 40, on
    random systems and on crawlers of speed 1/q beside a sweeper: a phase
    that ends at a broadcast lasts T < q_r(N + 2) steps, where q_r is a
    racer's state count, and each traversal inside it takes N + 1 steps or
    more, so every automaton makes fewer than K."""
    rng = random.Random(5)
    systems = [cli.generate_system(rng, 4, 3, 3) for _ in range(60)]
    systems += [validate_system(_crawler_and_sweeper(q)) for q in range(1, 5)]
    most = 0
    for system in systems:
        K = C._run_caps(system)
        for N in range(40):
            events = oracles.phase_trace(system, N)
            if not events:
                continue
            ends = [t for t, _, _ in events]
            starts = [0] + [t + 1 for t in ends[:-1]]
            walks = []
            for aut in system.automata:
                s, p = aut.initial, 0
                walk = [p]
                for _ in range(ends[-1]):
                    s, p = sim._step_one(aut, s, p, N)
                    walk.append(p)
                walks.append(walk)
            for a, b, (_, racers, _) in zip(starts, ends, events):
                q_r = min(len(system.automata[i].states) for i in racers)
                assert b - a < q_r * (N + 2)
                for walk in walks:
                    sides = [p == 0 for p in walk[a : b + 1] if p in (0, N + 1)]
                    crossings = sum(x != y for x, y in zip(sides, sides[1:]))
                    assert crossings * (N + 1) <= b - a
                    assert crossings < K
                    most = max(most, crossings)
    assert most >= 3
