"""Acceptance gate: the eight end-to-end criteria, with their stated
tolerances.  Every criterion requires zero mismatches/violations; the heavy
grids additionally assert their runtime budgets.

1. End-to-end oracle equivalence on all fixtures and 100 fuzzed systems,
   N in [0, 300] (under 10 minutes).
2. Every extracted set is a canonical ultimately periodic set, periodicity
   confirmed by simulation on [t, t+3p].
3. Take-off Return times satisfy T <= k + k^2/4.
4. Reach-formula vs. trajectory/segment_run, exhaustive for N <= 40,
   T <= 400, all (s, p, s', p') (under 2 minutes).
5. Run determinism: at most one (s', p') per (N, p, T).
6. Phase-branch uniqueness: exactly one theta per reachable frontier and N.
7. QE differential: 1000 seeded random formulas (under 1 minute).
8. Byte-determinism of simulate/extract/diagram.
"""

import random
import subprocess
import sys
import time

import numpy as np
import pytest

from multiauto import cli, construction as C, dynamics, sim
from multiauto import presburger as P
from multiauto.presburger import eliminate, evaluate, exists

from conftest import (
    CRITERION7_BOUND,
    FIXTURE_DIR,
    FIXTURE_NAMES,
    criterion7_formulas,
    fixture_path,
    load_fixture,
    unique_automata,
)
from oracles import NoStopWithinBudget, reach_trajectory, segment_run, vector_eval

FUZZ_SEED = 20240817
FUZZ_COUNT = 100
N_MAX = 300


@pytest.fixture(scope="module")
def fixture_ups(systems):
    """recognized_set of every fixture, shared across criteria."""
    return {name: C.recognized_set(system) for name, system in systems.items()}


# ---------------------------------------------------------------------------
# 1. End-to-end oracle equivalence


def test_criterion_1_end_to_end_equivalence(systems, fixture_ups):
    started = time.monotonic()
    mismatches = []

    def check(label, system, ups):
        for n in range(N_MAX + 1):
            if ups.member(n) != sim.accepts(system, n):
                mismatches.append((label, n))

    for name, system in systems.items():
        check(name, system, fixture_ups[name])

    rng = random.Random(FUZZ_SEED)
    for i in range(FUZZ_COUNT):
        system = cli.generate_system(rng, max_states=4, max_automata=3, max_messages=3)
        check(f"fuzz-{i}", system, C.recognized_set(system))

    elapsed = time.monotonic() - started
    assert mismatches == []
    assert elapsed < 600, f"criterion 1 took {elapsed:.0f}s (budget 600s)"


# ---------------------------------------------------------------------------
# 2. Regularity witness


def test_criterion_2_canonical_ultimately_periodic(systems, fixture_ups):
    for name, ups in fixture_ups.items():
        assert ups == ups.canonical(), name
        t, p = ups.threshold, ups.period
        assert p >= 1
        for n in range(t, t + 3 * p + 1):
            assert ups.member(n) == sim.accepts(systems[name], n), (name, n)


# ---------------------------------------------------------------------------
# 3. Take-off bound


def test_criterion_3_takeoff_return_bound(systems):
    violations = []
    for aut in unique_automata(systems):
        n = aut.hops.nmin
        for s in sorted(aut.states):
            k = dynamics.basic_sequence(aut, s).k
            for side in ("L", "R"):
                out = dynamics.takeoff(aut, s, side, n)
                if isinstance(out, dynamics.Return) and out.T > k + k * k / 4:
                    violations.append((aut.name, s, side, out.T, k))
    # A violation here would point at the bound itself, not the code.
    assert violations == [], f"suspected take-off bound issue: {violations}"


# ---------------------------------------------------------------------------
# 4. Reach soundness, exhaustive grid


def test_criterion_4_reach_exhaustive(systems):
    started = time.monotonic()
    n_max, t_max = 40, 400
    ts = np.arange(t_max + 1)[None, None, None, :]
    ns = np.arange(n_max + 1)[:, None, None, None]
    ps = np.arange(n_max + 2)[None, :, None, None]
    pps = np.arange(n_max + 2)[None, None, :, None]
    in_range = (ps <= ns + 1) & (pps <= ns + 1)

    checked = 0
    for aut in unique_automata(systems):
        stops = [frozenset()] + [frozenset({q}) for q in sorted(aut.states)][:1]
        for stop in stops:
            for s in sorted(aut.states):
                truth = [
                    [reach_trajectory(aut, stop, s, p, N, t_max) for p in range(N + 2)]
                    for N in range(n_max + 1)
                ]
                shape = (n_max + 1, n_max + 2, n_max + 2, t_max + 1)
                want = {s2: np.zeros(shape, dtype=bool) for s2 in aut.states}
                for N in range(n_max + 1):
                    for p, realized in enumerate(truth[N]):
                        for cs, cp, t in realized:
                            want[cs][N, p, cp, t] = True
                for s2 in sorted(aut.states):
                    g = eliminate(C.reach_formula(C.Scope(), aut, stop, s, s2).formula)
                    got = vector_eval(g, {"N": ns, "p": ps, "pp": pps, "T": ts})
                    assert not np.any((got & in_range) ^ want[s2]), (aut.name, stop, s, s2)
                    checked += int(in_range.sum()) * (t_max + 1)
                # segment_run cross-check: the first stop of every segment
                # satisfies the predicate for its own stop set.
                for N in range(2, n_max + 1, 7):
                    for p in range(1, N + 1):
                        try:
                            s2, pp, t = segment_run(aut, s, p, N, stop)
                        except NoStopWithinBudget:
                            continue
                        if t <= t_max:
                            assert (s2, pp, t) in truth[N][p], (aut.name, stop, s)

    elapsed = time.monotonic() - started
    assert checked > 10**8
    assert elapsed < 120, f"criterion 4 took {elapsed:.0f}s (budget 120s)"


# ---------------------------------------------------------------------------
# 5. Run determinism


def test_criterion_5_run_determinism(systems):
    n_lo, n_hi, p_hi, t_hi = 0, 32, 34, 240
    env = {
        "N": np.arange(n_lo, n_hi)[:, None, None, None],
        "p": np.arange(p_hi)[None, :, None, None],
        "pp": np.arange(p_hi)[None, None, :, None],
        "T": np.arange(t_hi)[None, None, None, :],
    }
    mask = (env["p"] <= env["N"] + 1) & (env["pp"] <= env["N"] + 1)
    for aut in unique_automata(systems):
        for s in sorted(aut.states):
            total = 0
            for s2 in sorted(aut.states):
                g = eliminate(C.run_formula(C.Scope(), aut, frozenset(), s, s2, 6).formula)
                # Count (s', p') witnesses per (N, p, T).
                total = total + (vector_eval(g, env) & mask).sum(axis=2).astype(np.int8)
            assert total.max() <= 1, (aut.name, s)


# ---------------------------------------------------------------------------
# 6. Phase-branch uniqueness


def test_criterion_6_phase_branch_uniqueness(systems):
    for name, system in systems.items():
        nmin = dynamics.min_sufficient_length(system)
        samples = sorted(set(range(nmin, 201, 7)) | {nmin, 200})
        pis = [f"pi{i}" for i in range(1, system.n + 1)]
        layer = [C.initial_frontier(system)]
        sc = C.Scope()
        for _depth in range(system.message_bound):
            nxt = []
            for fr in layer:
                reachable = eliminate(exists(pis, fr.position_graph.formula))
                branches = C.advance_frontier(sc, system, fr)
                projections = [
                    eliminate(exists(pis, child.position_graph.formula))
                    for _theta, child in branches
                ]
                for n in samples:
                    if not evaluate(reachable, {"N": n}):
                        continue
                    live = sum(evaluate(g, {"N": n}) for g in projections)
                    next_exists = len(sim.broadcast_events(system, n)) > fr.messages_spent
                    assert live == (1 if next_exists else 0), (name, fr.sigma, n)
                nxt.extend(child for _theta, child in branches)
            layer = nxt


# ---------------------------------------------------------------------------
# 7. QE differential


def test_criterion_7_qe_differential():
    started = time.monotonic()
    mismatches = 0
    for f, free in criterion7_formulas(1000):
        g = eliminate(f)
        for x in range(0, 8, 2):
            point = dict(zip(free, (x, (x * 3 + 1) % 7)))
            if evaluate(f, point, domain_bound=CRITERION7_BOUND) != evaluate(g, point):
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 60, f"criterion 7 took {elapsed:.0f}s (budget 60s)"


# ---------------------------------------------------------------------------
# 8. Determinism of tooling


def _cli_bytes(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "multiauto.cli", *map(str, argv)],
        capture_output=True,
        check=False,
    )
    return proc.stdout


def test_criterion_8_tool_determinism(tmp_path):
    sim_out = [_cli_bytes("simulate", fixture_path("even"), "--n", "9") for _ in range(2)]
    assert sim_out[0] == sim_out[1] and sim_out[0]

    ext_out = [_cli_bytes("extract", fixture_path("even")) for _ in range(2)]
    assert ext_out[0] == ext_out[1] and ext_out[0]

    svgs = []
    for i in range(2):
        out = tmp_path / f"d{i}.svg"
        _cli_bytes("diagram", fixture_path("crosser2"), "--n", "9", "-o", out)
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1] and svgs[0]
