"""Simulation-backed ground truth and references used by the formula tests.

The reach/run oracles replay one automaton's trajectory step by step and
record exactly which (state, position, time) triples are realized under each
predicate's side conditions; the formulas are then required to agree.
``phase_trace`` is the step-by-step reference for the phase pipeline's
sampling kernel ``sim.broadcast_events``, ``first_acceptance`` and
``accepts`` are the ones for ``sim.first_acceptance`` and ``sim.accepts``,
and ``traversal_slope`` recomputes ``Hops.slope`` from the
basic sequences.

``vector_eval`` evaluates a quantifier-free formula on a whole numpy grid
at once; the grid tests compare formulas with the oracles through it, and
``differ_witness`` decides whether two of them agree for every N.
``mute_formula`` is the paper's Mute clause (no broadcasting state is ever
occupied), the reference for the displayed non-racer clause that the
construction builds as "no broadcast by T", and ``ever_qf`` is the
projection of a Run it rests on.  ``free_run_phase_expr`` is the phase
formula as displayed, with every automaton advanced by the unrestricted
Run, the reference for the construction's runs that stop at the
broadcasting states.  ``canonical_accept_formula`` builds acceptance from
the Run canonicals alone, the reference for the construction's Runs built
at the terms their callers fix, and on a later frontier sums over every
endmarker pattern of the heads, each stepped by ``stepped_start``, the
reference for the construction's product of per-head phase starts.
"""

import itertools

import numpy as np

from multiauto import construction as C, dynamics, sim
from multiauto.presburger import (
    FALSE,
    TRUE,
    And,
    Dvd,
    Eq,
    Le,
    Not,
    Or,
    Term,
    eliminate,
    eq,
    exists,
    ge,
    land,
    le,
    lnot,
    lor,
    substitute,
    var,
)


def reach_trajectory(aut, stop, s, p, N, tmax):
    """Realized (state, pos, T) triples of the endmarker-free run from (s, p).

    Endmarkers and stop states may be occupied at the start and at the final
    step, but not strictly in between: the walk ends once the configuration
    at time t >= 1 sits on an endmarker or in a stop state.
    """
    realized = [(s, p, 0)]
    cs, cp = s, p
    for t in range(1, tmax + 1):
        if t > 1 and (cp == 0 or cp == N + 1):
            break
        if t > 1 and cs in stop:
            break
        cs, cp = sim._step_one(aut, cs, cp, N)
        realized.append((cs, cp, t))
    return realized


def run_trajectory(aut, stop, s, p, N, tmax):
    """Realized (state, pos, T) triples of the full run from (s, p).

    Unlike reach, endmarkers may be visited en route; a stop state still
    ends the run (it may be occupied at time 0 and at the final time only).
    """
    realized = [(s, p, 0)]
    cs, cp = s, p
    for t in range(1, tmax + 1):
        if t > 1 and cs in stop:
            break
        cs, cp = sim._step_one(aut, cs, cp, N)
        realized.append((cs, cp, t))
    return realized


def first_broadcast_time(aut, s, p, N, tmax):
    """Time of the first broadcasting-state occupancy from (s, p), or None."""
    cs, cp = s, p
    for t in range(tmax + 1):
        if cs in aut.broadcasting:
            return t
        cs, cp = sim._step_one(aut, cs, cp, N)
    return None


class NoStopWithinBudget(Exception):
    """segment_run exhausted its step budget without hitting a stop condition."""


def segment_run(automaton, state, pos, N, stop_states, budget=None):
    """Run one automaton from (state, pos) until it enters a stop state or
    touches an endmarker, whichever happens first; stop conditions are
    checked strictly after the start.  Returns (state, pos, T).
    """
    if budget is None:
        budget = (len(automaton.states) + 1) * (N + 2) + 2
    s, p = state, pos
    for t in range(1, budget + 1):
        s, p = sim._step_one(automaton, s, p, N)
        if s in stop_states or p == 0 or p == N + 1:
            return s, p, t
    raise NoStopWithinBudget(f"no stop within {budget} steps from ({state}, {pos})")


def phase_trace(system, N, stretch=1):
    """Reference for ``sim.broadcast_events``: every step through
    ``sim.global_step``.  ``stretch`` multiplies the patience, so a test
    can check that waiting longer finds no further event."""
    config = sim.GlobalConfiguration(
        tuple(a.initial for a in system.automata),
        tuple(0 for _ in system.automata),
        0,
    )
    maxq = max(len(a.states) for a in system.automata)
    patience = stretch * ((N + 2) * maxq + 2)
    events = []
    quiet = 0
    t = 0
    while config.messages_used < system.message_bound and quiet <= patience:
        nxt, broadcasters = sim.global_step(system, config, N)
        if broadcasters:
            events.append((t, broadcasters, config))
            quiet = 0
        else:
            quiet += 1
        config = nxt
        t += 1
    return tuple(events)


def first_acceptance(system, N):
    """Reference for ``sim.first_acceptance``: automaton 1 stepped alone
    with ``_step_one`` until it accepts, at the time returned, or repeats a
    (state, position) pair, None."""
    aut = system.automata[0]
    s, p = aut.initial, 0
    seen = set()
    for t in itertools.count():
        if s in aut.finals and p == N + 1:
            return t
        if (s, p) in seen:
            return None
        seen.add((s, p))
        s, p = sim._step_one(aut, s, p, N)


def accepts(system, N):
    """Reference for ``sim.accepts``: whether :func:`first_acceptance`
    finds an accepting visit."""
    return first_acceptance(system, N) is not None


def traversal_slope(automaton):
    """G with every inner traversal from an endmarker taking <= G*N + G steps.

    For a drifting state the head needs at most ceil(k/|c|) cycles per net
    unit of progress, each of length <= k; states with motionless cycles
    never traverse.  Returns 0 when no state drifts.
    """
    best = 0
    for s in sorted(automaton.states):
        prof = dynamics.basic_sequence(automaton, s)
        c = prof.net_cycle_displacement
        if c != 0:
            k = prof.k
            best = max(best, -(-k // abs(c)) * k)
    return best


def ever_qf(sc, aut, stop, s, s2, K):
    """exists T, pp. Run: s2 is ever occupied from (s, p), built in the
    ``construction.Scope`` ``sc``."""
    run = C._run_qf(sc, aut, stop, s, s2, K, var("p"), var("pp"), False)
    return eliminate(exists(["T", "pp"], run))


def mute_expr(sc, aut, s, K, P):
    """The paper's Mute: no broadcasting state is ever occupied from (s, P),
    built in the ``construction.Scope`` ``sc``."""
    parts = []
    for b in sorted(aut.broadcasting):
        ever = ever_qf(sc, aut, aut.broadcasting, s, b, K)
        parts.append(lnot(substitute(ever, {"p": P})))
    return land(*parts)


def mute_formula(aut, s, K):
    """Mute from (s, p), over (N, p), in a scope of its own."""
    return mute_expr(C.Scope(), aut, s, K, var("p"))


def free_run_phase_expr(sc, system, sigma, sigma2, I, pos_terms, pos2_vars):
    """``construction._phase_expr`` with every automaton advanced by the
    Run with the empty stop set, as the paper displays it, built in the
    ``construction.Scope`` ``sc``."""
    K = C._run_caps(system)
    T = var("_T")
    parts = []
    for i, aut in enumerate(system.automata):
        s, P = sigma[i], pos_terms[i]
        if i in I:
            parts.append(C._race_expr(sc, aut, s, K, P, T))
        else:
            parts.append(lnot(C._broadcast_by_expr(sc, aut, s, K, P, T)))
        parts.append(C._run(sc, aut, frozenset(), s, sigma2[i], K, P, pos2_vars[i], T))
    return exists("_T", land(*parts))


def _canonical_run(sc, aut, stop, s, s2, K, P, PP, Tm):
    """The Run from (s, P) to (s2, PP) in Tm steps: its canonical over p,
    pp and T with the terms substituted.  It is not the acceptance Run, so
    its chains go on past every accepting visit."""
    f = C._run_qf(sc, aut, frozenset(stop), s, s2, K, var("p"), var("pp"), False)
    return substitute(f, {"p": P, "pp": PP, "T": Tm})


def _canonical_broadcast_by(sc, aut, s, K, P, Bound):
    """``construction._broadcast_by_expr`` from the occupancy canonical over
    p and T."""
    t = var("_t")
    if s in aut.broadcasting:
        race = eq(t)
    else:
        occupancy = [
            C._occupancy_qf(sc, aut, aut.broadcasting, s, b, K, var("p"))
            for b in sorted(aut.broadcasting)
        ]
        race = lor(*[substitute(f, {"p": P, "T": t}) for f in occupancy])
    return exists("_t", land(race, le(t, Bound)))


def stepped_start(system, sigma, pattern, pos):
    """One synchronous step from the global state ``sigma`` with the heads
    at ``pos`` on the endmarker pattern ``pattern`` ("L", "M" or "R" per
    head): (guard, states, position terms).  The guard says that each head
    is on its pattern's symbol: at 0, inside 1..N, or at N + 1."""
    N = var("N")
    guards, states, terms = [], [], []
    for aut, s, sym, p in zip(system.automata, sigma, pattern, pos):
        if sym == "L":
            t, d = aut.delta_left[s]
            guards.append(eq(p))
            terms.append(Term(d))
        elif sym == "R":
            t, d = aut.delta_right[s]
            guards.append(eq(p - N - 1))
            terms.append(N + 1 + d)
        else:
            t, d = aut.delta_inner[s]
            guards.append(land(ge(p, 1), le(p, N)))
            terms.append(p + d)
        states.append(t)
    return land(*guards), tuple(states), terms


def canonical_accept_formula(sc, system, frontier):
    """``construction.accept_formula`` built from the Run canonicals, in the
    ``construction.Scope`` ``sc``: every start and end is substituted into
    the canonical over p, pp and T, the final phase binds the acceptance
    time with ``exists``, and a later frontier is split over all 3^n
    endmarker patterns of its positions (:func:`stepped_start`)."""
    aut1 = system.automata[0]
    if not aut1.finals:
        return FALSE
    K = C._run_caps(system)
    n = system.n
    N = var("N")
    names = list(C._pi_names(n))
    pos = [var(x) for x in names]
    ta = var("_T")
    final_phase = frontier.messages_spent == system.message_bound
    stop = frozenset() if final_phase else aut1.broadcasting
    hit = lor(
        *[
            _canonical_run(sc, aut1, stop, frontier.sigma[0], f, K, pos[0], N + 1, ta)
            for f in sorted(aut1.finals)
        ]
    )
    if final_phase:
        branches = [hit]
    elif frontier.messages_spent == 0:
        guards = [
            lnot(_canonical_broadcast_by(sc, aut, frontier.sigma[i], K, pos[i], ta))
            for i, aut in enumerate(system.automata)
        ]
        branches = [land(hit, *guards)]
    else:
        branches = []
        for pattern in itertools.product("LMR", repeat=n):
            guard, states, terms = stepped_start(system, frontier.sigma, pattern, pos)
            guards = [
                lnot(_canonical_broadcast_by(sc, aut, states[i], K, terms[i], ta - 1))
                for i, aut in enumerate(system.automata)
            ]
            branches.append(land(guard, hit, *guards))
    body = exists("_T", lor(*branches))
    return eliminate(exists(names, land(frontier.position_graph.formula, body)))


def differ_witness(f, g):
    """``exists N, v... . N >= 0 and 0 <= v <= N+1 and (f xor g)``
    eliminated, over every free variable v of f and g other than N (a head
    position): ``FALSE`` exactly when f and g agree for every N.  Raises
    ``presburger.BudgetExceeded`` when the elimination exceeds its budget."""
    n = var("N")
    names = sorted((f.fv | g.fv) - {"N"})
    ranges = [land(ge(var(v), 0), le(var(v), n + 1)) for v in names]
    differ = lor(land(f, lnot(g)), land(lnot(f), g))
    return eliminate(exists(["N"] + names, land(ge(n, 0), *ranges, differ)))


def vector_eval(f, env):
    """Evaluate a quantifier-free formula over numpy arrays.

    ``env`` maps every free variable to an integer numpy array; the arrays
    must be mutually broadcastable (lay a grid out as outer-product axes,
    e.g. shapes ``(n,1,1)``, ``(1,m,1)``, ``(1,1,k)``).  Returns a boolean
    array of the broadcast shape.  Atoms accumulate per-shape partial sums
    and finish with one broadcast comparison, so the full integer grid is
    never materialized -- this is what makes exhaustive grid checks cheap.
    """
    cache: dict = {}

    def term_parts(t: Term):
        buckets: dict = {}
        for v, c in t.coeffs:
            arr = np.asarray(env[v])
            key = arr.shape
            buckets[key] = buckets.get(key, 0) + c * arr
        return sorted(buckets.values(), key=lambda a: a.size)

    def compare(t: Term, op):
        parts = term_parts(t)
        if not parts:
            return np.bool_(op(t.const, 0))
        left = parts[-1]
        rhs = -t.const
        for p in parts[:-1]:
            rhs = rhs - p
        return op(left, rhs)

    def go(g):
        out = cache.get(g)
        if out is not None:
            return out
        if g is TRUE:
            out = np.bool_(True)
        elif g is FALSE:
            out = np.bool_(False)
        elif isinstance(g, Le):
            out = compare(g.t, np.less_equal)
        elif isinstance(g, Eq):
            out = compare(g.t, np.equal)
        elif isinstance(g, Dvd):
            parts = term_parts(g.t)
            total = g.t.const
            for p in parts:
                total = total + p
            out = np.equal(np.mod(total, g.d), 0)
        elif isinstance(g, Not):
            out = np.logical_not(go(g.f))
        elif isinstance(g, And):
            out = go(g.args[0])
            for a in g.args[1:]:
                out = np.logical_and(out, go(a))
        elif isinstance(g, Or):
            out = go(g.args[0])
            for a in g.args[1:]:
                out = np.logical_or(out, go(a))
        else:
            raise ValueError(f"vector_eval needs a quantifier-free formula, got {g!r}")
        cache[g] = out
        return out

    shape = np.broadcast_shapes(*(np.shape(a) for a in env.values()))
    return np.broadcast_to(go(f), shape)
