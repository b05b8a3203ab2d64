"""Executable construction of the Presburger acceptance formulas.

The pipeline mirrors the silent-phase analysis: ``reach_formula`` describes
endmarker-free runs exactly; ``run_formula`` stitches reaches through the
endmarkers, following each launch from an endmarker as
``dynamics.takeoff`` classifies it (rebound, crossing or trap) and
capping the number of traversals by K; a race is a run that stops at every
broadcasting state, so the time it reaches one is the first broadcast, and
every "no broadcast yet" guard negates a race bounded in time; the phase
formula advances every automaton to the next broadcast;
``phase_frontiers`` walks the frontiers reachable with at most M messages
breadth first; and ``recognized_set`` ORs their acceptance formulas into a
single one-variable formula that is lowered to an ultimately periodic set.

Only automaton 1 decides acceptance, and messages never change a
transition, so ``recognized_set`` searches only the frontiers where
automaton 1 is in a live state (``dynamics.live_states``: one from which a
step into a final state on the right endmarker is reachable).  Every
frontier after a dead one is dead too, and a dead frontier's acceptance
formula is unsatisfiable, unless automaton 1 is in a final state at the
frontier's broadcast, which may itself be the accepting step;
``phase_frontiers`` keeps that one case.  The pruned search therefore ORs
the same satisfiable formulas and gives the same set.

All formulas are exact descriptions of the simulator for sufficiently long
inputs; the recognized set patches the short inputs by direct simulation.

Which branches get built is decided by sampling: ``_sampled_branches``
simulates each sampled length once and files every broadcast event under
the messages spent and the global state before it, and each frontier
builds the branches filed under its own.  The sampled lengths are every N
up to a window derived for each system (``_sample_lengths``): on each
residue class of N modulo the lcm of the cycle displacements, every
automaton's walk has its endmarker visits and broadcasts at times affine
in N (``dynamics.AffineWalk``), so past the last crossing of the times a
run's branches depend on, the filed branches repeat, and the window ends
one period later.  The window and the samples read the same broadcasting
times: each automaton's own come from its ``dynamics.AffineWalk``, and
``dynamics.first_broadcasts`` merges them into the run's first M, on a
class of lengths for the window (``_settling``) and on one length for
``sim.broadcast_events``.  That kernel steps no quiet stretch; it takes
only the broadcasting steps, and so every message rule, through
``sim.global_step``.  How far a run unrolls is not sampled: every run is
capped at the analysis bound K (``_run_caps`` gives the argument).

Every run inside a phase stops at the broadcasting states of its
automaton: a race, a silence guard, the run that advances an automaton in
the phase formula and automaton 1's run to an accepting visit before the
next broadcast.  A run with a stop set differs from the unrestricted one
only on walks that occupy a stop state strictly inside the run, and the
race or silence guard next to each of these runs rules those walks out
(:func:`_phase_expr` and :func:`accept_formula` give the argument).  So
the phase runs reuse the canonicals that the races eliminate, and no chain
goes on through a broadcasting state.  Only the final phase, after the last
message, has no broadcast to end it: its acceptance runs keep the empty
stop set, and so does the ``run:`` dump.  Every acceptance run also ends at
automaton 1's first accepting visit, a final state on the right endmarker:
acceptance asks only whether some accepting time exists, and the first one
is the one every guard allows (:func:`accept_formula`), so no chain goes on
past it (:func:`_run_expr`).  The ``run:`` dump does go on past it.  Every
Run is timed: each phase and each acceptance formula binds its time with
``exists``, the final phase's too.

Each head starts a phase at one place per endmarker symbol it can be on
(:func:`_head_starts`): on the initial frontier at the frontier itself,
and on a later one a step after the broadcast.  A phase branch takes each
head's start by the symbol its sampled pattern gives it.  An acceptance
formula states each head's silence as a disjunction over its starts, so
it is one elimination of a product over the heads, not one per endmarker
pattern of the heads (:func:`accept_formula`).

Every builder is a function of what varies alone: N is the one
module-level variable :data:`_N`, and every bound variable has a fixed
name.  A Reach cycle count is ``_h``, a crossing time and a race time
``_t``, the phase time and the acceptance time ``_T``; segment i of a run
chain takes ``_d<i>`` steps and a chain closed by a rebound cycle runs
``_laps`` laps (:func:`_run_expr`).  No binder captures a variable:

- No fixed name is a free name (N, p, pp, T, pi<i>, pip<i>), and no
  binder encloses one of its own name: ``_T`` encloses a race's ``_t``,
  and ``_t`` and the chain names enclose a Reach's ``_h``.
- Each binder's body is instantiated only at terms over N, p, pp, T,
  pi<i>/pip<i>, ``_t`` and the chain names.  Only :func:`_reach`
  substitutes into a formula that still has a binder, a Reach canonical
  or one of its endmarker branches, whose one binder is ``_h``; every
  other substitution is into an eliminated formula.
- :func:`presburger.substitute` renames on capture anyway, so a clash
  could cost bytes but never soundness.

Reach/Run canonicals, the endmarker-start branches of the Reach ones, the
Reach instances that run chains are made of, the Runs with their
quantifiers eliminated and their projection to occupancy at time T,
segment constraints and the table of sampled branches are memoized in a
:class:`Scope`, one per extraction, which every builder that reads a
table takes first.  A chain names its segment times by position, so chains
that share segments share the formula objects, and an elimination meets
each shared segment once.  A Run is eliminated once per key: its
automaton, stop set, states and cap, and each end as the term the caller
fixes when that term depends on N alone (0, N + 1, a stepped
endmarker start) and as the variable p or pp otherwise (:func:`_run_qf`).
Every use substitutes its remaining terms into the eliminated form, so
Cooper sees each Run once per key and extraction, and never meets as a
free variable an end its callers fix.  The ``run``/``reach`` dumps still
print the raw canonicals over p, pp and T.  Nothing mutable is kept at
module level: the tables go with their scope, so a batch of systems in one
process keeps no table of an earlier system alive, and extractions in
separate scopes share nothing.  What a builder prints depends on its
arguments alone, not on what else ran in the scope or the process.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from math import lcm

from . import dynamics, sim
from .model import bounds_profile, validate_system
from .presburger import (
    FALSE,
    TRUE,
    Formula,
    Term,
    UltimatelyPeriodicSet,
    eliminate,
    eq,
    exists,
    free_vars,
    ge,
    land,
    le,
    lnot,
    lor,
    satisfiable,
    solution_set,
    substitute,
    var,
)

__all__ = [
    "ParamFormula",
    "PhaseFrontier",
    "Scope",
    "reach_formula",
    "run_formula",
    "initial_frontier",
    "advance_frontier",
    "phase_frontiers",
    "accept_formula",
    "recognized_set",
]


@dataclass(frozen=True)
class ParamFormula:
    """A formula with a named free-variable signature."""

    formula: Formula
    signature: tuple

    def __post_init__(self):
        extra = free_vars(self.formula) - set(self.signature)
        if extra:
            raise ValueError(f"free variables outside signature: {sorted(extra)}")


@dataclass(frozen=True)
class PhaseFrontier:
    """The global state at a broadcast plus the position function as a formula.

    ``position_graph`` has signature (N, pi_1..pi_n) and is functional in N.
    The frontier with ``messages_spent == 0`` is the initial configuration
    (all heads at 0), every later frontier sits on a broadcasting step.
    """

    sigma: tuple
    position_graph: ParamFormula
    messages_spent: int


# ---------------------------------------------------------------------------
# Per-extraction memo scope


class Scope:
    """The memo tables of one extraction.

    ``tables`` maps the name of each memoized helper to a dict from its
    arguments after the scope to its result.  Every memoized helper is a
    pure function of those arguments, so a hit returns what recomputing
    would.  Pass one scope to several builder calls on the same system so
    that they share Reach/Run canonicals and the sampled branches.
    """

    def __init__(self):
        self.tables = defaultdict(dict)


def _per_scope(fn):
    """Memoize ``fn`` in the tables of the scope it takes first."""
    name = fn.__name__

    @wraps(fn)
    def memoized(sc, *args):
        table = sc.tables[name]
        out = table.get(args)
        if out is None:
            out = table[args] = fn(sc, *args)
        return out

    return memoized


# ---------------------------------------------------------------------------
# Reach: endmarker-free runs, exact for every N


_N = var("N")  # the input length, the one free variable of every result


def _side_pos(side):
    """The position of the ``side`` endmarker: 0 or N + 1."""
    return Term(0) if side == "L" else _N + 1


def _pi_names(n):
    return tuple(f"pi{i + 1}" for i in range(n))


def _pip_names(n):
    return tuple(f"pip{i + 1}" for i in range(n))


def _interior_expr(aut, stop, s, s2, P, PP, Tm):
    """Reach from (s, P) staying interior at all times 1..T-1.

    The start is assumed interior (or handled by the caller); the final
    position PP is unconstrained, so first contact with an endmarker may
    only happen at time T.  Stop states are forbidden at times 1..T-1.
    """
    hops = aut.hops
    seq, lam, ell, c = hops.inner[hops.index[s]][:4]
    k = len(seq) - 1
    L = k - ell
    t2 = hops.index[s2]
    # The first index >= 1 of a stop state in the basic sequence, if any.
    i0 = next((i for i in range(1, k + 1) if hops.names[seq[i]] in stop), None)
    jmax = i0 if i0 is not None else k - 1

    disjuncts = []
    for j in range(jmax + 1):
        if seq[j] == t2:
            body = [eq(Tm - j), eq(PP - P - lam[j])]
            for i in range(1, j):
                body.append(ge(P + lam[i], 1))
                body.append(le(P + lam[i], _N))
            disjuncts.append(land(*body))

    if i0 is None:
        # Full cycles: T = ell + h*L + r with h >= 1.  En-route positions are
        # monotone in the cycle count, so each residue r' is guarded by its
        # first and last occurrence only.
        prefix_guards = []
        for i in range(1, k):
            prefix_guards.append(ge(P + lam[i], 1))
            prefix_guards.append(le(P + lam[i], _N))
        for r in range(L):
            if seq[ell + r] != t2:
                continue
            h = var("_h")
            body = [
                ge(h, 1),
                eq(Tm - (h * L) - (ell + r)),
                eq(PP - P - lam[ell + r] - h * c),
            ]
            body.extend(prefix_guards)
            for rp in range(L):
                m_last = h if rp < r else h - 1
                base = P + lam[ell + rp]
                inside = land(
                    ge(base + c, 1),
                    le(base + c, _N),
                    ge(base + m_last * c, 1),
                    le(base + m_last * c, _N),
                )
                if rp < r:
                    body.append(inside)
                else:
                    body.append(lor(le(m_last, 0), inside))
            disjuncts.append(exists("_h", land(*body)))
    return lor(*disjuncts)


@_per_scope
def _endmarker_start(sc, aut, stop, s, s2, side):
    """Reach from (s, 0) or (s, N+1) to (s2, pp) in T steps: the branch of
    the Reach canonical whose start is the ``side`` endmarker."""
    PP, Tm = var("pp"), var("T")
    start_pos = _side_pos(side)
    t0 = land(eq(Tm), eq(PP - start_pos)) if s2 == s else FALSE
    table = aut.delta_left if side == "L" else aut.delta_right
    t, d = table[s]
    if d == 0:
        step = land(eq(Tm - 1), eq(PP - start_pos)) if s2 == t else FALSE
        return lor(t0, step)
    # Inward move: lands on position 1 (resp. N); when N = 0 that cell is the
    # opposite endmarker and the run must end there.
    land_pos = Term(1) if side == "L" else _N
    n0 = land(eq(_N), eq(Tm - 1), eq(PP - land_pos)) if s2 == t else FALSE
    if t in stop:
        cont = land(ge(_N, 1), eq(Tm - 1), eq(PP - land_pos)) if s2 == t else FALSE
    else:
        cont = land(ge(_N, 1), _interior_expr(aut, stop, t, s2, land_pos, PP, Tm - 1))
    return lor(t0, n0, cont)


@_per_scope
def _reach_canonical(sc, aut, stop, s, s2):
    """Reach from (s, p) to (s2, pp) in exactly T steps, interior en route:
    a branch per endmarker start (p = 0, p = N + 1) and one for 1 <= p <= N."""
    p = var("p")
    branches = [
        land(eq(p - _side_pos(side)), _endmarker_start(sc, aut, stop, s, s2, side))
        for side in ("L", "R")
    ]
    interior = _interior_expr(aut, stop, s, s2, p, var("pp"), var("T"))
    branches.append(land(ge(p, 1), le(p, _N), interior))
    return lor(*branches)


@_per_scope
def _reach(sc, aut, stop, s, s2, P, PP, Tm):
    """The Reach canonical at the given terms, built once per scope: a run
    chain restates every segment of its prefix, and chains of different
    runs share their segments too.

    A start that is exactly an endmarker, 0 or N + 1, is substituted into
    that endmarker's branch alone (:func:`_endmarker_start`).  That is the
    whole canonical at that start: the other endmarker's guard becomes
    N + 1 = 0 and the interior guard 1 <= N + 1 <= N or 1 <= 0, which no
    natural N satisfies, so the smart constructors fold both branches to
    ``FALSE``."""
    for side in ("L", "R"):
        if P == _side_pos(side):
            return substitute(_endmarker_start(sc, aut, stop, s, s2, side), {"pp": PP, "T": Tm})
    return substitute(_reach_canonical(sc, aut, stop, s, s2), {"p": P, "pp": PP, "T": Tm})


def reach_formula(sc, aut, stop, s, s2) -> ParamFormula:
    """Reach_S: (s,p) to (s2,p') in exactly T steps, never at 0 or N+1 and
    never in a stop state at times 1..T-1."""
    return ParamFormula(
        _reach_canonical(sc, aut, frozenset(stop), s, s2), ("N", "p", "pp", "T")
    )


# ---------------------------------------------------------------------------
# Launch classification (rebound chains are N-independent)


def _launch(aut, state, side):
    """The launch from ``side`` in ``state`` on every N >= N_min.

    ``dynamics.takeoff`` classifies it on a^N_min.  A Return holds in full
    on every longer input, and any other outcome in kind, which is all
    :func:`_run_expr` reads of a crossing or a trap:

    - A stay returns at once.  An inward endmarker move lands next to the
      endmarker, and the hop from there follows the basic sequence of the
      landing state (say from the left; the right mirrors it).
    - The first lap of that sequence (indices 0 .. k) moves the head at
      most the state's amplitude, and N >= N_min = 1 + amplitude, so it
      cannot reach the far endmarker.  Whether and when it touches the near
      one does not depend on N.
    - Past the first lap every position is a first-lap position plus whole
      laps of net displacement c.  With c > 0 the head never comes back and
      traverses, with c = 0 it oscillates, and with c < 0 it never reaches
      the far endmarker and returns at a time fixed by its one-cell
      distance to the near one.
    """
    return dynamics.takeoff(aut, state, side, aut.hops.nmin)


# ---------------------------------------------------------------------------
# Run: reach, through at most K traversals, then reach again


@_per_scope
def _edge_n_constraint(sc, aut, stop, u, side, v):
    """The N-projection of one crossing from ``side`` to the far endmarker
    (for pruning)."""
    here, there = _side_pos(side), _side_pos("R" if side == "L" else "L")
    return eliminate(exists("_t", _reach(sc, aut, stop, u, v, here, there, var("_t"))))


def _chain_time(i):
    """The name of the time variable of segment ``i`` of a run chain."""
    return f"_d{i}"


_LAPS = "_laps"  # whole laps of a chain closed by a rebound cycle


def _run_expr(sc, aut, stop, s, s2, K, P, PP, Tm, accepting):
    """Disjunction over endmarker-hit chains with at most K traversals.

    Each chain is: a reach to the first endmarker hit, endmarker-to-endmarker
    segments (rebounds are deterministic with constant duration, crossings
    are enumerated over landing states), and a final endmarker-start reach.
    Deterministic rebound cycles are closed with a periodic disjunct instead
    of being unrolled; crossing cycles are unrolled up to the traversal cap.
    Run0 (no endmarker contact) is the plain reach.

    A chain stops growing at its K-th traversal, and that cap alone cuts
    crossing cycles: a chain re-enters a crossing landing only by a
    traversal, so it has fewer repeated landings than traversals.

    The chain machinery relies on length-independent launch behaviour, which
    only holds for sufficiently long inputs, so every chain disjunct carries
    an N >= N_min guard; below it only the exact Run0 branch remains (short
    inputs are handled by simulation downstream).

    Segment i of a chain takes ``_d<i>`` steps (:func:`_chain_time`), and a
    chain closed by a rebound cycle runs ``_laps`` whole laps; each chain
    disjunct binds every name it uses (the module docstring shows that no
    fixed name is captured).  So the same segment at the same position is
    the same formula in every chain, and in the chains of every run:
    :func:`_reach` builds it once per scope, and an elimination meets it as
    one formula.

    With ``accepting`` the Run is an acceptance Run of automaton 1, to its
    final state s2 on the right endmarker (PP is N + 1), and it holds only
    walks that make no accepting visit, a visit of a final state to N + 1,
    at times 1..T-1.  A chain halts at its first accepting junction
    (f, R): it is emitted, ending there, when f is s2 and the chain has
    more than one junction, and dropped otherwise.  No chain ends with a
    reach from its last junction, and no rebound-cycle chain is built.
    Run0 stays: it is the only branch below N_min.

    - Sound: every chain emitted is one the Run without ``accepting``
      holds too (its final reach, from (s2, R) to PP = N + 1, taking no
      step), so it is a real run from (s, P) to (s2, PP).
    - Complete for the first accepting visit: let a walk be at (s2, N + 1)
      at time T, its first accepting visit, with N >= N_min.  At T = 0
      that is Run0.  Otherwise every endmarker visit up to T is a junction
      of its chain, since the chain cuts the walk at every endmarker visit
      and a Reach segment touches no endmarker en route (Shepherdson's
      crossing argument, 1959), and only the last of them is accepting,
      so no halt cuts the chain short.  Up to T the
      walk repeats no junction and makes fewer than K traversals
      (:func:`_run_caps`), so ``extend`` reaches its last junction (s2, R)
      and emits the chain there, unless (s2, R) is its only junction: that
      chain is one Reach from (s, P) to (s2, N + 1) in T steps, which is
      Run0 at PP = N + 1.  A walk whose first accepting visit is in another
      final state is held by that state's Run, and :func:`accept_formula`
      ORs the Runs of every final state.
    - What is not built is redundant: the final reach from any other
      junction to (s2, N + 1) ends at an endmarker visit, which ``extend``
      takes as the chain's next junction anyway, and a walk that closes an
      all-rebound cycle repeats a junction, so it never makes an accepting
      visit it has not made before.
    """
    stop = frozenset(stop)
    long_enough = ge(_N, aut.hops.nmin)

    def reach(u, v, A, B, tv):
        return _reach(sc, aut, stop, u, v, A, B, tv)

    disjuncts = [reach(s, s2, P, PP, Tm)]

    def segment_formulas(path):
        parts = [reach(s, path[0][0], P, _side_pos(path[0][1]), var(_chain_time(0)))]
        for i in range(1, len(path)):
            u, uside = path[i - 1]
            v, vside = path[i]
            parts.append(
                reach(u, v, _side_pos(uside), _side_pos(vside), var(_chain_time(i)))
            )
        return parts

    def emit_stop(path):
        # Stop anywhere after the last junction of the path; a junction in a
        # stop state, or an accepting one, can only be the final
        # configuration itself, and an accepting first junction is Run0's.
        u, side = path[-1]
        names = [_chain_time(i) for i in range(len(path) + 1)]
        if u in stop or accepting:
            if u != s2 or (accepting and len(path) == 1):
                return
            names.pop()
            parts = [eq(PP - _side_pos(side))] + segment_formulas(path)
        else:
            parts = segment_formulas(path)
            parts.append(reach(u, s2, _side_pos(side), PP, var(names[-1])))
        clock = eq(Tm - sum(map(var, names), Term(0)))
        disjuncts.append(exists(names, land(long_enough, clock, *parts)))

    def emit_loop(path, entry_index, period):
        # A deterministic all-rebound cycle: path[entry_index:] repeats with a
        # constant period; stops inside later laps reuse the lap offsets.  One
        # full lap is asserted segment-by-segment at its constant rebound
        # times, so a lap broken by a stop state cannot pretend to cycle.
        lap_parts = []
        for q, sd in path[entry_index:]:
            back = _launch(aut, q, sd)
            lap_parts.append(reach(q, back.state, _side_pos(sd), _side_pos(sd), Term(back.T)))
        h = var(_LAPS)
        for t in range(entry_index, len(path)):
            u, side = path[t]
            names = [_chain_time(i) for i in range(t + 2)]
            elapsed = sum(map(var, names), Term(0))
            parts = [long_enough, ge(h, 1), eq(Tm - elapsed - h * period)]
            parts.extend(lap_parts)
            parts.extend(segment_formulas(path[: t + 1]))
            parts.append(reach(u, s2, _side_pos(side), PP, var(names[-1])))
            disjuncts.append(exists(names + [_LAPS], land(*parts)))

    def extend(path, nconstraints, crossings):
        u, side = path[-1]
        halt = accepting and side == "R" and u in aut.finals
        if halt or not accepting:
            emit_stop(path)
        if halt or u in stop:
            return
        out = _launch(aut, u, side)
        if isinstance(out, dynamics.Oscillate):
            return
        if isinstance(out, dynamics.Return):
            nxt = (out.state, side)
            for idx in range(len(path)):
                if path[idx] == nxt:
                    lap = path[idx:]
                    launches = [_launch(aut, q, sd) for q, sd in lap]
                    if all(isinstance(x, dynamics.Return) for x in launches):
                        if not accepting:
                            emit_loop(path, idx, sum(x.T for x in launches))
                        return
            extend(path + [nxt], nconstraints, crossings)
            return
        # crossing
        if crossings >= K:
            return
        far = "R" if side == "L" else "L"
        for v in sorted(aut.states):
            cons = _edge_n_constraint(sc, aut, stop, u, side, v)
            acc = land(*nconstraints, cons)
            if acc is FALSE or not satisfiable(acc, "N"):
                continue
            extend(path + [(v, far)], nconstraints + [cons], crossings + 1)

    for v in sorted(aut.states):
        for side in ("L", "R"):
            if reach(s, v, P, _side_pos(side), var(_chain_time(0))) is FALSE:
                continue
            extend([(v, side)], [], 0)
    # The recursive closure is a reference cycle through sc: break it, or
    # the scope's tables outlive the extraction until a garbage collection.
    del extend
    return lor(*disjuncts)


@_per_scope
def _run_canonical(sc, aut, stop, s, s2, K):
    return _run_expr(sc, aut, stop, s, s2, K, var("p"), var("pp"), var("T"), False)


def _key_term(term, name):
    """How a Run memo key records one end of the run: the term itself when
    it depends on N alone, else the variable ``name``, for which each use
    substitutes its own term."""
    return term if all(v == "N" for v, _ in term.coeffs) else var(name)


@_per_scope
def _run_qf(sc, aut, stop, s, s2, K, P, PP, accepting):
    """The Run from (s, P) to (s2, PP) in T steps with its quantifiers
    eliminated, once per scope.

    P and PP are key terms (:func:`_key_term`): a start or end that depends
    on N alone, such as 0, N + 1 or a stepped endmarker start, is built
    into the chains, so Cooper never meets it as a free variable; any other
    stays the variable p or pp.  Substituting terms for free variables
    commutes with an equivalence-preserving elimination, so every use
    instantiates this instead of handing Cooper the same inner structure
    again.  ``accepting`` marks an acceptance Run, which ends at automaton
    1's first accepting visit (:func:`_run_expr`).  The key says so itself
    rather than leaving it to the end N + 1, at which other Runs may end
    too.
    """
    return eliminate(_run_expr(sc, aut, stop, s, s2, K, P, PP, var("T"), accepting))


@_per_scope
def _occupancy_qf(sc, aut, stop, s, s2, K, P):
    """exists pp. Run: s2 is occupied at time T from (s, P), P a key term."""
    return eliminate(exists("pp", _run_qf(sc, aut, stop, s, s2, K, P, var("pp"), False)))


def _run(sc, aut, stop, s, s2, K, P, PP, Tm, accepting=False):
    """The Run from (s, P) to (s2, PP) in Tm steps, quantifier-free; with
    ``accepting``, the acceptance Run (:func:`_run_expr`)."""
    P0, PP0 = _key_term(P, "p"), _key_term(PP, "pp")
    f = _run_qf(sc, aut, frozenset(stop), s, s2, K, P0, PP0, accepting)
    return substitute(f, {"p": P, "pp": PP, "T": Tm})


def _occupied(sc, aut, b, s, K, P, Tm):
    """The broadcasting state b is occupied at time Tm from (s, P), and no
    broadcasting state is occupied at times 1..Tm-1: every one stops the
    run."""
    f = _occupancy_qf(sc, aut, aut.broadcasting, s, b, K, _key_term(P, "p"))
    return substitute(f, {"p": P, "T": Tm})


def run_formula(sc, aut, stop, s, s2, K) -> ParamFormula:
    """Run_S: like reach but the head may touch the endmarkers, making at
    most K traversals."""
    return ParamFormula(
        _run_canonical(sc, aut, frozenset(stop), s, s2, K), ("N", "p", "pp", "T")
    )


# ---------------------------------------------------------------------------
# Race: the first broadcast


def _race_expr(sc, aut, s, K, P, Tm):
    """Tm is the first time a broadcasting state is occupied from (s, P).

    A run forbids its stop states at times 1..T-1 only, so a broadcasting
    start is the time-0 case."""
    if s in aut.broadcasting:
        return eq(Tm)
    return lor(*[_occupied(sc, aut, b, s, K, P, Tm) for b in sorted(aut.broadcasting)])


def _broadcast_by_expr(sc, aut, s, K, P, Bound):
    """Some broadcasting state is occupied at a time <= Bound from (s, P):
    the race ends by then."""
    t = var("_t")
    return exists("_t", land(_race_expr(sc, aut, s, K, P, t), le(t, Bound)))


# ---------------------------------------------------------------------------
# The phase formula and frontier advancement


def _phase_expr(sc, system, sigma, sigma2, I, pos_terms, pos2_vars):
    """The displayed phase formula: racers in I broadcast simultaneously at
    the minimum time T, everyone else is mute or strictly later, and every
    automaton is advanced by a run over T.

    A racer's race stops at every broadcasting state, so it reaches one
    first at T; "mute or strictly later" is built as its negation, no
    broadcast by T, since a first broadcast time is unique.

    The display advances every automaton by an unrestricted run; here each
    run stops at its automaton's broadcasting states B, which gives the
    same formula:

    - A run with stop set S forbids S only at times 1..T-1, and up to its
      first visit of S it follows the unrestricted walk (:func:`_run_caps`
      shows that the cap K is enough whatever the stop set).  So Run_B is
      Run_empty together with "no state of B at times 1..T-1".
    - A racer's race says that no broadcasting state is occupied at times
      1..T-1, so Run_empty and the race hold together exactly when Run_B
      and the race do.
    - A non-racer's "no broadcast by T" rules out B at every time 0..T, so
      Run_empty and that guard hold together exactly when Run_B and the
      guard do.

    A racer's run to the broadcasting state it reaches is then the
    canonical its race eliminates already (:func:`_occupancy_qf`).  Both
    guards stay, although Run_B implies them given the end states: dropping
    the racers' races, or replacing the non-racers' guards by the check
    that the start and end states are not in B, made extraction slower."""
    K = _run_caps(system)
    Tv = var("_T")
    parts = []
    for i, aut in enumerate(system.automata):
        if i in I:
            parts.append(_race_expr(sc, aut, sigma[i], K, pos_terms[i], Tv))
        else:
            # The simulator's argmin losers: no broadcast by T.
            parts.append(lnot(_broadcast_by_expr(sc, aut, sigma[i], K, pos_terms[i], Tv)))
    for i, aut in enumerate(system.automata):
        P, PP = pos_terms[i], pos2_vars[i]
        parts.append(_run(sc, aut, aut.broadcasting, sigma[i], sigma2[i], K, P, PP, Tv))
    return exists("_T", land(*parts))


def _run_caps(system):
    """The traversal cap of every run the construction builds, one for all
    automata: K, twice the largest state count (:func:`bounds_profile`).

    :func:`_run_expr` unrolls a chain through at most K traversals (side
    changes between consecutive endmarker visits), so a run with more is
    left out.  No run the construction asks about needs more, on any N:

    - A walk repeats no endmarker (state, side) pair before its first
      occupancy of a stop state or its first accepting visit: after a
      repeat it only repeats itself, and that occupancy or visit would
      have come a lap earlier.  An automaton with q states has 2q <= K
      pairs, so up to either event it makes at most K visits and fewer
      than K traversals, whatever the stop set.  Races, the silence
      guards, the phase runs and the acceptance runs of every phase but
      the final one stop at every broadcasting state.  An acceptance
      formula asks whether some accepting time exists, and silence up to a
      later accepting time implies silence up to the first one, so the
      first one is enough, and every acceptance run ends there
      (:func:`_run_expr`).
    - A phase that ends at a broadcast lasts until the first time T,
      counted from the phase's start, at which a racer r with q_r states
      is in a broadcasting state.  Its configurations (state, position) at
      times 0..T are pairwise distinct, since a repeat would bring the
      broadcast earlier, and there are q_r(N + 2) of them, so
      T < q_r(N + 2).  A traversal takes at least N + 1 steps and the
      traversals of one walk do not overlap, so every automaton makes at
      most T / (N + 1) < q_r(N + 2) / (N + 1) <= 2q_r <= K traversals
      during the phase.

    Only an acceptance run reaches into the last phase, the one after the
    message bound is spent, where no broadcast ends the phase and a
    sweeper crosses the tape without end; it ends at its first accepting
    visit, which the first point bounds.
    """
    return bounds_profile(system).K


def _sample_lengths(system):
    """Every N up to a window that holds every branch that any run files.

    Let P be the lcm of the net cycle displacements of every state, and
    write each N >= N_min as r + P·q with N_min <= r < N_min + P.  On each
    class r every automaton's walk is a :class:`dynamics.AffineWalk`: the
    same marks, at times affine in q.  A run's branches are read off the
    first M broadcasting times of the system (M the message bound), and
    these are the first M distinct ones among each automaton's own first
    M (:meth:`~dynamics.AffineWalk.loud_times`), merged in their order at
    large q (:func:`_settling`).  Past a q_0, every comparison that the
    merge and the branches depend on keeps its sign, and every residue
    they depend on repeats with a period Q; then the runs on r + P·q and
    r + P·(q + Q) file the same branches, so every q >= q_0 + Q files what
    q - Q files, and q < q_0 + Q covers every branch of the class.  A
    branch is what :func:`_sampled_branches` files: the messages spent and
    the global state before a broadcast, the endmarker pattern of the
    heads then, the broadcasters and the global state at the broadcast.
    So the window ends at the largest r + P·(q_0 + Q - 1), and every N
    below N_min is simulated too.

    A traversal that broadcasts once per lap of its cycle holds as many
    broadcasts as it has laps, about N/|c|, so a run that spends all M
    messages in one traversal only files its branches from N of about
    M·|c| on; q_0 reaches it through the index at which the traversal
    holds its M-th broadcast."""
    nmin = dynamics.min_sufficient_length(system)
    hops = [aut.hops for aut in system.automata]
    starts = [h.index[aut.initial] for h, aut in zip(hops, system.automata)]
    period = lcm(*(abs(inner.c) for h in hops for inner in h.inner if inner.c))
    end = nmin - 1
    for r in range(nmin, nmin + period):
        walks = [dynamics.AffineWalk(h, s, r, period) for h, s in zip(hops, starts)]
        q0, repeat = _settling(walks, system.message_bound)
        end = max(end, r + period * (q0 + repeat - 1))
    return tuple(range(0, end + 1))


def _settling(walks, m):
    """(q_0, Q) for the runs on one class of lengths (:func:`_sample_lengths`).

    What a run files is a function of its first m broadcasting times, the
    broadcasters at each, and every automaton's state and endmarker at
    each.  The merge (:func:`dynamics.first_broadcasts`, which the sampling
    kernel :func:`sim.broadcast_events` runs on each length too) takes the
    automata's broadcasting times in their order at large q, the equal ones
    as one broadcast, until it has m of them; each automaton's next time
    then comes later.  From q_0 on:

    - every time the merge takes, and each automaton's next one, is a real
      time of its walk, and the walk broadcasts at no other time before
      its next one (:meth:`dynamics.AffineWalk.loud_times` lists them in
      order);
    - at each merged time, each automaton that does not broadcast there
      sits in one hop or on one mark for good, and its state and endmarker
      repeat with a period that divides Q
      (:meth:`dynamics.AffineWalk.settles`); one that broadcasts is at a
      fixed index of a fixed hop.

    These two bounds also keep every merged time t before the time u that
    follows it, the next merged one or, after the last, each automaton's
    next time, so no broadcast falls between them and the first m
    broadcasting times of the run are the merged ones.  Let j broadcast at
    u.  A walk's marks come in increasing time on every q, and a real time
    of its walk lies on a mark or in the hop from it, before the next mark.

    - If j broadcasts at t too, t and u are consecutive real times of its
      walk, listed in order, so t < u.
    - Else, by the second bound, t lies on j's mark k or in the hop from
      it, before mark k + 1.  u comes after t at large q, so it is no time
      before mark k, and no time of hop k at a fixed offset when t's offset
      in hop k grows with q.  So u is at or past mark k + 1, which comes
      after t, or in hop k at a fixed offset larger than t's fixed one.

    So nothing the run files changes from q to q + Q.  Each bound is where
    an affine difference changes sign (:func:`dynamics.settled_from`)."""
    events, heads = dynamics.first_broadcasts(walks, m)
    q0 = max([q for _, _, q in events] + [h[1] for h in heads if h], default=0)
    repeat = 1
    for t, fired, _ in events:
        for i, w in enumerate(walks):
            if i not in fired:
                q, lap = w.settles(t)
                q0, repeat = max(q0, q), lcm(repeat, lap)
    return q0, repeat


@_per_scope
def _sampled_branches(sc, system):
    """The (pattern, I, sigma') branches that the runs on the sampled
    lengths take, keyed by (messages spent, global state) before the
    broadcast: the endmarker pattern of the heads before it, the
    broadcasters I and the global state at it.  Each length goes through
    :func:`sim.broadcast_events` once per scope."""
    table = defaultdict(set)
    for N in _sample_lengths(system):
        sigma, pi = tuple(a.initial for a in system.automata), (0,) * system.n
        for k, (_, I, cfg) in enumerate(sim.broadcast_events(system, N)):
            pattern = tuple("L" if p == 0 else "R" if p == N + 1 else "M" for p in pi)
            table[k, sigma].add((pattern, I, cfg.sigma))
            sigma, pi = cfg.sigma, cfg.pi
    return table


def initial_frontier(system) -> PhaseFrontier:
    """All automata in their initial states with heads on the left endmarker."""
    n = system.n
    f = land(*[eq(var(x)) for x in _pi_names(n)])
    return PhaseFrontier(
        sigma=tuple(a.initial for a in system.automata),
        position_graph=ParamFormula(f, ("N",) + _pi_names(n)),
        messages_spent=0,
    )


def _head_starts(aut, s, P, initial):
    """Where a head in state s at position P starts the phase, by each
    endmarker symbol P can be on: {symbol: (guard, state, position term)}.

    The initial frontier is the initial configuration, every head on the
    left endmarker, and the phase starts there.  A later frontier sits on
    its broadcasting step, so the phase starts one step later, by the
    transition of the symbol under the head: "L" when P = 0, "M" when
    1 <= P <= N, "R" when P = N + 1.  The three guards are exclusive, and
    one of them holds at every position of the tape."""
    if initial:
        return {"L": (TRUE, s, P)}
    (sl, dl), (sm, dm), (sr, dr) = aut.delta_left[s], aut.delta_inner[s], aut.delta_right[s]
    return {
        "L": (eq(P), sl, Term(dl)),
        "M": (land(ge(P, 1), le(P, _N)), sm, P + dm),
        "R": (eq(P - _N - 1), sr, _N + 1 + dr),
    }


def _realized_branches(sc, system, frontier):
    """The branches to build from a frontier: those sampled runs take from
    its messages spent and global state, sorted.  One that only another
    frontier's runs take, or that is taken only below N_min, costs one
    more elimination but cannot change the set: its phase formula is
    conjoined with the frontier's position graph, which is exact for
    N >= N_min, and shorter inputs are simulated."""
    branches = _sampled_branches(sc, system).get((frontier.messages_spent, frontier.sigma), ())
    return sorted(branches, key=lambda x: (x[0], sorted(x[1]), x[2]))


def advance_frontier(sc, system, frontier: PhaseFrontier) -> list:
    """All satisfiable one-phase successors of a frontier.

    Returns [((I, sigma'), PhaseFrontier), ...].  Only the branches that
    sampled runs take from the frontier's messages spent and global state
    are built (:func:`_realized_branches`), and each head starts the phase
    where :func:`_head_starts` puts it for the endmarker symbol the
    branch's pattern gives it: on the initial frontier every head is on the
    left endmarker and starts there, and on a later one the guard of its
    symbol holds and it starts one step after the broadcast.  A successor
    whose graph holds for no N is dropped.
    """
    system = validate_system(system)
    if frontier.messages_spent >= system.message_bound:
        raise ValueError("frontier has no messages left to advance")
    n = system.n
    initial = frontier.messages_spent == 0
    pos = [Term(0)] * n if initial else [var(x) for x in _pi_names(n)]
    pos2 = [var(x) for x in _pip_names(n)]
    starts = [
        _head_starts(aut, s, P, initial)
        for aut, s, P in zip(system.automata, frontier.sigma, pos)
    ]

    graphs: dict = {}
    for pattern, I, sigma2 in _realized_branches(sc, system, frontier):
        guards, states, terms = zip(*[st[sym] for st, sym in zip(starts, pattern)])
        body = land(
            frontier.position_graph.formula,
            *guards,
            _phase_expr(sc, system, states, sigma2, I, terms, pos2),
        )
        g = eliminate(exists(list(_pi_names(n)), body))
        key = (I, sigma2)
        graphs[key] = lor(graphs.get(key, FALSE), g)

    # Successor graphs are stated over pi' like the display; each is renamed
    # to pi so that frontiers compose.
    to_pi = {o: var(nn) for o, nn in zip(_pip_names(n), _pi_names(n))}
    out = []
    for (I, sigma2), g in sorted(
        graphs.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])
    ):
        proj = eliminate(exists(list(_pip_names(n)), g))
        if proj is FALSE or not satisfiable(proj, "N"):
            continue
        out.append(
            (
                (I, sigma2),
                PhaseFrontier(
                    sigma=sigma2,
                    position_graph=ParamFormula(substitute(g, to_pi), ("N",) + _pi_names(n)),
                    messages_spent=frontier.messages_spent + 1,
                ),
            )
        )
    return out


def phase_frontiers(sc, system, depth, live=None):
    """Every frontier reachable with at most ``depth`` messages, breadth first.

    Every advance works in ``sc``, so the caller's builds share its
    tables.

    ``live``, automaton 1's live states (:func:`dynamics.live_states`),
    prunes the search to the frontiers where the system can still accept.
    A frontier whose automaton-1 state is not live is not advanced: every
    later frontier's state is reachable from it, so none is live either, and
    no later phase can accept.  Such a frontier is not yielded either,
    unless it sits on a broadcast in a final state: that broadcasting step
    may itself be the accepting configuration, which only this frontier's
    acceptance formula covers (the phase before it requires silence up to
    and including the accepting time).  The pruning is exact: every
    acceptance formula it skips is unsatisfiable.
    """
    layer = [initial_frontier(system)]
    finals = system.automata[0].finals
    for k in range(depth + 1):
        nxt = []
        for fr in layer:
            alive = live is None or fr.sigma[0] in live
            if alive or (k and fr.sigma[0] in finals):
                yield fr
            if k == depth:
                continue
            if alive:
                nxt.extend(f for _, f in advance_frontier(sc, system, fr))
        layer = nxt


# ---------------------------------------------------------------------------
# Acceptance and the recognized set


def accept_formula(sc, system, frontier: PhaseFrontier) -> Formula:
    """N is accepted during this phase: automaton 1 reaches a final state on
    the right endmarker strictly before the phase's next broadcast (the bound
    is dropped in the final phase, once the frontier has spent every
    message).

    Every acceptance run ends at N + 1, and on the initial frontier every
    head starts at 0, so the runs and the silence guards are eliminated
    with those terms built in (:func:`_run_qf`).  Automaton 1's run to the
    final state stops at its broadcasting states B unless the phase is the
    final one.  Run_B is Run_empty together with "no state of B at times
    1..T_a-1" (:func:`_phase_expr`), and the silence guards already say so:

    - On the initial frontier automaton 1's guard rules out B at every
      time 0..T_a.
    - On a later frontier the guards are stated from the phase start one
      step after the broadcast, at time 1, so automaton 1's guard rules
      out B at times 1..T_a.  Time 0, the frontier's broadcast step, may
      be in B, and no run forbids its stop states at time 0.

    Each head's guard is stated from its phase start (:func:`_head_starts`):
    a broadcast at time t from there comes at time delay + t, delay 0 on
    the initial frontier and 1 on a later one, so the guard says that it
    broadcasts by no time T_a - delay.  Messages never change a transition,
    so a head's start depends on the symbol under it alone, and its
    silence is the disjunction over its starts of the start's guard and
    silence:

        exists T_a. hit and AND_i OR_sym (guard_i,sym and silent_i,sym)

    That is the sum over the 3^n endmarker patterns of the heads of the
    pattern's guard, hit and silences, each head stepped by its symbol:

    - A pattern's guard and starts are the product of each head's own, so
      the sum over every pattern of those products is the product over
      the heads of their sums (distributivity).  A head's three guards are
      exclusive, so its sum takes the one start its position gives.
    - exists T_a distributes over the sum, since no guard mentions T_a.
    - Leaving out the patterns that the position graph rules out for
      every N would only drop disjuncts that the graph makes false.

    The final phase has no guard and no broadcast to end it, so its runs
    keep the empty stop set; like every other phase it binds T_a with
    ``exists``.

    Every acceptance run ends at automaton 1's first accepting visit
    (:func:`_run_expr` with ``accepting``), and so holds no walk that goes
    on past an earlier one.  The formula loses nothing by that: if
    automaton 1 accepts at some T_a with every guard holding, it makes a
    first accepting visit at some T_a' <= T_a, in some final state f.  The
    guards hold at T_a' too, since silence up to T_a implies silence up to
    T_a', and so does Run_B to T_a', since the times 1..T_a'-1 at which it
    forbids B come before T_a.  The Run to f holds that visit, and the
    disjunction below runs over every final state."""
    system = validate_system(system)
    aut1 = system.automata[0]
    if not aut1.finals:
        return FALSE
    K = _run_caps(system)
    n = system.n
    names = list(_pi_names(n))
    initial = frontier.messages_spent == 0
    pos = [Term(0)] * n if initial else [var(x) for x in names]
    final_phase = frontier.messages_spent == system.message_bound
    stop = frozenset() if final_phase else aut1.broadcasting
    Ta = var("_T")
    hit = lor(
        *[
            _run(sc, aut1, stop, frontier.sigma[0], f, K, pos[0], _N + 1, Ta, accepting=True)
            for f in sorted(aut1.finals)
        ]
    )
    parts = [hit]
    if not final_phase:
        # A broadcast at time t from a phase start happens at time
        # delay + t, and acceptance needs T_a < delay + t for each one.
        delay = 0 if initial else 1
        for aut, s, P in zip(system.automata, frontier.sigma, pos):
            silent = [
                land(guard, lnot(_broadcast_by_expr(sc, aut, state, K, start, Ta - delay)))
                for guard, state, start in _head_starts(aut, s, P, initial).values()
            ]
            parts.append(lor(*silent))
    body = exists("_T", land(*parts))
    return eliminate(exists(names, land(frontier.position_graph.formula, body)))


def recognized_set(system, sc=None) -> UltimatelyPeriodicSet:
    """The full language of the system as an ultimately periodic set.

    Built in ``sc``, or in a scope of its own when none is given.

    Breadth-first phase expansion through at most M broadcasts, OR-ing the
    per-frontier acceptance formulas, then lowering to a set; lengths below
    the sufficient threshold are patched by direct simulation.

    The expansion is pruned to the frontiers where automaton 1 can still
    accept (:func:`phase_frontiers` states the rule and why it is exact):
    messages never change a transition, so once automaton 1 is in a state
    from which no accepting step is reachable, no later phase accepts, and
    leaving those phases out cannot change the set.  A system whose
    automaton 1 starts in such a state builds no formula at all.
    """
    system = validate_system(system)
    nmin = dynamics.min_sufficient_length(system)
    m = system.message_bound
    live = dynamics.live_states(system.automata[0])
    sc = sc or Scope()
    parts = [accept_formula(sc, system, fr) for fr in phase_frontiers(sc, system, m, live)]
    phi = land(lor(*parts), ge(_N, nmin))
    ups = solution_set(phi, "N")
    width = max(ups.threshold, nmin)
    bits = [
        sim.accepts(system, n) if n < nmin else ups.member(n)
        for n in range(width + max(ups.period, 1))
    ]
    return UltimatelyPeriodicSet.from_bits(bits, width, max(ups.period, 1))
