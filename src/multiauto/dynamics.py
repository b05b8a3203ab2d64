"""Single-automaton trajectory analysis away from the endmarkers.

Inside the tape every step reads the same unary letter, so the state
sequence from any state is eventually periodic ("basic sequence") and the
head displacement is a fixed profile over that sequence.  :class:`Hops`
is the one home of the per-automaton constants: it walks the basic
sequences once, holds each state's sequence, displacements, loop entry
and net cycle displacement, and derives the sufficient length N_min and
the traversal slope G from them.  It also turns the basic sequences into
the automaton's walk from endmarker to endmarker in closed form.
:func:`sim.accepts` walks with it, and :func:`takeoff` reads a launch off
it: one endmarker step and at most one hop, because on a^N with N >= 1 a
launch ends at its first endmarker contact.  :class:`AffineWalk` states
the same walk on a whole residue class of lengths, with its times affine
in the length, or on one length with every time constant, and it is the
one source of an automaton's broadcasting times.
:func:`first_broadcasts` merges those of the automata into the run's
first M: on one length for the simulator's sampling kernel
(:func:`sim.broadcast_events`), and on a class for the phase pipeline,
which derives its sample window from them.  The walk's first accepting
visit (:meth:`AffineWalk.first_acceptance`) is read off the same marks, on
one length for :func:`sim.accepts` and on a class for the window.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .model import Automaton

__all__ = [
    "BasicSequenceProfile",
    "Return",
    "Oscillate",
    "Traverse",
    "InputTooShort",
    "basic_sequence",
    "Hops",
    "AffineWalk",
    "settled_from",
    "first_broadcasts",
    "takeoff",
    "min_sufficient_length",
]


class InputTooShort(Exception):
    """Take-off classification requested below the sufficient input length."""


@dataclass(frozen=True)
class BasicSequenceProfile:
    """The eventually periodic inner-letter trajectory of one state.

    ``sequence`` lists states s_0 .. s_k where s_k = s_{loop_entry} is the
    first repeat; ``lambdas[i]`` is the head displacement after i inner
    steps.  The cycle s_{loop_entry} .. s_{k-1} has net displacement
    ``net_cycle_displacement``; ``amplitude`` is the total sweep
    max(lambdas) - min(lambdas) over the whole sequence.
    """

    sequence: tuple
    lambdas: tuple
    loop_entry: int
    net_cycle_displacement: int
    amplitude: int

    @property
    def k(self) -> int:
        return len(self.sequence) - 1

    @property
    def direction(self) -> str:
        c = self.net_cycle_displacement
        return "Right" if c > 0 else "Left" if c < 0 else "Motionless"


def basic_sequence(automaton: Automaton, state: str) -> BasicSequenceProfile:
    seq = [state]
    lams = [0]
    index = {state: 0}
    s, lam = state, 0
    while True:
        s, mv = automaton.delta_inner[s]
        lam += mv
        seq.append(s)
        lams.append(lam)
        if s in index:
            break
        index[s] = len(seq) - 1
    ell = index[seq[-1]]
    return BasicSequenceProfile(
        sequence=tuple(seq),
        lambdas=tuple(lams),
        loop_entry=ell,
        net_cycle_displacement=lams[-1] - lams[ell],
        amplitude=max(lams) - min(lams),
    )


_time = itemgetter(0)


class _Inner(NamedTuple):
    """The basic sequence of one state on ints, as :class:`Hops` reads it."""

    states: tuple  # s_0 .. s_k, where s_k = s_entry is the first repeat
    lambdas: tuple  # head displacement after i steps, i = 0 .. k
    entry: int
    c: int  # net displacement of one lap of the cycle
    reach: dict  # displacement -> first index 1 .. k at which it is reached
    # Past the first lap the head reaches displacement v first at a cycle
    # index j plus whole laps; which j depends only on v mod c.
    exits: dict


class Hops:
    """One automaton's walk in closed form, one endmarker-to-endmarker hop
    at a time.  Built once per automaton (:attr:`model.Automaton.hops`).

    States are numbered in sorted order (``names``, ``index``); ``loud[s]``
    says whether s broadcasts, ``final[s]`` whether it is final, and
    ``ends[s]`` holds its (next, move) pairs
    on the left and on the right endmarker.  Away from the endmarkers every
    step reads the inner letter, so the walk from an interior (s, p) is the
    basic sequence of s (``inner[s]``): i steps later it is in the
    sequence's i-th state at p + lambda_i, both extended past the first
    repeat lap by lap.

    The constants of the silent-phase analysis come from the same walk:
    ``nmin`` is the sufficient input length, one above the largest state
    amplitude, and ``slope`` is the traversal slope G: every inner traversal
    from an endmarker takes at most G*N + G steps.  A drifting state needs
    at most ceil(k/|c|) cycles of length <= k per net unit of progress, and
    a state with a motionless cycle never traverses, so G is 0 when no
    state drifts.
    """

    def __init__(self, automaton: Automaton):
        names = sorted(automaton.states)
        index = {s: i for i, s in enumerate(names)}
        self.names, self.index = names, index
        self.loud = [s in automaton.broadcasting for s in names]
        self.final = [s in automaton.finals for s in names]
        self.ends = [
            tuple((index[q], d) for q, d in (automaton.delta_left[s], automaton.delta_right[s]))
            for s in names
        ]
        self.inner = []
        amplitude = slope = 0
        for s in names:
            prof = basic_sequence(automaton, s)
            seq, lam = tuple(index[q] for q in prof.sequence), prof.lambdas
            k, ell, c = prof.k, prof.loop_entry, prof.net_cycle_displacement
            amplitude = max(amplitude, prof.amplitude)
            if c:
                slope = max(slope, -(-k // abs(c)) * k)
            reach = {}
            for i in range(k, 0, -1):
                reach[lam[i]] = i
            exits = {
                v: min(range(ell, k), key=lambda j: j - (lam[j] - v) // c * (k - ell))
                for v in range(0, c, 1 if c > 0 else -1)
            }
            self.inner.append(_Inner(seq, lam, ell, c, reach, exits))
        self.nmin = 1 + amplitude
        self.slope = slope

    def after(self, s, p, i):
        """State and position i steps after (s, p), none of them on an endmarker."""
        seq, lam, ell, c = self.inner[s][:4]
        k = len(seq) - 1
        if i <= k:
            return seq[i], p + lam[i]
        laps, j = divmod(i - ell, k - ell)
        return seq[ell + j], p + lam[ell + j] + laps * c

    def hop(self, s, p, N):
        """The walk from state s at interior position p (1 <= p <= N) on
        a^N up to its next endmarker arrival, in O(1).

        Returns (T, state, position): the head arrives after T steps, in
        ``state`` at ``position`` (0 or N + 1).  All three are None when the
        head never arrives: the cycle displacement is 0 and the first lap
        stays inside [1, N].

        Moves are -1, 0 or +1, so the first step out of [1, N] lands on an
        endmarker: an inner move cannot leave the tape.
        """
        seq, lam, ell, c, reach, exits = self.inner[s]
        k = len(seq) - 1
        lo, hi = -p, N + 1 - p
        i = min(reach.get(lo, k + 1), reach.get(hi, k + 1))
        if i > k:
            if not c:
                return None, None, None
            # Every later index is a cycle index j plus whole laps, and each
            # lap moves the head by c towards the one endmarker it can reach.
            end = hi if c > 0 else lo
            j = exits[end % c]
            i = j - (lam[j] - end) // c * (k - ell)
        return (i, *self.after(s, p, i))

    def walk(self, s, p, t, N):
        """The walk from (s, p) at time t on a^N, hop by hop.

        Returns (marks, end).  ``marks`` holds the configuration (time,
        state, position) at every endmarker visit and at the start of every
        hop; :meth:`at` rebuilds the ones in between.  ``end`` says how the
        walk goes on after its last mark:

        - ``("cycle", t0, t1)``: the endmarker visit at t1 repeats the
          (state, side) of the one at t0, so the walk repeats with period
          t1 - t0 forever;
        - ``("trap",)``: the head never reaches an endmarker again.
        """
        marks = []
        seen = {}
        right = N + 1
        while True:
            if 0 < p < right:
                marks.append((t, s, p))
                T, s, p = self.hop(s, p, N)
                if T is None:
                    return marks, ("trap",)
                t += T
                continue
            if (s, p) in seen:
                return marks, ("cycle", seen[s, p], t)
            seen[s, p] = t
            marks.append((t, s, p))
            s, d = self.ends[s][p == right]
            p += d
            t += 1

    def at(self, marks, end, u):
        """The (state, position) at time u of a walk from :meth:`walk`; u
        is at or after its first mark."""
        if end[0] == "cycle" and u >= end[1]:
            u = end[1] + (u - end[1]) % (end[2] - end[1])
        t, s, p = marks[bisect_right(marks, u, key=_time) - 1]
        return self.after(s, p, u - t) if u > t else (s, p)

    def first_accepting(self, marks, N):
        """The index in ``marks``, those of a walk on a^N (:meth:`walk`),
        of the walk's first accepting visit, a final state on the right
        endmarker, or None when it makes none.

        The head arrives on an endmarker only at a mark, and the marks hold
        every endmarker visit up to the first repeated one, after which the
        walk only repeats them, so the first such mark is the first such
        visit."""
        right, final = N + 1, self.final
        return next((j for j, (_, s, p) in enumerate(marks) if p == right and final[s]), None)

    def loud_indices(self, s):
        """The indices i of the basic sequence of s, extended lap by lap,
        whose state broadcasts, in increasing order; endless when a state
        of the cycle broadcasts."""
        seq, _, ell = self.inner[s][:3]
        lap = len(seq) - 1 - ell
        yield from (i for i in range(ell) if self.loud[seq[i]])
        cycle = [j for j in range(ell, ell + lap) if self.loud[seq[j]]]
        for base in itertools.count(0, lap) if cycle else ():
            yield from (base + j for j in cycle)


def settled_from(f, g):
    """The least q >= 0 from which f(q) < g(q) for every later q, where f
    and g are affine in q, given as (slope, intercept) with f < g at
    infinity: a smaller slope, or the same slope and a smaller intercept."""
    d = g[0] - f[0]
    return max(0, (f[1] - g[1]) // d + 1) if d else 0


def _minus(f, g):
    return f[0] - g[0], f[1] - g[1]


class AffineWalk:
    """One automaton's walk from its initial configuration on the lengths
    N = r + P·q, q >= 0, with r >= N_min and P a multiple of every net
    cycle displacement of the automaton: its marks (:meth:`Hops.walk`)
    with their times as affine functions (slope, intercept) of q.

    Every launch keeps its kind for N >= N_min (:func:`takeoff`), and a
    Return or a trap is the same on every such N.  A traversal with cycle
    displacement c and lap length L reaches the far endmarker at the
    first index of the basic sequence at which the head is N cells on
    (:meth:`Hops.hop`).  That index is a cycle index j that depends on
    N mod |c| alone, plus ceil((N - d_j)/|c|) laps of L steps, d_j the
    displacement at j towards the far endmarker, so
    the arrival state is the same on every N of the class and the
    duration is affine in q, |c| dividing P.  So the marks' states and
    sides, and the way the walk ends, are the same for every q, and each
    mark time is a sum of affine durations; the walks on N = r and
    N = r + P give the two coefficients.

    With P = 0 it is the walk on the one length N = r, which may then be
    any length: every time is (0, t) and every q_0 is 0.

    ``walk`` is the walk on N = r (``r``) as :meth:`Hops.walk` gives it,
    for :meth:`Hops.at`.  ``marks`` holds (time, state, side) with side "L",
    "R", or None at the start of a hop inside the tape.  ``cycle`` is None
    for a walk that ends trapped in its last hop, else (e, period): the
    marks from index e on repeat every ``period`` steps, a constant one
    when the repeated stretch crosses the tape nowhere.
    """

    def __init__(self, hops, s, r, P):
        self.hops = hops
        self.r = r
        m0, end0 = self.walk = hops.walk(s, 0, 0, r)
        m1, end1 = hops.walk(s, 0, 0, r + P) if P else self.walk
        self.marks = [
            ((t1 - t0, t0), s, "L" if p == 0 else "R" if p == r + 1 else None)
            for (t0, s, p), (t1, _, _) in zip(m0, m1)
        ]
        self.cycle = None
        if end0[0] == "cycle":
            e = next(j for j, (t, _, _) in enumerate(m0) if t == end0[1])
            per0, per1 = end0[2] - end0[1], end1[2] - end1[1]
            self.cycle = e, (per1 - per0, per0)

    def mark(self, j):
        """The j-th mark of the walk, unrolled through its cycle; None past
        the last hop of a trapped walk."""
        if j < len(self.marks):
            return self.marks[j]
        if self.cycle is None:
            return None
        e, per = self.cycle
        laps, i = divmod(j - e, len(self.marks) - e)
        t, s, side = self.marks[e + i]
        return (t[0] + laps * per[0], t[1] + laps * per[1]), s, side

    def first_acceptance(self):
        """The time of the walk's first accepting visit, or None when it
        makes none: the same mark on every q (:meth:`Hops.first_accepting`
        finds it on N = r), since every q has the same marks."""
        j = self.hops.first_accepting(self.walk[0], self.r)
        return None if j is None else self.marks[j][0]

    def loud_times(self):
        """The times at which the automaton broadcasts, in increasing order
        at large q, each as (time, q_0): from q_0 on the time is a real one
        of the walk.  A hop that crosses the tape lasts longer the larger
        q is, and it holds a broadcast at index i from the q on which it
        lasts more than i steps.  Endless when a state that the walk keeps
        coming back to broadcasts; it stops after a lap of the walk's cycle
        without a broadcast, since every later lap repeats it."""
        hops, j, found, lap_start = self.hops, 0, 0, None
        while (m := self.mark(j)) is not None:
            if self.cycle is not None and j >= self.cycle[0]:
                if (j - self.cycle[0]) % (len(self.marks) - self.cycle[0]) == 0:
                    if lap_start == found:
                        return
                    lap_start = found
            t, s, side = m
            if side is not None:
                if hops.loud[s]:
                    found += 1
                    yield t, 0
            else:
                nxt = self.mark(j + 1)
                span = None if nxt is None else _minus(nxt[0], t)
                for i in hops.loud_indices(s):
                    if span is not None and not span[0] and i >= span[1]:
                        break
                    found += 1
                    yield (t[0], t[1] + i), 0 if span is None else settled_from((0, i), span)
            j += 1

    def settles(self, t):
        """(q_0, period) for the automaton's configuration at time t, affine
        in q and at or after its first mark: from q_0 on, which endmarker
        the head is on, if any, and its state are the same at q and at
        q + period.

        The time falls into one hop or onto one mark for good, once it is
        past the mark before it and short of the one after.  Inside a hop
        at index u, the state from the loop entry l on is the cycle state
        at (u - l) mod L, L the lap length, and with slope x the index comes
        back to each residue every L/gcd(x, L) values of q.  A repeated
        stretch of constant period Pi that crosses the tape nowhere is
        handled the same way, by the residue of the time since its start
        modulo Pi."""
        if self.cycle is not None and not self.cycle[1][0]:
            e, (_, lap) = self.cycle
            u = _minus(t, self.marks[e][0])
            if u >= (0, 0):
                if u[0]:
                    return settled_from((0, -1), u), lap // gcd(u[0], lap)
                t = (t[0], t[1] - u[1] // lap * lap)
        j = 0
        while (m := self.mark(j + 1)) is not None and m[0] <= t:
            j += 1
        tj, s, _ = self.mark(j)
        q0 = settled_from((tj[0], tj[1] - 1), t)
        if m is not None:
            q0 = max(q0, settled_from(t, m[0]))
        u = _minus(t, tj)
        if not u[0]:
            return q0, 1
        seq, _, ell = self.hops.inner[s][:3]
        lap = len(seq) - 1 - ell
        return max(q0, settled_from((0, ell - 1), u)), lap // gcd(u[0], lap)


def first_broadcasts(walks, m):
    """The first m broadcasting times of the run whose automata walk
    ``walks`` (:class:`AffineWalk`, one per automaton, on the same
    lengths), in their order at large q.

    Messages never change a transition, so each automaton broadcasts at the
    times of its own walk (:meth:`AffineWalk.loud_times`), and the run at
    each time at which some automaton does; the automata that broadcast at
    the same time share one message.  Returns (events, heads): ``events``
    holds (t, fired, q_0) per broadcast, fired the automata that broadcast
    at t and q_0 the least q from which each of their times at t is real;
    ``heads`` holds each walk's next (time, q_0), or None where it
    broadcasts no more.  There are fewer than m events only when every
    stream ends first."""
    streams = [w.loud_times() for w in walks]
    heads = [next(g, None) for g in streams]
    events = []
    while len(events) < m and any(heads):
        t = min(h[0] for h in heads if h)
        fired = [i for i, h in enumerate(heads) if h and h[0] == t]
        events.append((t, fired, max(heads[i][1] for i in fired)))
        for i in fired:
            heads[i] = next(streams[i], None)
    return events, heads


@dataclass(frozen=True)
class Return:
    """The head comes back to the starting endmarker in ``state`` after T steps."""

    state: str
    T: int


@dataclass(frozen=True)
class Oscillate:
    """The head gets trapped strictly inside the tape.

    The configuration at time T1 (position p) recurs every T2 steps and
    neither endmarker is ever touched again.
    """

    p: int
    T1: int
    T2: int


@dataclass(frozen=True)
class Traverse:
    """The head crosses over and reaches the opposite endmarker in ``state``
    after T steps."""

    state: str
    T: int


def takeoff(automaton: Automaton, state: str, end: str, N: int):
    """Classify the launch leaving ``end`` ("L" or "R") in ``state`` on a^N.

    Requires N >= the sufficient input length of the automaton, so the
    kind of outcome is independent of N, and so is the whole of a Return;
    Oscillate.p and the fields of Traverse may depend on N.  Returns Return,
    Oscillate or Traverse.

    The launch is read off the automaton's :class:`Hops`: one endmarker
    step, then at most one :meth:`Hops.hop`.  One hop is enough.  A stay
    returns at once; any other endmarker move points inward and, since
    N >= 1, lands inside the tape, and the launch ends at its first
    endmarker contact, which is the hop's arrival.  A hop without arrival
    has cycle displacement 0: the configurations at basic-sequence indices
    0 .. k - 1 differ in state, and index k repeats the position and state
    of the loop entry l, so the launch oscillates from time 1 + l with
    period k - l.
    """
    if end not in ("L", "R"):
        raise ValueError(f"end must be 'L' or 'R', got {end!r}")
    hops = automaton.hops
    if N < hops.nmin:
        raise InputTooShort(f"N={N} below sufficient length {hops.nmin}")
    right = end == "R"
    s, d = hops.ends[hops.index[state]][right]
    if not d:
        return Return(state=hops.names[s], T=1)
    p = (N + 1 if right else 0) + d
    T, s2, p2 = hops.hop(s, p, N)
    if T is None:
        seq, lam, ell = hops.inner[s][:3]
        return Oscillate(p=p + lam[ell], T1=1 + ell, T2=len(seq) - 1 - ell)
    landed = Return if (p2 > N) == right else Traverse
    return landed(state=hops.names[s2], T=1 + T)


def min_sufficient_length(system) -> int:
    """Smallest N strictly above every state amplitude in the system (one
    automaton's own is :attr:`Hops.nmin`)."""
    return max(aut.hops.nmin for aut in system.automata)
