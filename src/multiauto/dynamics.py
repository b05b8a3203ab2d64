"""Single-automaton trajectory analysis away from the endmarkers.

Inside the tape every step reads the same unary letter, so the state
sequence from any state is eventually periodic ("basic sequence") and the
head displacement is a fixed profile over that sequence.  Everything the
formula construction needs about one automaton -- net cycle displacement,
amplitude, take-off behaviour after leaving an endmarker, traversal slope --
is derived here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Automaton

__all__ = [
    "BasicSequenceProfile",
    "Return",
    "Oscillate",
    "Traverse",
    "FallOff",
    "InputTooShort",
    "basic_sequence",
    "takeoff",
    "min_sufficient_length",
    "traversal_slope",
]


class InputTooShort(Exception):
    """Take-off classification requested below the sufficient input length."""


@dataclass(frozen=True)
class BasicSequenceProfile:
    """The eventually periodic inner-letter trajectory of one state.

    ``sequence`` lists states s_0 .. s_k where s_k = s_{loop_entry} is the
    first repeat; ``lambdas[i]`` is the head displacement after i inner
    steps.  The cycle s_{loop_entry} .. s_{k-1} has length ``cycle_length``
    and net displacement ``net_cycle_displacement``; ``amplitude`` is the
    total sweep max(lambdas) - min(lambdas) over the whole sequence.
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
    def cycle_length(self) -> int:
        return self.k - self.loop_entry

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


@dataclass(frozen=True)
class FallOff:
    """The head leaves the tape at step T (an ill-designed automaton)."""

    T: int


def takeoff(automaton: Automaton, state: str, end: str, N: int):
    """Classify the trajectory leaving ``end`` ("L" or "R") in ``state`` on a^N.

    Requires N >= the sufficient input length of the automaton, so the
    kind of outcome is independent of N, and so is the whole of a Return;
    Oscillate.p and the fields of Traverse may depend on N.  Returns Return,
    Oscillate, Traverse or FallOff.
    """
    if end not in ("L", "R"):
        raise ValueError(f"end must be 'L' or 'R', got {end!r}")
    nmin = min_sufficient_length(automaton)
    if N < nmin:
        raise InputTooShort(f"N={N} below sufficient length {nmin}")
    start_pos = 0 if end == "L" else N + 1
    far_pos = N + 1 if end == "L" else 0
    s, p, t = state, start_pos, 0
    seen: dict = {}
    while True:
        if p == 0:
            s, mv = automaton.delta_left[s]
        elif p == N + 1:
            s, mv = automaton.delta_right[s]
        else:
            key = (s, p)
            if key in seen:
                t1 = seen[key]
                return Oscillate(p=p, T1=t1, T2=t - t1)
            seen[key] = t
            s, mv = automaton.delta_inner[s]
        p += mv
        t += 1
        if p == start_pos:
            return Return(state=s, T=t)
        if p == far_pos:
            return Traverse(state=s, T=t)
        if p < 0 or p > N + 1:
            return FallOff(T=t)


def min_sufficient_length(system) -> int:
    """Smallest N strictly above every state amplitude in the system."""
    automata = system.automata if hasattr(system, "automata") else (system,)
    return 1 + max(
        basic_sequence(aut, s).amplitude for aut in automata for s in aut.states
    )


def traversal_slope(automaton: Automaton) -> int:
    """G with every inner traversal from an endmarker taking <= G*N + G steps.

    For a drifting state the head needs at most ceil(k/|c|) cycles per net
    unit of progress, each of length <= k; states with motionless cycles
    never traverse.  Returns 0 when no state drifts.
    """
    best = 0
    for s in sorted(automaton.states):
        prof = basic_sequence(automaton, s)
        c = prof.net_cycle_displacement
        if c != 0:
            k = prof.k
            best = max(best, -(-k // abs(c)) * k)
    return best
