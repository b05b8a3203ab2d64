"""Ground-truth step simulator for multiautomaton systems on a^N.

The tape is {0..N+1} with endmarkers at 0 and N+1.  All automata step
simultaneously; any subset of them sitting in broadcasting states emits one
message for the whole step, counted against the message bound.  The system
accepts when automaton 1 is in a final state scanning the right endmarker.
Every simulation either accepts or revisits a global configuration, so runs
always terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import MultiSystem, validate_system

__all__ = [
    "GlobalConfiguration",
    "Accepted",
    "RejectedLoop",
    "RejectedDead",
    "Trace",
    "HeadFellOff",
    "global_step",
    "broadcast_events",
    "solo_positions",
    "run",
    "accepts",
    "trace_log",
]


class HeadFellOff(Exception):
    """A transition moved a head outside {0..N+1}: the automaton is ill-designed."""


@dataclass(frozen=True)
class GlobalConfiguration:
    """States and head positions of all automata plus messages spent so far."""

    sigma: tuple
    pi: tuple
    messages_used: int


@dataclass(frozen=True)
class Accepted:
    time: int


@dataclass(frozen=True)
class RejectedLoop:
    time: int


@dataclass(frozen=True)
class RejectedDead:
    time: int


@dataclass
class Trace:
    """A full run: the configuration at each step plus broadcast events.

    ``broadcasts`` holds ``(t, broadcaster_indices, sigma)`` triples -- the
    message was emitted during the step leaving the configuration at time t,
    whose global state was ``sigma``.
    """

    input_length: int
    steps: list = field(default_factory=list)
    broadcasts: list = field(default_factory=list)
    outcome: object = None


def _step_one(aut, s, p, N):
    if p == 0:
        nxt, mv = aut.delta_left[s]
    elif p == N + 1:
        nxt, mv = aut.delta_right[s]
    else:
        nxt, mv = aut.delta_inner[s]
    q = p + mv
    if q < 0 or q > N + 1:
        raise _fell_off(aut, q, N)
    return nxt, q


def _fell_off(aut, q, N):
    return HeadFellOff(f"{aut.name}: head moved to {q} on a tape of length {N}")


def global_step(system: MultiSystem, config: GlobalConfiguration, N: int):
    """One synchronous step; returns (next_config, broadcaster_indices).

    Broadcasts only count while the message bound has not been exhausted;
    simultaneous broadcasters share a single message.
    """
    broadcasters = frozenset(
        i
        for i, aut in enumerate(system.automata)
        if config.sigma[i] in aut.broadcasting
    )
    if config.messages_used >= system.message_bound:
        broadcasters = frozenset()
    used = config.messages_used + (1 if broadcasters else 0)
    sigma, pi = [], []
    for i, aut in enumerate(system.automata):
        s, p = _step_one(aut, config.sigma[i], config.pi[i], N)
        sigma.append(s)
        pi.append(p)
    return GlobalConfiguration(tuple(sigma), tuple(pi), used), broadcasters


def _is_accepting(system, config, N):
    return config.sigma[0] in system.automata[0].finals and config.pi[0] == N + 1


def run(system: MultiSystem, N: int) -> Trace:
    """Simulate from the initial configuration until acceptance or a loop."""
    system = validate_system(system)
    config = GlobalConfiguration(
        tuple(a.initial for a in system.automata),
        tuple(0 for _ in system.automata),
        0,
    )
    trace = Trace(input_length=N)
    seen = set()
    t = 0
    while True:
        trace.steps.append(config)
        if _is_accepting(system, config, N):
            trace.outcome = Accepted(time=t)
            return trace
        if config in seen:
            trace.outcome = RejectedLoop(time=t)
            return trace
        seen.add(config)
        nxt, broadcasters = global_step(system, config, N)
        if broadcasters:
            trace.broadcasts.append((t, broadcasters, config.sigma))
        config = nxt
        t += 1


def accepts(system: MultiSystem, N: int) -> bool:
    """Whether a^N is accepted.

    Messages never alter transitions, so acceptance is decided by automaton
    1's own trajectory; simulating it alone with (state, position) loop
    detection is equivalent to the full run and much cheaper.
    """
    system = validate_system(system)
    aut = system.automata[0]
    s, p = aut.initial, 0
    seen = set()
    while True:
        if s in aut.finals and p == N + 1:
            return True
        if (s, p) in seen:
            return False
        seen.add((s, p))
        s, p = _step_one(aut, s, p, N)


def _int_tables(aut):
    """One automaton's transitions on ints: (names, index, nxt, move, loud).

    States are numbered in iteration order.  Entry 3*s + k of ``nxt`` and
    ``move`` is state s's transition on the left endmarker (k = 0), on an
    inner cell (k = 1) or on the right endmarker (k = 2); ``loud[s]`` says
    whether s broadcasts.
    """
    names = list(aut.states)
    index = {s: i for i, s in enumerate(names)}
    nxt, move = [], []
    for s in names:
        for table in (aut.delta_left, aut.delta_inner, aut.delta_right):
            q, d = table[s]
            nxt.append(index[q])
            move.append(d)
    return names, index, nxt, move, [s in aut.broadcasting for s in names]


def broadcast_events(system: MultiSystem, N: int) -> tuple:
    """Broadcast events of the run on a^N: ``(t, broadcaster_indices,
    config)`` triples, where the step leaving ``config`` at time t emitted
    the message.  The run stops once the message bound is spent or after
    more than ``patience = (N + 2) * q + 2`` quiet steps in a row, q being
    the largest state count; a quiet step is one where no automaton is in
    a broadcasting state.

    The patience stop is exact, not a heuristic.  Messages never change a
    transition, so in a quiet stretch each automaton walks alone and
    deterministically.  It has at most (N + 2) * q distinct (state,
    position) pairs, and once its walk repeats a pair it repeats forever.
    So if it will ever be in a broadcasting state again, or fall off the
    tape, that happens within (N + 2) * q steps of the last broadcast (or
    of the start); after ``patience`` quiet steps no automaton can do
    either.

    Quiet steps run on plain int lists (see :func:`_int_tables`): they
    build no configuration or broadcaster set and make no
    :func:`_step_one` call.  Each broadcasting configuration is built as a
    GlobalConfiguration and stepped by :func:`global_step`, the one place
    that applies the message rules.  HeadFellOff is raised at the step
    where a head leaves the tape, with :func:`_step_one`'s message.
    """
    automata = system.automata
    ids = range(len(automata))
    names, index, nxt, move, loud = zip(*map(_int_tables, automata))
    end = N + 1
    patience = (N + 2) * max(len(a.states) for a in automata) + 2
    state = [index[i][a.initial] for i, a in enumerate(automata)]
    pos = [0] * len(automata)
    used = 0
    events = []
    quiet = 0
    t = 0
    noisy = any(loud[i][state[i]] for i in ids)
    while used < system.message_bound and quiet <= patience:
        if noisy:
            config = GlobalConfiguration(
                tuple(names[i][state[i]] for i in ids), tuple(pos), used
            )
            after, broadcasters = global_step(system, config, N)
            events.append((t, broadcasters, config))
            quiet = 0
            used = after.messages_used
            state = [index[i][s] for i, s in enumerate(after.sigma)]
            pos = list(after.pi)
            noisy = any(loud[i][state[i]] for i in ids)
        else:
            quiet += 1
            for i in ids:
                p = pos[i]
                k = 3 * state[i] + (0 if p == 0 else 2 if p == end else 1)
                p += move[i][k]
                if p < 0 or p > end:
                    raise _fell_off(automata[i], p, N)
                s = state[i] = nxt[i][k]
                pos[i] = p
                noisy = noisy or loud[i][s]
        t += 1
    return tuple(events)


def solo_positions(aut, N: int, steps: int) -> list:
    """Head positions of ``aut`` running alone from its initial
    configuration at times 1..steps, stepped on the int tables; raises
    HeadFellOff as :func:`_step_one` would."""
    _, index, nxt, move, _ = _int_tables(aut)
    end = N + 1
    s, p = index[aut.initial], 0
    out = []
    for _ in range(steps):
        k = 3 * s + (0 if p == 0 else 2 if p == end else 1)
        p += move[k]
        if p < 0 or p > end:
            raise _fell_off(aut, p, N)
        s = nxt[k]
        out.append(p)
    return out


def trace_log(trace: Trace) -> str:
    """Deterministic text log, one line per configuration."""
    lines = []
    bcast = {t: idxs for t, idxs, _sigma in trace.broadcasts}
    for t, cfg in enumerate(trace.steps):
        mark = ""
        if t in bcast:
            mark = " B=" + ",".join(str(i + 1) for i in sorted(bcast[t]))
        lines.append(
            "t=%d sigma=%s pi=%s m=%d%s"
            % (t, ",".join(cfg.sigma), ",".join(map(str, cfg.pi)), cfg.messages_used, mark)
        )
    out = trace.outcome
    name = type(out).__name__ if out is not None else "Unknown"
    t = getattr(out, "time", "?")
    lines.append(f"outcome={name} t={t} N={trace.input_length}")
    return "\n".join(lines) + "\n"
