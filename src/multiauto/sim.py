"""Ground-truth step simulator for multiautomaton systems on a^N.

The tape is {0..N+1} with endmarkers at 0 and N+1.  All automata step
simultaneously; any subset of them sitting in broadcasting states emits one
message for the whole step, counted against the message bound.  The system
accepts when automaton 1 is in a final state scanning the right endmarker.
Validation keeps every head on the tape (an endmarker move never points
outward), so a step needs no bounds check.  Every simulation either
accepts or revisits a global configuration, so runs always terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import MultiSystem, validate_system

__all__ = [
    "GlobalConfiguration",
    "Accepted",
    "RejectedLoop",
    "Trace",
    "global_step",
    "broadcast_events",
    "run",
    "accepts",
    "trace_log",
]


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
    return nxt, p + mv


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
    1's own trajectory, walked alone.  The walk goes from endmarker visit to
    endmarker visit in closed form (:meth:`dynamics.Hops.walk`), and every
    arrival on the right endmarker is such a visit, so a^N is accepted iff
    one of the visits before the walk ends sits on N + 1 in a final state.
    The walk ends in a cycle of endmarker visits or in a trap inside the
    tape; both reject, since nothing new is visited.  The cost is a few
    operations per endmarker visit, not one per step.
    """
    system = validate_system(system)
    aut = system.automata[0]
    hops = aut.hops
    marks, _ = hops.walk(hops.index[aut.initial], 0, 0, N, False)
    return any(p == N + 1 and hops.names[s] in aut.finals for _, s, p in marks)


def broadcast_events(system: MultiSystem, N: int) -> tuple:
    """Broadcast events of the run on a^N: ``(t, broadcaster_indices,
    config)`` triples, where the step leaving ``config`` at time t emitted
    the message.  The run stops once the message bound is spent or once no
    automaton will ever be in a broadcasting state again.

    Messages never change a transition, so each automaton walks alone and
    deterministically, whatever the others broadcast.  Its walk
    (:meth:`dynamics.Hops.walk`) starts at time 0 or right after its own
    broadcasting step and goes from endmarker visit to endmarker visit in
    closed form, up to its next broadcasting state; no quiet step is taken
    one at a time.  A quiet stretch ends at the earliest of these states.
    Every automaton's configuration at that time is rebuilt from its walk,
    and the broadcasting step is taken by :func:`global_step`, the one
    place that applies the message rules.

    The stop is exact.  An automaton has settled when its walk repeats an
    endmarker (state, side), or when it is trapped: a lap of its basic
    sequence stays inside the tape with cycle displacement 0 and no state
    of the sequence broadcasts.  A settled walk repeats forever what it did
    since the first visit of the repeated pair (or since the trapped lap
    began), and none of that broadcast, so it admits no later broadcast.
    Once every automaton has settled the run has no event left.  No
    patience cap remains: each stretch ends in a message or in the settled
    stop, so the run takes at most ``message_bound`` stretches.
    """
    automata = system.automata
    hops = [a.hops for a in automata]
    walks = [None] * len(automata)
    starts = [(i, h.index[a.initial], 0) for i, (h, a) in enumerate(zip(hops, automata))]
    t = -1
    used = 0
    events = []
    while used < system.message_bound:
        # Walks start at t + 1 = 0, and after that only the broadcasters'
        # walks end at t; every other walk runs past t or has settled.
        for i, s, p in starts:
            walks[i] = hops[i].walk(s, p, t + 1, N, True)
        t = min((end[1] for _, end in walks if end[0] == "loud"), default=None)
        if t is None:
            break
        states, pi = zip(*[h.at(marks, end, t) for h, (marks, end) in zip(hops, walks)])
        sigma = tuple([h.names[s] for h, s in zip(hops, states)])
        config = GlobalConfiguration(sigma, pi, used)
        after, broadcasters = global_step(system, config, N)
        events.append((t, broadcasters, config))
        used = after.messages_used
        starts = [(i, hops[i].index[after.sigma[i]], after.pi[i]) for i in broadcasters]
    return tuple(events)


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
