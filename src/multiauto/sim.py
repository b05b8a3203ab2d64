"""Ground-truth step simulator for multiautomaton systems on a^N.

The tape is {0..N+1} with endmarkers at 0 and N+1.  All automata step
simultaneously; any subset of them sitting in broadcasting states emits one
message for the whole step, counted against the message bound.  The system
accepts when automaton 1 is in a final state scanning the right endmarker.
Validation keeps every head on the tape (an endmarker move never points
outward), so a step needs no bounds check.  Every simulation either
accepts or revisits a global configuration, so runs always terminate.

:func:`run` takes every step.  :func:`accepts` walks automaton 1 alone,
and :func:`broadcast_events`, the phase pipeline's sampling kernel,
merges each automaton's broadcasting times from its own walk and steps
only at them, through :func:`global_step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import AffineWalk, first_broadcasts
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
    marks, _ = hops.walk(hops.index[aut.initial], 0, 0, N)
    return any(p == N + 1 and hops.names[s] in aut.finals for _, s, p in marks)


def broadcast_events(system: MultiSystem, N: int) -> tuple:
    """Broadcast events of the run on a^N: ``(t, broadcaster_indices,
    config)`` triples, where the step leaving ``config`` at time t emitted
    the message.  The run stops once the message bound is spent or once no
    automaton will ever be in a broadcasting state again.

    Messages never change a transition, so each automaton walks alone and
    deterministically from time 0, whatever the others broadcast.  Its
    walk on the one length N (:class:`dynamics.AffineWalk` with period 0)
    goes from endmarker visit to endmarker visit in closed form and lists
    its broadcasting times in order (:meth:`~dynamics.AffineWalk.loud_times`);
    no quiet step is taken one at a time.  The run's broadcasting times are
    the first ``message_bound`` of these streams merged
    (:func:`dynamics.first_broadcasts`, the merge that the phase pipeline's
    sample window is derived from).  At each of them every automaton's
    configuration is rebuilt from its walk (:meth:`dynamics.Hops.at`), and
    the broadcasting step is taken by :func:`global_step`, the one place
    that applies the message rules.

    The stop is exact: each stream lists every broadcasting time of its
    walk and ends only once the walk broadcasts no more.  A walk that ends
    in a cycle of endmarker visits repeats each lap of it forever, so after
    a lap without a broadcast it has none left; one that ends trapped
    inside the tape stays in its last hop, whose broadcasting indices the
    stream lists, without end when a state of the hop's cycle broadcasts.
    So the run stops at its ``message_bound``-th event, or once every
    stream has ended, when it has no event left.
    """
    hops = [a.hops for a in system.automata]
    walks = [AffineWalk(h, h.index[a.initial], N, 0) for h, a in zip(hops, system.automata)]
    used = 0
    events = []
    for (_, t), _, _ in first_broadcasts(walks, system.message_bound)[0]:
        states, pi = zip(*[h.at(*w.walk, t) for h, w in zip(hops, walks)])
        sigma = tuple([h.names[s] for h, s in zip(hops, states)])
        config = GlobalConfiguration(sigma, pi, used)
        after, broadcasters = global_step(system, config, N)
        events.append((t, broadcasters, config))
        used = after.messages_used
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
