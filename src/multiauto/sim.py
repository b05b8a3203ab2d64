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
    "NoStopWithinBudget",
    "global_step",
    "run",
    "accepts",
    "segment_run",
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
        raise HeadFellOff(f"{aut.name}: head moved to {q} on a tape of length {N}")
    return nxt, q


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
        s, p = _step_one(automaton, s, p, N)
        if s in stop_states or p == 0 or p == N + 1:
            return s, p, t
    raise NoStopWithinBudget(f"no stop within {budget} steps from ({state}, {pos})")


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
