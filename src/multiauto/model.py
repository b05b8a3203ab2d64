"""Data model of individual two-way unary automata and multiautomaton systems.

State identifiers are strings namespaced per automaton (``"A1.q0"``), so
disjointness across the system is a purely syntactic check.  The transition
function is split into three total maps: one for the unary inner letter and
one per endmarker.  A move from an endmarker never leaves the tape: the left
endmarker allows 0 and +1, the right one 0 and -1, so every head stays on
{0..N+1} on every input.  All types are immutable after validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "Automaton",
    "MultiSystem",
    "BoundsProfile",
    "ValidationError",
    "MissingTransition",
    "DuplicateStateId",
    "BadMove",
    "BadBound",
    "validate_system",
    "bounds_profile",
]

# The head moves allowed on each symbol: an endmarker move keeps the head on
# the tape.
MOVES = {"a": (-1, 0, 1), "L": (0, 1), "R": (-1, 0)}


class ValidationError(Exception):
    """A system description violates the model invariants."""


class MissingTransition(ValidationError):
    """A (state, symbol) pair has no transition."""


class DuplicateStateId(ValidationError):
    """A state identifier is reused across automata."""


class BadMove(ValidationError):
    """A head move outside {-1, 0, +1}, or one off the tape from an endmarker."""


class BadBound(ValidationError):
    """Message bound below 1."""


@dataclass(frozen=True)
class Automaton:
    """One complete deterministic two-way unary automaton.

    ``delta_inner`` drives the head on the unary letter, ``delta_left`` and
    ``delta_right`` on the left and right endmarkers.  Each maps every state
    to a single ``(next_state, move)`` pair.
    """

    name: str
    states: frozenset
    initial: str
    finals: frozenset
    broadcasting: frozenset
    delta_inner: dict
    delta_left: dict
    delta_right: dict

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        # The generated dataclass hash chokes on the dict fields; hash a
        # canonical tuple instead so automata can key caches.  Computed once:
        # an automaton is not changed after validation.
        return hash(
            (
                self.name,
                self.states,
                self.initial,
                self.finals,
                self.broadcasting,
                tuple(sorted(self.delta_inner.items())),
                tuple(sorted(self.delta_left.items())),
                tuple(sorted(self.delta_right.items())),
            )
        )

    @cached_property
    def hops(self):
        """The automaton's closed-form walk (:class:`dynamics.Hops`), built
        on first use."""
        from .dynamics import Hops

        return Hops(self)

    def validate(self) -> "Automaton":
        if self.initial not in self.states:
            raise ValidationError(f"{self.name}: initial state {self.initial!r} unknown")
        if not self.finals <= self.states:
            raise ValidationError(f"{self.name}: final states not a subset of states")
        if not self.broadcasting <= self.states:
            raise ValidationError(f"{self.name}: broadcasting states not a subset")
        for label, table in (
            ("a", self.delta_inner),
            ("L", self.delta_left),
            ("R", self.delta_right),
        ):
            for s in sorted(self.states):
                if s not in table:
                    raise MissingTransition(f"{self.name}: no transition for ({s}, {label})")
                nxt, mv = table[s]
                if nxt not in self.states:
                    raise ValidationError(
                        f"{self.name}: transition ({s}, {label}) targets unknown state {nxt!r}"
                    )
                if mv not in MOVES[label]:
                    raise BadMove(f"{self.name}: move {mv!r} for ({s}, {label})")
            for s in table:
                if s not in self.states:
                    raise ValidationError(f"{self.name}: transition from unknown state {s!r}")
        return self


@dataclass(frozen=True)
class MultiSystem:
    """An ordered tuple of automata plus the message bound M; automaton 1
    is the acceptor."""

    automata: tuple
    message_bound: int

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.automata, self.message_bound))

    @property
    def n(self) -> int:
        return len(self.automata)

    def validate(self) -> "MultiSystem":
        """Check the model invariants, once per instance: a system is not
        changed after validation, so a repeated call returns at once."""
        self._checked
        return self

    @cached_property
    def _checked(self) -> bool:
        if self.n < 1:
            raise ValidationError("a system needs at least one automaton")
        if self.message_bound < 1:
            raise BadBound(f"message bound must be >= 1, got {self.message_bound}")
        seen: dict = {}
        for aut in self.automata:
            aut.validate()
            for s in sorted(aut.states):
                if s in seen:
                    raise DuplicateStateId(
                        f"state id {s!r} appears in both {seen[s]} and {aut.name}"
                    )
                seen[s] = aut.name
        return True


@dataclass(frozen=True)
class BoundsProfile:
    """Constants of the silent-phase analysis.

    K is twice the largest state count: the number of endmarker (state,
    side) pairs of the largest automaton.  A walk visits no pair twice
    before its first broadcast or its first accepting visit, so it makes
    at most K endmarker visits before either.  Inside a phase that ends at
    a broadcast, which lasts fewer than (K/2)(N + 2) steps, every automaton
    makes fewer than K traversals; ``construction._run_caps`` gives the
    argument.  K caps no traversal count in the last phase, which no
    broadcast ends: once the message bound is spent, a sweeper crosses the
    tape without end.

    N_min is the largest state amplitude, which ``analyze`` prints; inputs
    must be strictly longer to be "sufficiently large".  Elsewhere N_min
    names that sufficient length, one more (``dynamics.Hops.nmin``,
    :func:`dynamics.min_sufficient_length`).  G bounds the per-length
    slope of a traversal's duration: on a^N with N > N_min a traversal
    launched from an endmarker takes at most G*N + G steps, so the
    traversals of one automaton inside a phase that ends at a broadcast
    take at most G*K*(N + 1) steps together.
    """

    K: int
    G: int
    N_min: int


def _is_int(x) -> bool:
    """An integer of a spec: JSON ``true`` and ``false`` are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _listed(value, kind, what: str):
    """``value`` if it is a list of ``kind`` (str or dict) items, else a
    ValidationError saying that ``what`` must be one."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, kind) for x in value):
        noun = "strings" if kind is str else "objects"
        raise ValidationError(f"{what} must be a list of {noun}, got {value!r}")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def _automaton_from_raw(raw: dict) -> Automaton:
    known = {"name", "states", "initial", "finals", "broadcasting", "delta"}
    extra = set(raw) - known
    if extra:
        raise ValidationError(f"unknown automaton fields: {sorted(extra)}")
    name = _string(raw.get("name", "A"), "automaton name")
    states, finals, broadcasting = (
        frozenset(_listed(raw.get(field, ()), str, f"{name}: {field}"))
        for field in ("states", "finals", "broadcasting")
    )
    tables: dict = {"a": {}, "L": {}, "R": {}}
    for entry in _listed(raw.get("delta", ()), dict, f"{name}: delta"):
        extra = set(entry) - {"state", "symbol", "next", "move"}
        if extra:
            raise ValidationError(f"{name}: unknown delta fields: {sorted(extra)}")
        sym = entry.get("symbol")
        if not isinstance(sym, str) or sym not in tables:
            raise ValidationError(f"{name}: unknown symbol {sym!r} (expected a, L or R)")
        mv = entry.get("move")
        if not _is_int(mv) or mv not in MOVES[sym]:
            raise BadMove(f"{name}: move {mv!r} for ({entry.get('state')}, {sym})")
        state = _string(entry.get("state"), f"{name}: a delta state")
        if state in tables[sym]:
            raise ValidationError(f"{name}: two delta entries for ({state}, {sym})")
        tables[sym][state] = (_string(entry.get("next"), f"{name}: a delta next state"), mv)
    return Automaton(
        name=name,
        states=states,
        initial=_string(raw.get("initial"), f"{name}: the initial state"),
        finals=finals,
        broadcasting=broadcasting,
        delta_inner=tables["a"],
        delta_left=tables["L"],
        delta_right=tables["R"],
    )


def validate_system(raw) -> MultiSystem:
    """Validate a raw description (or re-validate a MultiSystem) into a MultiSystem.

    Accepts either an already-built :class:`MultiSystem` (idempotent, and a
    no-op once the instance has been validated) or a
    dict with keys ``version``, ``automata`` and ``message_bound`` as produced
    by the CLI spec-file parser.  A field of the wrong JSON type is a
    :class:`ValidationError` like any other fault of the description.
    """
    if isinstance(raw, MultiSystem):
        return raw.validate()
    if not isinstance(raw, dict):
        raise ValidationError(f"cannot validate {type(raw).__name__}")
    extra = set(raw) - {"version", "automata", "message_bound"}
    if extra:
        raise ValidationError(f"unknown top-level fields: {sorted(extra)}")
    entries = _listed(raw.get("automata", ()), dict, "automata")
    automata = tuple(_automaton_from_raw(a) for a in entries)
    bound = raw.get("message_bound", 0)
    if not _is_int(bound) or bound < 1:
        raise BadBound(f"message bound must be an integer >= 1, got {bound!r}")
    return MultiSystem(automata=automata, message_bound=bound).validate()


def bounds_profile(system: MultiSystem) -> BoundsProfile:
    """Phase constants read off each automaton's :class:`dynamics.Hops`:
    K = 2 * max state count, G = max traversal slope and N_min = max state
    amplitude, one below the sufficient length
    :func:`dynamics.min_sufficient_length` that the construction calls
    N_min."""
    automata = validate_system(system).automata
    return BoundsProfile(
        K=2 * max(len(a.states) for a in automata),
        G=max(a.hops.slope for a in automata),
        N_min=max(a.hops.nmin for a in automata) - 1,
    )
