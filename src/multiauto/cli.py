"""Command-line interface: ``multiauto <simulate|analyze|extract|verify|fuzz|diagram>``.

Spec files are JSON documents with top-level fields ``version`` (1),
``automata`` and ``message_bound``; each automaton lists its ``states``,
``initial``, ``finals``, ``broadcasting`` states and a ``delta`` table of
``{state, symbol, next, move}`` entries where ``symbol`` is ``"a"`` for the
interior letter, ``"L"`` for the left endmarker and ``"R"`` for the right
endmarker, and ``move`` is -1, 0 or 1; a move from an endmarker must keep
the head on the tape (0 or 1 on ``"L"``, -1 or 0 on ``"R"``).  Unknown
fields are rejected.

Exit codes are a stable contract: 0 accept/OK, 1 reject/mismatch, 2 input
error (including an endmarker move off the tape, and a
MULTIAUTO_QE_BUDGET that is not an integer >= 0), 3
quantifier-elimination budget exhausted, 141 (128 + SIGPIPE) when
the reader of standard output went away, as after ``| head``.  All
randomness is seeded; no command reads wall-clock time or OS entropy.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict

from . import construction, dynamics, presburger, sim
from .model import (
    MOVES,
    Automaton,
    MultiSystem,
    ValidationError,
    bounds_profile,
    validate_system,
)

SPEC_VERSION = 1

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

_SYMBOL_ORDER = {"L": 0, "a": 1, "R": 2}


def load_spec(path: str) -> MultiSystem:
    """Parse and validate a spec file into a MultiSystem."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON, a non-ASCII byte, an oversized number
            raise ValidationError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ValidationError("spec file must be a JSON object")
    version = raw.get("version")
    if type(version) is not int or version != SPEC_VERSION:
        raise ValidationError(f"unsupported spec version {version!r}")
    return validate_system(raw)


def serialize_system(system: MultiSystem) -> dict:
    """Deterministic raw form of a system; parse(serialize(x)) == x."""
    automata = []
    for aut in system.automata:
        delta = []
        for sym, table in (
            ("L", aut.delta_left),
            ("a", aut.delta_inner),
            ("R", aut.delta_right),
        ):
            for s in sorted(table):
                nxt, mv = table[s]
                delta.append({"state": s, "symbol": sym, "next": nxt, "move": mv})
        delta.sort(key=lambda e: (e["state"], _SYMBOL_ORDER[e["symbol"]]))
        automata.append(
            {
                "name": aut.name,
                "states": sorted(aut.states),
                "initial": aut.initial,
                "finals": sorted(aut.finals),
                "broadcasting": sorted(aut.broadcasting),
                "delta": delta,
            }
        )
    return {
        "version": SPEC_VERSION,
        "automata": automata,
        "message_bound": system.message_bound,
    }


def dump_spec(system: MultiSystem) -> str:
    return json.dumps(serialize_system(system), indent=2, sort_keys=False) + "\n"


def _check_at_least(args, low: int, *flags: str) -> None:
    """Reject a numeric option below ``low`` as an input error."""
    for flag in flags:
        value = getattr(args, flag)
        if value < low:
            raise ValidationError(
                f"--{flag.replace('_', '-')} must be >= {low}, got {value}"
            )


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    _check_at_least(args, 0, "n")
    system = load_spec(args.spec)
    trace = sim.run(system, args.n)
    sys.stdout.write(sim.trace_log(trace))
    return EXIT_OK if isinstance(trace.outcome, sim.Accepted) else EXIT_REJECT


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    system = load_spec(args.spec)
    bounds = bounds_profile(system)
    report = {"automata": [], "bounds": asdict(bounds)}
    for aut in system.automata:
        states = {}
        n_takeoff = aut.hops.nmin
        for s in sorted(aut.states):
            prof = dynamics.basic_sequence(aut, s)
            entry = {
                "sequence": list(prof.sequence),
                "lambdas": list(prof.lambdas),
                "loop_entry": prof.loop_entry,
                "net_cycle_displacement": prof.net_cycle_displacement,
                "amplitude": prof.amplitude,
                "direction": prof.direction,
                "takeoff": {},
            }
            for side in ("L", "R"):
                out = dynamics.takeoff(aut, s, side, n_takeoff)
                entry["takeoff"][side] = {
                    "n": n_takeoff,
                    "outcome": type(out).__name__,
                    **{k: v for k, v in vars(out).items()},
                }
            states[s] = entry
        report["automata"].append({"name": aut.name, "states": states})
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args) -> int:
    system = load_spec(args.spec)
    # One scope for the dumps and the extraction: a reach dump reuses the
    # canonicals a run dump built, and the extraction reuses both.
    sc = construction.Scope()
    for stage in args.dump_formula or ():
        _dump_stage(sc, system, stage)
    ups = construction.recognized_set(system, sc)
    print(str(ups))
    return EXIT_OK


def _stage_int(stage: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"stage {stage}: {text!r} is not an integer") from None


def _dump_stage(sc, system, stage: str) -> None:
    """Print one intermediate ParamFormula as an s-expression, built in the
    scope ``sc``.

    Stages: ``reach:<i>:<s>:<s'>`` and ``run:<i>:<s>:<s'>`` (both with the
    empty stop set, over free p, pp and T; every run inside a phase stops
    at its automaton's broadcasting states, so only the runs of an
    automaton that never broadcasts and final-phase acceptance have that
    stop set, and every acceptance run also ends at automaton 1's first
    accepting visit, so it is not this formula),
    ``frontier:<k>`` (position graphs after k messages) and ``accept:<k>``.
    """
    parts = stage.split(":")
    kind = parts[0]
    if kind in ("reach", "run"):
        if len(parts) != 4:
            raise ValidationError(f"stage {stage}: expected {kind}:<i>:<s>:<s'>")
        i, s, s2 = _stage_int(stage, parts[1]), parts[2], parts[3]
        if not 1 <= i <= len(system.automata):
            raise ValidationError(
                f"stage {stage}: automaton index {i} not in 1..{len(system.automata)}"
            )
        aut = system.automata[i - 1]
        for state in (s, s2):
            if state not in aut.states:
                raise ValidationError(
                    f"stage {stage}: {aut.name} has no state {state!r}"
                )
        if kind == "reach":
            pf = construction.reach_formula(sc, aut, frozenset(), s, s2)
        else:
            cap = construction._run_caps(system)
            pf = construction.run_formula(sc, aut, frozenset(), s, s2, cap)
        print(f"[{stage}] {presburger.to_sexpr(pf.formula)}")
        return
    if kind in ("frontier", "accept"):
        if len(parts) != 2:
            raise ValidationError(f"stage {stage}: expected {kind}:<k>")
        k = _stage_int(stage, parts[1])
        if not 0 <= k <= system.message_bound:
            raise ValidationError(f"stage {stage}: no such phase layer")
        for fr in construction.phase_frontiers(sc, system, k):
            if fr.messages_spent != k:
                continue
            if kind == "frontier":
                body = fr.position_graph.formula
            else:
                body = construction.accept_formula(sc, system, fr)
            theta = ",".join(fr.sigma)
            print(f"[{stage} theta={theta}] {presburger.to_sexpr(body)}")
        return
    raise ValidationError(f"unknown --dump-formula stage {stage!r}")


# ---------------------------------------------------------------------------
# verify


def verify_against_simulator(system, ups, n_max: int):
    """First N in [0, n_max] where ups disagrees with the simulator, or None."""
    for n in range(n_max + 1):
        if ups.member(n) != sim.accepts(system, n):
            return n
    return None


def cmd_verify(args) -> int:
    _check_at_least(args, 0, "n_max")
    system = load_spec(args.spec)
    ups = construction.recognized_set(system)
    n = verify_against_simulator(system, ups, args.n_max)
    if n is None:
        print(f"OK {args.n_max + 1}")
        return EXIT_OK
    print(
        f"MISMATCH N={n} formula={ups.member(n)} simulator={sim.accepts(system, n)}"
    )
    return EXIT_REJECT


# ---------------------------------------------------------------------------
# fuzz


def generate_system(
    rng: random.Random, max_states: int = 4, max_automata: int = 3, max_messages: int = 3
) -> MultiSystem:
    """One pseudo-random valid system.  Endmarker moves point inward or
    stay, as validation requires."""
    n = rng.randint(1, max_automata)
    automata = []
    for i in range(1, n + 1):
        k = rng.randint(1, max_states)
        states = [f"A{i}.q{j}" for j in range(k)]

        def table(moves):
            return {s: (rng.choice(states), rng.choice(moves)) for s in states}

        finals = frozenset(rng.sample(states, rng.randint(0, k))) if i == 1 else frozenset()
        broadcasting = frozenset(rng.sample(states, rng.randint(0, k)))
        automata.append(
            Automaton(
                name=f"A{i}",
                states=frozenset(states),
                initial=states[0],
                finals=finals,
                broadcasting=broadcasting,
                delta_inner=table(MOVES["a"]),
                delta_left=table(MOVES["L"]),
                delta_right=table(MOVES["R"]),
            )
        )
    return MultiSystem(
        automata=tuple(automata), message_bound=rng.randint(1, max_messages)
    ).validate()


def cmd_fuzz(args) -> int:
    _check_at_least(args, 1, "max_states", "max_automata", "max_messages")
    _check_at_least(args, 0, "count", "n_max")
    rng = random.Random(args.seed)
    failures = 0
    for i in range(args.count):
        system = generate_system(
            rng, args.max_states, args.max_automata, args.max_messages
        )
        if args.dump_dir:
            path = f"{args.dump_dir}/fuzz-{args.seed}-{i:04d}.spec"
            with open(path, "w", encoding="ascii") as fh:
                fh.write(dump_spec(system))
        try:
            ups = construction.recognized_set(system)
            n = verify_against_simulator(system, ups, args.n_max)
        except Exception as exc:  # noqa: BLE001 - report and keep fuzzing
            failures += 1
            print(f"FAIL #{i}: {type(exc).__name__}: {exc}")
            sys.stdout.write(dump_spec(system))
            continue
        if n is not None:
            failures += 1
            print(f"FAIL #{i}: mismatch at N={n}")
            sys.stdout.write(dump_spec(system))
    print(f"{args.count - failures}/{args.count} OK")
    return EXIT_OK if failures == 0 else EXIT_REJECT


# ---------------------------------------------------------------------------
# diagram

_PALETTE = ("#1f6fb2", "#c23b22", "#3a7d44", "#8e5ba6", "#b8860b")

_CELL_W = 24
_ROW_H = 12
_MARGIN = 30


def render_diagram(trace: sim.Trace) -> str:
    """Space-time diagram: positions left to right, time top to bottom,
    endmarker rails at 0 and N+1, one polyline per head, broadcast steps
    marked.  Pure function of the trace, hence byte-deterministic."""
    n = trace.input_length
    steps = trace.steps
    n_autos = len(steps[0].pi) if steps else 0
    width = 2 * _MARGIN + _CELL_W * (n + 1)
    height = 2 * _MARGIN + _ROW_H * max(len(steps) - 1, 1)

    def x(pos):
        return _MARGIN + _CELL_W * pos

    def y(t):
        return _MARGIN + _ROW_H * t

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for pos, label in ((0, "0"), (n + 1, str(n + 1))):
        out.append(
            f'<line x1="{x(pos)}" y1="{y(0)}" x2="{x(pos)}" '
            f'y2="{y(max(len(steps) - 1, 1))}" stroke="#444" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{x(pos)}" y="{y(0) - 8}" font-size="10" '
            f'text-anchor="middle" fill="#444">{label}</text>'
        )
    for i in range(n_autos):
        pts = " ".join(f"{x(cfg.pi[i])},{y(t)}" for t, cfg in enumerate(steps))
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
    for t, idxs, _sigma in trace.broadcasts:
        for i in sorted(idxs):
            color = _PALETTE[i % len(_PALETTE)]
            out.append(
                f'<circle cx="{x(steps[t].pi[i])}" cy="{y(t)}" r="3" '
                f'fill="{color}"/>'
            )
    outcome = type(trace.outcome).__name__ if trace.outcome else "?"
    out.append(
        f'<text x="{_MARGIN}" y="{height - 10}" font-size="10" fill="#444">'
        f"N={n} {outcome}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_diagram(args) -> int:
    _check_at_least(args, 0, "n")
    system = load_spec(args.spec)
    trace = sim.run(system, args.n)
    svg = render_diagram(trace)
    with open(args.output, "w", encoding="ascii", newline="\n") as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiauto",
        description="Unary multiautomata with bounded broadcast communication.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="run the simulator, print a trace log")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True, help="input length N")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("analyze", help="per-state trajectory report as JSON")
    p.add_argument("spec")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("extract", help="extract the recognized set as a UPS")
    p.add_argument("spec")
    p.add_argument(
        "--dump-formula",
        action="append",
        metavar="STAGE",
        help="also print an intermediate formula "
        "(reach:<i>:<s>:<s'>, run:<i>:<s>:<s'>, frontier:<k>, accept:<k>)",
    )
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("verify", help="compare the extracted set to the simulator")
    p.add_argument("spec")
    p.add_argument("--n-max", type=int, default=300)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("fuzz", help="verify pseudo-random systems")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--max-automata", type=int, default=3)
    p.add_argument("--max-messages", type=int, default=3)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--dump-dir", help="write each generated spec to this directory")
    p.set_defaults(func=cmd_fuzz)

    p = subs.add_parser("diagram", help="emit a space-time diagram as SVG")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_diagram)

    return parser


def _check_budget() -> None:
    """Reject a MULTIAUTO_QE_BUDGET that is not an integer >= 0 as an input error."""
    try:
        presburger.qe_budget()
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_budget()
        return args.func(args)
    except presburger.BudgetExceeded as exc:
        print(f"budget exceeded in stage {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # Not an input error: the reader closed the pipe.  Point stdout at
        # the null device so the flush at exit does not fail a second time.
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, sys.stdout.fileno())
        finally:
            os.close(null)
        return EXIT_PIPE
    except (OSError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
