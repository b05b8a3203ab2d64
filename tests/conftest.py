import json
import pathlib
import random

import pytest

from multiauto.model import validate_system
from multiauto.presburger import (
    Term,
    dvd,
    eq,
    exists,
    forall,
    land,
    le,
    lnot,
    lor,
    var,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.spec"))


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURE_DIR / f"{name}.spec"


def load_fixture(name: str):
    with open(fixture_path(name)) as fh:
        return validate_system(json.load(fh))


@pytest.fixture(scope="session")
def systems():
    """All committed fixture systems, by name."""
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


def spec_automaton(name, finals, broadcasting, delta):
    """The spec entry of one automaton from (state, symbol, next, move)
    rows; the first row's state is the initial one."""
    return {
        "name": name,
        "states": sorted({s for s, *_ in delta}),
        "initial": delta[0][0],
        "finals": finals,
        "broadcasting": broadcasting,
        "delta": [
            {"state": s, "symbol": sym, "next": nxt, "move": mv}
            for s, sym, nxt, mv in delta
        ],
    }


def falloff_spec():
    """A spec that validation rejects with BadMove: in w on the left
    endmarker it moves to x and one cell further left, off the tape."""
    delta = [
        ("w", "L", "x", -1),
        ("w", "a", "w", 1),
        ("w", "R", "w", 0),
        ("x", "L", "x", 1),
        ("x", "a", "x", 1),
        ("x", "R", "x", 0),
    ]
    return {"version": 1, "automata": [spec_automaton("A1", ["x"], [], delta)], "message_bound": 1}


def unique_automata(systems):
    """Deduplicated automata across a collection of systems."""
    seen = {}
    for system in systems.values():
        for aut in system.automata:
            seen.setdefault(aut, aut)
    return list(seen)


# Every quantified variable of the criterion-7 stream is bounded by this, so
# evaluate(f, point, domain_bound=CRITERION7_BOUND) is exact.
CRITERION7_BOUND = 10


def _random_qf(rng, names, depth=0):
    def term():
        t = Term(rng.randint(-4, 4))
        for v in names:
            t = t + var(v) * rng.randint(-2, 2)
        return t

    r = rng.random()
    if depth >= 2 or r < 0.45:
        k = rng.random()
        if k < 0.45:
            return le(term(), 0)
        if k < 0.75:
            return eq(term(), 0)
        return dvd(rng.randint(2, 4), term())
    if r < 0.65:
        return land(_random_qf(rng, names, depth + 1), _random_qf(rng, names, depth + 1))
    if r < 0.85:
        return lor(_random_qf(rng, names, depth + 1), _random_qf(rng, names, depth + 1))
    return lnot(_random_qf(rng, names, depth + 1))


def criterion7_formulas(count, seed=41):
    """The seeded QE differential stream: (formula, free variable names).

    Every fifth formula quantifies two variables, the rest one; each
    quantifier is bounded by CRITERION7_BOUND.
    """
    rng = random.Random(seed)
    bound = CRITERION7_BOUND
    for i in range(count):
        depth = 2 if i % 5 == 0 else 1
        names = ["x", "y", "z"][: 2 + (depth > 1)]
        f = _random_qf(rng, names)
        for v in names[:depth]:
            if rng.random() < 0.5:
                f = exists(v, land(le(var(v), bound), f))
            else:
                f = forall(v, lor(lnot(le(var(v), bound)), f))
        yield f, names[depth:]
