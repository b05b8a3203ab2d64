import json

import pytest

from multiauto import construction, sim
from multiauto.dynamics import min_sufficient_length
from multiauto.model import (
    Automaton,
    BadMove,
    MissingTransition,
    MultiSystem,
    ValidationError,
    bounds_profile,
    validate_system,
)

from conftest import FIXTURE_NAMES, fixture_path, load_fixture, unique_automata


def walker_raw():
    return {
        "version": 1,
        "automata": [
            {
                "name": "A1",
                "states": ["w"],
                "initial": "w",
                "finals": ["w"],
                "broadcasting": ["w"],
                "delta": [
                    {"state": "w", "symbol": "L", "next": "w", "move": 1},
                    {"state": "w", "symbol": "a", "next": "w", "move": 1},
                    {"state": "w", "symbol": "R", "next": "w", "move": 0},
                ],
            }
        ],
        "message_bound": 1,
    }


def test_walker_validates():
    system = validate_system(walker_raw())
    assert system.n == 1
    assert system.message_bound == 1
    assert system.automata[0].initial == "w"


def test_validate_is_idempotent_on_systems():
    system = validate_system(walker_raw())
    assert validate_system(system) is system or validate_system(system) == system


def test_unknown_top_level_field_rejected():
    raw = walker_raw()
    raw["speed"] = 9
    with pytest.raises(ValidationError):
        validate_system(raw)


def test_unknown_automaton_field_rejected():
    raw = walker_raw()
    raw["automata"][0]["color"] = "red"
    with pytest.raises(ValidationError):
        validate_system(raw)


def test_missing_transition_rejected():
    raw = walker_raw()
    raw["automata"][0]["delta"] = raw["automata"][0]["delta"][:2]
    with pytest.raises(MissingTransition):
        validate_system(raw)


def test_bad_move_rejected():
    raw = walker_raw()
    raw["automata"][0]["delta"][1]["move"] = 2
    with pytest.raises(BadMove):
        validate_system(raw)


def test_outward_endmarker_move_rejected():
    # A left-endmarker move of -1 or a right-endmarker move of +1 would take
    # the head off the tape, in a spec file and in a hand-built system alike.
    for index, side, move in ((0, "L", -1), (2, "R", 1)):
        message = rf"A1: move {move} for \(w, {side}\)"
        raw = walker_raw()
        raw["automata"][0]["delta"][index]["move"] = move
        with pytest.raises(BadMove, match=message):
            validate_system(raw)
        ends = {"L": {"w": ("w", 1)}, "R": {"w": ("w", 0)}}
        ends[side] = {"w": ("w", move)}
        aut = Automaton(
            name="A1",
            states=frozenset({"w"}),
            initial="w",
            finals=frozenset({"w"}),
            broadcasting=frozenset(),
            delta_inner={"w": ("w", 1)},
            delta_left=ends["L"],
            delta_right=ends["R"],
        )
        with pytest.raises(BadMove, match=message):
            MultiSystem((aut,), 1).validate()


def test_systems_are_validated_once(monkeypatch):
    # A system runs its checks on its first validate() only: one extraction
    # and 300 acceptance queries walk each automaton's tables once.
    loaded = load_fixture("racer2")
    system = MultiSystem(loaded.automata, loaded.message_bound)
    calls = []
    check = Automaton.validate

    def counted(aut):
        calls.append(aut.name)
        return check(aut)

    monkeypatch.setattr(Automaton, "validate", counted)
    construction.recognized_set(system)
    for n in range(300):
        sim.accepts(system, n)
    assert sorted(calls) == sorted(a.name for a in system.automata)


def test_message_bound_at_least_one():
    raw = walker_raw()
    raw["message_bound"] = 0
    with pytest.raises(ValidationError):
        validate_system(raw)


def test_automata_are_hashable():
    a = validate_system(walker_raw()).automata[0]
    b = validate_system(walker_raw()).automata[0]
    assert a == b and hash(a) == hash(b)


def test_systems_built_separately_hash_equal():
    # Each object computes its hash once; automata and systems built apart,
    # with their transition tables filled in another order, hash alike.
    with open(fixture_path("racer2")) as fh:
        raw = json.load(fh)
    a = validate_system(raw)
    for aut in raw["automata"]:
        aut["delta"].reverse()
    b = validate_system(raw)
    assert a.automata[0].delta_inner is not b.automata[0].delta_inner
    assert [hash(x) for x in a.automata] == [hash(x) for x in b.automata]
    assert a == b and hash(a) == hash(b)
    assert {a: "racer2"}[b] == "racer2"


def test_pingpong_bounds_profile():
    system = load_fixture("pingpong")
    bounds = bounds_profile(system)
    assert bounds.K == 4
    assert bounds.N_min >= 1


def test_nmin_at_most_max_state_count():
    # Any state's amplitude is at most its basic-sequence length.
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        bounds = bounds_profile(system)
        assert bounds.N_min <= max(len(a.states) for a in system.automata), name


def test_nmin_is_one_below_the_sufficient_length():
    # analyze prints N_min, the largest amplitude; inputs must be strictly
    # longer, so the sufficient length is one more.
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        assert bounds_profile(system).N_min + 1 == min_sufficient_length(system), name


def test_fixtures_all_validate(systems):
    for name, system in systems.items():
        assert isinstance(system, MultiSystem), name
        assert 1 <= system.n <= 3, name
        assert system.message_bound >= 1, name
