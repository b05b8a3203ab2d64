import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from multiauto import cli, construction, presburger

from conftest import FIXTURE_NAMES, falloff_spec, fixture_path, load_fixture, spec_automaton

DATA = pathlib.Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec files


def test_round_trip_identity():
    for name in FIXTURE_NAMES:
        system = load_fixture(name)
        again = cli.validate_system(cli.serialize_system(system))
        assert again == system, name


def test_serialize_is_deterministic():
    system = load_fixture("trio")
    assert cli.dump_spec(system) == cli.dump_spec(system)


def test_committed_fixtures_are_in_canonical_form():
    for name in FIXTURE_NAMES:
        on_disk = fixture_path(name).read_text()
        assert on_disk == cli.dump_spec(load_fixture(name)), name


def test_version_checked(tmp_path):
    bad = tmp_path / "bad.spec"
    raw = json.loads(fixture_path("walker").read_text())
    raw["version"] = 2
    bad.write_text(json.dumps(raw))
    with pytest.raises(cli.ValidationError):
        cli.load_spec(str(bad))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_accept_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "simulate", fixture_path("walker"), "--n", "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "outcome=Accepted t=5 N=4"


def test_simulate_reject_exit_one(capsys):
    code, out, _ = run_cli(capsys, "simulate", fixture_path("even"), "--n", "7")
    assert code == 1
    assert "outcome=RejectedLoop" in out


def test_simulate_broken_spec_exit_two(capsys):
    code, _, err = run_cli(capsys, "simulate", DATA / "broken.spec", "--n", "4")
    assert code == 2
    assert "a" in err  # names the missing inner transition


def test_simulate_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "simulate", "/nonexistent.spec", "--n", "1")
    assert code == 2 and err


def _many_faults_specs():
    """Two specs with several faults each: four states that all lack their
    inner transition, and two automata that share two state ids."""

    def automaton(name, states, symbols):
        return spec_automaton(name, [], [], [(s, sym, s, 0) for s in states for sym in symbols])

    missing = [automaton("A1", ["A1.p", "A1.q", "A1.r", "A1.s"], "LR")]
    shared = [automaton(name, ["A.x", "A.y", name + ".z"], "LaR") for name in ("A1", "A2")]
    return {
        "missing": (missing, "error: A1: no transition for (A1.p, a)\n"),
        "shared": (shared, "error: state id 'A.x' appears in both A1 and A2\n"),
    }


@pytest.mark.parametrize("case", ["missing", "shared"])
def test_input_error_does_not_depend_on_the_hash_seed(tmp_path, case):
    # Validation walks the states in sorted order, so a spec with several
    # faults reports the same one under every PYTHONHASHSEED.
    automata, error = _many_faults_specs()[case]
    spec = tmp_path / f"{case}.spec"
    spec.write_text(json.dumps({"version": 1, "automata": automata, "message_bound": 1}))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    errors = set()
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-m", "multiauto.cli", "analyze", str(spec)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            check=False,
        )
        assert proc.returncode == 2, proc.stderr
        errors.add(proc.stderr)
    assert errors == {error}


def _walk_off_spec():
    """Automaton 1 sweeps right and accepts at t = N + 1; automaton 2
    broadcasts once, walks right and would step off the right endmarker at
    t = N + 2."""
    sweeper = spec_automaton("A1", ["f"], [], [("f", "L", "f", 1), ("f", "a", "f", 1), ("f", "R", "f", 0)])
    walker = spec_automaton("A2", [], ["b"], [
        ("b", "L", "w", 1), ("b", "a", "w", 1), ("b", "R", "w", 0),
        ("w", "L", "w", 1), ("w", "a", "w", 1), ("w", "R", "w", 1),
    ])
    return {"version": 1, "automata": [sweeper, walker], "message_bound": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "3"),
        ("extract",),
        ("analyze",),
        ("verify",),
        ("diagram", "--n", "3", "--output", os.devnull),
    ],
)
def test_head_falling_off_is_an_input_error(capsys, tmp_path, argv):
    # An endmarker move off the tape is rejected when the spec is loaded,
    # by every command, whether or not the run would ever take it.
    command, *rest = argv
    for spec, error in (
        (falloff_spec(), "error: A1: move -1 for (w, L)\n"),
        (_walk_off_spec(), "error: A2: move 1 for (w, R)\n"),
    ):
        path = tmp_path / "off.spec"
        path.write_text(json.dumps(spec))
        assert run_cli(capsys, command, path, *rest) == (2, "", error), spec


def _dead_falloff_specs():
    """Specs whose automaton 1 can never accept while an endmarker move
    points off the tape, so the extraction would prune every phase: the
    move is automaton 1's own, or a second automaton's."""
    alone = falloff_spec()
    alone["automata"][0]["finals"] = []
    behind = falloff_spec()
    behind["automata"][0]["name"] = "A2"
    behind["automata"].insert(0, {
        "name": "A1",
        "states": ["d"],
        "initial": "d",
        "finals": [],
        "broadcasting": [],
        "delta": [{"state": "d", "symbol": sym, "next": "d", "move": 0} for sym in "LaR"],
    })
    return {
        "no_finals": (alone, "error: A1: move -1 for (w, L)\n"),
        "dead_first": (behind, "error: A2: move -1 for (w, L)\n"),
    }


@pytest.mark.parametrize("command", ["extract", "verify"])
@pytest.mark.parametrize("case", sorted(_dead_falloff_specs()))
def test_pruned_extraction_keeps_the_falloff_exit(capsys, tmp_path, case, command):
    spec, error = _dead_falloff_specs()[case]
    path = tmp_path / "dead.spec"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, command, path)
    assert (code, out, err) == (2, "", error)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_walker(capsys):
    code, out, _ = run_cli(capsys, "analyze", fixture_path("walker"))
    assert code == 0
    report = json.loads(out)
    w = report["automata"][0]["states"]["w"]
    assert w["direction"] == "Right"
    assert w["amplitude"] == 1
    assert w["takeoff"]["L"]["outcome"] == "Traverse"
    assert report["bounds"]["K"] == 2


def test_analyze_drift3(capsys):
    code, out, _ = run_cli(capsys, "analyze", fixture_path("drift3"))
    report = json.loads(out)
    d0 = report["automata"][0]["states"]["d0"]
    assert d0["net_cycle_displacement"] == 1
    assert d0["amplitude"] == 2


def test_analyze_pingpong(capsys):
    _, out, _ = run_cli(capsys, "analyze", fixture_path("pingpong"))
    r = json.loads(out)["automata"][0]["states"]["r"]
    assert r["direction"] == "Motionless"
    assert r["amplitude"] == 1


# ---------------------------------------------------------------------------
# extract


def test_extract_walker(capsys):
    code, out, _ = run_cli(capsys, "extract", fixture_path("walker"))
    assert code == 0
    assert out.strip() == "t=0 p=1 low= residues={0}"


def test_extract_even(capsys):
    _, out, _ = run_cli(capsys, "extract", fixture_path("even"))
    assert out.strip() == "t=0 p=2 low= residues={0}"


def test_extract_empty_language(capsys):
    _, out, _ = run_cli(capsys, "extract", fixture_path("pingpong-noaccept"))
    assert out.strip() == "t=0 p=1 low= residues={}"


def test_extract_dump_formula(capsys):
    code, out, _ = run_cli(
        capsys,
        "extract",
        fixture_path("walker"),
        "--dump-formula", "reach:1:w:w",
        "--dump-formula", "frontier:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("[reach:1:w:w] (")
    assert lines[1].startswith("[frontier:1 theta=w] (")
    assert lines[-1] == "t=0 p=1 low= residues={0}"


@pytest.mark.parametrize(
    "stage",
    ["run:1:A1.q0:A1.q0", "run:2:x:x", "frontier:3", "accept:-1", "run:x:x:x", "accept:x"],
)
def test_extract_dump_formula_unknown_target_exit_two(capsys, stage):
    # crosser2 has one automaton, A1, whose states are x and y, and a
    # message bound of 2.
    code, _, err = run_cli(
        capsys, "extract", fixture_path("crosser2"), "--dump-formula", stage
    )
    assert code == 2
    assert err.startswith(f"error: stage {stage}:")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("A1", "\u00c41", "'ascii' codec can't decode"),
        ('"version": 1', '"version": 1,,', "Expecting property name"),
        ('"message_bound": 1', '"message_bound": 1' + "0" * 5000, "Exceeds the limit"),
    ],
)
def test_unparsable_spec_exit_two(capsys, tmp_path, old, new, message):
    text = fixture_path("walker").read_text()
    assert old in text
    spec = tmp_path / "bad.spec"
    spec.write_bytes(text.replace(old, new).encode())
    code, _, err = run_cli(capsys, "extract", spec)
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("automata", 0, "delta", 0, "state"), ["e"], id="state-list"),
        pytest.param(("automata", 0, "delta", 0, "next"), ["e"], id="next-list"),
        pytest.param(("automata", 0, "delta", 0, "symbol"), ["L"], id="symbol-list"),
        pytest.param(("automata", 0, "initial"), ["e"], id="initial-list"),
        pytest.param(("automata", 0, "name"), ["A1"], id="name-list"),
        pytest.param(("automata", 0, "states", 1), ["o"], id="states-entry-list"),
        pytest.param(("automata", 0, "finals"), 5, id="finals-number"),
        pytest.param(("automata", 0, "delta"), 5, id="delta-number"),
        pytest.param(("automata",), 5, id="automata-number"),
        pytest.param(("automata", 0, "delta", 0, "move"), 1.0, id="move-float"),
        pytest.param(("automata", 0, "delta", 0, "move"), True, id="move-bool"),
        pytest.param(("message_bound",), True, id="bound-bool"),
        pytest.param(("version",), True, id="version-bool"),
        pytest.param(("version",), 1.0, id="version-float"),
    ],
)
def test_mistyped_spec_field_exit_two(capsys, tmp_path, path, value):
    # A value of the wrong JSON type is an input error, never a TypeError
    # from deep inside, and true is not the number 1.
    spec = json.loads(fixture_path("even").read_text())
    *parents, last = path
    node = spec
    for key in parents:
        node = node[key]
    node[last] = value
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "verify", bad)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["prepended", "appended"])
def test_duplicate_delta_entry_exit_two(capsys, tmp_path, where):
    # A second (e, L) entry is an input error in either order, never a
    # silent choice of whichever entry comes last.
    spec = json.loads(fixture_path("even").read_text())
    delta = spec["automata"][0]["delta"]
    dup = {"state": "e", "symbol": "L", "next": "o", "move": 1}
    delta.insert(0 if where == "prepended" else len(delta), dup)
    bad = tmp_path / "dup.spec"
    bad.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "extract", bad)
    assert (code, out) == (2, "")
    assert err.startswith("error: A1: ") and "(e, L)" in err and "Traceback" not in err


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli.construction, "recognized_set", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["extract", str(fixture_path("walker"))])


class _ClosedPipe:
    """A stdout whose reader has gone away, over a real file descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_extract_closed_stdout_is_not_an_input_error(capsys, monkeypatch, tmp_path):
    # As `multiauto extract ... --dump-formula ... | head -c 1`.
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = cli.main(
            ["extract", str(fixture_path("crosser2")), "--dump-formula", "reach:1:x:x"]
        )
        monkeypatch.undo()
        # The descriptor now points at the null device, so a final flush
        # neither fails nor lands anywhere.
        os.write(fh.fileno(), b"late")
    assert code == cli.EXIT_PIPE == 141
    assert "error:" not in capsys.readouterr().err
    assert target.read_bytes() == b""


def test_extract_budget_exit_three(capsys, monkeypatch):
    # even accepts some length, so its extraction eliminates; drift3
    # accepts none and builds no formula.
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", "1")
    code, _, err = run_cli(capsys, "extract", fixture_path("even"))
    assert code == 3
    assert "budget" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", fixture_path("even"), "--n-max", "120")
    assert code == 0
    assert out.strip() == "OK 121"


def test_verify_corrupted_ups_reports_first_mismatch(capsys, monkeypatch):
    # Complement the extracted set, so the harness must detect the
    # disagreement at the first length it checks.
    extract = construction.recognized_set

    def complemented(system):
        ups = extract(system)
        return presburger.UltimatelyPeriodicSet(
            threshold=ups.threshold,
            period=ups.period,
            low=[not bit for bit in ups.low],
            residues=frozenset(range(ups.period)) - ups.residues,
        )

    monkeypatch.setattr(construction, "recognized_set", complemented)
    code, out, _ = run_cli(capsys, "verify", fixture_path("even"), "--n-max", "60")
    assert code == 1
    assert out.startswith("MISMATCH N=0 ")


# ---------------------------------------------------------------------------
# fuzz


def test_generator_is_deterministic():
    a = cli.generate_system(random.Random(7))
    b = cli.generate_system(random.Random(7))
    assert a == b


@pytest.mark.parametrize("value", ["abc", "", "-1"], ids=["word", "empty", "negative"])
def test_bad_qe_budget_exit_two(capsys, monkeypatch, value):
    # A budget that is not an integer >= 0 is an input error, not a
    # ValueError traceback whose exit status 1 would read as "reject".
    monkeypatch.setenv("MULTIAUTO_QE_BUDGET", value)
    code, out, err = run_cli(capsys, "extract", fixture_path("even"))
    assert (code, out) == (2, "")
    assert err == f"error: MULTIAUTO_QE_BUDGET must be an integer >= 0, got {value!r}\n"


def test_generator_respects_limits():
    rng = random.Random(3)
    for _ in range(40):
        system = cli.generate_system(rng, max_states=4, max_automata=3, max_messages=3)
        assert 1 <= system.n <= 3
        assert all(len(a.states) <= 4 for a in system.automata)
        assert system.message_bound <= 3


@pytest.mark.parametrize("flag", ["--max-states", "--max-automata", "--max-messages"])
def test_fuzz_zero_limit_exit_two(capsys, flag):
    code, _, err = run_cli(capsys, "fuzz", "--count", 1, flag, 0)
    assert code == 2
    assert err == f"error: {flag} must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("fuzz", "--count", -1), "--count", -1),
        (("fuzz", "--count", 1, "--n-max", -1), "--n-max", -1),
        (("verify", fixture_path("even"), "--n-max", -1), "--n-max", -1),
        (("simulate", fixture_path("even"), "--n", -3), "--n", -3),
        (("diagram", fixture_path("even"), "--n", -1, "-o", os.devnull), "--n", -1),
    ],
    ids=["fuzz-count", "fuzz-n-max", "verify-n-max", "simulate-n", "diagram-n"],
)
def test_negative_count_or_length_exit_two(capsys, argv, flag, value):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be >= 0, got {value}\n"


def test_fuzz_zero_count_is_ok(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--count", 0)
    assert code == 0
    assert out == "0/0 OK\n"


def test_fuzz_ok_and_dump_determinism(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        code, out, _ = run_cli(
            capsys, "fuzz", "--count", "3", "--seed", "7",
            "--n-max", "80", "--dump-dir", d,
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "3/3 OK"
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir()) and len(files) == 3
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# ---------------------------------------------------------------------------
# diagram


def test_diagram_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "diagram", fixture_path("walker"), "--n", "5", "-o", out
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_diagram_walker_is_a_straight_diagonal(capsys, tmp_path):
    out = tmp_path / "w.svg"
    run_cli(capsys, "diagram", fixture_path("walker"), "--n", "5", "-o", out)
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0].split()
    xs = [int(p.split(",")[0]) for p in points]
    ys = [int(p.split(",")[1]) for p in points]
    # Positions 0..6 visited in order, one per time step.
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    assert ys == sorted(ys)


def test_diagram_zigzag_reflects_once(capsys, tmp_path):
    out = tmp_path / "z.svg"
    run_cli(capsys, "diagram", fixture_path("zigzag"), "--n", "8", "-o", out)
    svg = out.read_text()
    points = svg.split('points="')[1].split('"')[0].split()
    xs = [int(p.split(",")[0]) for p in points]
    right_rail = max(xs)
    assert xs.count(right_rail) == 1  # exactly one touch of the right marker
    assert xs[-1] == min(xs)  # ends parked at the left marker


def test_diagram_marks_broadcasts(capsys, tmp_path):
    out = tmp_path / "e.svg"
    run_cli(capsys, "diagram", fixture_path("even"), "--n", "4", "-o", out)
    assert "<circle" in out.read_text()


# ---------------------------------------------------------------------------
# dependencies


def test_runs_without_numpy(capsys):
    # numpy is a test extra: with it blocked, every command exits and prints
    # as it does here.
    spec = fixture_path("racer2")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from multiauto import cli\n"
        "raise SystemExit(cli.main(sys.argv[1:]))\n"
    )
    for argv in (
        ["extract", spec],
        ["verify", spec, "--n-max", "60"],
        ["analyze", spec],
        ["simulate", spec, "--n", "5"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=False,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv), argv


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert "numpy" in project["optional-dependencies"]["test"]
