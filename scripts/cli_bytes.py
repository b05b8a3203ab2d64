#!/usr/bin/env python3
"""Write the CLI output of every fixture and of the first fuzz systems.

For each committed fixture and each of the first ``--count`` systems
(default 40) that ``multiauto fuzz --seed 20240817`` generates (limits 4,
3, 3), one fresh interpreter (PYTHONHASHSEED=0) runs, in this order:

- ``extract`` with every ``run:<i>:<s>:<s'>`` and ``reach:<i>:<s>:<s'>``
  stage (run before reach, for every state pair of every automaton), then
  ``frontier:<k>`` and ``accept:<k>`` for k = 0..M;
- ``analyze``;
- ``verify --n-max 300``;
- ``simulate --n 0`` .. ``simulate --n 12``.

Each command's arguments, exit code, stdout and stderr go to
``OUTDIR/<system>.txt``; the generated fuzz specs go to ``OUTDIR/specs``.
Two trees give the same CLI bytes when their output directories are equal
under ``diff -r``:

    python3 scripts/cli_bytes.py /tmp/a --root path/to/other/tree
    python3 scripts/cli_bytes.py /tmp/b
    diff -r /tmp/a /tmp/b

``--count 100`` covers the whole criterion-1 batch.
"""

import argparse
import io
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve()
FUZZ_SEED = 20240817
FUZZ_SHAPE = (4, 3, 3)  # max states, max automata, max messages
VERIFY_N_MAX = 300
SIMULATE_NS = range(13)
JOBS = 2  # interpreters at once


def _commands(system, spec):
    stages = []
    for i, aut in enumerate(system.automata, 1):
        for s in sorted(aut.states):
            for s2 in sorted(aut.states):
                stages += [f"run:{i}:{s}:{s2}", f"reach:{i}:{s}:{s2}"]
    for k in range(system.message_bound + 1):
        stages += [f"frontier:{k}", f"accept:{k}"]
    extract = ["extract", spec]
    for stage in stages:
        extract += ["--dump-formula", stage]
    yield extract
    yield ["analyze", spec]
    yield ["verify", spec, "--n-max", str(VERIFY_N_MAX)]
    for n in SIMULATE_NS:
        yield ["simulate", spec, "--n", str(n)]


def run_one(spec, out):
    """Run every command on one spec in this interpreter, in order."""
    from multiauto import cli

    system = cli.load_spec(spec)
    name = Path(spec).stem
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for argv in _commands(system, spec):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - an outcome like any other
                    code = f"raised {type(exc).__name__}: {exc}"
            shown = [name if a == spec else a for a in argv]
            fh.write(f"$ multiauto {' '.join(shown)}\nexit {code}\n")
            fh.write(f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    ap.add_argument(
        "--root",
        default=str(HERE.parents[1]),
        help="source tree whose src/ and fixtures/ are run (default: this one)",
    )
    ap.add_argument(
        "--count",
        type=int,
        default=40,
        help="how many fuzz systems to cover (default: 40)",
    )
    ap.add_argument("--one", nargs=2, metavar=("SPEC", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = str(Path(args.root).resolve() / "src")
    sys.path.insert(0, src)
    if args.one:
        run_one(*args.one)
        return 0

    from multiauto import cli

    out = Path(args.outdir)
    (out / "specs").mkdir(parents=True, exist_ok=True)
    specs = sorted((Path(args.root) / "fixtures").glob("*.spec"))
    rng = random.Random(FUZZ_SEED)
    for i in range(args.count):
        path = out / "specs" / f"fuzz-{i:02d}.spec"
        path.write_text(cli.dump_spec(cli.generate_system(rng, *FUZZ_SHAPE)))
        specs.append(path)

    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}

    def run(spec):
        target = out / f"{spec.stem}.txt"
        cmd = [sys.executable, str(HERE), args.outdir, "--root", args.root,
               "--one", str(spec), str(target)]
        subprocess.run(cmd, env=env, check=True)
        return target

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for target in pool.map(run, specs):
            print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
