#!/usr/bin/env python3
"""Write the CLI output of every fixture and of the first fuzz systems.

For each committed fixture and each of the first ``--count`` systems
(default 40) that ``multiauto fuzz --seed 20240817`` generates (limits 4,
3, 3), one fresh interpreter (PYTHONHASHSEED=0) runs, in this order:

- ``extract`` with the ``run:<i>:<s>:<s'>`` and ``reach:<i>:<s>:<s'>``
  stages of every state pair of every automaton, then ``frontier:<k>`` and
  ``accept:<k>`` for k = 0..M (a stage prints the same line whatever else
  is dumped with it);
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

A change that only reshapes the quantifier-free phase formulas, or
renames the bound variables of the Run/Reach dumps, is checked with
``--against``, which writes nothing and compares two written trees:

    python3 scripts/cli_bytes.py /tmp/b --against /tmp/a

It fails on any byte difference outside the formula lines
``[frontier:k ...]``, ``[accept:k ...]``, ``[run:...]`` and
``[reach:...]``.  For each pair of ``run``/``reach`` lines that differ it
prints one verdict, and fails unless it holds:

- ``alpha``: both parse to the same formula once every bound variable is
  renamed by its quantifier nesting depth and the arguments of each
  conjunction or disjunction, with those of the nested ones of its kind,
  are taken as a set (``alpha_normal``).  Nothing is rebuilt with the
  smart constructors, so a line that gains or loses an atom, even one that
  no natural N satisfies, is ``NOT equal``.

For each pair of ``frontier``/``accept`` lines that differ it parses both
s-expressions and prints two verdicts, and fails unless both hold:

- ``N<40``: the two agree, by ``vector_eval`` (``tests/oracles.py``, which
  needs numpy), for every N < 40 with every other free variable (a head
  position) over 0..N+1;
- ``all N``: they agree for every N, proved by eliminating
  ``exists N, pi. N >= 0 and 0 <= pi_i <= N+1 and (old xor new)`` to
  ``false`` (``differ_witness`` in ``tests/oracles.py``, which the tests
  use too).  A quantifier elimination over its budget prints
  ``undecided``.
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
AGAINST_N = 40  # --against compares formulas for N < AGAINST_N
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


def parse_sexpr(text):
    """The formula that ``presburger.to_sexpr`` printed as ``text``."""
    from multiauto import presburger as P

    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def tree():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        out = []
        while tokens[pos] != ")":
            out.append(tree())
        pos += 1
        return out

    def term(x):
        if isinstance(x, list):
            if x[0] == "*":
                return P.Term(0, ((x[2], int(x[1])),))
            parts = [term(a) for a in x[1:]]
            coeffs = tuple(c for t in parts for c in t.coeffs)
            return P.Term(sum(t.const for t in parts), coeffs)
        try:
            return P.Term(int(x))
        except ValueError:
            return P.var(x)

    def formula(x):
        if x in ("true", "false"):
            return P.TRUE if x == "true" else P.FALSE
        head, *args = x
        if head in ("<=", "="):
            if args[1] != "0":
                raise ValueError(f"atom not compared with 0: {x}")
            return (P.Le if head == "<=" else P.Eq)(term(args[0]))
        if head == "divides":
            return P.Dvd(int(args[0]), term(args[1]))
        if head == "not":
            return P.Not(formula(args[0]))
        if head in ("and", "or"):
            return (P.And if head == "and" else P.Or)(tuple(formula(a) for a in args))
        if head in ("exists", "forall"):
            return (P.Exists if head == "exists" else P.Forall)(args[0], formula(args[1]))
        raise ValueError(f"unknown head {head!r}")

    out = formula(tree())
    if pos != len(tokens):
        raise ValueError(f"trailing text after position {pos}")
    return out


def _equivalent_below(f, g):
    """f and g agree for every N < AGAINST_N with every other free variable
    over 0..N+1."""
    import numpy as np
    from oracles import vector_eval

    names = sorted((f.fv | g.fv) - {"N"})
    for n in range(AGAINST_N):
        env = {"N": np.array(n)}
        for axis, v in enumerate(names):
            shape = [1] * len(names)
            shape[axis] = n + 2
            env[v] = np.arange(n + 2).reshape(shape)
        if not np.array_equal(vector_eval(f, env), vector_eval(g, env)):
            return False
    return True


def _equivalent_all(f, g):
    """"equivalent" if f and g agree for every N with every other free
    variable over 0..N+1, "NOT equivalent" if not, "undecided" if the
    quantifier elimination exceeds its budget."""
    from multiauto import presburger as P
    from oracles import differ_witness

    try:
        witness = differ_witness(f, g)
    except P.BudgetExceeded:
        return "undecided"
    return "equivalent" if witness is P.FALSE else "NOT equivalent"


def alpha_normal(f):
    """``f`` as nested tuples, built with no constructor of the checking
    tree, so that no fold rule of that tree can make two lines equal: every
    bound variable is renamed to ``@<depth>``, its number of enclosing
    quantifiers, in each term by ``Term.subst``, and the arguments of a
    conjunction or disjunction, with those of the nested ones of its own
    kind, become a frozenset.  Nothing is folded."""
    from multiauto import presburger as P

    def walk(g, names, depth):
        if isinstance(g, (P.Le, P.Eq)):
            return type(g).__name__, g.t.subst(names)
        if isinstance(g, P.Dvd):
            return "Dvd", g.d, g.t.subst(names)
        if isinstance(g, P.Not):
            return "Not", walk(g.f, names, depth)
        if isinstance(g, (P.And, P.Or)):
            args, todo = set(), list(g.args)
            while todo:
                a = todo.pop()
                if type(a) is type(g):
                    todo.extend(a.args)
                else:
                    args.add(walk(a, names, depth))
            return type(g).__name__, frozenset(args)
        if isinstance(g, (P.Exists, P.Forall)):
            v = f"@{depth}"
            return type(g).__name__, v, walk(g.f, {**names, g.v: P.var(v)}, depth + 1)
        return g

    return walk(f, {}, 0)


def _formula_line(line):
    """(tag, s-expression) of a formula dump line, else None."""
    if line.startswith(("[frontier:", "[accept:", "[run:", "[reach:")) and "] " in line:
        tag, text = line.split("] ", 1)
        return tag, text
    return None


def against(new, old):
    """Compare two trees; return the number of differences not allowed."""
    new, old = Path(new), Path(old)
    files = sorted({p.relative_to(d) for d in (new, old) for p in d.rglob("*") if p.is_file()})
    bad = same = 0
    for rel in files:
        a, b = new / rel, old / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {new if a.is_file() else old}")
            bad += 1
            continue
        la, lb = a.read_text().splitlines(), b.read_text().splitlines()
        if len(la) != len(lb):
            print(f"{rel}: {len(la)} lines against {len(lb)}")
            bad += 1
            continue
        for i, (x, y) in enumerate(zip(la, lb), 1):
            if x == y:
                continue
            fx, fy = _formula_line(x), _formula_line(y)
            if not (fx and fy and fx[0] == fy[0]):
                print(f"{rel}:{i}: differs outside a formula line")
                bad += 1
                continue
            f, g = parse_sexpr(fx[1]), parse_sexpr(fy[1])
            if fx[0].startswith(("[run:", "[reach:")):
                ok = alpha_normal(f) == alpha_normal(g)
                print(f"{rel}:{i}: {fx[0]}] differs, alpha: {'equal' if ok else 'NOT equal'}")
            else:
                below = "equivalent" if _equivalent_below(f, g) else "NOT equivalent"
                every = _equivalent_all(f, g)
                print(f"{rel}:{i}: {fx[0]}] differs, N<{AGAINST_N}: {below}, all N: {every}")
                ok = below == every == "equivalent"
            if ok:
                same += 1
            else:
                bad += 1
    print(f"{len(files)} files, {same} equivalent formula lines, {bad} differences")
    return bad


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
    ap.add_argument(
        "--against",
        metavar="DIR",
        help="compare OUTDIR with the tree in DIR instead of writing it",
    )
    ap.add_argument("--one", nargs=2, metavar=("SPEC", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = str(Path(args.root).resolve() / "src")
    sys.path.insert(0, src)
    if args.one:
        run_one(*args.one)
        return 0
    if args.against:
        sys.path.insert(0, str(HERE.parents[1] / "tests"))
        return 1 if against(args.outdir, args.against) else 0

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
