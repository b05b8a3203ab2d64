#!/usr/bin/env python3
"""Mutation score of the Tier-1 suite on named mutants of the program.

Each mutant is one textual edit of one file under ``src/``.  For every
mutant the script copies the tree (its tracked files and the untracked ones
git does not ignore) into a temporary directory, applies the edit there,
runs the suite on the copy and lists the tests that fail.  The working tree
is never edited.  An unmutated copy runs first: a test that fails there is
not counted as killing anything.  One line per mutant, then the score:

    <name>: killed by <test>, <test>, ...
    <name>: SURVIVED
    score: <killed>/<mutants>

    python3 scripts/mutants.py                       # every mutant, whole suite
    python3 scripts/mutants.py --only cooper-delta   # one mutant
    python3 scripts/mutants.py --jobs 2 -- tests/test_presburger.py

Arguments after ``--`` replace the suite's paths (default ``tests``).  A
run that exceeds ``--timeout`` seconds counts as killed by ``(timeout)``,
and one that pytest ends with an exit code other than 0 or 1 (interrupted,
an internal error, or killed by a signal) as killed by ``(exit <code>)``.
It exits 2 when an edit's text does not occur exactly once in its file,
so a mutant cannot go stale silently, and 0 otherwise.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, text, replacement, what the mutant breaks)
MUTANTS = (
    (
        "stop-at-finals",
        "src/multiauto/construction.py",
        "_run(sc, aut, aut.broadcasting, sigma[i], sigma2[i], K, P, PP, Tv)",
        "_run(sc, aut, aut.broadcasting | aut.finals, sigma[i], sigma2[i], K, P, PP, Tv)",
        "phase runs stop at B and the final states instead of B",
    ),
    (
        "delay-0",
        "src/multiauto/construction.py",
        "delay = 0 if initial else 1",
        "delay = 0",
        "a later phase's silence guards count broadcasts from its start, not one step later",
    ),
    (
        "accept-strict",
        "src/multiauto/construction.py",
        "k = sum(t <= accept for t, _, _ in events)",
        "k = sum(t < accept for t, _, _ in events)",
        "a broadcast at the first accepting time is not counted toward its frontier",
    ),
    (
        "no-accept-bound",
        "src/multiauto/construction.py",
        "accept = walks[0].first_acceptance()",
        "accept = None",
        "the sample window ignores the order of automaton 1's first acceptance",
    ),
    (
        "accept-class-short",
        "src/multiauto/construction.py",
        "range(nmin, nmin + period1)",
        "range(nmin, nmin + period1 - 1)",
        "acceptance past N_min is decided on one residue class too few",
    ),
    (
        "period-no-left-drift",
        "src/multiauto/dynamics.py",
        "period = lcm(period, abs(c))",
        "period = lcm(period, max(c, 1))",
        "the cycle period leaves out the |c| of the cycles that drift left",
    ),
    (
        "accept-after-repeat",
        "src/multiauto/dynamics.py",
        '                return marks, ("cycle", seen[s, p], t)\n'
        "            seen[s, p] = t\n"
        "            marks.append((t, s, p))\n"
        "            if accept and p == right and s in final:\n"
        '                return marks, ("accept",)\n',
        "                if accept and p == right and s in final:\n"
        '                    return marks, ("accept",)\n'
        '                return marks, ("cycle", seen[s, p], t)\n'
        "            seen[s, p] = t\n"
        "            marks.append((t, s, p))\n",
        "the stopping walk tests acceptance only once its repeat check fires",
    ),
    (
        "exits-residue",
        "src/multiauto/dynamics.py",
        "j = exits[end % c]",
        "j = exits[(end + 1) % c]",
        "a hop past its first lap leaves at the cycle index of the next residue",
    ),
    (
        "hop-lap-late",
        "src/multiauto/dynamics.py",
        "i = j - (lam[j] - end) // c * (k - ell)",
        "i = j - ((lam[j] - end) // c - 1) * (k - ell)",
        "a hop past its first lap arrives one lap of its cycle late",
    ),
    (
        "cap-K-1",
        "src/multiauto/construction.py",
        "return bounds_profile(system).K\n",
        "return bounds_profile(system).K - 1\n",
        "runs are unrolled through K - 1 traversals",
    ),
    (
        "cooper-delta",
        "src/multiauto/presburger.py",
        "for j in range(delta):",
        "for j in range(delta - 1):",
        "Cooper's step tries one witness offset too few",
    ),
    (
        "skip-no-dvd",
        "src/multiauto/presburger.py",
        "elif type(a) is Dvd:\n            d = a.d",
        "elif False:\n            d = a.d",
        "Cooper's witness skip ignores divisibility conjuncts",
    ),
)

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")


def tree_files():
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        check=True,
    ).stdout
    return [p for p in out.decode().split("\0") if p and (ROOT / p).is_file()]


def copy_tree(dest: Path, files):
    for rel in files:
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / rel, target)


def mutate(dest: Path, rel, text, replacement):
    path = dest / rel
    source = path.read_text()
    if source.count(text) != 1:
        raise LookupError(f"{rel}: {text!r} occurs {source.count(text)} times")
    path.write_text(source.replace(text, replacement))


def failing_tests(dest: Path, paths, timeout):
    """The ids of the tests that fail on the tree at ``dest``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *paths]
    env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            cmd, cwd=dest, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"(timeout)"}
    if run.returncode not in (0, 1):
        # Interrupted, an internal error or killed: the suite did not pass.
        return {f"(exit {run.returncode})"}
    return {m.group(1) for m in map(FAILED.match, run.stdout.splitlines()) if m}


def run_one(mutant, files, paths, timeout):
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest, files)
        if mutant is not None:
            _, rel, text, replacement, _ = mutant
            mutate(dest, rel, text, replacement)
        return failing_tests(dest, paths, timeout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    ap.add_argument("--jobs", type=int, default=1, help="suites run at once (default 1)")
    ap.add_argument("--timeout", type=float, default=1800, help="seconds per suite run")
    ap.add_argument("paths", nargs="*", default=["tests"], help="pytest paths (after --)")
    args = ap.parse_args(argv)
    names = [m[0] for m in MUTANTS]
    unknown = set(args.only or ()) - set(names)
    if unknown:
        ap.error(f"unknown mutants {sorted(unknown)}; known: {', '.join(names)}")
    chosen = [m for m in MUTANTS if args.only is None or m[0] in args.only]
    files = tree_files()
    for _, rel, text, _, _ in chosen:
        count = (ROOT / rel).read_text().count(text)
        if count != 1:
            print(f"stale mutant: {rel}: {text!r} occurs {count} times", file=sys.stderr)
            return 2

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        baseline = pool.submit(run_one, None, files, args.paths, args.timeout)
        runs = [pool.submit(run_one, m, files, args.paths, args.timeout) for m in chosen]
        already = baseline.result()
        if already:
            print(f"failing without a mutant (not counted): {', '.join(sorted(already))}")
        killed = 0
        for mutant, run in zip(chosen, runs):
            killers = sorted(run.result() - already)
            killed += bool(killers)
            verdict = f"killed by {', '.join(killers)}" if killers else "SURVIVED"
            print(f"{mutant[0]}: {verdict}  [{mutant[4]}]", flush=True)
    print(f"score: {killed}/{len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
