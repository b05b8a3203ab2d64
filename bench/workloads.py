"""Workload definitions: which items a run processes and how each is checked.

``plan`` runs in bench/run.py and needs no ``multiauto`` import; it
turns the run seed into an item order and the large-N oracle windows.
``build`` and ``run_item`` run inside a worker process.

Each workload processes a fixed batch, so runs with different seeds measure
the same work and stay comparable; the run seed shuffles the ``qe`` order
and places the N ~ 2000 oracle windows of ``fixtures`` and ``fuzz``.
``fuzz`` runs in generation order, as ``multiauto fuzz`` does: its systems
share the module caches, so the order changes how long each item takes (a
shuffled order moved the median item time by 20% between seeds).  A batch
drawn afresh per seed would not do: both generators have heavy tails (one
``fuzz`` system in a hundred takes 30 s, one ``qe`` formula in a few
thousand runs to the QE budget), so a per-seed batch moves every figure by
far more than any bound a later change could be held to.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("fixtures", "fuzz", "qe")

# fuzz: the first FUZZ_COUNT systems of the criterion-1 fuzz batch.  The
# batch stops short of fuzz-66 (about 30 s) to keep a run under a minute.
FUZZ_SEED = 20240817
FUZZ_COUNT = 40
FUZZ_SHAPE = (4, 3, 3)  # max states, max automata, max messages

# qe: the criterion-7 formula stream.
QE_SEED = 41
QE_COUNT = 2000
QE_BOUND = 10

# Known defects that run to the per-item time limit.  They stay in every
# default run and count as failed, but run in a worker of their own (on a
# second CPU while the batch repeats), so their minute of time and growing
# memory do not swamp the batch's latency, throughput and peak RSS.
#   qe #1460: forall y (y<=10 -> exists x (x<=10 & 2x-y-z+1 != 0 &
#   x-z+3 <= 0 & 3 | 2x+2y+z)) grows past the 10**6-node QE budget.
KNOWN_DEFECTS = {"qe": (1460,)}

N_MAX = 300  # oracle range checked exhaustively, as `multiauto verify`
FAR_N = 2000  # start of the large-N oracle window (two periods long)


def plan(workload, seed, root: Path):
    """(batch ids, defect ids, {id: far window start}) for one run."""
    rng = random.Random(seed)
    defects = list(KNOWN_DEFECTS.get(workload, ()))
    if workload == "fixtures":
        ids = sorted(p.stem for p in (root / "fixtures").glob("*.spec"))
        if not ids:
            raise FileNotFoundError(f"no fixtures/*.spec under {root}")
    else:
        count = FUZZ_COUNT if workload == "fuzz" else QE_COUNT
        ids = [i for i in range(count) if i not in defects]
        if workload == "qe":
            rng.shuffle(ids)
    far = {}
    if workload != "qe":
        far = {i: FAR_N + rng.randrange(200) for i in ids}
    return ids, defects, far


# ---------------------------------------------------------------------------
# Worker side


def _random_qf(rng, names, depth=0):
    """The criterion-7 random quantifier-free formula generator."""
    from multiauto.presburger import Term, dvd, eq, land, le, lnot, lor, var

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


def qe_formulas(count):
    """The first ``count`` criterion-7 formulas as (formula, free variable).

    Every quantified variable is bounded by QE_BOUND, so bounded evaluation
    with that domain is an exact oracle.
    """
    from multiauto.presburger import exists, forall, land, le, lnot, lor, var

    rng = random.Random(QE_SEED)
    out = []
    for i in range(count):
        depth = 2 if i % 5 == 0 else 1
        names = ["x", "y", "z"][: 2 + (depth > 1)]
        f = _random_qf(rng, names)
        for v in names[:depth]:
            if rng.random() < 0.5:
                f = exists(v, land(le(var(v), QE_BOUND), f))
            else:
                f = forall(v, lor(lnot(le(var(v), QE_BOUND)), f))
        out.append((f, names[depth]))
    return out


def build(workload, ids, root: Path):
    """The generated inputs of ``ids``, in that order."""
    from multiauto import cli

    if workload == "fixtures":
        return [cli.load_spec(str(root / "fixtures" / f"{i}.spec")) for i in ids]
    count = max(ids) + 1
    if workload == "fuzz":
        rng = random.Random(FUZZ_SEED)
        pool = [cli.generate_system(rng, *FUZZ_SHAPE) for _ in range(count)]
    else:
        pool = qe_formulas(count)
    return [pool[i] for i in ids]


def run_item(workload, item, far_start, stages):
    """Process one item; returns (output, None) or (output, mismatch)."""
    from multiauto import cli, construction, presburger, sim

    if workload == "qe":
        f, v = item
        stages.enter("solution_set")
        sol = presburger.solution_set(f, v)
        stages.enter("oracle")
        for n in range(sol.threshold + 2 * sol.period):
            if sol.member(n) != presburger.evaluate(f, {v: n}, domain_bound=QE_BOUND):
                return str(sol), f"{v}={n}: set says {sol.member(n)}"
        return str(sol), None
    stages.enter("extract")
    ups = construction.recognized_set(item)
    stages.enter("verify")
    n = cli.verify_against_simulator(item, ups, N_MAX)
    if n is not None:
        return str(ups), f"N={n}: set says {ups.member(n)}"
    stages.enter("verify_far")
    for n in range(far_start, far_start + 2 * ups.period):
        if ups.member(n) != sim.accepts(item, n):
            return str(ups), f"N={n}: set says {ups.member(n)}"
    return str(ups), None
