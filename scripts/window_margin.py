#!/usr/bin/env python3
"""Check the derived sample window against a long one on seeded batches.

For each of ``--count`` systems (default 700) of each shape, generated
by ``multiauto.cli.generate_system`` from ``--seed`` (default 20240817)
with limits (max states, max automata) of (4, 3), (5, 3) and (6, 4) and
message bounds drawn from 1..12, it prints one line:

    <shape> <index> window=<W> last=<L> margin=<W - L>

W is the last length of the derived window
(``construction._sample_lengths``), and L the last length of a long
window that files something no shorter length files, or -1 when no run
files anything: a branch (``construction._sampled_runs``' ``branches``,
key and value), or a first-acceptance or leading frontier key (its
``first`` and ``lead``).  The
long window runs up to the larger of twice W and
max(320, N_min + 30·period + 60) + K·M, the fixed window that the derived
one replaced.  It exits 1 if anything is first filed past the derived
window, that is, if any margin is negative, and prints the number of
systems and the smallest margin last:

    python3 scripts/window_margin.py --count 700
"""

import argparse
import random
import sys
from math import lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from multiauto import cli, construction, dynamics, sim  # noqa: E402

SHAPES = ((4, 3), (5, 3), (6, 4))
MAX_MESSAGES = 12


def long_end(system):
    """The end of the fixed window: max(320, N_min + 30·period + 60) + K·M."""
    nmin = dynamics.min_sufficient_length(system)
    period = lcm(*(abs(i.c) for aut in system.automata for i in aut.hops.inner if i.c))
    cap = construction._run_caps(system)
    return max(320, nmin + 30 * period + 60) + cap * system.message_bound


def last_new_key(system, end):
    """The last N <= end whose run files a branch or an acceptance key that
    no shorter N files."""
    nmin = dynamics.min_sufficient_length(system)
    seen, last = set(), -1
    for N in range(end + 1):
        sigma, pi = tuple(a.initial for a in system.automata), (0,) * system.n
        filed, keys = [], [(0, sigma)]
        events = sim.broadcast_events(system, N)
        for k, (_, I, cfg) in enumerate(events):
            pattern = tuple("L" if p == 0 else "R" if p == N + 1 else "M" for p in pi)
            filed.append((k, sigma, pattern, I, cfg.sigma))
            sigma, pi = cfg.sigma, cfg.pi
            keys.append((k + 1, sigma))
        accept = sim.first_acceptance(system, N) if N >= nmin else None
        if accept is not None:
            k = sum(t <= accept for t, _, _ in events)
            filed += [("lead", *key) for key in keys[:k]] + [("first", *keys[k])]
        if not seen.issuperset(filed):
            seen.update(filed)
            last = N
    return last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=700, help="systems per shape")
    ap.add_argument("--seed", type=int, default=20240817)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    margins = []
    for states, automata in SHAPES:
        for i in range(args.count):
            system = cli.generate_system(rng, states, automata, MAX_MESSAGES)
            window = construction._sample_lengths(system)[-1]
            last = last_new_key(system, max(2 * window, long_end(system)))
            margins.append(window - last)
            print(f"({states},{automata}) {i} window={window} last={last} margin={window - last}")
    print(f"{len(margins)} systems, smallest margin {min(margins)}")
    return 1 if min(margins) < 0 else 0


if __name__ == "__main__":
    sys.exit(main())
