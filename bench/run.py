#!/usr/bin/env python3
"""Extraction benchmark for multiauto.

    python3 bench/run.py --workload fixtures|fuzz|qe --seed N --seconds S --trace 0|1

Every workload run happens in a fresh worker process (bench/worker.py) with
PYTHONHASHSEED=0, pinned to one CPU, and every output is checked against an
oracle that does not use the extraction.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (see bench/workloads.py):

- fixtures: the committed fixtures/*.spec in sorted order.  Each item is
  construction.recognized_set, then cli.verify_against_simulator(.., 300)
  and sim.accepts on two periods at N ~ 2000.  Covers every construction
  feature; trio holds most of the time, nearly all of it in
  presburger.eliminate under accept_formula.  Shows QE and phase-expansion
  gains.
- fuzz: the first 40 systems of cli.generate_system(rng, 4, 3, 3) at seed
  20240817, checked like fixtures.  What `multiauto fuzz` does; the time
  goes to per-system sampling (sim.global_step), formula building and
  validation.  Shows construction/sim gains and memory.
- qe: 2000 criterion-7 formulas (seed 41), presburger.solution_set checked
  against bounded evaluation up to threshold + 2 * period.  Only presburger
  runs: construction/sim changes should not move it, and memoization
  overhead would show here.  Its known defect #1460 runs to the time limit
  in a worker of its own and counts as failed.

--trace 0 reports setup_s (median over SETUP_PROBES setup-only workers and
the batch workers), items_per_s, latency_p50_s and peak_rss_mb; it also
prints failed_frac and latency_tail_s, which are not in the JSON because
they are 0 or undefined on some workloads.  The batch runs in one worker per
CPU (at most MAX_WORKERS) and repeats in fresh workers while a repeat is
expected to end within --seconds and until the defect item is done; an
item's time is the median of its repeats, and each item counts once in
attempted/failed.

The end-to-end times are scaled to a fixed machine speed by the worker's
SpeedProbe (see bench/worker.py): each is the time it would take on a
machine on which the worker's reference loop takes worker.REF_NOMINAL_S.
The times as measured are printed beside them.  The per-layer times of
--trace 1 are as measured.

--trace 1 runs the batch once untraced and once with every function of
bench/tracing.py wrapped, reports the per-layer metrics and the tracing
overhead, and checks that both runs gave identical outputs and that every
traced function expected on the workload was called.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# Per-item time limit: 2.5x the slowest passing item of a default run (trio,
# up to 18 s on a 2-CPU Xeon VM) and 1.4x fuzz-66 (about 30 s), which lies
# outside the default fuzz batch.  qe #1460 runs into it in every qe run.
ITEM_LIMIT_S = 45
RUN_LIMIT_S = 170  # a run that would take longer is aborted
MAX_WORKERS = 2  # workers at once, each pinned to its own CPU (never more than nproc)
SETUP_PROBES = 7
TAIL_MIN_ITEMS = 40  # latency_tail_s is reported from p75 up
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts workers, each a fresh interpreter pinned to one CPU."""

    def __init__(self, workload, far):
        self.workload = workload
        self.far = far
        self.deadline = monotonic() + RUN_LIMIT_S
        self.cpus = sorted(os.sched_getaffinity(0))[-MAX_WORKERS:]
        self.env = dict(
            os.environ,
            PYTHONHASHSEED=HASH_SEED,
            PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            ),
        )

    def start(self, ids, cpu, trace=False, setup_only=False):
        job = {
            "workload": self.workload,
            "ids": ids,
            "far": {str(k): v for k, v in self.far.items()},
            "limit": ITEM_LIMIT_S,
            "trace": trace,
            "setup_only": setup_only,
            "cpu": cpu,
            "root": str(ROOT),
        }
        spawned = monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"bench: run exceeded {RUN_LIMIT_S} s")
        if proc.returncode != 0:
            raise SystemExit(f"bench: worker failed:\n{proc.stderr[-3000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_raw_s"] = out["ready"] - spawned
        out["setup_s"] = out["setup_raw_s"] * out["setup_scale"]
        out["wall_s"] = monotonic() - spawned
        return out

    def run(self, jobs, batch=None, seconds=0.0):
        """Run ``jobs`` ((kind, ids, trace) tuples) on free CPUs, one worker
        per CPU.  With ``batch``, keep starting untraced repeats of it while
        a defect probe is still running or the repeat is expected (from the
        slowest repeat so far) to end within ``seconds``.  Returns (kind,
        result) pairs."""
        pending = list(jobs)
        free = list(self.cpus)
        running, done = {}, []
        began = monotonic()
        repeats = 0
        longest = 0.0  # wall time of the slowest finished batch repeat
        with ThreadPoolExecutor(len(free)) as pool:
            while True:
                while free:
                    if pending:
                        kind, ids, trace = pending.pop(0)
                    elif batch is not None and (
                        repeats == 0
                        or monotonic() - began + longest < seconds
                        or any(k == "probe" for k, _ in running.values())
                    ):
                        kind, ids, trace = "batch", batch, False
                        repeats += 1
                    else:
                        break
                    cpu = free.pop()
                    running[pool.submit(self.start, ids, cpu, trace)] = (kind, cpu)
                if not running:
                    return done
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for fut in finished:
                    kind, cpu = running.pop(fut)
                    free.append(cpu)
                    out = fut.result()
                    if kind == "batch":
                        longest = max(longest, out["wall_s"])
                    done.append((kind, out))


def batch_time(worker):
    return sum(r["s"] for r in worker["items"])


def per_item(workers, key):
    """{item id: median of ``key(record)`` over all repeats}."""
    values = {}
    for w in workers:
        for r in w["items"]:
            v = key(r)
            if v is not None:
                values.setdefault(r["id"], []).append(v)
    return {i: statistics.median(v) for i, v in values.items()}


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it, or None below TAIL_MIN_ITEMS samples."""
    if len(times) < TAIL_MIN_ITEMS:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment(args):
    sha = "unknown"
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multiauto").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "PYTHONHASHSEED": HASH_SEED,
        "item_limit_s": ITEM_LIMIT_S,
    }


def print_fixture_rows(ids, workers, traced):
    item_s = per_item(workers, lambda r: r["s"])
    extract_s = per_item(workers, lambda r: r["stages"].get("extract"))
    outputs = {r["id"]: r["output"] for r in workers[0]["items"]}
    nodes = {r["id"]: r["nodes"] for r in traced["items"]} if traced else {}
    print(f"{'fixture':<20} {'extract_s':>10} {'item_s':>8} {'nodes_in':>10} {'nodes_out':>10}  output")
    for i in ids:
        n_in, n_out = nodes.get(i, ("-", "-"))
        print(f"{i:<20} {extract_s.get(i, float('nan')):>10.4f} {item_s[i]:>8.4f} "
              f"{n_in:>10} {n_out:>10}  {outputs[i]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "multiauto" / "__init__.py").is_file():
        print(f"bench: no multiauto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        ids, defects, far = workloads.plan(args.workload, args.seed, ROOT)
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, far)
    env = environment(args)
    print(f"# workload={args.workload} trace={args.trace} cpus={runner.cpus} "
          + " ".join(f"{k}={v}" for k, v in env.items()))

    setups = []
    jobs = [("probe", defects, False)] if defects else []
    if args.trace:
        done = runner.run(jobs + [("batch", ids, False), ("traced", ids, True)])
    else:
        setups = [runner.start(ids, runner.cpus[-1], setup_only=True)
                  for _ in range(SETUP_PROBES)]
        done = runner.run(jobs, batch=ids, seconds=args.seconds)
    workers = [out for kind, out in done if kind == "batch"]
    traced = next((out for kind, out in done if kind == "traced"), None)
    probe = next((out for kind, out in done if kind == "probe"), None)
    setups += workers

    # Every repeat of an item counts once: an item fails if any repeat
    # failed, and its time is the median of its repeats.
    runs = workers + ([probe] if probe else [])
    failures = {}
    outputs = {}
    for r in (r for w in runs for r in w["items"]):
        if "failure" in r:
            failures.setdefault(r["id"], r)
        outputs.setdefault(r["id"], set()).add(r["output"])
    attempted = len(outputs)
    wrong = [i for i, r in failures.items() if r["failure"]["kind"] == "wrong"]
    unstable = [i for i, outs in outputs.items() if len(outs) > 1]
    for i in unstable:
        print(f"NOT DETERMINISTIC {args.workload}#{i}: repeats gave different outputs")
    correct = not wrong and not unstable

    if args.workload == "fixtures":
        print_fixture_rows(ids, workers, traced)
    for i, r in failures.items():
        f = r["failure"]
        print(f"FAILED {args.workload}#{i} stage={f['stage']} kind={f['kind']} "
              f"time={r['raw_s']:.2f}s: {f['detail']}")
    print(f"failed_frac {len(failures) / attempted:.6f} ({len(failures)}/{attempted} items)")

    if args.trace:
        snap = traced["trace"]
        diff = [t["id"] for t in traced["items"] if outputs[t["id"]] != {t["output"]}]
        missing = tracing.missing_calls(snap, args.workload)
        for i in diff:
            print(f"NOT TRANSPARENT {args.workload}#{i}: traced output differs")
        for name in missing:
            print(f"NOT TRACED {name}: no call recorded on {args.workload}")
        correct = correct and not diff and not missing
        overhead = batch_time(traced) / batch_time(workers[0]) - 1
        print("note: smart constructors (land/lor/eq/...) are not wrapped; "
              "their time stays in the caller's self_s")
        metrics = {name: {"value": snap[name], "unit": unit}
                   for name, unit in tracing.metric_names()}
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        times = list(per_item(workers, lambda r: r["s"]).values())
        raw = list(per_item(workers, lambda r: r["raw_s"]).values())
        values = {
            "setup_s": statistics.median(w["setup_s"] for w in setups),
            "items_per_s": len(times) / sum(times),
            "latency_p50_s": statistics.median(times),
            "peak_rss_mb": max(w["rss_mb"] for w in workers),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        t = tail(times)
        extra = (f"latency_tail_s {t[0]:.6f} s (p{t[1]:.1f} of {len(times)} items)"
                 if t else f"latency_tail_s omitted ({len(times)} items < {TAIL_MIN_ITEMS})")
        print(f"{extra}; {len(workers)} batch repeat(s) on CPUs {runner.cpus}, "
              f"{len(setups)} setups")
        print(f"as measured, unscaled: setup_s {statistics.median(w['setup_raw_s'] for w in setups):.6f}"
              f" items_per_s {len(raw) / sum(raw):.6f} latency_p50_s {statistics.median(raw):.6f}")
    if probe:
        for r in probe["items"]:
            print(f"defect item {args.workload}#{r['id']}: {r['raw_s']:.2f} s without "
                  f"speed sampling (limit {ITEM_LIMIT_S} s with it), "
                  f"worker peak RSS {probe['rss_mb']:.0f} MB")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
