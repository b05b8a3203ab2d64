"""One workload run in a fresh process (started by bench/run.py).

Reads a JSON job on stdin, builds the inputs, processes every item under a
per-item time limit and writes one JSON result line on stdout.  A fresh
process per run keeps the module-level ``lru_cache``s and the global fresh-
name counter of ``multiauto`` from carrying over between runs.

Times are reported twice: as measured (``raw_s``) and scaled to a fixed
machine speed (``s``).  On a shared host the speed at which one CPU runs
Python drifts by a factor of two or more within seconds, with the load of
other tenants; the same item, at the same work count, took anywhere from
0.25 to 0.51 s.  A SpeedProbe therefore times a fixed reference loop every
REF_EVERY_S of CPU time while the items run, and each item's time is
scaled by REF_NOMINAL_S / (the median reference time around it).  On a
2-vCPU Xeon VM this cut the quartile spread of one fuzz item's time over
repeats from 0.28 to 0.11 of its median, and of a fuzz batch's summed
time from 0.14 to 0.04.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

# Scaled times are seconds on a machine on which _reference takes this long
# (about its fastest on a 2-vCPU Xeon VM with Python 3.11).
REF_NOMINAL_S = 0.0004
REF_EVERY_S = 0.02  # CPU time between two speed samples (about 2.5% overhead)
REF_WINDOW_S = 0.25  # samples this close to an item count for its speed
SETUP_SAMPLES = 20


def _reference():
    """A fixed pure-Python loop: dict updates and int arithmetic on a
    constant working set, nothing the garbage collector tracks, so its time
    does not depend on the program's heap."""
    d = dict.fromkeys(range(64), 0)
    s = 0
    for i in range(3000):
        k = i & 63
        d[k] += i * 7 % 13
        s ^= d[k]
    return s


class SpeedProbe:
    """Times _reference on SIGPROF, every REF_EVERY_S of CPU time.

    The sampling time is kept out of the items' times, and out of every
    open span of the tracer when there is one."""

    def __init__(self, clock, tracer):
        self.clock = clock
        self.tracer = tracer
        self.ends = []  # clock() at the end of each sample
        self.refs = []  # duration of each sample
        self.spent = 0.0
        self.busy = False

    def sample(self, *_):
        if self.busy:  # a signal that arrived during a sample
            return
        start = self.clock()
        enabled = gc.isenabled()
        try:
            self.busy = True
            gc.disable()
            _reference()
        finally:
            self.busy = False
            if enabled:
                gc.enable()
        end = self.clock()
        self.ends.append(end)
        self.refs.append(end - start)
        self.spent += end - start
        if self.tracer:
            self.tracer.excluded += end - start

    def start(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.sample()

    def scale(self, start, end):
        """REF_NOMINAL_S / median reference time of the samples within
        REF_WINDOW_S of [start, end] (at least the nearest one after)."""
        lo = bisect.bisect_left(self.ends, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + REF_WINDOW_S)
        refs = self.refs[lo:max(hi, lo + 1)]
        return REF_NOMINAL_S / statistics.median(refs)


class ItemTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` in the
    program can swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout


class Stages:
    """Wall time per stage of one item; ``current`` names the open stage."""

    def __init__(self, clock):
        self.clock = clock
        self.current = None
        self.times = {}
        self._start = None

    def enter(self, name):
        now = self.clock()
        if self.current is not None:
            self.times[self.current] = now - self._start
        self.current, self._start = name, now


def run_items(workload, inputs, ids, far, limit, tracer, probe):
    signal.signal(signal.SIGALRM, _alarm)

    def clock():  # wall time without the time spent sampling
        return probe.clock() - probe.spent

    records = []
    probe.start()
    for item_id, item in zip(ids, inputs):
        stages = Stages(clock)
        before = tracer.snapshot() if tracer else None
        failure = None
        span = [probe.clock()]
        start = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                output, wrong = workloads.run_item(
                    workload, item, far.get(str(item_id)), stages
                )
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if wrong is not None:
                failure = ("wrong", wrong)
        except ItemTimeout:
            output, failure = None, ("timeout", f"no result within {limit} s")
        except Exception as exc:  # noqa: BLE001 - record and go on to the next item
            output, failure = None, (type(exc).__name__, str(exc)[:300])
        elapsed = clock() - start
        span.append(probe.clock())
        failed_stage = stages.current
        stages.enter(None)
        rec = {"id": item_id, "raw_s": elapsed, "span": span,
               "stages": stages.times, "output": output}
        if failure is not None:
            rec["failure"] = {"stage": failed_stage, "kind": failure[0], "detail": failure[1]}
            if tracer:
                tracer.reset_frames()
        if tracer:
            after = tracer.snapshot()
            rec["nodes"] = [
                after[k] - before[k]
                for k in ("presburger.eliminate.nodes_in", "presburger.eliminate.nodes_out")
            ]
        records.append(rec)
    probe.stop()
    for rec in records:
        scale = probe.scale(*rec.pop("span"))
        rec["s"] = rec["raw_s"] * scale
        rec["stages"] = {k: v * scale for k, v in rec["stages"].items()}
    return records


def peak_rss_mb():
    """VmHWM of this process image.  ru_maxrss is not used: Linux carries it
    over from the parent across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    job = json.loads(sys.stdin.read())
    os.sched_setaffinity(0, {job["cpu"]})
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    root = Path(job["root"])
    inputs = workloads.build(job["workload"], job["ids"], root)
    out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    probe = SpeedProbe(time.perf_counter, tracer)
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    out["setup_scale"] = REF_NOMINAL_S / statistics.median(probe.refs)
    if not job["setup_only"]:
        out["items"] = run_items(
            job["workload"], inputs, job["ids"], job["far"], job["limit"], tracer, probe
        )
        out["rss_mb"] = peak_rss_mb()
        out["trace"] = tracer.snapshot() if tracer else None
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
