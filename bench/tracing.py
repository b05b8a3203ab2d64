"""Per-layer call tracing applied from outside the program.

``install`` replaces each traced function with a timing wrapper in every
``multiauto`` module that holds a binding to it (``construction.eliminate``
and ``presburger.eliminate`` are the same function under two names), so a
missed rebinding cannot read as zero calls.  The program itself is not
edited.

For every traced function ``<module>.<fn>`` the tracer records

- ``calls``: outermost calls (no call of the same function active),
- ``recursive_calls``: calls made while one is already active,
- ``s``: inclusive wall time of the outermost calls,
- ``self_s``: inclusive time minus the time spent in wrapped children of
  other functions.

The smart constructors (``land``/``lor``/``eq``/...) are too hot to wrap, so
their time stays in the caller's ``self_s``.  Node counts of ``eliminate``
and the frontier count of ``advance_frontier`` are taken on outermost calls
with the unwrapped ``node_count``; the time spent counting is excluded from
every open span.
"""

from __future__ import annotations

import functools
import time

# (module, function, workloads on which it must record at least one call).
TRACED = (
    ("presburger", "eliminate", ("fixtures", "fuzz", "qe")),
    ("presburger", "simplify", ("fixtures", "fuzz", "qe")),
    ("presburger", "substitute", ("fixtures", "fuzz", "qe")),
    ("presburger", "solution_set", ("fixtures", "fuzz", "qe")),
    ("presburger", "evaluate", ("fixtures", "fuzz", "qe")),
    ("construction", "accept_formula", ("fixtures", "fuzz")),
    ("construction", "advance_frontier", ("fixtures", "fuzz")),
    ("construction", "recognized_set", ("fixtures", "fuzz")),
    ("sim", "global_step", ("fixtures", "fuzz")),
    ("sim", "accepts", ("fixtures", "fuzz")),
    ("cli", "verify_against_simulator", ("fixtures", "fuzz")),
    ("model", "validate_system", ("fixtures", "fuzz")),
    ("model", "bounds_profile", ("fixtures", "fuzz")),
    ("dynamics", "basic_sequence", ("fixtures", "fuzz")),
    ("dynamics", "min_sufficient_length", ("fixtures", "fuzz")),
    # Only ``multiauto analyze`` calls takeoff; the extraction path has its
    # own launch classification (construction._launch_at).
    ("dynamics", "takeoff", ()),
    ("cli", "load_spec", ("fixtures",)),
    ("cli", "generate_system", ("fuzz",)),
)

FIELDS = ("calls", "recursive_calls", "s", "self_s")
# Extra counters: (function, counter name).
EXTRA = (
    ("presburger.eliminate", "nodes_in"),
    ("presburger.eliminate", "nodes_out"),
    ("construction.advance_frontier", "frontiers_out"),
)


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"calls": "count", "recursive_calls": "count", "s": "s", "self_s": "s"}
    out = [
        (f"{mod}.{fn}.{field}", units[field])
        for mod, fn, _ in TRACED
        for field in FIELDS
    ]
    out += [(f"{name}.{counter}", "count") for name, counter in EXTRA]
    return out


class _Stat:
    __slots__ = ("calls", "recursive_calls", "s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = self.recursive_calls = self.active = 0
        self.s = self.self_s = 0.0
        self.extra = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        # One frame per active wrapped call: [time of wrapped children,
        # excluded time at entry].
        self.stack = []
        self.excluded = 0.0

    def install(self):
        """Wrap every function of TRACED in every module bound to it."""
        from multiauto import cli, construction, dynamics, model, presburger, sim

        modules = (cli, construction, dynamics, model, presburger, sim)
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        node_count = presburger.node_count
        hooks = {
            "presburger.eliminate": (
                lambda st, args, kwargs: self._count(st, "nodes_in", node_count(args[0])),
                lambda st, out: self._count(st, "nodes_out", node_count(out)),
            ),
            "construction.advance_frontier": (
                None,
                lambda st, out: self._count(st, "frontiers_out", len(out)),
            ),
        }
        for mod, fn, _ in TRACED:
            name = f"{mod}.{fn}"
            original = getattr(by_name[mod], fn)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            bound = 0
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{name}: no binding found to wrap")
        for name, counter in EXTRA:
            self.stats[name].extra.setdefault(counter, 0)

    def _count(self, st, counter, n):
        st.extra[counter] = st.extra.get(counter, 0) + n

    def _wrap(self, name, fn, before, after):
        st = self.stats[name] = _Stat()
        stack = self.stack
        clock = time.perf_counter

        def excluded(hook, *args):
            t0 = clock()
            hook(st, *args)
            self.excluded += clock() - t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = st.active == 0
            if outer:
                st.calls += 1
                if before is not None:
                    excluded(before, args, kwargs)
            else:
                st.recursive_calls += 1
            st.active += 1
            frame = [0.0, self.excluded]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start - (self.excluded - frame[1])
                stack.pop()
                st.active -= 1
                st.self_s += dur - frame[0]
                if outer:
                    st.s += dur
                if stack:
                    stack[-1][0] += dur
            if outer and after is not None:
                excluded(after, out)
            return out

        return wrapper

    def reset_frames(self):
        """Forget open spans after an item was interrupted mid-call."""
        self.stack.clear()
        for st in self.stats.values():
            st.active = 0

    def snapshot(self):
        """Flat {metric name: value} of everything recorded so far."""
        out = {}
        for name, st in self.stats.items():
            for field in FIELDS:
                out[f"{name}.{field}"] = getattr(st, field)
            for counter, value in st.extra.items():
                out[f"{name}.{counter}"] = value
        return out


def missing_calls(snapshot, workload):
    """Traced functions expected on ``workload`` that recorded no call."""
    return [
        f"{mod}.{fn}"
        for mod, fn, expected in TRACED
        if workload in expected and snapshot[f"{mod}.{fn}.calls"] == 0
    ]

