"""The benchmark's tracer wraps program functions by name
(``bench/tracing.py:TRACED``), and ``bench/run.py --trace 1`` fails when
one of them is gone or records no call on a workload that expects it.
So every one of those names must stay in the program and be reached
where the benchmark expects it."""

import importlib
import importlib.util
import pathlib

import pytest

from multiauto import cli, construction, dynamics, model, presburger, sim

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_name_resolves():
    assert tracing.TRACED
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"multiauto.{mod}"), fn, None))
    ]
    assert missing == []


class _Stages:
    def enter(self, name):
        pass


# A slice of each workload, in batch order: every fixture, the whole fuzz
# batch and enough qe formulas to reach Cooper's step.  The fuzz batch runs
# whole, as the benchmark runs it: an extraction advances a frontier only
# toward an accepted length, and fuzz-0..9 advance none.
SLICES = {"fixtures": None, "fuzz": None, "qe": 50}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_traced_name_is_called_on_its_workloads(monkeypatch, workload):
    """The benchmark's ``NOT TRACED`` check on a slice of each workload:
    every ``TRACED`` function, wrapped with a call counter in every module
    that binds it as the tracer wraps it, records a call on each workload
    that expects one."""
    modules = (cli, construction, dynamics, model, presburger, sim)
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    calls = {}
    for mod, fn, _ in tracing.TRACED:
        name = f"{mod}.{fn}"
        calls[name] = 0
        original = getattr(by_name[mod], fn)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counted)

    root = BENCH.parent
    ids, _, far = workloads.plan(workload, 0, root)
    ids = sorted(ids)[: SLICES[workload]]
    for item_id, item in zip(ids, workloads.build(workload, ids, root)):
        _, mismatch = workloads.run_item(workload, item, far.get(item_id), _Stages())
        assert mismatch is None, (workload, item_id, mismatch)
    snapshot = {f"{name}.calls": n for name, n in calls.items()}
    assert tracing.missing_calls(snapshot, workload) == []
