"""The benchmark's tracer wraps program functions by name
(``bench/tracing.py:TRACED``), and ``bench/run.py --trace 1`` fails when
one of them is gone.  So every one of those names must stay in the
program."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"multiauto.{mod}"), fn, None))
    ]
    assert missing == []
