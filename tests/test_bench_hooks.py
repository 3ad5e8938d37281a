"""The names the benchmark traces (perfbench/run.py, perfbench/tracer.py)
still exist in loccon, so a refactor that moves one fails here instead of
silently zeroing a per-layer metric.  The benchmark files are only read."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its siblings by name
    try:
        run = importlib.import_module("run")
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    for layer in tracer.LAYERS:
        importlib.import_module(f"loccon.{layer}")
    targets = {key for key, _ in tracer.Tracer()._targets()}
    wanted = {key for keys in run.LAYER_KEYS.values() for key in keys}
    wanted |= {key for pair in tracer.NESTED for key in pair}
    assert sorted(wanted - targets) == []
