"""The benchmark's traced layer metrics name functions that exist.

The bench tracer wraps the public functions of each `nlpme` module and
reads `<layer>.<function>.(calls|self_s|us_per_call)` back by name, so
deleting or renaming such a function breaks the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# spans the tracer records around numpy's and scipy's functions, not nlpme's
HARNESS_WRAPPERS = {"operators.fft", "operators.quad"}
METRIC = re.compile(r"^(\w+)\.(\w+)\.(calls|self_s|us_per_call)$")


def _traced_functions():
    names = set()
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        match = METRIC.match(metric["name"])
        if match is None or f"{match[1]}.{match[2]}" in HARNESS_WRAPPERS:
            continue
        if importlib.util.find_spec(f"nlpme.{match[1]}") is not None:
            names.add((match[1], match[2]))
    return sorted(names)


def test_traced_metrics_name_public_functions():
    traced = _traced_functions()
    assert ("evolve", "simulate_density") in traced
    for layer, name in traced:
        module = importlib.import_module(f"nlpme.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{layer}.{name}"
        assert fn.__module__ == module.__name__, f"{layer}.{name}"
        assert not name.startswith("_")
