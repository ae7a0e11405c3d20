"""External span tracer for nlpme, installed from outside the package.

`install` wraps every public function of the layer modules, plus numpy's
`fft`/`ifft` (reported as `operators.fft`) and `scipy.integrate.quad`
(reported as `operators.quad`).  The package binds most of its imports by
name (`from .operators import riesz_gradient`), so a wrapper is rebound in
every `nlpme.*` module that holds the original; patching only the defining
module would record nothing.  `quad` is looked up inside the operator
functions at call time, so `scipy.integrate` is imported when the tracer
is installed rather than on first use.

Spans (name, start, end, parent index) stay in memory; `summary` turns
them into per-name call counts, inclusive time and self time (duration
minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("operators", "evolve", "integrated", "similarity", "diagnostics",
          "csvio", "svgfig", "manifest", "config", "grid", "initial_data")
# called once per formatted float (1.66 M times in snapshot_movie): a span
# each would cost more than the work it measures
UNTRACED = {"csvio.format_float"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fft_points(tracer, args, kwargs, result):
    tracer.counters["operators.fft.points"] += len(_arg(args, kwargs, 0, "a"))


def _mollified_bytes(tracer, args, kwargs, result):
    # the dense kernel matvec reads an n x n float64 matrix per apply
    n = _arg(args, kwargs, 0, "f").values.size
    tracer.counters["operators.mollified_frac_laplacian.bytes_computed"] += 8 * n * n


def _cfl_dt(tracer, args, kwargs, result):
    tracer.dts.append(result)


def _steps(tracer, args, kwargs, result):
    tracer.counters["evolve.steps"] += result.steps


def _csv_bytes(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    tracer.counters["csvio.write_csv.bytes"] += os.path.getsize(path)


def _svg_bytes(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    tracer.counters["svgfig.write_svg.bytes"] += os.path.getsize(path)


COUNTERS = ("operators.fft.points",
            "operators.mollified_frac_laplacian.bytes_computed",
            "evolve.steps", "csvio.write_csv.bytes", "svgfig.write_svg.bytes")

HOOKS = {
    "operators.fft": _fft_points,
    "operators.mollified_frac_laplacian": _mollified_bytes,
    "evolve.cfl_dt": _cfl_dt,
    "evolve.simulate_density": _steps,
    "csvio.write_csv": _csv_bytes,
    "svgfig.write_svg": _svg_bytes,
}


class Tracer:
    """Span recorder; one per process."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = dict.fromkeys(COUNTERS, 0)
        self.dts: list = []
        self.names: set = set()
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self, since: int = 0) -> dict:
        """{name: [calls, inclusive_s, self_s]} over spans[since:]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for i in range(since, len(self.spans)):
            name, start, end, _ = self.spans[i]
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return out


def _rebind(holders, original, wrapper) -> int:
    bound = 0
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, attr, wrapper)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported nlpme package in place."""
    import numpy.fft
    import scipy.integrate

    package = [mod for name, mod in sorted(sys.modules.items())
               if name == "nlpme" or name.startswith("nlpme.")]
    for layer in LAYERS:
        mod = sys.modules[f"nlpme.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{layer}.{attr}" in UNTRACED):
                continue
            _rebind(package, fn, tracer.wrap(f"{layer}.{attr}", fn))
    for holder, attr, name in ((numpy.fft, "fft", "operators.fft"),
                               (numpy.fft, "ifft", "operators.fft"),
                               (scipy.integrate, "quad", "operators.quad")):
        fn = getattr(holder, attr)
        if _rebind([holder] + package, fn, tracer.wrap(name, fn)) == 0:
            raise RuntimeError(f"could not bind tracer for {name}")
