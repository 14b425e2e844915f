"""In-memory spans recorded around phasestab's public functions.

The tracer replaces names in a module namespace with wrappers for the
duration of a ``patched`` block, so code that looks those names up at call
time (``phasestab.cli.run_pipeline`` looks up ``simulate``, ``write_json`` and
the rest in its own globals) runs unchanged while every call leaves a span.
A span records its name, start, end, parent span and run id, plus the counts
its ``counts`` hook reads off the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from pathlib import Path


def _simulate_counts(result, bound):
    steps = int(round(bound.arguments["t_end"] / bound.arguments["dt"]))
    return {"steps": steps, "rows": len(result.times)}


def _solve_care_counts(result, bound):
    return {"iterations": result.iterations, "residual_rel": result.residual_rel}


def _stationary_counts(result, bound):
    # accepted gradient-flow steps; the closed-form constant state takes none
    return {"iterations": max(0, len(result.upsilon_history) - 1)}


def _trajectory_counts(result, bound):
    return {"bytes": Path(bound.arguments["path"]).stat().st_size}


# Every name the tracer wraps, all looked up at call time in phasestab.cli's
# namespace by run_pipeline, build_materials and main: name -> (layer, counts)
TRACED = {
    "stationary_constant": ("stationary", _stationary_counts),
    "stationary_minimize": ("stationary", _stationary_counts),
    "assemble_plant": ("linearization", None),
    "build_actuator": ("actuator", None),
    "null_control": ("actuator", lambda r, b: {"steering_error": r.steering_error}),
    "solve_care": ("lqr", _solve_care_counts),
    "simulate": ("sim", _simulate_counts),
    "write_trajectory_csv": ("io", _trajectory_counts),
    "write_json": ("io", None),
    "read_trajectory_csv": ("io", None),
    "load_gain": ("cli", lambda r, b: {"reused": int(r is not None)}),
    "run_pipeline": ("cli", None),
    "render_report": ("cli", None),
}


class Tracer:
    """Collects spans in memory; nothing is written until the caller dumps them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = {
            "name": name,
            "run": self.run,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn):
        """Return ``fn`` wrapped so each call records a ``layer.name`` span."""
        layer, counts = TRACED[fn.__name__]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(f"{layer}.{fn.__name__}") as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record.update(counts(result, signature.bind(*args, **kwargs)))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, module, names):
        """Swap ``names`` in ``module`` for traced wrappers, restoring them on exit."""
        originals = {name: getattr(module, name) for name in names}
        try:
            for name, fn in originals.items():
                setattr(module, name, self.wrap(fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)


def self_time(spans: list[dict], idx: int) -> float:
    """Span duration minus the part of it that its child spans cover."""
    span = spans[idx]
    children = sorted(
        (s["start"], s["end"]) for s in spans if s["parent"] == idx
    )
    covered, reach = 0.0, span["start"]
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (span["end"] - span["start"]) - covered
