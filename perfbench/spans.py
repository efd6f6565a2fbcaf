"""Per-layer spans recorded from outside the package.

Each traced function is wrapped at every place it is bound: the defining
module and every hypersect module that imported it by name (`is_smooth`
lives in jacobian, variation and cli).  The binding sites are found by
identity, so a new `from .x import y` in the package is traced too.
Module-level globals used inside their own module (`rref` inside
`kernel_basis` and `invert`) are covered by patching the module attribute.

Counts of work (`cells`, `nnz`, `bytes_computed`) are computed from the
argument shapes, not measured: `bytes_computed` is 8 * rows * cols, the
size of the dense int64 array `rank_mod_p_int` builds.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import wraps


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _rank_mod_p_counts(args, kwargs, result) -> dict:
    rows = args[0]
    stop_at = kwargs.get("stop_at", args[2] if len(args) > 2 else None)
    cells = _cells(rows)
    counts = {
        "cells": cells,
        "nnz": sum(len(row) - row.count(0) for row in rows),
        "bytes_computed": 8 * cells,
    }
    if stop_at is not None:
        counts["stop_at_calls"] = 1
        counts["full_calls"] = int(result == stop_at)
    return counts


def _rank_exact_counts(args, kwargs, result) -> dict:
    return {"cells": _cells(args[0])}


def _rref_counts(args, kwargs, result) -> dict:
    m = args[0]
    return {"cells": m.rows * m.cols}


def _certify_counts(args, kwargs, result) -> dict:
    return {"trials": len(result.trials), "certified": int(result.witness is not None)}


# traced function -> work counter (or None); the name is module.function
TRACED = {
    "cli.main": None,
    "parsing.parse_poly": None,
    "jacobian.is_smooth": None,
    "jacobian.ideal_graded_dim": None,
    "linalg.rank_mod_p_int": _rank_mod_p_counts,
    "linalg.rank_int_exact": _rank_exact_counts,
    "linalg.rref": _rref_counts,
    "linalg.kernel_basis": None,
    "variation.certify_max_variation": _certify_counts,
    "variation.criterion_kernel": None,
    "variation.normalize_hyperplane": None,
    "poly.substitute_linear": None,
}


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "counts", "child_s")

    def __init__(self, name: str, request: int, parent: "Span | None"):
        self.name = name
        self.request = request
        self.parent = parent
        self.counts = None
        self.child_s = 0.0


class Tracer:
    """Keeps the spans of the requests run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[Span] = []

    def wrap(self, name: str, fn, count):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.request, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if count is not None:
                counted = time.perf_counter()
                span.counts = count(args, kwargs, result)
                if span.parent is not None:
                    # counting is tracer work: keep it out of the parent's self time
                    span.parent.child_s += time.perf_counter() - counted
            return result

        return traced


def binding_sites(package: str = "hypersect") -> dict[str, list[tuple[object, str]]]:
    """(module, attribute) pairs bound to each traced function."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    sites = {}
    for name in TRACED:
        module_name, attr = name.split(".")
        target = getattr(sys.modules.get(f"{package}.{module_name}"), attr, None)
        if target is None:
            continue  # gone from the package: its metrics read 0
        sites[name] = [(m, key) for m in modules for key, value in vars(m).items() if value is target]
    return sites


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding site of every traced function; restore on exit."""
    patched = []
    try:
        for name, sites in binding_sites().items():
            original = getattr(*sites[0])
            wrapper = tracer.wrap(name, original, TRACED[name])
            for module, attr in sites:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before averaging over passes."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for span in spans:
        module = span.name.split(".")[0]
        duration_ms = (span.end - span.start) * 1000.0
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.ms", duration_ms)
        add(f"{module}.self_ms", duration_ms - span.child_s * 1000.0)
        for key, value in (span.counts or {}).items():
            add(f"{span.name}.{key}", value)
    return out
