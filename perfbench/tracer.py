"""Spans around the public functions of each eaqec module, and the per-layer
metrics derived from them.

Tracing patches module attributes: every attribute of the package and its
modules that holds one of the traced functions is replaced by a wrapper for
the duration of a ``with Tracer() as tracer:`` block and restored afterwards,
so calls made through any module (``eaqec.codes.canonicalize`` from codes,
``eaqec.lpbound.lp_feasible`` from the LP scan, ...) are all seen.  Nothing in
``src/`` is modified.

A span is (id, parent id, name, start, end, attrs).  Spans stay in memory and
are written out by :meth:`Tracer.write` after the run; the tracer itself
never prints.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from metrics import RANK_BUCKETS

# Modules whose attributes are scanned for the traced functions.
MODULES = (
    "eaqec",
    "eaqec.pauli",
    "eaqec.codes",
    "eaqec.enumerator",
    "eaqec.lpbound",
    "eaqec.cli",
)


def _rank_attrs(args: tuple, result: Any) -> dict:
    return {"rank": args[0].rank}


def _verdict_attrs(args: tuple, result: Any) -> dict:
    return {"feasible": bool(result)}


def _distance_attrs(args: tuple, result: Any) -> dict:
    code = args[0]
    return {"log2_elements": code.n + code.k - code.c}


# (defining module, function name, attrs recorder) for every traced function.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("eaqec.pauli", "canonicalize", None),
    ("eaqec.pauli", "orthogonal_group", None),
    ("eaqec.pauli", "symplectic_gram_schmidt", None),
    ("eaqec.codes", "from_generators", None),
    ("eaqec.codes", "dual", None),
    ("eaqec.codes", "min_distance", _distance_attrs),
    ("eaqec.enumerator", "weight_enumerator", _rank_attrs),
    ("eaqec.enumerator", "macwilliams_transform", None),
    ("eaqec.enumerator", "eaqec_identities", None),
    ("eaqec.lpbound", "lp_feasible", _verdict_attrs),
    ("eaqec.lpbound", "lp_feasible_general", _verdict_attrs),
    ("eaqec.lpbound", "lp_upper_bound", None),
    ("eaqec.lpbound", "build_table", None),
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one no-op context manager per benchmark item."""

    @contextmanager
    def span(self, name: str):
        yield

    def mark(self) -> int:
        return 0


class Tracer(NullTracer):
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def mark(self) -> int:
        """Index of the next span, to slice out the spans of one pass."""
        return len(self.spans)

    def _wrap(self, func: Callable, name: str, attrs: Callable | None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    # --- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for home, fname, attrs in TARGETS:
            original = getattr(importlib.import_module(home), fname)
            wrapper = self._wrap(original, f"{home.split('.')[-1]}.{fname}", attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.id, "parent": s.parent, "name": s.name,
                     "start": s.start, "end": s.end, "attrs": s.attrs}
                ) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans.

    Cells scanned are ``lp_upper_bound`` calls plus the benchmark's own
    partial-entanglement d-scans (``bench.general_scan`` spans), since the
    library has no scan function for those.
    """
    child_time: dict[int, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, keep=lambda s: True) -> float:
        return sum(s.duration for s in by_name.get(name, ()) if keep(s))

    def self_time(name: str) -> float:
        return sum(s.duration - child_time.get(s.id, 0.0) for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    for name in ("pauli.canonicalize", "pauli.orthogonal_group", "pauli.symplectic_gram_schmidt"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    for name in ("codes.from_generators", "codes.dual"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_time(name)
    md = by_name.get("codes.min_distance", [])
    out["codes.min_distance.calls"] = len(md)
    out["codes.min_distance.s"] = total("codes.min_distance")
    out["codes.min_distance.elements"] = sum(1 << s.attrs["log2_elements"] for s in md if s.attrs)

    we = [s for s in by_name.get("enumerator.weight_enumerator", []) if s.attrs]
    out["enumerator.weight_enumerator.calls"] = calls("enumerator.weight_enumerator")
    out["enumerator.weight_enumerator.s"] = total("enumerator.weight_enumerator")
    out["enumerator.weight_enumerator.elements"] = sum(1 << s.attrs["rank"] for s in we)
    for lo, hi in RANK_BUCKETS:
        bucket = [s for s in we if lo <= s.attrs["rank"] <= hi]
        secs = sum(s.duration for s in bucket)
        elems = sum(1 << s.attrs["rank"] for s in bucket)
        rate = elems / secs if secs else 0.0
        out[f"enumerator.weight_enumerator.elements_per_s.r{lo}-{hi}"] = rate
    out["enumerator.macwilliams_transform.calls"] = calls("enumerator.macwilliams_transform")
    out["enumerator.macwilliams_transform.s"] = total("enumerator.macwilliams_transform")
    out["enumerator.eaqec_identities.calls"] = calls("enumerator.eaqec_identities")
    out["enumerator.eaqec_identities.self_s"] = self_time("enumerator.eaqec_identities")

    feasible = lambda s: bool(s.attrs and s.attrs["feasible"])
    infeasible = lambda s: not feasible(s)
    lp = by_name.get("lpbound.lp_feasible", [])
    out["lpbound.lp_feasible.calls"] = len(lp)
    out["lpbound.lp_feasible.feasible"] = sum(1 for s in lp if feasible(s))
    out["lpbound.lp_feasible.infeasible"] = sum(1 for s in lp if infeasible(s))
    out["lpbound.lp_feasible.s"] = total("lpbound.lp_feasible")
    out["lpbound.lp_feasible.s_feasible"] = total("lpbound.lp_feasible", feasible)
    out["lpbound.lp_feasible.s_infeasible"] = total("lpbound.lp_feasible", infeasible)
    gen = by_name.get("lpbound.lp_feasible_general", [])
    out["lpbound.lp_feasible_general.calls"] = len(gen)
    out["lpbound.lp_feasible_general.infeasible"] = sum(1 for s in gen if infeasible(s))
    out["lpbound.lp_feasible_general.s"] = total("lpbound.lp_feasible_general")
    out["lpbound.lp_upper_bound.calls"] = calls("lpbound.lp_upper_bound")
    out["lpbound.lp_upper_bound.self_s"] = self_time("lpbound.lp_upper_bound")
    out["lpbound.build_table.self_s"] = self_time("lpbound.build_table")
    # A general solve at c = n - k delegates to lp_feasible: count it once.
    gen_ids = {s.id for s in gen}
    solves = len(gen) + sum(1 for s in lp if s.parent not in gen_ids)
    scans = calls("lpbound.lp_upper_bound") + calls("bench.general_scan")
    out["lpbound.solves_per_cell"] = solves / scans if scans else 0.0
    return out
