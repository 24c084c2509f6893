"""Span tracer that times wsnsim's layers from outside the package.

Each target is a public function as the *calling* module sees it, for
example ``wsnsim.engine.heed_form_clusters``: wsnsim looks those names up in
its module globals at call time, so replacing the attribute there intercepts
every call made through that module without touching the package's files.

A target the package no longer has is skipped and remembered in
``Tracer.missing``; the benchmark then reports the layers that depend on it
as unmeasured instead of 0, and the end-to-end run carries on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# (module, attribute, span name); the span name's prefix is the layer
TARGETS = (
    ("wsnsim.cli", "main", "cli.main"),
    ("wsnsim.cli", "run_simulation", "engine.run_simulation"),
    ("wsnsim.engine", "run_round", "engine.run_round"),
    ("wsnsim.engine", "deploy_nodes", "model.deploy_nodes"),
    ("wsnsim.engine", "leach_elect", "protocols.leach_elect"),
    ("wsnsim.engine", "enforce_ch_separation", "protocols.enforce_ch_separation"),
    ("wsnsim.engine", "form_clusters_nearest", "protocols.form_clusters_nearest"),
    ("wsnsim.engine", "heed_form_clusters", "protocols.heed_form_clusters"),
    ("wsnsim.engine", "eecs_form_clusters", "protocols.eecs_form_clusters"),
    ("wsnsim.engine", "kmeans_form_clusters", "protocols.kmeans_form_clusters"),
    ("wsnsim.engine", "fuzzy_form_clusters", "protocols.fuzzy_form_clusters"),
    ("wsnsim.protocols", "kmeans_run", "partitioning.kmeans_run"),
    ("wsnsim.protocols", "fcm_run", "partitioning.fcm_run"),
    ("wsnsim.cli", "alive_series", "metrics.alive_series"),
    ("wsnsim.cli", "bs_series", "metrics.bs_series"),
    ("wsnsim.cli", "summarize", "metrics.summarize"),
    ("wsnsim.cli", "export_csv", "metrics.export_csv"),
    ("wsnsim.cli", "export_json", "metrics.export_json"),
)


class Span(NamedTuple):
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None  # index of the benchmark operation the span belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each installed target, kept in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in self.targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, as a child of the open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(next(self._ids), name, start, end, parent, self.op))

    def _wrap(self, fn, name: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = next(ids)
            parent = stack[-1] if stack else None
            stack.append(ident)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(ident, name, start, end, parent, self.op))

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    return {span.ident: span.duration - children[span.ident] for span in spans}
