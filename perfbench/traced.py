"""Span recording around the program's own calls.

A traced op is an ordinary ``cli.main`` call under a root span.  For its
duration each public function that ``cli.main`` and ``run_pipeline`` call is
replaced, in the module namespace the program looks it up in, by a wrapper
that opens a span around the call and keeps its return value.  The program
runs unchanged; its outputs are still checked byte for byte against the
untraced op on the same input.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from dsvision import cli, pyramid

ROOT_SPAN = "cli"

# span name -> the module whose global the program calls it through
LAYERS = {
    "netpbm.read_pgm": cli,
    "pyramid.build_pyramid": pyramid,
    "pyramid.extract_micro_edges": pyramid,
    "pyramid.aggregate_short_edges": pyramid,
    "pyramid.aggregate_long_edges": pyramid,
    "pyramid.find_window_candidates": pyramid,
    "pyramid.stage_a_beliefs": pyramid,
    "pyramid.sibling_search": pyramid,
    "pyramid.building_boundary": pyramid,
    "pyramid.stage_b_beliefs": pyramid,
    "pyramid.stage_c_beliefs": pyramid,
    "report.format_report": cli,
    "report.write_overlay": cli,
    "evidence.parse_mass_text": cli,
    "evidence.combine_all": cli,
    "evidence.format_mass_text": cli,
    "knowledge.parse_knowledge": cli,
    "knowledge.verify": cli,
}


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.returns: dict[str, object] = {}   # last return value per span name
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index, parent = len(self.spans), self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            # a tuple of scalars, which the garbage collector stops tracking
            self.spans[index] = (name, start, time.perf_counter(), parent, self.op)
            self._open.pop()

    def _wrap(self, name: str, fn):
        def traced_call(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            self.returns[name] = value
            return value
        return traced_call

    @contextmanager
    def installed(self):
        """Wrap every layer function in place; restore the originals after."""
        originals = [(module, name.split(".")[1], getattr(module, name.split(".")[1]))
                     for name, module in LAYERS.items()]
        for (module, attr, fn), name in zip(originals, LAYERS):
            setattr(module, attr, self._wrap(name, fn))
        try:
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def begin(self, op: int) -> None:
        """Start op ``op``: its spans carry that id, and the return values
        kept are its own."""
        self.op, self.returns = op, {}

    def main(self, argv: list[str]) -> int:
        """``cli.main(argv)`` under the root span, with the layers wrapped."""
        with self.installed(), self.span(ROOT_SPAN):
            return cli.main(argv)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its direct children."""
        totals: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
