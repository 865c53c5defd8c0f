"""Spans and size counts recorded by the benchmark around calls into the library.

The library itself is not instrumented.  Each traced operation gets one
record: its kind, its spans (name, parent span, start and end in seconds from
the operation's start), its sizes, and the seconds spent in ``extra`` spans:
work the plain call does not do, run only to time a stage or count a size.
Totals per span and size are kept for every operation; full records are kept
for the first KEEP operations, which bounds memory on workloads that run
hundreds of thousands of operations, and are written out when the run ends.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter

KEEP = 5000

# Span names; each is reported as "<name>.s", the mean seconds per call.
SPANS = (
    "machine.parse_machine",
    "machine.emit_machine",
    "machine.trim",
    "machine.left_action",
    "duality.dual",
    "duality.dual2",
    "equivalence.minimize",
    "equivalence.normal_form",
    "equivalence.equivalent",
    "equivalence.product",
    "substitution.parse_substitution",
    "substitution.to_padded_machine",
    "substitution.letter_at",
    "substitution.letter_at_constant",
    "substitution.psi",
    "substitution.minimize_substitution",
)

# Size counts and how a run aggregates them over its operations.
SIZES = {
    "machine.states_in": "mean",
    "machine.trim.states": "mean",
    "duality.dual.states": "mean",
    "duality.dual.states_max": "max",
    "duality.bidual.states": "mean",
    "equivalence.product.states": "mean",
    "substitution.psi.rank": "max",
    "substitution.psi.candidates": "max",
    "substitution.iterate_length": "max",
}

# Every per-layer metric a traced run reports, with its unit.  A layer the
# workload never calls reports 0.
LAYER_METRICS = dict(
    [(name + ".s", "s") for name in SPANS]
    + [
        ("machine.parse_machine.mb_per_s", "MB/s"),
        ("cli.import_s", "s"),
        ("cli.command_s", "s"),
        ("cli.exit_codes", "count"),
        ("substitution.psi.yield", "ratio"),
        ("trace.overhead_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
    + [(name, "count") for name in SIZES]
)


class Tracer:
    """Collects spans and sizes per operation; ``span`` nests by call order."""

    def __init__(self):
        self.records = []
        self.busy = {}     # span name -> [total seconds, calls]
        self.sizes = {}    # size name -> [total, count, max]
        self.widest = (0, 0)  # (psi candidates, rank) of the widest sweep
        self._current = None
        self._stack = []
        self._t0 = 0.0

    def begin(self, kind: str):
        self._current = {"op": kind, "spans": [], "sizes": {}, "extra": 0.0}
        if len(self.records) < KEEP:
            self.records.append(self._current)
        self._stack = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str, extra: bool = False):
        spans = self._current["spans"]
        entry = [name, self._stack[-1] if self._stack else None, perf_counter() - self._t0, None]
        self._stack.append(len(spans))
        spans.append(entry)
        # Extra work frees what it builds before the span ends; with the
        # collector paused meanwhile, it leaves the collector's counts as it
        # found them, so it does not move collections into the timed stages.
        pause = extra and gc.isenabled()
        if pause:
            gc.disable()
        try:
            yield
        finally:
            if pause:
                gc.enable()
            entry[3] = perf_counter() - self._t0
            self._stack.pop()
            self._add_span(name, entry[3] - entry[2])
            if extra:
                self._current["extra"] += entry[3] - entry[2]

    @property
    def extra_s(self) -> float:
        """Seconds of the current operation spent in extra spans."""
        return self._current["extra"]

    def _add_span(self, name, seconds):
        total = self.busy.setdefault(name, [0.0, 0])
        total[0] += seconds
        total[1] += 1

    def size(self, name: str, value):
        sizes = self._current["sizes"]
        sizes[name] = sizes.get(name, 0) + value if name.endswith(".bytes") else value
        total = self.sizes.setdefault(name, [0, 0, value])
        total[0] += value
        total[1] += 1
        total[2] = max(total[2], value)
        if name == "substitution.psi.candidates" and value > self.widest[0]:
            self.widest = (value, sizes["substitution.psi.rank"])

    def absorb(self, record: dict):
        """Take the spans and sizes a worker process recorded for the current operation."""
        self._current["spans"] = record["spans"]
        self._current["extra"] += record["extra"]
        for name, _, start, end in record["spans"]:
            self._add_span(name, end - start)
        for name, value in record["sizes"].items():
            self.size(name, value)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of every operation traced so far."""
        def mean(name):
            total, calls = self.busy.get(name, (0.0, 0))
            return total / calls if calls else 0.0

        out = {name + ".s": mean(name) for name in SPANS}
        out["cli.import_s"] = mean("cli.import")
        out["cli.command_s"] = mean("cli.command")
        parse_time = self.busy.get("machine.parse_machine", (0.0, 0))[0]
        parse_bytes = self.sizes.get("machine.parse_machine.bytes", (0,))[0]
        out["machine.parse_machine.mb_per_s"] = parse_bytes / parse_time / 1e6 if parse_time else 0.0
        for name, how in SIZES.items():
            total, count, top = self.sizes.get(name, (0, 0, 0))
            out[name] = top if how == "max" else (total / count if count else 0)
        candidates, rank = self.widest
        out["substitution.psi.yield"] = (rank + 1) / candidates if candidates else 0.0
        return out
