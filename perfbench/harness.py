"""Measurement helpers of the benchmark that do not depend on primesig.

The machine-speed probe that scales reported times, the tail
percentile, the outcome tally behind `failed_ratio`, and the in-memory
span tracer with its self-time accounting.  The tests in
`test_harness.py` cover these helpers.
"""

from __future__ import annotations

import gzip
import math
import statistics
import time
from array import array


# How long reference_time() took on the reference machine (a 2-vCPU VM,
# Python 3.11.7) in its fast periods.  Reported times are scaled to it.
REFERENCE_S = 0.006


def reference_time() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now.

    The loop uses nothing from primesig, so a change to the program cannot
    move it.  It builds 9-tuples of small-int products, the kind of work
    the program's interpreter-bound kernels do; on the reference machine
    host contention slowed it within about 8% of how it slowed the weak
    test and factorization.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        a, m = (1, 2, 3, 4, 5, 6, 7, 8, 9), 1000003
        for _ in range(8000):
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
            a = ((a0 * a4 + a1) % m, (a1 * a5 + a2) % m, (a2 * a6 + a3) % m,
                 (a3 * a7 + a4) % m, (a4 * a8 + a5) % m, (a5 * a0 + a6) % m,
                 (a6 * a1 + a7) % m, (a7 * a2 + a8) % m, (a8 * a3 + a0) % m)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor that scales a time measured between two probes to reference speed."""
    return 2 * REFERENCE_S / (before + after)


def tail(values) -> tuple[float, float]:
    """The highest percentile that has at least ten samples beyond it.

    Nearest-rank rule: the value at rank n - 10 (1-based) of the sorted
    samples is the 100 * (n - 10) / n percentile, and exactly ten samples
    lie above it.  Returns (value, percentile); fewer than 11 samples have
    no such percentile and raise ValueError.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    rank = n - 10
    return sorted(values)[rank - 1], 100.0 * rank / n


class Tally:
    """Outcomes checked against their expected values.

    Every check is one attempted outcome; a wrong or missing outcome is
    one failure.  The first few failure messages are kept for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class NullTracer:
    """The tracer interface with spans off: calls go straight through."""

    def begin(self, name: str, n: int) -> int:
        return -1

    def end(self, sid: int) -> None:
        pass

    def call(self, name, n, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Spans kept in memory: name, start, end, parent span and request n.

    A span opened while another is open becomes its child.  Names are
    `<layer>.<function>`; the layer is the text before the first dot.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.stop = array("d")
        self.parent = array("l")
        self.n: list[int] = []
        self._open: list[int] = []

    def begin(self, name: str, n: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.n.append(n)
        self.stop.append(math.nan)
        self._open.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.stop[sid] = time.perf_counter()
        if self._open.pop() != sid:
            raise RuntimeError("spans must close in the order they opened")

    def call(self, name, n, fn, *args, **kwargs):
        sid = self.begin(name, n)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, sid: int) -> str:
        return self.names[self.name_id[sid]]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Spans of one tracer run serially and children nest inside their
        parent, so the children's durations never overlap each other.
        """
        own = [e - s for s, e in zip(self.start, self.stop)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.stop[sid] - self.start[sid]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (total duration) and self seconds."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for sid, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += self.stop[sid] - self.start[sid]
            row["self_s"] += own[sid]
        return out

    def layer_self_times(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, row in self.summary().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines: id, name, start, end, parent, n."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tn\n")
            for sid in range(len(self)):
                fh.write(f"{sid}\t{self.span_name(sid)}\t{self.start[sid]:.9f}\t"
                         f"{self.stop[sid]:.9f}\t{self.parent[sid]}\t{self.n[sid]}\n")
