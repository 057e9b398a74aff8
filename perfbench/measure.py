"""Clocks of the benchmark: in-memory spans, and a gauge of the host's speed.

A span is (name, start_ns, end_ns, parent index, job id).  Spans live in a
list while the pass runs and are written out once at the end; per-layer
self time is derived from them afterwards, so the only cost inside the
timed region is two clock reads and a list append per call.

On a host whose cores are shared with other tenants, speed drifts by tens
of percent within minutes.  `SpeedGauge` times
a fixed pure-Python reference task between jobs, and every reported time is
scaled by REFERENCE_S / (the reference time measured around it): the time
the job would take on a host where the reference task takes REFERENCE_S.
The reference runs no qrigged code, so a change to the program moves the
scaled times exactly as it moves the raw ones, while host drift cancels.
"""
from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from collections import defaultdict

REFERENCE_S = 0.004  # the reference task's time on the nominal host
GAUGE_INTERVAL_S = 0.05  # sample the reference at most this often


def _partitions(n: int, k: int, memo: dict) -> int:
    if n == 0:
        return 1
    if k == 0:
        return 0
    if (n, k) not in memo:
        memo[n, k] = _partitions(n, k - 1, memo) + \
            (_partitions(n - k, k, memo) if k <= n else 0)
    return memo[n, k]


def _reference_task() -> int:
    """Fixed work in the style of the library: tuple-keyed dicts, small and
    big integers, recursive calls with a memo.  It leaves no reference
    cycle behind, so it adds nothing to the peak RSS of a run."""
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * i
    return len(counts) + _partitions(90, 90, {})


class SpeedGauge:
    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        # A collection of the program's heap inside the sample, or caches
        # left cold by the job before it, would make it measure the program
        # instead of the host: collections are off, and a first untimed run
        # warms the caches.
        gc.disable()
        _reference_task()
        start = time.perf_counter()
        _reference_task()
        end = time.perf_counter()
        gc.enable()
        self.times.append(start)
        self.samples.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= GAUGE_INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """Factor turning a raw time that started at clock `at` into a time
        on the nominal host: from the samples just before and just after."""
        i = bisect.bisect_right(self.times, at)
        return REFERENCE_S / statistics.fmean(self.samples[max(0, i - 1): i + 1])

    def overall(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = None

    def wrap(self, name, fn):
        """Return `fn` recording one span per call under `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> tuple[dict, dict]:
    """Per span name: summed self time in ns, and the number of calls.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the benchmark is one thread.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start - child_ns[i]
        calls[name] += 1
    return dict(total), dict(calls)
