"""Service-level counters: queue depth, batch sizes, latencies.

Kept separate from the mapping-domain statistics
(:class:`~repro.core.pipeline.PipelineStats` /
:class:`~repro.core.pairing.PairStats`) — those describe *what the
pipeline did to reads*; this module describes *how the daemon served
requests*.  The ``stats`` endpoint returns both side by side.

Latency percentiles use a bounded reservoir of the most recent
samples (plain ring buffer) so a long-lived daemon's memory stays
flat.  Percentile rank is the nearest-rank method on the sorted
sample — deterministic for a fixed sample sequence.
"""

from __future__ import annotations

import threading


class LatencyWindow:
    """Ring buffer of the last ``capacity`` latency samples (seconds)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: list[float] = []
        self._cursor = 0

    def record(self, seconds: float) -> None:
        if len(self._samples) < self.capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self.capacity

    def percentile(self, rank: float) -> float | None:
        """Nearest-rank percentile; ``None`` with no samples."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1,
                    max(0, int(rank / 100.0 * len(ordered))))
        return ordered[index]

    def __len__(self) -> int:
        return len(self._samples)


class ServiceCounters:
    """Thread-safe cumulative counters for one server lifetime."""

    def __init__(self, latency_capacity: int = 1024) -> None:
        self._lock = threading.Lock()
        self._latency = LatencyWindow(latency_capacity)
        self.requests_total = 0
        self.requests_failed = 0
        self.reads_mapped = 0
        self.pairs_mapped = 0
        self.batches_dispatched = 0
        self.batch_reads_total = 0
        self.max_batch_size = 0
        self.rejected_overloaded = 0
        self.rejected_timeout = 0
        self.rejected_shutdown = 0

    def record_request(self, ok: bool) -> None:
        with self._lock:
            self.requests_total += 1
            if not ok:
                self.requests_failed += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches_dispatched += 1
            self.batch_reads_total += size
            if size > self.max_batch_size:
                self.max_batch_size = size

    def record_mapped(self, reads: int = 0, pairs: int = 0) -> None:
        with self._lock:
            self.reads_mapped += reads
            self.pairs_mapped += pairs

    def record_rejection(self, kind: str) -> None:
        with self._lock:
            if kind == "overloaded":
                self.rejected_overloaded += 1
            elif kind == "timeout":
                self.rejected_timeout += 1
            elif kind == "shutting_down":
                self.rejected_shutdown += 1
            else:
                raise ValueError(f"unknown rejection kind {kind!r}")

    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latency.record(seconds)

    def snapshot(self, queue_depth: int = 0) -> dict:
        """Current counters as a JSON-able dict for ``stats``."""
        with self._lock:
            dispatched = self.batches_dispatched
            mean_batch = (self.batch_reads_total / dispatched
                          if dispatched else 0.0)
            p50 = self._latency.percentile(50.0)
            p95 = self._latency.percentile(95.0)
            return {
                "requests_total": self.requests_total,
                "requests_failed": self.requests_failed,
                "reads_mapped": self.reads_mapped,
                "pairs_mapped": self.pairs_mapped,
                "batches_dispatched": dispatched,
                "batch_reads_total": self.batch_reads_total,
                "mean_batch_size": round(mean_batch, 3),
                "max_batch_size": self.max_batch_size,
                "rejected_overloaded": self.rejected_overloaded,
                "rejected_timeout": self.rejected_timeout,
                "rejected_shutdown": self.rejected_shutdown,
                "queue_depth": queue_depth,
                "latency_p50_s": p50,
                "latency_p95_s": p95,
                "latency_samples": len(self._latency),
            }
