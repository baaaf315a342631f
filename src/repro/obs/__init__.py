"""Observability: one metrics spine, query traces, and EXPLAIN ANALYZE.

* :mod:`repro.obs.metrics` — labelled counters, gauges and fixed-bucket
  histograms in the registry every engine owns (``engine.metrics``).
  Counting is always on and kept only there: the engine, the resilience
  layer and the query service count into it, and ``engine.health()``, the
  server's ``stats`` sections and the ``metrics`` wire op read it back.
* :mod:`repro.obs.trace` — hierarchical query traces (query → driver-request
  spans) with an injectable clock and a bounded per-query span budget.
* :mod:`repro.obs.profile` — EXPLAIN ANALYZE profiles (per-stage wall time,
  actual vs. planner-estimated cardinality, retry/spill/fallback
  annotations) and the slow-query log.

Recording is optional.  An :class:`Observability` hub attached with
``engine.attach_observability(hub)`` traces every run, offers each run's
profile to the slow-query log and adds the chunk-size histogram to the
engine's registry; ``profile=True`` records one run's EXPLAIN ANALYZE
without a hub.  Neither changes what a query returns, and the overhead of
an attached hub is CI-gated by ``benchmarks/bench_observability.py``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from .metrics import (CHUNK_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, RowWidthEstimator, exponential_buckets)
from .profile import ProbeTee, QueryProfile, SlowQueryLog, StageCollector
from .trace import QueryTrace, Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "RowWidthEstimator",
    "exponential_buckets", "ProbeTee", "QueryProfile", "SlowQueryLog",
    "StageCollector", "QueryTrace", "Span", "Tracer", "Observability",
]


class Observability:
    """One engine's recorders: the tracer, the slow-query log, chunk sizes.

    Attach with ``engine.attach_observability(hub)``, which hands the hub
    the engine's registry (``hub.metrics``) to register its chunk-size
    histogram in; the hub is the plan-probe sink that feeds it.  The hub
    keeps no counts of its own; the whole hub shares one injectable
    ``clock`` for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 slow_query_threshold: float = 0.25,
                 keep_traces: int = 32, keep_slow_queries: int = 32,
                 max_spans: int = 512) -> None:
        self.clock = clock
        self.tracer = Tracer(clock=clock, keep=keep_traces, max_spans=max_spans)
        self.slow_queries = SlowQueryLog(threshold=slow_query_threshold,
                                         keep=keep_slow_queries)
        #: The registry of the engine this hub is attached to.
        self.metrics: Optional[MetricsRegistry] = None
        self._chunk_rows: Optional[Histogram] = None

    def register(self, metrics: MetricsRegistry) -> None:
        """Report into an engine's registry: add the chunk-size histogram."""
        self.metrics = metrics
        self._chunk_rows = metrics.histogram(
            "repro_chunk_rows", CHUNK_BUCKETS,
            "Rows per chunk observed by the chunked pump")

    # -- plan-probe sink: the engine tees chunked runs' probes here --------

    def note_chunk(self, stage: str, rows: int, seconds: float) -> None:
        self._chunk_rows.observe(rows)

    def complete(self, cardinality: Optional[float] = None) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        """Compact wire-safe summary for the server's ``stats`` section."""
        return {
            "attached": True,
            "tracer": self.tracer.snapshot(),
            "slow_queries": self.slow_queries.snapshot(),
            "metric_count": (len(self.metrics.names())
                             if self.metrics is not None else 0),
        }
