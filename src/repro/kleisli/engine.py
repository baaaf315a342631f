"""The Kleisli engine: drivers + optimizer + evaluator.

"CPL is implemented on top of an extensible query system called Kleisli ...
Routines within Kleisli manage optimization, query evaluation, and I/O from
remote and local data sources."  The engine is that middle layer:

* a **driver registry** — drivers are registered by name, contribute CPL
  functions and statistics, and are reached at run time through
  :meth:`driver_executor`, the callback every :class:`~repro.core.nrc.ast.Scan`
  node evaluates through;
* the **optimizer pipeline** (rebuilt whenever registration changes);
* the **cost-based planner** — per-query physical knobs (join block size,
  chunk ramp bounds, prefetch granularity) chosen from registered/observed
  source statistics and the run-time feedback ledger, instead of constants
  (:meth:`KleisliEngine.plan_for`; zero knowledge reproduces the historical
  defaults exactly);
* the **evaluator context** — subquery cache, execution statistics;
* the **metrics registry** (``engine.metrics``) — the one always-on place
  engine-wide counts are kept: driver requests per driver, resilience
  events, governance outcomes, and the query service's admissions and
  sessions; :meth:`KleisliEngine.health` is a view over it;
* ``execute`` / ``stream`` — eager evaluation and the pipelined variant that
  yields results as the outermost generator produces them (fast first
  response).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import (
    DriverNotRegisteredError,
    MemoryBudgetExceededError,
    QueryCancelledError,
)
from ..core.nrc import ast as A
from ..core.nrc.compile import (
    ChunkPolicy,
    CompiledChunkedStream,
    CompiledQuery,
    ExecutionMode,
    compile_chunked,
    compile_term,
    term_fingerprint,
)
from ..core.nrc.eval import (
    Environment,
    EvalContext,
    EvalStatistics,
    Evaluator,
    close_source,
    iterate_source,
    materialise,
)
from ..core.nrc.rewrite import RewriteStats
from ..core.optimizer import OptimizerConfig, OptimizerPipeline, ScanSpec
from ..core.planner import (
    PhysicalPlan,
    PlanFeedback,
    PlanStore,
    QueryPlanner,
    scan_collection,
)
from ..core.values import CBag, CList, CSet, iter_collection
from ..obs import Observability
from ..obs.metrics import (LATENCY_BUCKETS, SPILL_BUCKETS, MetricsRegistry,
                           RowWidthEstimator)
from ..obs.profile import ProbeTee, QueryProfile, StageCollector, aggregate_driver_spans
from ..obs.trace import QueryTrace
from .cache import SubqueryCache
from .drivers.base import Driver, DriverFunction
from .governance import NOMINAL_ROW_BYTES, CancellationToken, MemoryBudget
from .resilience import CircuitBreaker, CircuitBreakerPolicy, ResilienceLayer, RetryPolicy
from .spill import SpillManager
from .statistics import SourceStatisticsRegistry

__all__ = ["KleisliEngine", "ExecutionMode"]

# The benchmark's layer tracer (perfbench/tracing.py) wraps this module's
# lowering entry points by name, the streaming one under its older name
# below; the chunked lowering is the one streaming lowering.
compile_stream = compile_chunked

#: The governance counters ``repro_<key>_total``, by book key.
_GOVERNANCE_COUNTERS = {
    "cancellations": "Queries ended by cancellation",
    "spills": "Spill events across governed queries",
    "rows_spilled": "Rows spilled to disk",
    "budget_rejections": "Queries killed by memory budget",
    "watchdog_kills": "Queries a server watchdog cancelled",
    "spill_fallbacks": "Unpicklable values spill backends kept in memory",
}

#: How many lowered queries (eager + chunked together) the engine keeps;
#: the least recently used entry is evicted when the cache is full.
_COMPILED_CACHE_LIMIT = 128


class _CompileCache:
    """A fingerprint-keyed LRU of lowered queries, shared by both targets.

    Keys are ``(target, term_fingerprint(expr))`` where ``target`` is
    ``"eager"`` (:class:`CompiledQuery`) or ``"chunked"``
    (:class:`CompiledChunkedStream`), so the two lowerings of one term
    coexist without conflation.  A hit moves
    the entry to the most-recently-used position; insertion past ``limit``
    evicts only the least recently used entry — not the whole cache, as the
    pre-LRU memo did.

    All operations hold a lock: scheduler worker threads compile through
    the one engine (a ``ParallelExt`` body's subqueries, cross-session
    reuse), and an unlocked ``OrderedDict`` being reordered by ``get`` while
    another thread inserts can corrupt the linked list — and the hit/miss
    counters' read-modify-writes would under-count (``SubqueryCache`` has
    locked for the same reason all along).
    """

    __slots__ = ("limit", "hits", "misses", "evictions", "_entries", "_lock")

    def __init__(self, limit: int = _COMPILED_CACHE_LIMIT):
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Tuple) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class KleisliEngine:
    """Driver registry, optimizer and evaluator in one object."""

    def __init__(self, optimizer_config: Optional[OptimizerConfig] = None,
                 execution_mode: object = ExecutionMode.COMPILED,
                 plan_store: Optional[PlanStore] = None,
                 memory_pool_limit: Optional[int] = None):
        self.drivers: Dict[str, Driver] = {}
        self.driver_functions: Dict[str, Tuple[Driver, DriverFunction]] = {}
        self.statistics_registry = SourceStatisticsRegistry()
        self.cache = SubqueryCache()
        self.optimizer_config = optimizer_config or OptimizerConfig()
        #: The run-time feedback ledger: per-stage per-chunk costs and true
        #: cardinalities of drained chunked runs, keyed by term fingerprint.
        self.plan_feedback = PlanFeedback()
        #: The cost-based planner.  Its compile-time hooks gate the join
        #: block size and parallel introduction inside both optimizers;
        #: :meth:`plan_for` asks it for the run-time knobs per query.  With
        #: zero statistics and no feedback it reproduces the historical
        #: constants exactly.
        self.planner = QueryPlanner(
            self.statistics_registry, self.plan_feedback,
            default_block_size=self.optimizer_config.join_block_size,
            parallel_max_workers=self.optimizer_config.parallel_max_workers,
            batches_natively=self._driver_batches_natively)
        self.last_plan: Optional[PhysicalPlan] = None
        self.optimizer = self._build_optimizer()
        #: The pipelined-execution planner: same rule sets, but with the
        #: streaming hint set (blocked joins get block size 1 so the
        #: streamed probe side yields per outer element).  ``stream`` uses
        #: this; ``execute`` keeps the eager plan.
        self.stream_optimizer = self._build_optimizer(streaming=True)
        self.execution_mode = ExecutionMode.coerce(execution_mode)
        #: The engine's metrics registry, always on: the only place
        #: engine-wide counts are kept.  The resilience layer and the query
        #: service register their instruments here too; :meth:`health`, the
        #: server's ``stats`` sections and its ``metrics`` op read it.
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._queries = m.counter("repro_queries_total", "Engine runs started")
        self._driver_requests = m.counter(
            "repro_driver_requests_total", "Driver requests dispatched",
            ("driver",))
        self._driver_failures = m.counter(
            "repro_driver_failures_total", "Driver requests that raised",
            ("driver",))
        self._request_seconds = m.histogram(
            "repro_driver_request_seconds", LATENCY_BUCKETS,
            "Wall time of one driver round trip (a native batch is one)",
            ("driver",))
        self._governance = {key: m.counter(f"repro_{key}_total", help)
                            for key, help in _GOVERNANCE_COUNTERS.items()}
        self._spilled_bytes = m.histogram(
            "repro_query_spilled_bytes", SPILL_BUCKETS,
            "Bytes spilled to disk per governed query")
        #: The driver resilience layer (retries, breakers, deadlines,
        #: mid-stream recovery).  Default-off: a driver with no configured
        #: policy dispatches exactly as before, so zero-fault runs are
        #: bit-for-bit unchanged.  Configure via :meth:`configure_resilience`.
        self.resilience = ResilienceLayer()
        self.resilience.bind_metrics(m)
        self.resilience.on_breaker_event = self._note_breaker_event
        #: The optional engine-wide memory pool per-query budgets parent
        #: into.  With no ``memory_pool_limit`` and no per-run governance
        #: arguments, every run takes exactly the ungoverned code paths (the
        #: zero-governance contract).
        self.memory_pool: Optional[MemoryBudget] = (
            MemoryBudget(memory_pool_limit, label="engine")
            if memory_pool_limit is not None else None)
        #: The observability hub (tracer + slow-query log), or ``None``:
        #: with no hub attached and ``profile=False``, no run is traced or
        #: profiled.  Attach via :meth:`attach_observability`.
        self.observability: Optional[Observability] = None
        #: The sampled row-width model feeding the governance spill gate.
        #: Fed from spill bookkeeping (bytes *and* rows per spilled frame);
        #: with zero samples it returns ``NOMINAL_ROW_BYTES`` verbatim, so
        #: an engine that never spilled gates exactly like the historical
        #: constant.
        self.row_width = RowWidthEstimator(NOMINAL_ROW_BYTES)
        #: The most recent :class:`~repro.obs.profile.QueryProfile` (EXPLAIN
        #: ANALYZE record) any observed/profiled run produced, plus a
        #: thread-local mirror for shared-engine servers (same rationale as
        #: ``_thread_statistics``).
        self.last_profile: Optional[QueryProfile] = None
        self._thread_profiles = threading.local()
        #: Engine-wide default for ``on_source_failure`` when a run does not
        #: choose: ``"fail"`` propagates source failures, ``"degrade"``
        #: completes federated runs with typed partial-result warnings.
        self.on_source_failure = "fail"
        self.last_eval_statistics: Optional[EvalStatistics] = None
        self.last_rewrite_stats: Optional[RewriteStats] = None
        # Thread-local mirror of last_eval_statistics: on a shared engine,
        # concurrent sessions overwrite the engine-wide attribute, so a
        # server thread that needs ITS run's statistics (degradation
        # warnings on the wire) reads thread_eval_statistics() instead.
        self._thread_statistics = threading.local()
        self._compiled_queries = _CompileCache(_COMPILED_CACHE_LIMIT)
        #: The crash-safe persistence layer for the feedback ledger and the
        #: statistics registry's learned state.  ``None`` (the default)
        #: means no persistence at all — the engine behaves exactly as
        #: before the store existed.
        self.plan_store: Optional[PlanStore] = None
        if plan_store is not None:
            self.attach_plan_store(plan_store)

    # -- plan-store wiring -----------------------------------------------------

    def attach_plan_store(self, store: PlanStore) -> None:
        """Attach a persistence store: warm-start now, write-through after.

        Loads whatever the store recovered (feedback entries below any live
        knowledge's recency, statistics as gap-fill), then hooks the ledger
        so every fold is journaled write-through and the store can read
        consistent state for compaction.  Loading never raises on corrupt
        storage — the zero-knowledge contract: an engine attached to a
        missing/empty/corrupt store plans exactly like a storeless one.
        """
        self.plan_store = store
        store.state_provider = self._plan_store_state
        state = store.load()
        self.plan_feedback.restore(state.feedback)
        self.statistics_registry.restore(state.statistics)
        self.plan_feedback.on_record = self._persist_feedback

    def _plan_store_state(self) -> Tuple[list, dict]:
        """The store's consistent-state callback (compaction, flushes)."""
        return (self.plan_feedback.snapshot(),
                self.statistics_registry.snapshot())

    def _persist_feedback(self, fingerprint: Tuple, state: Dict,
                          updated: float) -> None:
        store = self.plan_store
        if store is not None:
            store.append_feedback(fingerprint, state, updated)

    def flush_plan_store(self, compact: bool = False) -> None:
        """Durably flush (optionally compact) the attached store, if any.

        The shutdown/drain hook: the server calls this at the end of a
        graceful stop, and periodic flushing piggybacks on the store's own
        statistics interval.  A storeless engine no-ops.
        """
        store = self.plan_store
        if store is None:
            return
        if compact:
            store.compact()
        store.flush()

    # -- driver registration ---------------------------------------------------------

    def register_driver(self, driver: Driver, latency: Optional[float] = None) -> Driver:
        """Register a driver; its CPL functions and statistics become available.

        ``latency`` (seconds) marks the driver as remote in the statistics
        registry, which is what the parallelism rules key on.
        """
        self.drivers[driver.name] = driver
        driver.open()
        for function in driver.cpl_functions():
            self.driver_functions[function.name] = (driver, function)
        for collection in driver.collection_names():
            cardinality = driver.cardinality(collection)
            if cardinality is not None:
                self.statistics_registry.register_cardinality(driver.name, collection, cardinality)
        if latency is not None:
            self.statistics_registry.register_latency(driver.name, latency)
        elif getattr(driver, "remote", None) is not None:
            self.statistics_registry.register_latency(driver.name, driver.remote.latency)
        self._rebuild_optimizers()
        return driver

    def unregister_driver(self, name: str) -> None:
        driver = self.drivers.pop(name, None)
        if driver is None:
            raise DriverNotRegisteredError(name)
        driver.close()
        self.driver_functions = {
            fname: (drv, fn) for fname, (drv, fn) in self.driver_functions.items()
            if drv.name != name
        }
        self._rebuild_optimizers()

    def driver(self, name: str) -> Driver:
        try:
            return self.drivers[name]
        except KeyError:
            raise DriverNotRegisteredError(name)

    def _driver_batches_natively(self, name: str) -> bool:
        """Does this driver ship a whole ``execute_batch`` in one round-trip?

        What makes raising the remote batch cap pay for the planner: a
        default-looping driver performs the same round-trips however the
        requests are batched, so only a native single-round-trip batch
        changes the cost model.
        """
        driver = self.drivers.get(name)
        return (driver is not None
                and type(driver).execute_batch is not Driver.execute_batch
                and driver.batch_single_round_trip)

    # -- optimizer wiring ---------------------------------------------------------------

    def _build_optimizer(self, streaming: bool = False) -> OptimizerPipeline:
        registry = {
            fname: ScanSpec(driver.name, function.request_template,
                            function.argument_key, function.argument_is_record,
                            function.result_kind)
            for fname, (driver, function) in self.driver_functions.items()
        }
        capabilities = {name: driver.capabilities for name, driver in self.drivers.items()}
        config = self.optimizer_config
        if streaming:
            config = config.for_streaming()
        return OptimizerPipeline(
            function_registry=registry,
            capabilities=capabilities,
            cardinality_of=self._estimate_cardinality,
            is_remote_driver=self.statistics_registry.is_remote,
            config=config,
            planner=self.planner,
        )

    def _rebuild_optimizers(self) -> None:
        """Re-derive both planners after driver registration changed."""
        self.optimizer = self._build_optimizer()
        self.stream_optimizer = self._build_optimizer(streaming=True)

    def _estimate_cardinality(self, source: A.Expr) -> int:
        """Estimate the size of a generator source for the join rule set."""
        if isinstance(source, A.Cached):
            return self._estimate_cardinality(source.expr)
        if isinstance(source, A.Scan):
            # One collection-key probing order for the whole system: the
            # planner's estimator uses the same helper, so the join rule
            # and the plan chooser can never disagree about which
            # cardinality a scan reads.
            collection = scan_collection(source.request)
            return self.statistics_registry.cardinality(source.driver, collection)
        if isinstance(source, A.Const):
            try:
                return len(list(iter_collection(source.value)))
            except Exception:
                return SourceStatisticsRegistry.DEFAULT_CARDINALITY
        return SourceStatisticsRegistry.DEFAULT_CARDINALITY

    # -- compilation and execution ----------------------------------------------------------

    def compile(self, expr: A.Expr, collect_stats: bool = True) -> A.Expr:
        """Optimize an NRC expression with the current rule sets."""
        stats = RewriteStats() if collect_stats else None
        optimized = self.optimizer.optimize(expr, stats)
        self.last_rewrite_stats = stats
        return optimized

    def compile_for_stream(self, expr: A.Expr, collect_stats: bool = True) -> A.Expr:
        """Optimize for pipelined execution: the streaming-hinted planner.

        Same rule sets as :meth:`compile`, but blocked joins are emitted with
        block size 1 so the streamed lowering probes — and yields — per outer
        element (``stream`` routes through this; result values are identical
        either way).
        """
        stats = RewriteStats() if collect_stats else None
        optimized = self.stream_optimizer.optimize(expr, stats)
        self.last_rewrite_stats = stats
        return optimized

    def configure_resilience(self, driver_name: str,
                             retry: Optional[RetryPolicy] = None,
                             breaker: Optional[CircuitBreakerPolicy] = None) -> None:
        """Install a retry policy and/or circuit breaker for one driver.

        Passing neither removes the configuration: the driver returns to
        raw pass-through dispatch (the default for every driver).
        """
        self.resilience.set_policy(driver_name, retry, breaker)

    def _note_breaker_event(self, driver_name: str, state: str) -> None:
        """Breaker state changes feed the planner's availability view.

        An open (or half-open, still-probing) breaker marks the source
        unavailable in the statistics registry, so :meth:`plan_for` stops
        routing batched scans at it; re-closing restores availability.
        """
        self.statistics_registry.set_available(
            driver_name, state == CircuitBreaker.CLOSED)

    # -- observability wiring ---------------------------------------------------

    def attach_observability(self, hub: Optional[Observability]) -> Optional[Observability]:
        """Attach (or, with ``None``, detach) the observability hub.

        While attached, every run is traced, chunked runs feed the hub's
        chunk-size histogram (registered in :attr:`metrics` here), and
        completed runs are considered for the slow-query log.  Counting
        does not depend on a hub: :attr:`metrics` is always on.
        """
        if hub is not None:
            hub.register(self.metrics)
        self.observability = hub
        return hub

    def _begin_trace(self, profile: bool) -> Optional[QueryTrace]:
        """The run's trace: hub-recorded, profile-only, or ``None`` (off)."""
        hub = self.observability
        if hub is not None:
            return hub.tracer.start("query")
        if profile:
            return QueryTrace("query")
        return None

    def thread_profile(self) -> Optional[QueryProfile]:
        """The profile of the last observed run *started on this thread*."""
        return getattr(self._thread_profiles, "value", None)

    def driver_executor(self, driver_name: str, request: Mapping[str, object],
                        context: Optional[EvalContext] = None):
        """The Scan callback: route a request to the named driver.

        Dispatch runs through the resilience layer — retries, per-request
        timeouts, the per-query deadline on ``context``, circuit breaking,
        mid-stream recovery wrapping, degradation — which is pure
        pass-through for drivers with no configured policy.  ``context``
        (bound per run by :meth:`_make_context`) carries the deadline and
        failure policy; direct callers may omit it.

        A cancelled run never dispatches another request: the token is
        checked *before* the resilience layer, so cancellation beats retry
        loops and degradation alike — no driver round-trip is wasted on a
        query nobody is waiting for.
        """
        if context is not None and context.cancellation is not None:
            context.cancellation.raise_if_cancelled()
        trace = None if context is None else context.trace
        if trace is None:
            return self.resilience.execute(driver_name, request,
                                           self._raw_execute, context)
        with trace.span(driver_name, "driver"):
            return self.resilience.execute(driver_name, request,
                                           self._raw_execute, context)

    def _raw_execute(self, driver_name: str, request: Mapping[str, object]):
        """One raw driver round-trip (what the resilience layer retries).

        Every *successful* request's round-trip is folded into the
        statistics registry's observed-latency EMA, so a driver nobody
        declared remote but whose requests are measured slow is treated as
        remote by the parallelism rules on later compilations (lazy cursors
        dispatch in ~0s and stay local; their per-element latency is paid
        during consumption).  Failures are excluded: an overloaded remote
        server rejecting in ~1 ms would otherwise drag the EMA *down* and
        demote exactly the driver that most needs request overlap — for the
        same reason, a retried request contributes one sample per
        *successful* attempt, never its failed tries.

        Every attempt, failed or not, is counted in the registry's
        per-driver request, failure and latency series.
        """
        started = time.perf_counter()
        try:
            result = self.driver(driver_name).execute(request)
        except Exception:
            self._count_round_trip(driver_name, 1,
                                   time.perf_counter() - started)
            self._driver_failures.labels(driver_name).inc()
            raise
        elapsed = time.perf_counter() - started
        self.statistics_registry.record_latency_sample(driver_name, elapsed)
        self._count_round_trip(driver_name, 1, elapsed)
        return result

    def _count_round_trip(self, driver_name: str, requests: int,
                          seconds: float) -> None:
        """Count one driver round trip that carried ``requests`` requests."""
        self._driver_requests.labels(driver_name).inc(requests)
        self._request_seconds.labels(driver_name).observe(seconds)

    def driver_executor_batch(self, driver_name: str,
                              requests: Sequence[Mapping[str, object]],
                              context: Optional[EvalContext] = None) -> List[object]:
        """The batched Scan callback: a whole chunk's requests in one call.

        A driver that left :meth:`~repro.kleisli.drivers.base.Driver.execute_batch`
        at its default (loop over ``execute``) is dispatched per request
        through :meth:`driver_executor` — identical behavior, but every
        round-trip feeds the observed-latency EMA, so a slow undeclared
        driver reached only through batched body scans is still promoted to
        remote (and its later batches capped at ``remote_max_chunk``)
        exactly as under per-element dispatch.  A driver with a *native*
        ``execute_batch`` gets the one call; whether it yields a latency
        sample depends on the driver's declared batch economics
        (``batch_single_round_trip``): one-wire-call batches record nothing
        — a batch elapsed time has no sound per-request decomposition, and
        a mean-per-request sample would decay a genuinely remote driver's
        EMA below the promotion threshold as batches grow — while native
        batches that still do per-request work (the flat-file driver's
        cached reads) record the mean, which IS their true per-request cost.

        A *failed* native batch no longer poisons its siblings: the batch is
        decomposed and re-dispatched per request through
        :meth:`driver_executor`, so only the genuinely bad request fails
        (and, with a retry policy or degradation configured, may not fail at
        all — a whole-batch cap rejection retries per request).  The
        re-dispatched requests are real per-request round-trips, so their
        EMA samples follow the per-request rule above.

        A successful native batch counts all its requests in the driver's
        request series and one latency observation; a failed one counts
        nothing itself, since its requests are counted as they are
        re-dispatched.
        """
        if context is not None and context.cancellation is not None:
            context.cancellation.raise_if_cancelled()
        driver = self.driver(driver_name)
        if not requests:
            return []
        if type(driver).execute_batch is Driver.execute_batch:
            return [self.driver_executor(driver_name, request, context)
                    for request in requests]
        trace = None if context is None else context.trace
        span = (None if trace is None
                else trace.begin(driver_name, "driver-batch",
                                 requests=len(requests)))
        started = time.perf_counter()
        try:
            results = list(driver.execute_batch(requests))
        except Exception:
            if span is not None:
                trace.end(span, status="error")
            return [self.driver_executor(driver_name, request, context)
                    for request in requests]
        elapsed = time.perf_counter() - started
        if span is not None:
            trace.end(span)
        self._count_round_trip(driver_name, len(requests), elapsed)
        if not driver.batch_single_round_trip:
            self.statistics_registry.record_latency_sample(
                driver_name, elapsed / len(requests))
        return results

    def health(self) -> Dict[str, object]:
        """A consistent snapshot of the engine's *shared* structures.

        This is what the query service's ``stats`` op reports, and what the
        multi-session soak tests assert consistency on: every counter here
        belongs to state that concurrent sessions share (the compile-cache
        LRU, the subquery cache, the plan-feedback ledger, per-driver
        request counts) or to process-wide resource accounting
        (:meth:`~repro.core.nrc.eval.EvalScope.live_count` — open pipelined
        runs; zero when every cursor has been released).  Per-session state
        (CPL definitions, type environments, ``EvalScope`` contents) never
        appears here — it dies with the session.  The resilience and
        governance sections are views over :attr:`metrics`.
        """
        from ..core.nrc.eval import EvalScope

        cache = self._compiled_queries
        return {
            "compile_cache": {
                "hits": cache.hits, "misses": cache.misses,
                "evictions": cache.evictions, "size": len(cache),
                "limit": cache.limit,
            },
            "subquery_cache": {
                "hits": self.cache.hits, "misses": self.cache.misses,
                "size": len(self.cache),
            },
            "plan_feedback": {
                "entries": len(self.plan_feedback),
                "recordings": self.plan_feedback.recordings,
                "lookups": self.plan_feedback.lookups,
                "hits": self.plan_feedback.hits,
            },
            "drivers": {name: driver.request_count
                        for name, driver in self.drivers.items()},
            "live_scopes": EvalScope.live_count(),
            # Per-driver resilience books: retry/timeout/recovery counters
            # and breaker state (``None`` breaker = no breaker configured).
            # Only drivers with a policy, breaker, or recorded activity
            # appear; an unconfigured engine reports {}.
            "resilience": self.resilience.snapshot(),
            # The plan store's account: what loaded, what was refused as
            # corrupt, what was written.  ``{"attached": False}`` when no
            # store is configured.
            "persistence": (self.plan_store.books()
                            if self.plan_store is not None
                            else {"attached": False}),
            "governance": self.governance(),
            # The observability hub's account (tracer, slow-query log) —
            # ``{"attached": False}`` with no hub — and the sampled
            # row-width model behind the spill gate.
            "observability": (self.observability.snapshot()
                              if self.observability is not None
                              else {"attached": False}),
            "row_width": self.row_width.snapshot(),
        }

    def governance(self) -> Dict[str, object]:
        """The governance books, read from :attr:`metrics`.

        Cancellations, spills, bytes and rows spilled, budget rejections and
        watchdog kills (all zeros on an ungoverned engine), spill fallbacks
        once there are any, and pool usage when an engine-wide memory pool
        is configured.
        """
        books: Dict[str, object] = {
            key: counter.value for key, counter in self._governance.items()}
        books["bytes_spilled"] = self._spilled_bytes.sum
        if not books["spill_fallbacks"]:
            del books["spill_fallbacks"]
        pool = self.memory_pool
        if pool is not None:
            books["pool_used_bytes"] = pool.used
            books["pool_limit_bytes"] = pool.limit
        return books

    def chunk_policy(self) -> ChunkPolicy:
        """The *uninformed* chunk-size policy (historical default knobs).

        Remote drivers (declared or observed through the registry's latency
        EMA) keep small chunks so one chunk never buffers more than a
        bounded slice of a slow cursor; local sources ramp to the full
        maximum.  ``stream`` prefers :meth:`plan_for`'s per-query policy;
        this is what the planner also returns when it knows nothing.
        """
        return ChunkPolicy(is_remote=self.statistics_registry.is_remote)

    def plan_for(self, expr: A.Expr,
                 fingerprint: Optional[Tuple] = None) -> PhysicalPlan:
        """The cost-based physical plan for one (optimized) query.

        Consults registered/observed source statistics and the feedback
        ledger of earlier runs; with ``OptimizerConfig.planning`` off — or
        nothing known — the historical default knobs come back unchanged.
        The chosen plan is recorded on ``last_plan`` for inspection.
        ``fingerprint`` (when the caller already computed the term's
        fingerprint) skips the planner's own walk.
        """
        if self.optimizer_config.planning:
            plan = self.planner.plan_for(expr, fingerprint)
        else:
            plan = PhysicalPlan.default(self.optimizer_config.join_block_size)
        self.last_plan = plan
        return plan

    def _make_context(self, deadline: Optional[float] = None,
                      on_source_failure: Optional[str] = None,
                      cancellation: Optional[CancellationToken] = None,
                      memory_budget: Optional[MemoryBudget] = None,
                      spill_manager: Optional[SpillManager] = None
                      ) -> EvalContext:
        """One run's ambient context, with its resilience parameters bound.

        ``deadline`` is a *relative* budget in seconds, converted to an
        absolute deadline on the resilience layer's clock here, when the
        run starts.  The Scan callbacks are bound as closures over this
        context so the resilience layer sees the run's deadline and
        failure policy at every dispatch — while the engine methods keep
        their context-free signatures for direct callers.  ``cancellation``,
        ``memory_budget`` and ``spill_manager`` (already resolved by
        :meth:`_governed_run`) land on the context's governance hooks; all
        ``None`` reproduces the pre-governance context exactly.
        """
        self._queries.inc()
        statistics = EvalStatistics()
        self.last_eval_statistics = statistics
        self._thread_statistics.value = statistics
        context = EvalContext(statistics=statistics, cache=self.cache)
        policy = (on_source_failure if on_source_failure is not None
                  else self.on_source_failure)
        if policy not in ("fail", "degrade"):
            raise ValueError(
                f"on_source_failure must be 'fail' or 'degrade', got {policy!r}")
        context.on_source_failure = policy
        if deadline is not None:
            context.deadline = self.resilience.clock() + deadline
        context.cancellation = cancellation
        context.memory_budget = memory_budget
        context.spill = spill_manager
        context.driver_executor = (
            lambda name, request: self.driver_executor(name, request, context))
        context.driver_executor_batch = (
            lambda name, requests: self.driver_executor_batch(
                name, requests, context))
        return context

    # -- governance resolution ---------------------------------------------------

    def _resolve_budget(self, memory_budget
                        ) -> Tuple[Optional[MemoryBudget], bool]:
        """Normalise a caller's budget argument to a :class:`MemoryBudget`.

        Returns ``(budget, owned)``.  An ``int`` mints a per-query budget
        parented into the engine pool; a ready-made :class:`MemoryBudget`
        (e.g. a session-scoped quota) becomes the *parent* of a fresh
        per-run child, so concurrent runs share the quota and each run's
        usage flows back when its child closes.  Both are ``owned`` — the
        run finalizer closes the child, never the caller's budget.
        ``None`` normally stays ``None`` (zero governance) — except on a
        pool-capped engine, where every run charges the pool through an
        unbounded owned budget, or one unbudgeted query could dodge the cap
        the operator configured.
        """
        pool = self.memory_pool
        if memory_budget is None:
            if pool is None:
                return None, False
            return MemoryBudget(None, label="query", parent=pool), True
        if isinstance(memory_budget, MemoryBudget):
            return MemoryBudget(None, label="query",
                                parent=memory_budget), True
        limit = int(memory_budget)
        return MemoryBudget(limit, label="query", parent=pool), True

    def _resolve_spill(self, spill: Optional[bool],
                       budget: Optional[MemoryBudget],
                       plan: Optional[PhysicalPlan]) -> Optional[SpillManager]:
        """The plan gate: pick in-memory vs. spill-to-disk *up front*.

        ``spill=True`` forces a spill manager, ``False`` forbids one, and
        ``None`` (auto) consults the cost model: when the planner's row
        estimate times the *sampled* row width (``self.row_width``, fed
        from spill bookkeeping; exactly
        :data:`~repro.kleisli.governance.NOMINAL_ROW_BYTES` until the first
        sample — the differential pin) exceeds the tightest cap in the
        budget chain, the materialization points are going to blow the
        budget anyway — so the run degrades to disk-backed
        (slower-but-correct) from the start instead of failing mid-flight.
        No estimate, or estimate under budget, means in-memory with the
        budget as a backstop.
        """
        if spill is False:
            return None
        if spill is True:
            return SpillManager()
        if budget is None or plan is None or plan.estimated_rows is None:
            return None
        cap: Optional[int] = None
        node = budget
        while node is not None:
            if node.limit is not None and (cap is None or node.limit < cap):
                cap = node.limit
            node = node.parent
        if cap is not None and plan.estimated_rows * self.row_width.row_bytes() > cap:
            return SpillManager()
        return None

    def _finish_governed(self, budget: Optional[MemoryBudget], owned: bool,
                         spill_manager: Optional[SpillManager]) -> None:
        """The run finalizer: count the spill books, free pool and disk.

        Spill books also feed the row-width model (each spilled frame knows
        its bytes *and* rows).
        """
        if spill_manager is not None:
            books = spill_manager.books
            rows, nbytes = books["rows_spilled"], books["bytes_spilled"]
            if rows:
                self.row_width.observe(nbytes, rows)
            if nbytes:
                self._spilled_bytes.observe(nbytes)
            for key in ("spills", "rows_spilled", "spill_fallbacks"):
                self._governance[key].inc(books[key])
            spill_manager.close()
        if owned and budget is not None:
            budget.close()

    def thread_eval_statistics(self) -> Optional[EvalStatistics]:
        """The statistics of the last run *started on this thread*.

        Unlike ``last_eval_statistics`` this cannot be clobbered by another
        session's concurrent run; a streamed run's object keeps accumulating
        (warnings included) as the stream drains.
        """
        return getattr(self._thread_statistics, "value", None)

    def _resolve_mode(self, mode: Optional[object]) -> ExecutionMode:
        return self.execution_mode if mode is None else ExecutionMode.coerce(mode)

    def _lowered(self, target: str, expr: A.Expr, lower: Callable,
                 statistics: Optional[EvalStatistics],
                 fingerprint: Optional[Tuple] = None) -> object:
        """LRU lookup-or-compile for one lowering target; updates counters.

        ``fingerprint`` reuses a walk the caller already did (``stream``
        fingerprints every planned run for the planner and feedback probe).
        """
        cache = self._compiled_queries
        if fingerprint is None:
            fingerprint = term_fingerprint(expr)
        memo_key = (target, fingerprint)
        query = cache.get(memo_key)
        if query is None:
            query = lower(expr)
            cache.put(memo_key, query)
            if statistics is not None:
                statistics.compile_cache_misses += 1
        elif statistics is not None:
            statistics.compile_cache_hits += 1
        return query

    def compiled_query(self, expr: A.Expr,
                       statistics: Optional[EvalStatistics] = None) -> CompiledQuery:
        """Return (and LRU-cache) the eager closure-compiled form of ``expr``.

        The cache key is :func:`~repro.core.nrc.compile.term_fingerprint`, not
        structural equality: equality is too loose for a compile cache (it
        conflates ``Const(True)``/``Const(1)`` and ignores ``Cached.key`` /
        ``Join.block_size``, all of which compiled closures bake in) and too
        strict across runs (each parse of the same query mints fresh binder
        names; the fingerprint de-Bruijn-indexes them away, so the common
        session pattern — the same query executed repeatedly — compiles
        once).  ``statistics`` (when given) receives the hit/miss accounting
        for this lookup.
        """
        return self._lowered("eager", expr, compile_term, statistics)

    def compiled_chunked(self, expr: A.Expr,
                         statistics: Optional[EvalStatistics] = None,
                         fingerprint: Optional[Tuple] = None) -> CompiledChunkedStream:
        """Return (and LRU-cache) the chunked (morsel-at-a-time) lowering.

        Shares the LRU (and the fingerprint keying) with
        :meth:`compiled_query` under a distinct target tag, so the eager and
        streaming forms of one term coexist and age out independently.
        Chunk sizes are *not* baked in — they are read from
        ``EvalContext.chunk_policy`` at run time — so one cached pipeline
        serves every policy (and every plan).
        """
        return self._lowered("chunked", expr, compile_chunked, statistics,
                             fingerprint)

    def execute(self, expr: A.Expr, bindings: Optional[Dict[str, object]] = None,
                optimize: bool = True, mode: Optional[object] = None,
                deadline: Optional[float] = None,
                on_source_failure: Optional[str] = None,
                cancellation: Optional[CancellationToken] = None,
                memory_budget=None,
                spill: Optional[bool] = None,
                profile: bool = False):
        """Optimize (optionally) and evaluate an NRC expression.

        ``mode`` overrides the engine's default :class:`ExecutionMode` for
        this call (``"compiled"`` lowers the term to closures first;
        ``"interpret"`` tree-walks it).  ``deadline`` (seconds) bounds the
        whole run's driver work; ``on_source_failure`` overrides the
        engine's failure policy (``"fail"`` | ``"degrade"``) for this call.

        Governance (all optional; omitting all of them reproduces the
        ungoverned run bit-for-bit): ``cancellation`` is a
        :class:`~repro.kleisli.governance.CancellationToken` checked at every
        evaluation checkpoint and before every driver dispatch;
        ``memory_budget`` caps the run's materialization (an ``int`` of
        bytes, or a prebuilt session-scoped
        :class:`~repro.kleisli.governance.MemoryBudget`); ``spill`` picks the
        backend for the big materialization points — ``None`` lets the cost
        model decide (estimated rows vs. the budget), ``True`` forces
        disk-backed execution, ``False`` forbids it (over-budget then raises
        :class:`~repro.core.errors.MemoryBudgetExceededError`).  Spill
        applies to the compiled lowerings; the interpreter honours token and
        budget only.

        ``profile=True`` attaches an EXPLAIN ANALYZE recorder to this run:
        the returned value is bit-identical (observation only), and the
        :class:`~repro.obs.profile.QueryProfile` lands on ``last_profile``
        / :meth:`thread_profile`.  With a hub attached every run is
        profiled for the slow-query log anyway; with neither, this path is
        byte-for-byte the pre-observability one.
        """
        mode = self._resolve_mode(mode)
        budget, owned = self._resolve_budget(memory_budget)
        trace = self._begin_trace(profile)
        if cancellation is None and budget is None and spill is not True:
            context = self._make_context(deadline, on_source_failure)
            if trace is None:
                return self._execute(expr, bindings, optimize, mode, context)
            return self._execute_observed(expr, bindings, optimize, mode,
                                          context, trace)
        gate_plan = None
        if spill is None and budget is not None and self.optimizer_config.planning:
            gate_plan = self.planner.plan_for(expr)
        spill_manager = self._resolve_spill(spill, budget, gate_plan)
        context = self._make_context(deadline, on_source_failure,
                                     cancellation, budget, spill_manager)
        try:
            if trace is None:
                return self._execute(expr, bindings, optimize, mode, context)
            return self._execute_observed(expr, bindings, optimize, mode,
                                          context, trace)
        except QueryCancelledError:
            self._governance["cancellations"].inc()
            raise
        except MemoryBudgetExceededError:
            self._governance["budget_rejections"].inc()
            raise
        finally:
            self._finish_governed(budget, owned, spill_manager)

    def _execute_observed(self, expr: A.Expr,
                          bindings: Optional[Dict[str, object]],
                          optimize: bool, mode: ExecutionMode,
                          context: EvalContext, trace: QueryTrace):
        """Eager evaluation under a trace; finalizes the profile either way.

        Eager runs carry no physical plan, so the profile's estimated
        cardinality comes straight from the planner's estimator —
        observation only, never written back to the context.
        """
        context.trace = trace
        estimate = None
        if self.optimizer_config.planning:
            try:
                estimate = self.planner.cardinality.estimate(expr)
            except Exception:  # pragma: no cover - estimator is total today
                estimate = None
        started = time.perf_counter()
        status = "ok"
        result = None
        try:
            result = self._execute(expr, bindings, optimize, mode, context)
            return result
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            actual = (float(len(result))
                      if isinstance(result, (CSet, CBag, CList)) else None)
            self._finalize_observed(context, trace,
                                    time.perf_counter() - started, status,
                                    actual, None, estimated_hint=estimate)

    def _finalize_observed(self, context: EvalContext, trace: QueryTrace,
                           elapsed: float, status: str,
                           actual_rows: Optional[float],
                           collector: Optional[StageCollector],
                           estimated_hint: Optional[float] = None
                           ) -> QueryProfile:
        """Close the run's trace and assemble its EXPLAIN ANALYZE profile.

        Runs *before* governance settlement (the spill books are read off
        the still-open manager), publishes the profile on ``last_profile``
        and the thread-local mirror, and — with a hub attached — offers it
        to the slow-query log.
        """
        trace.finish("ok" if status == "ok" else "error")
        plan = context.physical_plan
        spill_manager = context.spill
        books = dict(spill_manager.books) if spill_manager is not None else {}
        trace_dict = trace.as_dict()
        estimated = None if plan is None else plan.estimated_rows
        if estimated is None:
            estimated = estimated_hint
        if collector is not None and collector.cardinality is not None:
            actual_rows = (collector.cardinality
                           if actual_rows is None else actual_rows)
        profile = QueryProfile(
            mode=context.statistics.execution_mode or "unknown",
            plan=None if plan is None else plan.describe(),
            estimated_rows=estimated,
            actual_rows=actual_rows,
            elapsed=elapsed,
            stages=collector.stages() if collector is not None else {},
            drivers=aggregate_driver_spans(trace_dict),
            statistics=context.statistics.as_dict(),
            books=books,
            trace=trace_dict,
            status="ok" if status == "ok" else status)
        self.last_profile = profile
        self._thread_profiles.value = profile
        hub = self.observability
        if hub is not None:
            hub.slow_queries.record(profile)
        return profile

    def _execute(self, expr: A.Expr, bindings: Optional[Dict[str, object]],
                 optimize: bool, mode: ExecutionMode, context: EvalContext):
        """The mode dispatch ``execute`` has always performed, context in hand."""
        environment = Environment(dict(bindings or {}))
        if mode is ExecutionMode.COMPILED:
            lower = lambda term: self.compiled_query(term, context.statistics)
            if optimize:
                stats = RewriteStats()
                # The pipeline owns the ordering: closure-lowering runs
                # strictly post-rewrite, through this engine's LRU.
                expr, query = self.optimizer.prepare(expr, stats, lower=lower)
                self.last_rewrite_stats = stats
            else:
                query = lower(expr)
            context.statistics.execution_mode = (
                "compiled" if query.fully_compiled else "compiled+fallback")
            return query(environment, context)
        if optimize:
            expr = self.compile(expr)
        context.statistics.execution_mode = "interpreted"
        return Evaluator(context).evaluate(expr, environment)

    def stream(self, expr: A.Expr, bindings: Optional[Dict[str, object]] = None,
               optimize: bool = True, mode: Optional[object] = None,
               chunk_policy: Optional[ChunkPolicy] = None,
               deadline: Optional[float] = None,
               on_source_failure: Optional[str] = None,
               cancellation: Optional[CancellationToken] = None,
               memory_budget=None,
               spill: Optional[bool] = None,
               profile: bool = False) -> Iterator[object]:
        """Pipelined evaluation: yield elements as the pipeline produces them.

        In compiled mode the (optimized) term is lowered to a *chunked*
        pipeline (:meth:`compiled_chunked`): stages exchange ramping chunks
        — the first chunk is one source element, so the first result does
        not wait for a full chunk — and fused per-chunk loops replace
        per-element generator frames on the hot path.  ``chunk_policy``
        overrides the chunk-size policy, which otherwise comes from the
        per-query plan (:meth:`plan_for`; remote sources keep small chunks,
        local sources ramp to the full maximum).  Sections with no chunk-wise
        lowering run eagerly inside the pipeline
        (``EvalStatistics.stream_fallbacks``).  In interpreted mode the
        outermost loop is pipelined and its body evaluated per element.
        This is the "laziness in strategic places" of Section 4, used to get
        initial output to the user quickly.

        The whole run happens inside a context-managed evaluation scope:
        closing the returned iterator early closes every cursor the pipeline
        opened — the source's *and* any body-level scans' — so an abandoned
        stream holds no driver resources, even behind buffered-but-
        unconsumed chunk elements.  Both execution modes stream.

        ``cancellation``, ``memory_budget`` and ``spill`` govern the run as
        in :meth:`execute`; a governed stream additionally settles its books
        (budget closed, spill files deleted, governance ledger updated) when
        the iterator is exhausted, raises, or is closed early.  Omitting all
        three returns the raw pipeline generator exactly as before.

        ``profile=True`` records an EXPLAIN ANALYZE profile of this run
        (per-stage timings via a tee on the plan probe, driver round-trips
        via trace spans, actual vs. estimated rows), finalized when the
        stream is drained, raises, or is closed early; the yielded elements
        are bit-identical to an unprofiled run.  With neither a hub nor
        ``profile``, the raw pipeline comes back exactly as before (the
        zero-recorder contract).
        """
        mode = self._resolve_mode(mode)
        if optimize:
            expr = self.compile_for_stream(expr)
        budget, owned = self._resolve_budget(memory_budget)
        governed = (cancellation is not None or budget is not None
                    or spill is True)
        # Resolution, planning and context creation run eagerly (a bad mode
        # raises at the call site, and last_eval_statistics / last_plan
        # refer to *this* run as soon as stream() returns); evaluation
        # starts on the first next().
        context = self._make_context(deadline, on_source_failure,
                                     cancellation, budget)
        trace = self._begin_trace(profile)
        collector = None
        if trace is not None:
            context.trace = trace
            collector = StageCollector()
        fingerprint = None
        if mode is ExecutionMode.COMPILED:
            # The per-query physical plan: chunk knobs, prefetch hints.  An
            # uninformed planner returns the historical defaults, so this
            # changes nothing until statistics or feedback exist.  One
            # fingerprint walk serves both the planner and the feedback
            # probe below (they share the compile cache's keying).
            fingerprint = term_fingerprint(expr) \
                if self.optimizer_config.planning else None
            context.physical_plan = self.plan_for(expr, fingerprint)
        spill_manager = None
        if governed:
            # The plan gate rides the plan the run was going to compute
            # anyway; the interpreter has no plan, so auto-spill never
            # triggers there (force with ``spill=True`` if needed).
            spill_manager = self._resolve_spill(
                spill, budget, getattr(context, "physical_plan", None))
            context.spill = spill_manager
        if mode is ExecutionMode.COMPILED:
            if chunk_policy is not None:
                context.chunk_policy = chunk_policy
            else:
                context.chunk_policy = context.physical_plan.chunk_policy(
                    is_remote=self.statistics_registry.is_remote)
                if self.optimizer_config.planning:
                    # Close the loop: a drained run feeds the ledger the
                    # next compilation of this (or a similarly-shaped) term
                    # re-plans from — keyed exactly like the compile cache.
                    # Runs under an EXPLICIT policy override record
                    # nothing: their per-chunk costs reflect the caller's
                    # forced knobs, and folding them in would contaminate
                    # the observations future planned runs are chosen from.
                    context.plan_probe = self.plan_feedback.probe(fingerprint)
            if collector is not None:
                # The profile tee: the real feedback probe (if any) keeps
                # seeing exactly the calls it always saw; the collector —
                # and, with a hub, the chunk-size histogram — ride along.
                # Forcing a probe here is what routes the pump through its
                # probe-timed branch, so per-stage timings exist even for
                # runs that record no feedback.
                sinks = [collector]
                hub = self.observability
                if hub is not None:
                    sinks.append(hub)
                context.plan_probe = ProbeTee(context.plan_probe, *sinks)
            inner = self._stream_chunked(expr, bindings, context, fingerprint)
        else:
            inner = self._stream_interpreted(
                expr, Environment(dict(bindings or {})), context)
        if trace is not None:
            inner = self._observed_stream(inner, context, trace, collector)
        if not governed:
            return inner
        return self._governed_stream(inner, budget, owned, spill_manager,
                                     cancellation)

    def _observed_stream(self, inner: Iterator[object], context: EvalContext,
                         trace: QueryTrace,
                         collector: Optional[StageCollector]
                         ) -> Iterator[object]:
        """Count the run's yielded rows and finalize its profile at the end.

        The ``finally`` fires on exhaustion, error, *and* early ``close()``
        — the same discipline as the governed wrapper it nests inside, so
        the profile's spill books are read before settlement deletes them.
        """
        rows = 0
        status = "ok"
        started = time.perf_counter()
        try:
            for element in inner:
                rows += 1
                yield element
        except GeneratorExit:
            status = "closed"
            raise
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            self._finalize_observed(context, trace,
                                    time.perf_counter() - started, status,
                                    float(rows), collector)

    def _governed_stream(self, inner: Iterator[object],
                         budget: Optional[MemoryBudget], owned: bool,
                         spill_manager: Optional[SpillManager],
                         cancellation: Optional[CancellationToken] = None
                         ) -> Iterator[object]:
        """Wrap a governed run's pipeline with its settlement finalizer.

        The ``finally`` fires on exhaustion, error, *and* early ``close()``
        — whichever way the consumer lets go, pool capacity returns and
        spill files are deleted.  Typed governance errors are counted in
        :attr:`metrics` on their way out; a stream closed early *after* its
        token was cancelled (the server's ``cancel`` op tears down without
        draining into the error) counts as a cancellation too.
        """
        settled = False
        try:
            yield from inner
        except QueryCancelledError:
            settled = True
            self._governance["cancellations"].inc()
            raise
        except MemoryBudgetExceededError:
            settled = True
            self._governance["budget_rejections"].inc()
            raise
        else:
            settled = True
        finally:
            if (not settled and cancellation is not None
                    and cancellation.cancelled):
                self._governance["cancellations"].inc()
            self._finish_governed(budget, owned, spill_manager)

    def _stream_chunked(self, expr: A.Expr,
                        bindings: Optional[Dict[str, object]],
                        context: EvalContext,
                        fingerprint: Optional[Tuple] = None) -> Iterator[object]:
        environment = Environment(dict(bindings or {}))
        query = self.compiled_chunked(expr, context.statistics, fingerprint)
        context.statistics.execution_mode = (
            "compiled" if query.fully_compiled else "compiled+fallback")
        yield from query(environment, context)

    def _stream_interpreted(self, expr: A.Expr, environment: Environment,
                            context: EvalContext) -> Iterator[object]:
        """The interpreter's pipelined path (top-level ``Ext`` only).

        Kept for mode parity: the outer loop is pipelined, the body is
        evaluated eagerly per element.  The evaluation scope still releases
        any cursor the body opened if the consumer abandons the stream
        mid-element.
        """
        context.statistics.execution_mode = "interpreted"
        with context.evaluation_scope():
            if type(expr) is A.Ext:
                evaluator = Evaluator(context)
                source = evaluator._eval(expr.source, environment)

                def evaluate_body(item):
                    return evaluator._eval(expr.body, environment.child(expr.var, item))

                iterator = iterate_source(source)
                # Set semantics: suppress repeats incrementally (CSet order
                # is first-occurrence order), so the stream matches the
                # eagerly built value element-for-element — same policy as
                # the compiled pipeline's set-kind stages.
                seen = set() if expr.kind == "set" else None
                token = context.cancellation
                budget = context.memory_budget
                try:
                    for item in iterator:
                        # Count the outer loop like the eager evaluator does,
                        # so a drained stream and execute() agree on
                        # elements_fetched (the differential harness pins it).
                        context.statistics.ext_iterations += 1
                        for element in iter_collection(materialise(evaluate_body(item))):
                            if seen is not None:
                                if element in seen:
                                    continue
                                seen.add(element)
                                if budget is not None:
                                    budget.charge_elements(1)
                            # One checkpoint per delivered element, like the
                            # compiled pump's per chunk: a run whose only
                            # remaining work yields nothing completes.
                            if token is not None:
                                token.raise_if_cancelled()
                            yield element
                finally:
                    close_source(iterator, source)
                return
            # Evaluate on *this* context (not via execute(), which would
            # rebind last_eval_statistics to a fresh object mid-stream and
            # orphan the statistics published at stream() time).
            result = Evaluator(context).evaluate(expr, environment)
            try:
                elements = iter_collection(result)
            except Exception:
                yield result
                return
            yield from elements
