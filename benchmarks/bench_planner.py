"""E11 — cost-based planner vs fixed physical knobs.

The planner subsystem replaces three kinds of hand-set constants with
per-query cost-model choices; this benchmark measures each against the
fixed-knob ablation (``OptimizerConfig(planning=False)`` — exactly the
pre-planner engine) on the workload it targets:

* **local** — a shaping chain over a registered local source: the planner
  sizes the chunk ramp to the estimated output (and arms the cost-adaptive
  ramp); the requirement here is parity — the planner must never lose;
* **fake_remote** — a scan-batched loop against a slow driver whose native
  ``execute_batch`` is one wire round-trip: the planner raises
  ``remote_max_chunk`` so round-trip count stops dominating (the fixed cap
  of 32 pays ~8x the round-trips);
* **skewed** — a blocked join with a large registered outer and a small,
  expensive-to-rescan inner: the planner's cost-gated block size amortizes
  the inner rescans the fixed 256-block pays eight times over.

``BENCH_planner.json`` records every section (planned/fixed times, the
chosen plans, speedups).  CI gates on ``BENCH_PLANNER_FACTOR`` (planned
must stay >= that fraction of fixed-knob throughput on EVERY section — the
planner never loses) and ``BENCH_PLANNER_WIN`` (the fake-remote and skewed
sections must beat fixed knobs by at least that factor).
"""

import os
import time

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer import OptimizerConfig
from repro.core.values import CList, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine

from conftest import report, update_summary

#: The planner must never lose: planned >= FACTOR x fixed on every section.
PLANNER_FACTOR = float(os.environ.get("BENCH_PLANNER_FACTOR", "0.9"))
#: And must win where it claims to: fake-remote and skewed sections.
PLANNER_WIN = float(os.environ.get("BENCH_PLANNER_WIN", "1.2"))

REPS = 3


def _update(section, data):
    update_summary("BENCH_planner.json", section, data)


def _fixed_config(**overrides):
    return OptimizerConfig(planning=False, **overrides)


def _drain_stream(engine, expr, bindings=None):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, bindings, optimize=False))
    return count, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Section 1: local shaping chain (parity — the planner must never lose)
# ---------------------------------------------------------------------------

LOCAL_ROWS = 30_000


class LocalRowsDriver(Driver):
    """A local table of LOCAL_ROWS integers with a registered cardinality."""

    def __init__(self, name="localrows"):
        super().__init__(name)

    def collection_names(self):
        return ["rows"]

    def cardinality(self, collection):
        return LOCAL_ROWS if collection == "rows" else None

    def _execute(self, request):
        def cursor():
            for i in range(LOCAL_ROWS):
                yield i

        return cursor()


def _local_chain():
    scan = A.Scan("localrows", {"table": "rows"}, kind="list")
    filtered = B.ext("v", B.if_then_else(B.prim("ge", B.prim("mod", B.var("v"),
                                                             B.const(1000)),
                                                 B.const(10)),
                                         B.singleton(B.var("v"), "list"),
                                         B.empty("list")),
                     scan, kind="list")
    return B.ext("w", B.singleton(B.prim("add", B.var("w"), B.const(7)),
                                  "list"),
                 filtered, kind="list")


def test_local_section():
    expr = _local_chain()

    planned_engine = KleisliEngine()
    planned_engine.register_driver(LocalRowsDriver())
    fixed_engine = KleisliEngine(_fixed_config())
    fixed_engine.register_driver(LocalRowsDriver())

    # Interleave the two engines (and take min-of-7): this section is a
    # pure parity check and the drain is only ~30 ms, so uncorrelated
    # machine noise would otherwise dominate the ratio.
    planned_time = fixed_time = float("inf")
    planned_count = fixed_count = None
    for _ in range(7):
        count, elapsed = _drain_stream(planned_engine, expr)
        planned_count = count if planned_count is None else planned_count
        assert count == planned_count
        planned_time = min(planned_time, elapsed)
        count, elapsed = _drain_stream(fixed_engine, expr)
        fixed_count = count if fixed_count is None else fixed_count
        assert count == fixed_count
        fixed_time = min(fixed_time, elapsed)
    assert planned_count == fixed_count > 0

    plan = planned_engine.last_plan
    assert not plan.is_default  # the registered cardinality informed it
    assert fixed_engine.last_plan.is_default

    speedup = fixed_time / planned_time
    summary = {
        "rows": LOCAL_ROWS,
        "result_rows": planned_count,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_vs_fixed_speedup": speedup,
        "planned_plan": plan.describe(),
    }
    report("E11a: local shaping chain (parity requirement)",
           [["fixed knobs", f"{fixed_time * 1000:.1f} ms", ""],
            ["planned", f"{planned_time * 1000:.1f} ms",
             f"{speedup:.2f}x fixed"]],
           ["engine", "full drain", "notes"])
    _update("local", summary)

    # The never-lose gate: parity or better on the planner's home turf.
    assert speedup >= PLANNER_FACTOR, summary


# ---------------------------------------------------------------------------
# Section 2: fake-remote batched scans (round-trip count dominates)
# ---------------------------------------------------------------------------

REMOTE_IDS = 512
REMOTE_LATENCY = 0.01


class BatchRemoteDriver(Driver):
    """A slow remote lookup whose native batch is ONE wire round-trip."""

    batch_single_round_trip = True

    def __init__(self, name="remote", latency=REMOTE_LATENCY):
        super().__init__(name)
        self.latency = latency
        self.round_trips = 0

    def collection_names(self):
        return ["items"]

    def cardinality(self, collection):
        return 1 if collection == "items" else None

    def _lookup(self, request):
        return CList([int(request.get("key", 0)) * 10])

    def _execute(self, request):
        self.round_trips += 1
        time.sleep(self.latency)
        return self._lookup(request)

    def execute_batch(self, requests):
        self.round_trips += 1
        time.sleep(self.latency)  # one wire call for the whole batch
        return [self._lookup(dict(request)) for request in requests]


def _remote_loop():
    scan = A.Scan("remote", {"table": "items"},
                  args={"key": B.var("x")}, kind="list")
    return B.ext("x", scan, A.Const(CList(range(REMOTE_IDS))), kind="list")


def test_fake_remote_section():
    expr = _remote_loop()

    def run(engine_factory):
        times = []
        trips = None
        count = None
        for _ in range(REPS):
            engine, driver = engine_factory()
            this_count, elapsed = _drain_stream(engine, expr)
            count = this_count if count is None else count
            assert this_count == count
            times.append(elapsed)
            trips = driver.round_trips
        return count, min(times), trips

    def planned_factory():
        engine = KleisliEngine()
        driver = engine.register_driver(BatchRemoteDriver(),
                                        latency=REMOTE_LATENCY)
        return engine, driver

    def fixed_factory():
        engine = KleisliEngine(_fixed_config())
        driver = engine.register_driver(BatchRemoteDriver(),
                                        latency=REMOTE_LATENCY)
        return engine, driver

    planned_count, planned_time, planned_trips = run(planned_factory)
    fixed_count, fixed_time, fixed_trips = run(fixed_factory)
    assert planned_count == fixed_count == REMOTE_IDS

    # The acceptance claim: the planner picked DIFFERENT knobs here.
    probe_engine, _ = planned_factory()
    plan = probe_engine.plan_for(expr)
    assert not plan.is_default
    assert plan.remote_max_chunk > 32, plan.describe()
    assert planned_trips < fixed_trips

    speedup = fixed_time / planned_time
    summary = {
        "ids": REMOTE_IDS,
        "round_trip_latency_s": REMOTE_LATENCY,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_round_trips": planned_trips,
        "fixed_round_trips": fixed_trips,
        "planned_vs_fixed_speedup": speedup,
        "planned_plan": plan.describe(),
    }
    report(f"E11b: fake-remote batched scans, {REMOTE_IDS} lookups at "
           f"{REMOTE_LATENCY * 1000:.0f} ms/round-trip",
           [["fixed knobs (cap 32)", f"{fixed_time * 1000:.0f} ms",
             f"{fixed_trips} round-trips"],
            ["planned", f"{planned_time * 1000:.0f} ms",
             f"{planned_trips} round-trips, {speedup:.2f}x fixed"]],
           ["engine", "full drain", "notes"])
    _update("fake_remote", summary)

    assert speedup >= PLANNER_WIN, summary


# ---------------------------------------------------------------------------
# Section 3: skewed-cardinality blocked join (rescan amortization)
# ---------------------------------------------------------------------------

OUTER_ROWS = 2048
INNER_ROWS = 48
INNER_PULL_LATENCY = 0.0005


class OuterDriver(Driver):
    def __init__(self, name="outerdrv"):
        super().__init__(name)

    def collection_names(self):
        return ["o"]

    def cardinality(self, collection):
        return OUTER_ROWS if collection == "o" else None

    def _execute(self, request):
        def cursor():
            for i in range(OUTER_ROWS):
                yield i

        return cursor()


class SlowInnerDriver(Driver):
    """A small inner side whose every element costs a pull latency —
    exactly the source a blocked join's per-block rescans hammer."""

    def __init__(self, name="innerdrv"):
        super().__init__(name)
        self.rescans = 0

    def collection_names(self):
        return ["i"]

    def cardinality(self, collection):
        return INNER_ROWS if collection == "i" else None

    def _execute(self, request):
        self.rescans += 1

        def cursor():
            for i in range(INNER_ROWS):
                time.sleep(INNER_PULL_LATENCY)
                yield i

        return cursor()


def _nested_join_loop():
    condition = B.prim("lt", B.prim("mod", B.var("o"), B.const(97)),
                       B.prim("mod", B.var("i"), B.const(13)))
    head = B.prim("add", B.prim("mul", B.var("o"), B.const(100)), B.var("i"))
    return B.ext(
        "o",
        B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()),
              A.Scan("innerdrv", {"table": "i"}, kind="set")),
        A.Scan("outerdrv", {"table": "o"}, kind="set"))


def _join_engine(planning):
    # The subquery cache would hide the inner rescans this section studies
    # (both engines would pay them once); disable it so the block-size knob
    # is the only variable.
    config = OptimizerConfig(caching=False) if planning \
        else _fixed_config(caching=False)
    engine = KleisliEngine(config)
    engine.register_driver(OuterDriver())
    inner = engine.register_driver(SlowInnerDriver(),
                                   latency=INNER_PULL_LATENCY)
    return engine, inner


def test_skewed_section():
    nested = _nested_join_loop()

    planned_engine, _ = _join_engine(planning=True)
    fixed_engine, _ = _join_engine(planning=False)
    planned_join = planned_engine.compile(nested)
    fixed_join = fixed_engine.compile(nested)
    assert isinstance(planned_join, A.Join) and planned_join.method == "blocked"
    assert isinstance(fixed_join, A.Join) and fixed_join.method == "blocked"
    # The acceptance claim: a different knob, chosen from the cardinalities.
    assert fixed_join.block_size == 256
    assert planned_join.block_size > 256

    def run(engine_factory, expr):
        times = []
        rescans = None
        count = None
        for _ in range(REPS):
            engine, inner = engine_factory()
            started = time.perf_counter()
            result = engine.execute(expr, optimize=False)
            elapsed = time.perf_counter() - started
            this_count = len(list(iter_collection(result)))
            count = this_count if count is None else count
            assert this_count == count
            times.append(elapsed)
            rescans = inner.rescans
        return count, min(times), rescans

    planned_count, planned_time, planned_rescans = run(
        lambda: _join_engine(planning=True), planned_join)
    fixed_count, fixed_time, fixed_rescans = run(
        lambda: _join_engine(planning=False), fixed_join)
    assert planned_count == fixed_count > 0
    assert planned_rescans < fixed_rescans

    speedup = fixed_time / planned_time
    summary = {
        "outer_rows": OUTER_ROWS,
        "inner_rows": INNER_ROWS,
        "inner_pull_latency_s": INNER_PULL_LATENCY,
        "result_rows": planned_count,
        "planned_block_size": planned_join.block_size,
        "fixed_block_size": fixed_join.block_size,
        "planned_inner_rescans": planned_rescans,
        "fixed_inner_rescans": fixed_rescans,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_vs_fixed_speedup": speedup,
    }
    report(f"E11c: skewed blocked join, outer {OUTER_ROWS} x inner "
           f"{INNER_ROWS} at {INNER_PULL_LATENCY * 1000:.1f} ms/pull",
           [["fixed knobs (block 256)", f"{fixed_time * 1000:.0f} ms",
             f"{fixed_rescans} inner rescans"],
            [f"planned (block {planned_join.block_size})",
             f"{planned_time * 1000:.0f} ms",
             f"{planned_rescans} rescans, {speedup:.2f}x fixed"]],
           ["engine", "total", "notes"])
    _update("skewed", summary)

    assert speedup >= PLANNER_WIN, summary
