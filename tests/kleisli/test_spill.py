"""Spill-to-disk backends and the spill == in-memory differential.

The spill subsystem trades memory for disk at the engine's two biggest
unbounded materialization points (join build sides, dedup seen-sets).  The
contract this file pins:

* each backend is **bit-for-bit equivalent** to the in-memory structure it
  replaces (same values, same order, exact dedup under hash collisions);
* a spilled engine run matches the ungoverned run in **values and
  ``elements_fetched``** across both lowerings (eager, chunked) —
  degradation is invisible except in the governance books;
* the plan gate picks in-memory vs. spill **up front** from the PR 5 cost
  model's row estimate, and an over-budget query that would die with
  ``spill=False`` completes under ``spill=True``;
* :meth:`SpillManager.close` deletes every spill file.
"""

import pickle

import pytest

from repro.core.errors import MemoryBudgetExceededError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalScope
from repro.core.planner.plan import PhysicalPlan
from repro.core.values import iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import NOMINAL_ROW_BYTES, MemoryBudget
from repro.kleisli.spill import (
    PARTITIONS,
    GovernedSeenSet,
    SpilledIndex,
    SpilledList,
    SpillManager,
)


class RangeDriver(Driver):
    """Lazy scans — the build sides below must not arrive pre-materialized,
    or the spill paths (which only fire for lazy sources) stay cold."""

    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()


def _scan(count, base=0):
    return A.Scan("ranges", {"table": "t", "count": count, "base": base},
                  args={}, kind="list")


class Colliding:
    """All instances share one hash bucket; equality is by payload.  Forces
    the seen-set's collision path: a hash hit must verify true equality."""

    def __init__(self, payload):
        self.payload = payload

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, Colliding) and self.payload == other.payload


class Unpicklable:
    def __init__(self, payload):
        self.payload = payload

    def __hash__(self):
        return hash(("unpicklable", self.payload))

    def __eq__(self, other):
        return isinstance(other, Unpicklable) and self.payload == other.payload

    def __reduce__(self):
        raise pickle.PicklingError("deliberately unpicklable")


# -- SpilledList --------------------------------------------------------------

class TestSpilledList:
    def test_matches_list_model_across_flush_boundaries(self):
        manager = SpillManager(memory_elements=8)
        spilled = manager.spilled_list()
        model = []
        for i in range(100):
            spilled.append(("row", i))
            model.append(("row", i))
        assert list(spilled) == model
        assert len(spilled) == 100
        # Multi-pass: a build side is replayed once per outer block.
        assert list(spilled) == model
        assert manager.books["spills"] == 1
        assert manager.books["bytes_spilled"] > 0
        manager.close()

    def test_small_list_never_touches_disk(self):
        manager = SpillManager(memory_elements=1024)
        spilled = manager.spilled_list()
        spilled.extend(range(10))
        assert list(spilled) == list(range(10))
        assert manager.books["spills"] == 0
        manager.close()

    def test_unpicklable_batches_are_retained_in_order(self):
        manager = SpillManager(memory_elements=2)
        spilled = manager.spilled_list()
        values = [0, 1, Unpicklable("a"), Unpicklable("b"), 4, 5, 6]
        spilled.extend(values)
        assert list(spilled) == values
        assert manager.books["spill_fallbacks"] >= 1
        manager.close()


# -- GovernedSeenSet ----------------------------------------------------------

class TestGovernedSeenSet:
    def test_matches_set_model_past_the_spill_threshold(self):
        manager = SpillManager(memory_elements=16)
        seen = manager.seen_set()
        model = set()
        outcome_parity = True
        for i in range(400):
            value = ("v", i % 150)       # repeats force real dedup work
            outcome_parity &= ((value in seen) == (value in model))
            seen.add(value)
            model.add(value)
        assert outcome_parity
        assert len(seen) == len(model) == 150
        assert manager.books["spills"] >= 1
        manager.close()

    def test_exact_dedup_under_hash_collisions(self):
        manager = SpillManager(memory_elements=4)
        seen = manager.seen_set()
        for i in range(50):
            seen.add(Colliding(i % 20))
        assert len(seen) == 20
        assert Colliding(3) in seen
        assert Colliding(99) not in seen
        manager.close()

    def test_unpicklable_values_still_dedup(self):
        manager = SpillManager(memory_elements=2)
        seen = manager.seen_set()
        for i in range(20):
            seen.add(Unpicklable(i % 5))
        assert len(seen) == 5
        assert Unpicklable(2) in seen
        assert manager.books["spill_fallbacks"] >= 1
        manager.close()


# -- SpilledIndex -------------------------------------------------------------

class TestSpilledIndex:
    def test_matches_dict_model(self):
        manager = SpillManager(memory_elements=8)
        index = manager.index()
        model = {}
        for i in range(300):
            key, row = i % 40, ("row", i)
            index.add(key, row)
            model.setdefault(key, []).append(row)
        for key in range(45):            # probe present and absent keys
            assert index.get(key) == model.get(key)
            assert (key in index) == (key in model)
        assert len(index) == 300
        assert manager.books["spills"] >= 1
        manager.close()

    def test_probe_locality_survives_interleaved_builds(self):
        manager = SpillManager(memory_elements=8)
        index = manager.index()
        index.add("a", 1)
        assert index.get("a") == [1]     # loads + caches a's partition
        index.add("a", 2)                # append must refresh the cache
        assert index.get("a") == [1, 2]
        manager.close()

    def test_unpicklable_rows_live_in_residue(self):
        manager = SpillManager(memory_elements=8)
        index = manager.index()
        index.add("k", Unpicklable("x"))
        index.add("k", 5)
        assert index.get("k") == [5, Unpicklable("x")] or \
            index.get("k") == [Unpicklable("x"), 5]
        manager.close()


# -- SpillManager lifecycle ---------------------------------------------------

def test_close_deletes_every_spill_file_and_is_idempotent():
    manager = SpillManager(memory_elements=2)
    spilled = manager.spilled_list()
    spilled.extend(range(50))
    seen = manager.seen_set()
    for i in range(50):
        seen.add(i)
    handles = list(manager._files)
    assert handles
    manager.close()
    assert all(handle.closed for handle in handles)
    manager.close()                      # idempotent


def test_backends_refuse_a_closed_manager():
    manager = SpillManager(memory_elements=1)
    manager.close()
    spilled = manager.spilled_list()
    with pytest.raises(Exception):
        spilled.extend(range(10))


# -- the plan gate ------------------------------------------------------------

class TestPlanGate:
    def _engine(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        return engine

    def test_forced_spill_and_forbidden_spill(self):
        engine = self._engine()
        budget = MemoryBudget(1 << 30)
        assert engine._resolve_spill(True, None, None) is not None
        assert engine._resolve_spill(False, budget,
                                     PhysicalPlan.default()) is None

    def test_auto_spills_only_when_estimate_exceeds_the_tightest_cap(self):
        engine = self._engine()
        pool = MemoryBudget(1 << 20, label="engine")
        query = MemoryBudget(None, label="query", parent=pool)
        tight = MemoryBudget(100 * NOMINAL_ROW_BYTES, label="query",
                             parent=pool)
        # Build plans through the dataclass directly (frozen).
        import dataclasses
        big = dataclasses.replace(PhysicalPlan.default(),
                                  estimated_rows=1_000_000.0)
        small = dataclasses.replace(PhysicalPlan.default(),
                                    estimated_rows=10.0)
        unknown = PhysicalPlan.default()
        assert engine._resolve_spill(None, tight, big) is not None
        assert engine._resolve_spill(None, tight, small) is None
        # No estimate / no cap anywhere → stay in memory (budget enforces).
        assert engine._resolve_spill(None, tight, unknown) is None
        assert engine._resolve_spill(None, query, big) is not None  # pool cap
        assert engine._resolve_spill(None, None, big) is None


# -- engine differential: spill == in-memory ----------------------------------

COUNT = 1500  # > SpillManager.DEFAULT_MEMORY_ELEMENTS: the backends hit disk


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _dedup_expr():
    """Set-kind comprehension with >1024 distinct survivors and repeats."""
    return B.ext("x", B.singleton(B.prim("mod", B.var("x"),
                                         B.const(1400)), "set"),
                 _scan(COUNT), kind="set")


def _indexed_join_expr():
    """Indexed join whose build side is a lazy 1500-row scan."""
    condition = B.eq(B.prim("mod", B.var("o"), B.const(COUNT)), B.var("i"))
    return A.Join("indexed", "o", _scan(40), "i", _scan(COUNT),
                  condition, B.singleton(B.prim("add", B.var("o"),
                                                B.var("i")), "list"),
                  outer_key=B.prim("mod", B.var("o"), B.const(COUNT)),
                  inner_key=B.var("i"), kind="list")


def _blocked_join_expr():
    """Blocked join: the lazy inner side is materialized for multi-pass."""
    condition = B.prim("lt", B.var("i"), B.var("o"))
    return A.Join("blocked", "o", _scan(3), "i", _scan(COUNT, base=0),
                  condition, B.singleton(B.var("i"), "list"),
                  kind="list", block_size=2)


def _drain(engine, expr, **kwargs):
    """(values, elements_fetched) for one fully-drained run."""
    values = list(engine.stream(expr, optimize=False, **kwargs))
    return values, engine.last_eval_statistics.elements_fetched


def _drain_eager(engine, expr, **kwargs):
    result = engine.execute(expr, optimize=False, **kwargs)
    values = list(iter_collection(result))
    return values, engine.last_eval_statistics.elements_fetched


@pytest.mark.parametrize("shape", [_dedup_expr, _indexed_join_expr,
                                   _blocked_join_expr])
def test_spilled_run_matches_in_memory_across_all_lowerings(shape):
    expr = shape()
    baseline_engine = _engine()
    spill_engine = _engine()
    for drain, kwargs in [
        (_drain_eager, {}),
        (_drain, {}),
    ]:
        plain_values, plain_fetched = drain(baseline_engine, expr, **kwargs)
        spill_values, spill_fetched = drain(spill_engine, expr,
                                            spill=True, **kwargs)
        assert spill_values == plain_values
        assert spill_fetched == plain_fetched
        assert EvalScope.live_count() == 0
    books = spill_engine.governance()
    assert books["spills"] > 0
    assert books["bytes_spilled"] > 0
    assert baseline_engine.governance()["spills"] == 0


def test_over_budget_dedup_completes_under_spill():
    """The headline degradation: a budget that rejects the in-memory run is
    enough once the seen-set lives on disk.  Chunks are capped well below
    the budget, so the seen-set is the run's only unbounded
    materialization point (the pump's transient chunk buffers charge the
    budget by design, spill or not)."""
    expr = _dedup_expr()
    budget = 64 * NOMINAL_ROW_BYTES
    small_chunks = ChunkPolicy(max_chunk=8)
    strict = _engine()
    with pytest.raises(MemoryBudgetExceededError):
        list(strict.stream(expr, optimize=False, chunk_policy=small_chunks,
                           memory_budget=budget, spill=False))
    degraded = _engine()
    values = list(degraded.stream(expr, optimize=False,
                                  chunk_policy=small_chunks,
                                  memory_budget=budget, spill=True))
    plain = list(_engine().stream(expr, optimize=False))
    assert values == plain
    books = degraded.governance()
    assert books["spills"] > 0 and books["budget_rejections"] == 0


def test_spilled_engine_run_settles_books_and_budget():
    engine = KleisliEngine(memory_pool_limit=1 << 22)
    engine.register_driver(RangeDriver())
    list(engine.stream(_dedup_expr(), optimize=False, spill=True))
    assert engine.memory_pool.used == 0
    assert engine.governance()["spills"] > 0
    assert EvalScope.live_count() == 0


def test_partitions_constant_is_sane():
    assert PARTITIONS >= 2
    assert isinstance(GovernedSeenSet, type)
    assert isinstance(SpilledList, type)
    assert isinstance(SpilledIndex, type)
