"""Differential streaming harness: ``stream`` must agree with ``execute``.

For every query shape the streaming backend pipelines — nested ``Ext``
chains, filtered comprehensions, unions, ``ParallelExt``, both join methods —
and in both execution modes, ``engine.stream`` must yield exactly the element
sequence of ``engine.execute``'s result, and consume exactly as many source
elements (``EvalStatistics.elements_fetched``) once drained.

Set-kind shapes hold with *duplicate-producing* data too: set stages dedup
as they go, and ``CSet`` iterates in first-occurrence order, so the streamed
sequence equals iterating the eagerly built set.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.optimizer.joins import make_join_rule_set
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CList, CSet, Record, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import ExecutionMode, KleisliEngine

MODES = [ExecutionMode.INTERPRET, ExecutionMode.COMPILED]


class RangeDriver(Driver):
    """Scans yield ``base .. base+count-1`` lazily through a generator."""

    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _scan(base=0, count=5):
    request = {"table": "t", "count": count}
    args = {}
    if isinstance(base, A.Expr):
        # A computed base (e.g. the outer loop variable) is a scan argument,
        # evaluated before the request is issued.
        args["base"] = base
    else:
        request["base"] = base
    return A.Scan("ranges", request, args=args, kind="list")


def _shapes():
    """(label, expr, bindings) triples covering the pipelined shapes."""
    xs = CList(range(4))
    records = CList([Record({"id": i, "tag": f"r{i}"}) for i in range(6)])
    refs = CList([Record({"ref": i % 3, "weight": i * 10}) for i in range(9)])

    shapes = []

    shapes.append((
        "flat scan comprehension",
        B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(3)), "list"),
              _scan(count=6), kind="list"),
        {},
    ))

    shapes.append((
        "nested ext over two scans (body scan depends on loop var)",
        B.ext("x",
              B.ext("y",
                    B.singleton(B.prim("add", B.prim("mul", B.var("x"), B.const(100)),
                                       B.var("y")), "list"),
                    _scan(count=3, base=B.var("x")), kind="list"),
              _scan(count=4), kind="list"),
        {},
    ))

    shapes.append((
        "filtered comprehension",
        B.ext("x",
              B.if_then_else(B.prim("gt", B.var("x"), B.const(2)),
                             B.singleton(B.var("x"), "list"),
                             B.empty("list")),
              _scan(count=8), kind="list"),
        {},
    ))

    shapes.append((
        "union of two comprehensions (list)",
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
                  _scan(count=3), kind="list"),
            "list"),
        {},
    ))

    shapes.append((
        "let over a bound collection",
        A.Let("k", B.const(7),
              B.ext("x", B.singleton(B.prim("add", B.var("x"), B.var("k")), "list"),
                    B.var("XS"), kind="list")),
        {"XS": xs},
    ))

    shapes.append((
        "parallel ext (bounded prefetch)",
        ParallelExt("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), "list"),
                    _scan(count=7), kind="list", max_workers=3),
        {},
    ))

    shapes.append((
        "parallel ext nested inside an outer loop",
        B.ext("x",
              ParallelExt("y", B.singleton(B.prim("add", B.var("x"), B.var("y")),
                                           "list"),
                          A.Const(CList([100, 200, 300])), kind="list",
                          max_workers=2),
              A.Const(CList([1, 2])), kind="list"),
        {},
    ))

    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    head = B.record(tag=B.project(B.var("o"), "tag"),
                    weight=B.project(B.var("i"), "weight"))
    nested_join = B.ext(
        "o", B.ext("i", B.if_then_else(condition, B.singleton(head),
                                       B.empty()), B.var("INNER")),
        B.var("OUTER"))
    indexed = make_join_rule_set(minimum_inner_size=0).apply(nested_join)
    assert isinstance(indexed, A.Join) and indexed.method == "indexed"
    shapes.append(("indexed join (streamed probe side)", indexed,
                   {"OUTER": records, "INNER": refs}))

    blocked = A.Join("blocked", "o", B.var("OUTER"), "i", B.var("INNER"),
                     condition, B.singleton(head), None, None,
                     "set", 4)
    shapes.append(("blocked join (streamed per outer block)", blocked,
                   {"OUTER": records, "INNER": refs}))

    unit_blocked = A.Join("blocked", "o", B.var("OUTER"), "i", B.var("INNER"),
                          condition, B.singleton(head), None, None,
                          "set", 1)
    shapes.append(("blocked join with block size 1 (per-element probe)",
                   unit_blocked, {"OUTER": records, "INNER": refs}))

    shapes.append((
        "typed union of two scan chains (streams both operands)",
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=4), kind="list"),
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
                  _scan(count=4), kind="list"),
            "list"),
        {},
    ))

    shapes.append((
        "typed set union with cross-operand duplicates (shared seen-filter)",
        A.Union(
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
                  A.Const(CSet(range(5)))),
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                  A.Const(CSet(range(6)))),
            "set"),
        {},
    ))

    shapes.append((
        "nested typed SET unions (one shared seen-filter, dupes everywhere)",
        A.Union(
            A.Union(
                B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
                      A.Const(CSet(range(7)))),
                B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                      A.Const(CSet(range(6)))),
                "set"),
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(5))),
                  A.Const(CSet(range(9)))),
            "set"),
        {},
    ))

    shapes.append((
        "nested typed unions (three-way chain)",
        A.Union(
            A.Union(
                B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=2),
                      kind="list"),
                B.singleton(B.const(99), "list"),
                "list"),
            B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(7)), "list"),
                  _scan(count=2), kind="list"),
            "list"),
        {},
    ))

    shapes.append((
        "union with an unproven operand (eager fallback stays correct)",
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
            B.var("XS_LIST"),
            "list"),
        {"XS_LIST": CList([7, 8])},
    ))

    shapes.append((
        "scalar query (single-element stream)",
        B.prim("add", B.const(40), B.const(2)),
        {},
    ))

    shapes.append((
        "set-kind comprehension (duplicate-free)",
        B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.var("x"))),
              A.Const(CSet([1, 2, 3, 4]))),
        {},
    ))

    shapes.append((
        "set-kind comprehension producing duplicates (mod collapses them)",
        B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
              A.Const(CSet(range(10)))),
        {},
    ))

    shapes.append((
        "set-kind let-wrapped duplicate-producing comprehension",
        A.Let("v", B.const(2),
              B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.var("v"))),
                    A.Const(CSet([1, 2, 3, 4, 5])))),
        {},
    ))

    shapes.append((
        "set-kind parallel ext producing duplicates",
        ParallelExt("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                    A.Const(CSet(range(12))), kind="set", max_workers=3),
        {},
    ))

    return shapes


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_stream_matches_execute(mode, label, expr, bindings):
    engine = _engine()
    streamed = list(engine.stream(expr, bindings, optimize=False, mode=mode))
    stream_stats = engine.last_eval_statistics

    engine2 = _engine()
    result = engine2.execute(expr, bindings, optimize=False, mode=mode)
    execute_stats = engine2.last_eval_statistics
    try:
        executed = list(iter_collection(result))
    except Exception:
        executed = [result]

    assert streamed == executed, label
    assert stream_stats.elements_fetched == execute_stats.elements_fetched, label


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_chunked_stream_matches_execute(mode, label, expr, bindings):
    """The chunked lowering against ``execute`` in BOTH execution modes:
    exact element sequence, and (against compiled execute, the matching
    backend) exact ``elements_fetched`` once drained — chunk sizes must be
    value- and accounting-invisible."""
    engine = _engine()
    chunked = list(engine.stream(expr, bindings, optimize=False,
                                 mode="compiled"))
    chunked_stats = engine.last_eval_statistics

    engine2 = _engine()
    result = engine2.execute(expr, bindings, optimize=False, mode=mode)
    execute_stats = engine2.last_eval_statistics
    try:
        executed = list(iter_collection(result))
    except Exception:
        executed = [result]

    assert chunked == executed, label
    assert chunked_stats.elements_fetched == execute_stats.elements_fetched, label


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_chunked_stream_matches_one_element_chunks(label, expr, bindings):
    """Ramped chunks against chunks held at one element (every chunk
    boundary falls between two elements, as in an element-at-a-time
    pipeline): one element sequence and one drained-run accounting."""
    engine = _engine()
    ramped = list(engine.stream(expr, bindings, optimize=False,
                                mode="compiled"))
    ramped_stats = engine.last_eval_statistics
    engine2 = _engine()
    single = list(engine2.stream(expr, bindings, optimize=False,
                                 mode="compiled",
                                 chunk_policy=ChunkPolicy(max_chunk=1,
                                                          remote_max_chunk=1)))
    single_stats = engine2.last_eval_statistics
    assert ramped == single, label
    assert ramped_stats.elements_fetched == single_stats.elements_fetched, label


def test_chunked_pipelines_without_scalar_stages_on_optimizer_shapes():
    """Every optimizer-producible pipelined shape has a native chunk-wise
    lowering: no eager sections (stream_fallbacks) inside a chunked run,
    and no run counts a per-element section (scalar_stages)."""
    records = CList([Record({"id": i, "tag": f"r{i}"}) for i in range(6)])
    refs = CList([Record({"ref": i % 3, "weight": i * 10}) for i in range(9)])
    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    shapes = [
        B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(3)), "list"),
              _scan(count=6), kind="list"),
        A.Union(
            B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
                  _scan(count=3), kind="list"),
            "list"),
        A.Join("blocked", "o", B.var("OUTER"), "i", B.var("INNER"),
               condition, B.singleton(B.project(B.var("o"), "tag"), "list"),
               None, None, "list", 1),
        A.Join("blocked", "o", B.var("OUTER"), "i", B.var("INNER"),
               condition, B.singleton(B.project(B.var("o"), "tag"), "list"),
               None, None, "list", 4),
        ParallelExt("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), "list"),
                    _scan(count=7), kind="list", max_workers=3),
    ]
    bindings = {"OUTER": records, "INNER": refs}
    for expr in shapes:
        engine = _engine()
        query = engine.compiled_chunked(expr)
        assert query.fully_streamed, query.eager_nodes
        list(engine.stream(expr, bindings, optimize=False))
        stats = engine.last_eval_statistics
        assert stats.stream_fallbacks == 0, stats.as_dict()
        assert stats.scalar_stages == 0, stats.as_dict()


@pytest.mark.parametrize("label,expr,bindings",
                         _shapes(), ids=lambda v: v if isinstance(v, str) else "")
def test_stream_agrees_across_modes(label, expr, bindings):
    """Compiled-streamed, interpreted-streamed: one element sequence."""
    per_mode = {}
    for mode in MODES:
        engine = _engine()
        per_mode[mode.value] = list(engine.stream(expr, bindings,
                                                  optimize=False, mode=mode))
    assert per_mode["interpret"] == per_mode["compiled"], label


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_plain_python_iterables_are_one_value_not_a_sequence(mode):
    """A non-CPL iterable (tuple, dict, str) bound to a variable is a single
    value in every mode — streaming must not explode it element-wise
    (regression: the compiled top-level tolerance iterated any iterable)."""
    engine = _engine()
    for value in [(1, 2), {"a": 1}, "xy"]:
        streamed = list(engine.stream(B.var("V"), {"V": value},
                                      optimize=False, mode=mode))
        assert streamed == [value], (value, streamed)
        executed = engine.execute(B.var("V"), {"V": value}, optimize=False,
                                  mode=mode)
        assert executed == value


def test_last_eval_statistics_is_current_before_first_next():
    """engine.stream() must rebind last_eval_statistics to the new run
    immediately, not on first next() (regression: callers reading it right
    after stream() got the previous run's numbers)."""
    engine = _engine()
    expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list")
    assert list(engine.stream(expr, optimize=False)) == [0, 1, 2]
    previous = engine.last_eval_statistics
    stream = engine.stream(expr, optimize=False)
    assert engine.last_eval_statistics is not previous
    assert engine.last_eval_statistics.elements_fetched == 0
    stream.close()


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_stats_object_published_at_stream_time_reports_the_run(mode):
    """The EvalStatistics bound at stream() time must be the one the run
    updates — for every shape, including the interpreted non-Ext path
    (regression: that path routed through execute(), which rebound
    last_eval_statistics to a fresh object mid-stream)."""
    engine = _engine()
    plus = B.lam("a", B.lam("b", B.prim("add", B.var("a"), B.var("b"))))
    fold = B.fold(plus, B.const(0), A.Const(CList([1, 2, 3])))
    stream = engine.stream(fold, optimize=False, mode=mode)
    stats = engine.last_eval_statistics
    assert list(stream) == [6]
    assert engine.last_eval_statistics is stats
    assert stats.fold_iterations == 3


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_scalar_results_stream_as_one_element(mode):
    """Scalar values reached through the transparent spine (Const, Var, Let
    bodies, IfThenElse branches) must stream as a single element, exactly
    like the eager path — not raise (regression: the first streaming lowering
    rejected them as non-collections in compiled mode)."""
    engine = _engine()
    cases = [
        ("const", A.Const(5), {}, [5]),
        ("var bound to a scalar", B.var("N"), {"N": 7}, [7]),
        ("let with a scalar body",
         A.Let("x", B.const(40), B.prim("add", B.var("x"), B.const(2))), {}, [42]),
        ("if-then-else with scalar branches",
         B.if_then_else(B.const(True), B.const(1), B.const(2)), {}, [1]),
        ("let with a streaming body",
         A.Let("k", B.const(5),
               B.ext("x", B.singleton(B.prim("add", B.var("x"), B.var("k")),
                                      "list"),
                     A.Const(CList([1, 2])), kind="list")), {}, [6, 7]),
    ]
    for label, expr, bindings, expected in cases:
        got = list(engine.stream(expr, bindings, optimize=False, mode=mode))
        assert got == expected, (label, got)


def test_parallel_ext_in_body_does_not_accumulate_pools():
    """A ParallelExt in the body of an outer loop runs once per outer
    element; each section must close its worker pool on exit (regression:
    pools were only released at whole-stream end, one live pool per
    iteration)."""
    import threading

    engine = _engine()
    expr = B.ext(
        "x",
        ParallelExt("y", B.singleton(B.prim("add", B.var("x"), B.var("y")),
                                     "list"),
            A.Const(CList([1, 2, 3])), kind="list", max_workers=3),
        A.Const(CList(range(20))), kind="list")
    baseline = threading.active_count()
    stream = engine.stream(expr, optimize=False, mode="compiled")
    peak = 0
    for i, _ in enumerate(stream):
        if i % 6 == 0:
            peak = max(peak, threading.active_count())
    assert peak <= baseline + 3, \
        f"{peak - baseline} threads live mid-stream (pools accumulating)"
    assert threading.active_count() == baseline


def test_streamed_pipeline_reports_compiled_mode():
    engine = _engine()
    expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list")
    assert list(engine.stream(expr, optimize=False, mode="compiled")) == [0, 1, 2]
    stats = engine.last_eval_statistics
    assert stats.execution_mode == "compiled"
    assert stats.stream_fallbacks == 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_union_of_mismatched_kinds_raises_in_stream_too(mode):
    """union_like's operand type check must hold when streaming: a term
    execute() rejects must not silently succeed under stream() (regression:
    the streamed list/bag union chained operands without the check)."""
    from repro.core.errors import EvaluationError

    engine = _engine()
    expr = A.Union(B.var("L"), B.var("R"), "list")
    bindings = {"L": CList([1, 2]), "R": CSet([3, 4])}
    with pytest.raises(EvaluationError):
        engine.execute(expr, bindings, optimize=False, mode=mode)
    with pytest.raises(EvaluationError):
        list(engine.stream(expr, bindings, optimize=False, mode=mode))


def test_streamed_source_accepts_what_eager_accepts():
    """iterate_source accepts any iterable as a generator source (e.g. a
    bound str); the streaming lowering must agree (regression: it rejected
    str/bytes sources the eager backend iterates)."""
    engine = _engine()
    expr = B.ext("x", B.singleton(B.var("x"), "list"), B.var("S"), kind="list")
    bindings = {"S": "abc"}
    executed = list(iter_collection(
        engine.execute(expr, bindings, optimize=False, mode="compiled")))
    streamed = list(engine.stream(expr, bindings, optimize=False,
                                  mode="compiled"))
    assert streamed == executed == ["a", "b", "c"]


def test_eager_sections_are_surfaced_in_statistics():
    """A set-kind Union has no pull-based form (it deduplicates across both
    operands): it runs eagerly inside the pipeline and the run reports it."""
    engine = _engine()
    source = A.Union(A.Const(CSet([1, 2])), A.Const(CSet([2, 3])), "set")
    expr = B.ext("x", B.singleton(B.var("x")), source)
    streamed = list(engine.stream(expr, optimize=False, mode="compiled"))
    assert sorted(streamed) == [1, 2, 3]
    stats = engine.last_eval_statistics
    assert stats.stream_fallbacks >= 1
    query = engine.compiled_chunked(expr)
    assert "Union" in query.eager_nodes
    assert query.fully_compiled  # eager section != interpreter fallback


def test_typed_union_pipelines_without_fallback():
    """A union whose operand kinds are statically proven streams end-to-end:
    no eager section, and the first element is produced before the right
    operand's scan is even requested."""
    engine = _engine()
    expr = A.Union(
        B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=5), kind="list"),
        B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(50)), "list"),
              _scan(count=5), kind="list"),
        "list")
    query = engine.compiled_chunked(expr)
    assert query.fully_streamed, query.eager_nodes
    stream = engine.stream(expr, optimize=False, mode="compiled")
    assert next(stream) == 0
    stats = engine.last_eval_statistics
    assert stats.stream_fallbacks == 0
    assert stats.scan_requests == 1, "right operand requested before needed"
    stream.close()


def test_unproven_union_still_reports_an_eager_section():
    """Only PROVEN unions stream; a bound-variable operand keeps the eager
    union_like section (and its statistics surfacing)."""
    engine = _engine()
    expr = A.Union(
        B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3), kind="list"),
        B.var("XS"), "list")
    query = engine.compiled_chunked(expr)
    assert not query.fully_streamed
    assert "Union" in query.eager_nodes
    streamed = list(engine.stream(expr, {"XS": CList([7])},
                                  optimize=False, mode="compiled"))
    assert streamed == [0, 1, 2, 7]
    assert engine.last_eval_statistics.stream_fallbacks >= 1


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_union_with_provenly_mismatched_operands_raises_in_stream_too(mode):
    """A Union whose operand kinds provably disagree with its own falls back
    to the eager union_like — which must keep raising exactly where
    execute raises, in both modes."""
    from repro.core.errors import EvaluationError

    engine = _engine()
    expr = A.Union(
        B.ext("x", B.singleton(B.var("x"), "bag"), B.var("XS"), kind="bag"),
        B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"), kind="list"),
        "list")
    bindings = {"XS": CList([1, 2])}
    with pytest.raises(EvaluationError):
        engine.execute(expr, bindings, optimize=False, mode=mode)
    with pytest.raises(EvaluationError):
        list(engine.stream(expr, bindings, optimize=False, mode=mode))


class TestJoinConditionPolicy:
    """The pinned join-condition behavior (ROADMAP): a non-boolean condition
    value raises for BOTH join methods in all three backends — interpreter,
    eager closures, and the streamed lowering.  (Indexed joins used to
    filter by truthiness, so a query's strictness depended on the
    optimizer's join-method choice.)"""

    @staticmethod
    def _join(method):
        condition = B.const(1)  # truthy, but not a boolean
        if method == "indexed":
            return A.Join("indexed", "o", B.var("OUTER"), "i", B.var("INNER"),
                          condition, B.singleton(B.var("o"), "list"),
                          B.var("o"), B.var("i"), "list", 4)
        return A.Join("blocked", "o", B.var("OUTER"), "i", B.var("INNER"),
                      condition, B.singleton(B.var("o"), "list"),
                      None, None, "list", 4)

    BINDINGS = {"OUTER": CList([1, 2]), "INNER": CList([1, 3])}

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("method", ["blocked", "indexed"])
    def test_non_boolean_condition_raises_everywhere(self, mode, method):
        from repro.core.errors import EvaluationError

        engine = _engine()
        expr = self._join(method)
        with pytest.raises(EvaluationError, match="join condition must be boolean"):
            engine.execute(expr, self.BINDINGS, optimize=False, mode=mode)
        with pytest.raises(EvaluationError, match="join condition must be boolean"):
            list(engine.stream(expr, self.BINDINGS, optimize=False, mode=mode))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("method", ["blocked", "indexed"])
    def test_boolean_conditions_still_filter(self, mode, method):
        engine = _engine()
        expr = self._join(method)
        expr = A.Join(expr.method, expr.outer_var, expr.outer, expr.inner_var,
                      expr.inner, B.eq(B.var("o"), B.var("i")),
                      expr.body, expr.outer_key, expr.inner_key,
                      expr.kind, expr.block_size)
        assert list(engine.stream(expr, self.BINDINGS,
                                  optimize=False, mode=mode)) == [1]


def test_unit_block_join_probes_per_outer_element():
    """A block-size-1 blocked join yields each outer element's matches
    before the next outer element is pulled, and fetches the inner side
    exactly once (like the indexed join's build side)."""

    class CountingDriver(Driver):
        def __init__(self):
            super().__init__("counting")
            self.produced = 0

        def _execute(self, request):
            def cursor():
                for i in range(100):
                    self.produced += 1
                    yield i

            return cursor()

    engine = KleisliEngine()
    driver = engine.register_driver(CountingDriver())
    expr = A.Join("blocked", "o",
                  A.Scan("counting", {"table": "t"}, kind="list"),
                  "i", B.var("INNER"),
                  B.eq(B.prim("mod", B.var("o"), B.const(2)), B.var("i")),
                  B.singleton(B.var("o"), "list"), None, None, "list", 1)
    stream = engine.stream(expr, {"INNER": CList([0, 1])},
                           optimize=False, mode="compiled")
    assert next(stream) == 0
    assert driver.produced <= 2, \
        f"unit-block join drained {driver.produced} outer elements eagerly"
    stream.close()


def test_engine_stream_plans_unit_block_joins():
    """engine.stream optimizes with the streaming hint: the same query plans
    a block-256 blocked join for execute and a block-1 join for stream, and
    both produce the same value."""
    engine = _engine()
    condition = B.prim("lt", B.project(B.var("o"), "id"),
                       B.project(B.var("i"), "ref"))
    head = B.record(o=B.project(B.var("o"), "id"), r=B.project(B.var("i"), "ref"))
    inner = B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()),
                  B.var("INNER"))
    expr = B.ext("o", inner, B.var("OUTER"))

    def find_join(term):
        if isinstance(term, A.Join):
            return term
        for child in term.children():
            found = find_join(child)
            if found is not None:
                return found
        return None

    eager_join = find_join(engine.compile(expr))
    stream_join = find_join(engine.compile_for_stream(expr))
    assert eager_join is not None and stream_join is not None
    assert eager_join.method == stream_join.method == "blocked"
    assert eager_join.block_size == 256
    assert stream_join.block_size == 1

    bindings = {
        "OUTER": CSet([Record({"id": i, "name": f"n{i}"}) for i in range(12)]),
        "INNER": CSet([Record({"ref": i, "data": f"d{i}"}) for i in range(12)]),
    }
    streamed = CSet(engine.stream(expr, bindings, optimize=True, mode="compiled"))
    executed = engine.execute(expr, bindings, optimize=True, mode="compiled")
    assert streamed == executed


def test_optimized_stream_matches_optimized_execute_when_set_order_is_visible():
    """stream() plans block-1 blocked joins while execute() plans block 256;
    blocked-join emission is outer-major at EVERY block size, so the two
    plans must return the same value even when the set-kind join's
    first-occurrence order becomes value-visible downstream (a list
    comprehension over the join result) — regression for the one shape
    where block-size-dependent ordering would have diverged."""
    engine = _engine()
    condition = B.prim("lt", B.project(B.var("o"), "id"),
                       B.project(B.var("i"), "ref"))
    head = B.record(o=B.project(B.var("o"), "id"), r=B.project(B.var("i"), "ref"))
    inner = B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()),
                  B.var("INNER"))
    set_join = B.ext("o", inner, B.var("OUTER"))
    # The set's iteration order becomes a CList: order is now part of the value.
    expr = B.ext("p", B.singleton(B.project(B.var("p"), "r"), "list"),
                 set_join, kind="list")
    bindings = {
        "OUTER": CSet([Record({"id": i, "name": f"n{i}"}) for i in range(9)]),
        "INNER": CSet([Record({"ref": i, "data": f"d{i}"}) for i in range(12)]),
    }
    streamed = list(engine.stream(expr, bindings, optimize=True, mode="compiled"))
    executed = list(iter_collection(
        engine.execute(expr, bindings, optimize=True, mode="compiled")))
    assert streamed == executed


def test_blocked_join_element_sequence_is_block_size_independent():
    """Outer-major emission: for each outer element in order, all its inner
    matches — at every block size, in every backend."""
    engine = _engine()
    bindings = {"OUTER": CList([1, 2, 3]), "INNER": CList([10, 20])}

    def join(block_size):
        return A.Join("blocked", "o", B.var("OUTER"), "i", B.var("INNER"),
                      None, B.singleton(B.record(o=B.var("o"), i=B.var("i")),
                                        "list"),
                      None, None, "list", block_size)

    sequences = []
    for block_size in (1, 2, 256):
        for mode in MODES:
            sequences.append(list(iter_collection(
                engine.execute(join(block_size), bindings,
                               optimize=False, mode=mode))))
            sequences.append(list(engine.stream(join(block_size), bindings,
                                                optimize=False, mode=mode)))
    expected = [Record({"o": o, "i": i}) for o in [1, 2, 3] for i in [10, 20]]
    assert all(sequence == expected for sequence in sequences), sequences


def test_failed_requests_do_not_pollute_the_latency_ema():
    """A driver raising quickly (overloaded remote) must not drag the
    observed-latency EMA down and demote the driver from remote."""

    class FailingDriver(Driver):
        def __init__(self):
            super().__init__("flaky")

        def _execute(self, request):
            raise RuntimeError("overloaded")

    engine = KleisliEngine()
    engine.register_driver(FailingDriver())
    engine.statistics_registry.record_latency_sample("flaky", 0.2)
    assert engine.statistics_registry.is_remote("flaky")
    for _ in range(20):
        try:
            engine.driver_executor("flaky", {"table": "t"})
        except RuntimeError:
            pass
    assert engine.statistics_registry.observed_latency("flaky") == 0.2
    assert engine.statistics_registry.is_remote("flaky"), \
        "fast failures demoted a slow remote driver"
