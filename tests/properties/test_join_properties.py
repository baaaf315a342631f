"""Blocked joins: the chunked lowering against execute and the interpreter.

A blocked join with block size > 1 re-materializes its inner (build) side
once per block of outer elements.  Its chunked lowering buffers outer
elements into blocks across chunk boundaries, so the property is stated
over arbitrary outer/inner sizes, block sizes that do and do not divide the
outer size, every collection kind and the three body shapes the lowering
distinguishes (a ``Singleton``, a filter chain, a collection-producing
body): a drained stream, ``execute`` and the interpreter agree on the
values, their order, ``elements_fetched`` and ``joins_blocked``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.values import iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import ExecutionMode, KleisliEngine


class ValuesDriver(Driver):
    """Scans lazily yield the request's ``values`` tuple."""

    def __init__(self, name="values"):
        super().__init__(name)

    def _execute(self, request):
        return iter(request["values"])


def _scan(values, kind):
    return A.Scan("values", {"table": "t", "values": tuple(values)}, kind=kind)


def _body(shape, kind):
    pair = B.prim("add", B.prim("mul", B.var("o"), B.const(100)), B.var("i"))
    if shape == "singleton":
        return B.singleton(pair, kind)
    if shape == "filter chain":
        # The second condition divides by i: it is only safe because the
        # first one short-circuits it for i == 0.
        return B.if_then_else(
            B.prim("neq", B.var("i"), B.const(0)),
            B.if_then_else(
                B.prim("gt", B.prim("div", B.const(100), B.var("i")), B.const(9)),
                B.singleton(pair, kind), B.empty(kind)),
            B.empty(kind))
    # A collection-producing body: its own little comprehension.
    return B.ext("k", B.singleton(B.prim("add", pair, B.var("k")), kind),
                 _scan([0, 1], kind), kind=kind)


def _join(outer, inner, block_size, kind, shape, with_condition):
    condition = None
    if with_condition:
        condition = B.prim("lt", B.prim("mod", B.var("i"), B.const(3)),
                           B.prim("mod", B.var("o"), B.const(4)))
    return A.Join("blocked", "o", _scan(outer, kind), "i", _scan(inner, kind),
                  condition, _body(shape, kind), None, None, kind, block_size)


def _engine():
    engine = KleisliEngine()
    engine.register_driver(ValuesDriver())
    return engine


def _observe(run):
    engine = _engine()
    values = run(engine)
    stats = engine.last_eval_statistics
    return values, stats.elements_fetched, stats.joins_blocked


@settings(max_examples=80, deadline=None)
@given(
    outer=st.lists(st.integers(min_value=0, max_value=9), max_size=20),
    inner=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
    block_size=st.sampled_from([2, 3, 7, 256]),
    kind=st.sampled_from(["list", "bag", "set"]),
    shape=st.sampled_from(["singleton", "filter chain", "collection"]),
    with_condition=st.booleans(),
)
def test_blocked_join_streams_like_execute_and_the_interpreter(
        outer, inner, block_size, kind, shape, with_condition):
    expr = _join(outer, inner, block_size, kind, shape, with_condition)
    streamed = _observe(lambda engine: list(
        engine.stream(expr, optimize=False)))
    executed = _observe(lambda engine: list(iter_collection(
        engine.execute(expr, optimize=False))))
    interpreted = _observe(lambda engine: list(iter_collection(
        engine.execute(expr, optimize=False, mode=ExecutionMode.INTERPRET))))
    assert streamed == executed == interpreted
    _, fetched, joins_blocked = streamed
    assert joins_blocked == 1
    if shape != "collection":
        # The outer scan once, the inner scan once per block — however the
        # chunk ramp cut the outer side.
        blocks = -(-len(outer) // block_size)
        assert fetched == len(outer) + blocks * len(inner)
