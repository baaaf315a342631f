"""Property tests for query-lifecycle governance (hypothesis).

The cancellation contract, stated as properties over *arbitrary* injection
points rather than the hand-picked offsets of the example tests:

* **No cursor leaks** — wherever cancellation lands (before the run, at any
  pull offset, after exhaustion), every driver cursor the run opened is
  released: ``EvalScope.live_count()`` returns to zero.
* **No partial value without a typed error** — a governed run either
  completes with exactly the ungoverned result, or raises
  :class:`~repro.core.errors.QueryCancelledError`; it never returns a
  truncated result silently.
* **Prefix property** — whatever a cancelled stream yielded before the
  typed error is a *prefix* of the ungoverned element sequence, in both
  lowerings (eager, chunked) and both execution modes.
* **Books balance** — each cancelled run counts exactly one cancellation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryCancelledError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalScope
from repro.core.values import iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import ExecutionMode, KleisliEngine
from repro.kleisli.governance import CancellationToken

COUNT = 40


class RangeDriver(Driver):
    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()


def _scan(count=COUNT, base=0):
    return A.Scan("ranges", {"table": "t", "count": count, "base": base},
                  args={}, kind="list")


def _shapes():
    """(label, expr) pairs spanning the lowerings' stage kinds: a mapping
    stage, a set-kind dedup stage, and a nested body scan (the shape whose
    body opens a *second* cursor per outer element — the leak-prone one)."""
    mapped = B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(3)),
                                    "list"), _scan(), kind="list")
    dedup = B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(7)),
                                   "set"), _scan(), kind="set")
    nested_body = B.ext("y", B.singleton(B.prim("add", B.var("x"),
                                                B.var("y")), "list"),
                        _scan(count=3, base=100), kind="list")
    nested = B.ext("x", nested_body, _scan(count=12), kind="list")
    return [("mapped", mapped), ("dedup", dedup), ("nested", nested)]


SHAPES = _shapes()

LOWERINGS = [
    ("eager-compiled", ExecutionMode.COMPILED, False),
    ("eager-interpreted", ExecutionMode.INTERPRET, False),
    ("chunked", ExecutionMode.COMPILED, True),
    ("interpreted-stream", ExecutionMode.INTERPRET, True),
]


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


_BASELINES = {}


def _baseline(shape_index):
    """The ungoverned element sequence (the interpreted stream is the
    reference order for every lowering)."""
    if shape_index not in _BASELINES:
        engine = _engine()
        _BASELINES[shape_index] = list(
            engine.stream(SHAPES[shape_index][1], mode=ExecutionMode.INTERPRET))
    return _BASELINES[shape_index]


@settings(max_examples=60, deadline=None)
@given(
    shape_index=st.integers(min_value=0, max_value=len(SHAPES) - 1),
    lowering=st.integers(min_value=0, max_value=len(LOWERINGS) - 1),
    cancel_at=st.integers(min_value=0, max_value=COUNT + 5),
)
def test_cancellation_never_leaks_cursors_or_yields_partials(
        shape_index, lowering, cancel_at):
    label, expr = SHAPES[shape_index]
    _, mode, streamed = LOWERINGS[lowering]
    expected = _baseline(shape_index)
    engine = _engine()
    token = CancellationToken()
    got = []
    error = None

    if not streamed:
        # Eager: cancellation before the run (offset 0) or not at all —
        # there is no mid-drain for execute(); offset > 0 degenerates to
        # a completed run, pinning cancel-after-completion is a no-op.
        if cancel_at == 0:
            token.cancel("property: before eager run")
        try:
            result = engine.execute(expr, mode=mode, cancellation=token)
            got = list(iter_collection(result))
        except QueryCancelledError as caught:
            error = caught
    else:
        stream = engine.stream(expr, mode=mode, cancellation=token)
        if cancel_at == 0:
            token.cancel("property: before first pull")
        try:
            for value in stream:
                got.append(value)
                if len(got) == cancel_at:
                    token.cancel(f"property: at offset {cancel_at}")
        except QueryCancelledError as caught:
            error = caught

    # No cursor leaks, wherever the cancel landed.
    assert EvalScope.live_count() == 0, \
        f"leaked cursors ({label}, cancel_at={cancel_at})"

    if error is None:
        # No typed error → the run must have completed with the full,
        # untruncated result (the cancel arrived too late to matter).
        assert got == expected
        assert engine.governance()["cancellations"] == 0
    else:
        # Typed error → whatever was yielded is a prefix of the ungoverned
        # sequence (cooperative checkpoints may let buffered chunk
        # elements flush, but never reorder or fabricate elements).
        assert got == expected[:len(got)]
        assert len(got) < len(expected) or not streamed
        assert engine.governance()["cancellations"] == 1


@settings(max_examples=25, deadline=None)
@given(
    shape_index=st.integers(min_value=0, max_value=len(SHAPES) - 1),
    lowering=st.integers(min_value=0, max_value=len(LOWERINGS) - 1),
)
def test_ungoverned_token_free_runs_are_unaffected(shape_index, lowering):
    """Zero-governance pin, property-shaped: a live (never cancelled) token
    changes nothing — values match the ungoverned baseline exactly."""
    label, expr = SHAPES[shape_index]
    _, mode, streamed = LOWERINGS[lowering]
    expected = _baseline(shape_index)
    engine = _engine()
    token = CancellationToken()
    if not streamed:
        got = list(iter_collection(
            engine.execute(expr, mode=mode, cancellation=token)))
    else:
        got = list(engine.stream(expr, mode=mode, cancellation=token))
    assert got == expected
    assert EvalScope.live_count() == 0
    books = engine.governance()
    assert all(count == 0 for count in books.values())
