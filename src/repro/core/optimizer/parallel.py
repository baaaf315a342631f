"""Laziness and bounded concurrency for remote inner loops.

"Rather than sequentially sending values of x to S, we should be able to
exploit the fact that many data servers can handle several requests
simultaneously ... We have therefore introduced a primitive that retrieves
elements from a collection in parallel and returns the union of the results
... Again, rules are introduced to recognize when a function accessing a
remote database appears in an inner loop.  In introducing such parallelism, we
must be careful ... the server S may only be able to handle a limited number
of requests at a time, say five."

* :class:`ParallelExt` is that primitive: an ``Ext`` whose body is evaluated
  for several source elements at once, bounded by ``max_workers`` (batching
  also bounds unconsumed replies, the second concern the paper raises).
* :func:`make_parallel_rule_set` recognises loops whose body issues a request
  to a *remote* driver with arguments depending on the loop variable and
  rewrites them into :class:`ParallelExt`.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional

from ..nrc import ast as A
from ..nrc.eval import Environment, Evaluator
from ..nrc.eval import iterate_source as iter_source
from ..nrc.eval import materialise
from ..nrc.rewrite import Rule, RuleSet
from ..nrc.structural import register_kind_prover
from ..values import iter_collection, make_collection

__all__ = ["ParallelExt", "make_parallel_rule_set"]


class ParallelExt(A.Ext):
    """An ``Ext`` evaluated with bounded parallelism over the source elements.

    With ``adaptive`` set, the level of concurrency is not fixed at
    ``max_workers`` but adjusted to the server's observed capability by an
    :class:`~repro.kleisli.scheduler.AdaptiveScheduler` (the paper's [43]
    extension); ``max_workers`` then acts as the upper bound of the probe.
    """

    __slots__ = ("max_workers", "adaptive")

    def __init__(self, var: str, body: A.Expr, source: A.Expr, kind: str = "set",
                 max_workers: int = 5, adaptive: bool = False):
        super().__init__(var, body, source, kind)
        self.max_workers = max_workers
        self.adaptive = adaptive

    def rebuild(self, children):
        return ParallelExt(self.var, children[0], children[1], self.kind,
                           self.max_workers, self.adaptive)

    def _key(self):
        return super()._key() + (self.max_workers, self.adaptive)

    def fingerprint_extras(self):
        """Parameters the compiled loop bakes in beyond the Ext structure
        (consulted by :func:`repro.core.nrc.compile.term_fingerprint`)."""
        return (self.max_workers, self.adaptive)


# The kind proof dispatches on exact type, so ParallelExt must register its
# own prover (both its lowerings build the result with the declared kind,
# exactly like Ext) — without this, a Union over a parallelised operand
# would lose its streaming lowering.
register_kind_prover(ParallelExt)(lambda expr: expr.kind)


def _make_scheduler(max_workers: int, adaptive: bool,
                    initial_window: Optional[int] = None):
    from ...kleisli.scheduler import AdaptiveScheduler, BoundedScheduler  # avoids a cycle

    if adaptive:
        scheduler = AdaptiveScheduler(max_workers=max_workers)
        if initial_window is not None:
            # The planner's prefetch-window hint: start the adaptive window
            # at the plan's level (a known-slow server's bandwidth-delay
            # product) instead of probing up from one worker.
            scheduler.apply_plan_hint(initial_window)
        return scheduler
    return BoundedScheduler(max_workers=max_workers)


def _plan_window(context) -> Optional[int]:
    """The prefetch-window hint of the run's physical plan, if any."""
    plan = getattr(context, "physical_plan", None)
    return None if plan is None else plan.prefetch_window


def _run_parallel_loop(items: List[object], run_body, kind: str,
                       max_workers: int, adaptive: bool, statistics):
    """Shared ParallelExt execution: scheduler selection, fan-out, statistics.

    Both execution modes route through here (the interpreter dispatch and the
    compiled closure differ only in ``run_body``), so scheduler or accounting
    changes cannot diverge the modes.
    """
    scheduler = _make_scheduler(max_workers, adaptive)

    def run_one(item):
        return list(iter_collection(materialise(run_body(item))))

    try:
        results = scheduler.map(run_one, items)
    finally:
        # The scheduler's worker pool persists across batches within this
        # loop; release it (joining its threads) when the loop completes.
        scheduler.close()
    elements: List[object] = []
    for chunk in results:
        elements.extend(chunk)
    statistics.ext_iterations += len(items)
    statistics.note_intermediate(len(elements))
    return make_collection(kind, elements)


def _evaluate_parallel_ext(evaluator: Evaluator, expr: ParallelExt, env: Environment):
    """Evaluate the body for batches of source elements concurrently."""
    source = evaluator._eval(expr.source, env)
    items = list(iter_source(source))

    def run_body(item):
        return evaluator._eval(expr.body, env.child(expr.var, item))

    return _run_parallel_loop(items, run_body, expr.kind, expr.max_workers,
                              expr.adaptive, evaluator.context.statistics)


# Register the node with the evaluator's dispatch table.
Evaluator._DISPATCH[ParallelExt] = _evaluate_parallel_ext


# -- closure-compiler support -------------------------------------------------
#
# The compiler dispatches on exact node type, so without this registration a
# ParallelExt would fall back to the interpreter (correct but slower).  The
# compiled form keeps the scheduler semantics: bounded (or adaptive) workers,
# one frame copy per in-flight element so concurrent bodies never share
# mutable slots.

from ..nrc import compile as C  # noqa: E402  (needs ParallelExt defined above)


@C.register_compiler(ParallelExt)
def _compile_parallel_ext(expr: ParallelExt, scope, state):
    source_fn = C._compile(expr.source, scope, state)
    body_fn = C._compile(expr.body, scope + (expr.var,), state)
    kind = expr.kind
    max_workers = expr.max_workers
    adaptive = expr.adaptive

    def run(frame, context):
        source = source_fn(frame, context)
        items = list(iter_source(source))

        def run_body(item):
            # One frame copy per in-flight element: concurrent bodies never
            # share mutable slots.
            item_frame = list(frame)
            item_frame.append(item)
            return body_fn(item_frame, context)

        return _run_parallel_loop(items, run_body, kind, max_workers,
                                  adaptive, context.statistics)

    return run


#: The source of an element-granular prefetch is pulled one element at a
#: time, so it runs only one prefetch window ahead of the consumer.
_ELEMENT_POLICY = C.ChunkPolicy(max_chunk=1, remote_max_chunk=1)


@C.register_chunk_compiler(ParallelExt)
def _chunk_parallel_ext(expr: ParallelExt, scope, state):
    """Streamed ParallelExt: a bounded prefetcher over the source pipeline.

    A sliding window of at most ``max_workers`` body evaluations is in
    flight while downstream consumes earlier results (order preserved), so
    remote latency overlaps consumption end-to-end — not just within one
    batch as in the eager lowering.  Source and body are compiled once and
    shared by both prefetch granularities, chosen per run by the
    ChunkPolicy:

    * ``parallel_chunk == 1`` (the default): one in-flight body evaluation
      per source *element* — the right shape for overlapping *remote*
      latency.  The source pipeline runs under a one-element chunk policy,
      so it is pulled only one window ahead of the consumer, which bounds
      unconsumed replies exactly as the paper requires.  The results are
      re-chunked for the downstream (chunk-consuming) stages.
    * ``parallel_chunk > 1``: the scheduler's chunk-granular prefetch — one
      task per ``parallel_chunk`` source elements, windows counted in
      chunks, the window controller sampling per-chunk latency — amortizing
      task and ordering overhead when the body is cheap.
    """
    source_fn = C._compile_chunk(expr.source, scope, state)
    body_fn = C._compile(expr.body, scope + (expr.var,), state)
    # A ParallelExt typically exists BECAUSE its body scans a remote driver:
    # the re-chunk of its output must respect that driver's buffering bound
    # (one chunk never accumulates more than remote_max_chunk completed
    # remote replies), like every other re-chunk point.
    scan_driver_names = C._scan_drivers(expr)
    max_workers = expr.max_workers
    adaptive = expr.adaptive

    def chunks(frame, context):
        policy = C._active_policy(context)
        parallel_chunk = policy.parallel_chunk
        scheduler = _make_scheduler(max_workers, adaptive,
                                    _plan_window(context))
        scope_obj = context.scope
        if scope_obj is not None:
            # Backstop: if this generator is abandoned without close()
            # reaching its finally (e.g. dropped without GC running), the
            # pipeline's evaluation scope still joins the worker pool.
            scope_obj.register(scheduler)
        stats = context.statistics

        def run_body(item):
            # One frame copy per in-flight element: concurrent bodies never
            # share mutable slots.
            item_frame = list(frame)
            item_frame.append(item)
            return list(iter_collection(materialise(body_fn(item_frame,
                                                            context))))

        def elements():
            element_context = copy.copy(context)
            element_context.chunk_policy = _ELEMENT_POLICY
            for chunk in source_fn(frame, element_context):
                yield from chunk

        def results():
            for out in scheduler.prefetch(run_body, elements()):
                stats.ext_iterations += 1
                yield from out

        def run_chunk(chunk):
            out = []
            for item in chunk:
                out.extend(run_body(item))
            return len(chunk), out

        def rechunked_source():
            # Re-cut whatever the source's own chunking produced into
            # fixed parallel_chunk task payloads.
            for chunk in source_fn(frame, context):
                for start in range(0, len(chunk), parallel_chunk):
                    yield chunk[start:start + parallel_chunk]

        try:
            if parallel_chunk <= 1:
                initial, maximum = C._subtree_sizes(policy, scan_driver_names)
                yield from C._ramped_chunks(results(), initial, maximum,
                                            policy.adaptive_ramp)
                return
            for consumed, out in scheduler.prefetch(run_chunk,
                                                    rechunked_source(),
                                                    chunked=True):
                stats.ext_iterations += consumed
                if out:
                    yield out
        finally:
            # Always close on section exit: a ParallelExt in the body of an
            # outer loop runs once per outer element — deferring the close
            # to stream end would accumulate one live pool per iteration.
            # Unregistering keeps the scope from pinning one dead scheduler
            # per iteration for the life of the stream.
            scheduler.close()
            if scope_obj is not None:
                scope_obj.unregister(scheduler)

    if expr.kind == "set":
        # Set semantics: suppress repeats incrementally (first-occurrence
        # order), matching the eagerly built CSet element-for-element.
        return C._dedup_set_chunks(chunks)
    return chunks


def make_parallel_rule_set(is_remote_driver: Callable[[str], bool],
                           max_workers: int = 5, adaptive: bool = False,
                           workers_for: Optional[
                               Callable[[A.Expr], Optional[int]]] = None
                           ) -> RuleSet:
    """Build the rule set that parallelises remote inner loops.

    ``adaptive`` selects the self-adjusting scheduler instead of the fixed
    worker count (see :class:`ParallelExt`).

    ``workers_for`` makes the introduction *cost-gated* instead of purely
    pattern-gated: called with the candidate ``Ext``, it returns ``0`` to
    veto the rewrite (a source known to be too small to benefit from
    request overlap), a positive worker count to size the loop, or ``None``
    to keep ``max_workers`` — the planner's
    :meth:`~repro.core.planner.plan.QueryPlanner.parallel_workers` is the
    intended callback, and returns ``None`` whenever it has no statistics,
    so the uninformed behaviour is unchanged.
    """

    def parallelise(expr: A.Expr) -> Optional[A.Expr]:
        if type(expr) is not A.Ext or expr.kind not in ("set", "bag", "list"):
            return None
        if not _body_calls_remote(expr.body, expr.var, is_remote_driver):
            return None
        workers = max_workers
        if workers_for is not None:
            chosen = workers_for(expr)
            if chosen is not None:
                if chosen < 1:
                    return None  # cost gate: overlap cannot pay here
                workers = chosen
        return ParallelExt(expr.var, expr.body, expr.source, expr.kind, workers, adaptive)

    rule = Rule("parallel-remote-loop", parallelise,
                "issue remote requests of an inner loop concurrently, bounded by the server cap")
    return RuleSet("parallel", [rule], direction="top-down", max_iterations=2)


def _body_calls_remote(body: A.Expr, var: str, is_remote_driver: Callable[[str], bool]) -> bool:
    """Does ``body`` contain a Scan of a remote driver whose request depends on ``var``?"""
    if isinstance(body, A.Scan) and is_remote_driver(body.driver):
        for arg in body.args.values():
            if var in A.free_variables(arg):
                return True
    return any(_body_calls_remote(child, var, is_remote_driver) for child in body.children())
