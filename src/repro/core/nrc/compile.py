"""Compile-to-closures backend for NRC: the Kleisli execution engine's fast path.

The paper's Kleisli implementation gets its evaluation speed from *compiling*
CPL/NRC into an executable form rather than interpreting the tree.  This
module is that stage for the reproduction: a **staged compiler** that lowers
an (already optimized) NRC term into nested Python closures.

Staging strategy
----------------

Compilation is a single bottom-up pass, ``compile_term(term)``, producing one
Python callable per AST node with the uniform signature::

    fn(frame: list, context: EvalContext) -> value

Everything that the tree-walking :class:`~repro.core.nrc.eval.Evaluator` must
re-discover *per element of every collection* is decided **once, at compile
time**, and burned into the closure:

* **Dispatch** — the interpreter does a ``type(expr)`` dictionary lookup per
  node per element; here each node becomes a direct closure call, so the AST
  is never consulted again after compilation.
* **Variable lookup** — the interpreter allocates a chained ``Environment``
  dict per binding and walks the chain per lookup.  The compiler maintains a
  compile-time *scope* (a tuple of binder names, innermost last) and resolves
  every ``Var`` to a fixed integer slot; at run time the environment is a flat
  Python list (the *frame*) and a lookup is a single ``frame[i]`` index.
  Loop binders (``Ext``) reuse one frame slot across iterations, so the hot
  path allocates no environment at all.
* **Constant work** — primitive functions are looked up, collection
  constructors selected, record labels fixed, and scan request templates
  prepared at compile time.
* **Projection** — each compiled ``Project`` node carries an inline
  ``(directory, slot)`` cache, giving the Remy homogeneous-collection fast
  path (Section 4 of the paper) without a per-record directory lookup.

Closure values (``Lam``) snapshot the current frame when they are created, so
a function value escaping a loop observes the bindings that were live at its
creation, exactly like the interpreter's chained environments.

Fallback
--------

Node types without a registered compiler (see :func:`register_compiler`) are
not errors: the compiler emits a *fallback thunk* that reconstructs an
:class:`~repro.core.nrc.eval.Environment` from the frame and delegates the
subtree to the interpreter.  ``CompiledQuery.fallback_nodes`` reports which
node types fell back, and ``EvalStatistics.compiled_fallbacks`` counts how
often the handoff happened at run time.  Both execution modes share the same
:class:`~repro.core.nrc.eval.EvalContext` (driver executor, subquery cache,
statistics), so compiled and interpreted fragments interoperate freely —
including closures crossing the boundary in either direction.

Eager vs streaming lowering
---------------------------

The module offers **two lowering targets** over the same node registry
discipline:

* :func:`compile_term` — the eager backend: every closure returns a fully
  materialized collection.  This is what ``KleisliEngine.execute`` uses; it
  is the fastest way to produce a *whole* result, and the only correct way
  to produce a value that outlives the evaluation (results are plain
  collections, never half-consumed cursors).
* :func:`compile_chunked` — the streaming backend: nodes with a registered
  chunk compiler (see :func:`register_chunk_compiler`) become generator
  pipeline stages that exchange *lists* of at most K elements, and adjacent
  map/filter stages fuse into tight per-chunk loops.  This is what
  ``KleisliEngine.stream`` uses in compiled mode.  The first chunk is one
  source element, so it minimizes time-to-first-result and peak
  intermediate memory by overlapping remote I/O with downstream consumption
  (Section 4's "laziness in strategic places"), while steady-state
  throughput gets full-size chunks.  See "Chunked semantics" below.

Selection is per *call site* (``execute`` vs ``stream``), then per *node*
within a streamed pipeline: ``Ext`` chains, filter chains,
``Let``/``IfThenElse``, ``Scan`` and the probe side of ``Join`` stream
natively (set-kind stages dedup as they go); everything whose semantics
require the whole value — ``Fold``, the build side of joins, scalar
operators — drops to the eager closure for that subtree and the pipeline
chunks its materialized result.  Those eager sections are reported in
``CompiledChunkedStream.eager_nodes`` and counted by
``EvalStatistics.stream_fallbacks``.  Leaves — a bound variable, a literal,
a field of a bound variable and ``Cached`` (a *deliberate* materialization
point: the subquery cache stores whole collections) — are chunked from
their value without reporting a fallback.

Streaming semantics
-------------------

Three rules keep a streamed run element-for-element identical to the eager
value, at O(1)-per-element cost:

* **Set dedup-as-you-go** — ``CSet`` iterates in first-occurrence insertion
  order, so a set-kind stage that suppresses repeats incrementally
  (:func:`_dedup_set_chunks`) yields exactly the eager set's element
  sequence at O(distinct) memory.
* **The kind proof** — ``Union`` streams as a chained pipeline (left
  operand's elements, then the right's, under one shared set seen-filter)
  only when :func:`~repro.core.nrc.structural.proven_collection_kind` proves
  *statically* that both operands produce the union's collection class;
  that proof is what makes skipping ``union_like``'s run-time operand class
  check sound.  Terms whose operand kind cannot be proven (a bound ``Var``,
  a ``Scan`` whose driver controls the result class, a ``Cached`` value, a
  proven kind *mismatch*) fall back to the eager ``union_like`` section so
  they keep raising exactly where ``execute`` raises.
* **Join probing** — the probe (outer) side of both join methods streams;
  the build side must materialize.  An indexed join probes its hash index
  per outer element; a blocked join yields per outer *block*, except
  ``block_size == 1`` (what the optimizer emits under the streaming hint,
  see ``OptimizerConfig.streaming``), where the inner side is materialized
  once and probed per outer element.

Eager sections remain exactly where the whole value is semantically
required: ``Fold`` (the accumulator consumes every element), the build side
of joins (the hash index / rescan source), unproven ``Union`` operands (the
run-time class check needs the values), ``Cached`` (a deliberate
materialization point), and scalar operators reached through a collection
position.

Chunked semantics
-----------------

The streaming lowering (:func:`compile_chunked`, registry
:func:`register_chunk_compiler`) obeys three rules of its own on top of the
streaming rules above:

* **Parity** — a drained run yields exactly the element sequence of
  ``execute``'s result and agrees on ``EvalStatistics.elements_fetched``.
  Chunk sizes are value-invisible: dedup-as-you-go carries its seen-set
  *across* chunk boundaries, the typed union's shared seen-filter and the
  join probes have chunk-wise forms, and fused map/filter stages preserve
  per-stage ``ext_iterations`` accounting.  Partial-progress counters on a
  *failing* run may differ from the eager backend's (a chunk stage
  processes its chunk through one stage before the next).
* **The ramp** — chunk sizes start at 1 and double per chunk up to the
  :class:`ChunkPolicy` maximum (read from ``EvalContext.chunk_policy`` at
  run time, so compiled pipelines stay cacheable by term fingerprint).
  The first chunk therefore costs one source element, while steady-state
  throughput gets full-size chunks.  Remote drivers
  (``ChunkPolicy.sizes_for``) keep a smaller maximum so a chunk never
  buffers more than a bounded slice of a slow cursor; abandoning a pipeline
  mid-chunk still releases every cursor — including those behind
  buffered-but-unconsumed chunk elements — through the run's
  :class:`~repro.core.nrc.eval.EvalScope`.
* **The fallback surface** — node types without a chunk compiler run as
  eager sections inside the pipeline (:func:`_chunk_via_eager`): correct,
  just not lazy.  They are named in ``CompiledChunkedStream.eager_nodes``
  and counted at run time by ``EvalStatistics.stream_fallbacks``.

An ``Ext`` whose body is a ``Scan`` depending on the loop variable
additionally batches its driver fetches: one
``EvalContext.driver_executor_batch`` call (``Driver.execute_batch``) per
batch — the source chunk, capped at the *scan* driver's policy maximum —
instead of one request per element.

Cost-based planning
-------------------

The chunk knobs are not constants any more: ``KleisliEngine.stream`` asks
its :class:`~repro.core.planner.plan.QueryPlanner` for a per-query
:class:`~repro.core.planner.plan.PhysicalPlan` whose **inputs** are the
statistics registry (registered/observed cardinalities and driver
latencies) and the :class:`~repro.core.planner.feedback.PlanFeedback`
ledger of earlier runs.  The plan's knobs reach this module two ways:

* its :meth:`~repro.core.planner.plan.PhysicalPlan.chunk_policy` becomes
  ``EvalContext.chunk_policy`` (ramp bounds, ``parallel_chunk``,
  ``adaptive_ramp``) — still a *run-time* parameter, so the compile-cache
  key stays the bare term fingerprint and one cached pipeline serves every
  plan;
* ``ChunkPolicy.adaptive_ramp`` switches the ramp from blind geometric
  doubling to a **cost-adaptive** ramp (:class:`_ChunkRamp`): each chunk's
  production cost is measured, and doubling stops as soon as the marginal
  per-element cost stops improving (a latency-bound source plateaus
  immediately and keeps small chunks; a CPU-bound local stage keeps
  doubling while amortisation still pays).  Sub-millisecond chunks carry
  no measurable signal and ramp exactly like the non-adaptive policy, so
  uninformed plans are bit-for-bit today's behaviour.

**Feedback keys**: when the engine attaches a
:class:`~repro.core.planner.feedback.PlanProbe` to the context
(``EvalContext.plan_probe``), the chunked pump records each chunk's
production cost under stage ``"pipeline"`` and batched scans record theirs
under ``"scan:<driver>"``; a pipeline that drains normally commits its true
output cardinality.  The probe is keyed by the same
:func:`term_fingerprint` as the engine's compile cache, with a
constant-blind shape index for structurally-similar queries.
**Re-planning triggers** on the next ``stream`` of the same (or
similarly-shaped) term: the planner reads the ledger before choosing
knobs, so observed numbers replace estimates without recompiling — the
pipeline is policy-agnostic by construction.

Thread-safety
-------------

Compiled artifacts are **immutable once built** and safe to share across
threads: closures carry no mutable compile-time state (the one exception,
``Project``'s inline Remy cache, stores its ``(directory, slot)`` pair as a
single atomically-swapped tuple), while all *run-time* mutability lives in
the per-run frame and :class:`~repro.core.nrc.eval.EvalContext`.  This is
what lets one engine's compile-cache entry serve scheduler worker threads
and — since the query service (:mod:`repro.server`) multiplexes many
concurrent client sessions onto a single shared engine — every session of a
multi-user deployment at once.

Failure semantics
-----------------

Compiled code contains **no fault handling**: every scan site — the eager
closure, the chunked scan and the chunked batch fetch — routes through
``EvalContext.driver_executor`` / ``driver_executor_batch``, and the
resilience layer (:mod:`repro.kleisli.resilience`) lives behind that one
choke point, so both lowerings inherit identical failure behavior without
any lowering-specific code:

* **Pre-open faults** (the request itself fails): retried per the
  driver's :class:`~repro.kleisli.resilience.RetryPolicy` with
  exponential backoff, classified by
  :func:`repro.core.errors.is_retryable_fault`; terminal faults (a
  malformed request, a missing driver, a spent deadline) propagate
  unretried.  A failed native ``execute_batch`` is decomposed and
  re-dispatched per request, so one poisoned request no longer fails its
  chunk siblings.
* **Mid-stream faults** (a lazy cursor dies after yielding elements): the
  scan is re-issued and resumed through a seen-prefix filter *below* the
  scan-accounting wrapper (``scan_stream`` asks the resilience layer's
  cursor for a merged wrapper), so a drained recovered run is
  bit-identical to a fault-free run in values AND ``elements_fetched`` —
  under every lowering.  A re-issue that ends inside the already-delivered
  prefix is a terminal error, never a silent short stream.
* **Deadlines** (``EvalContext.deadline``, set via
  ``engine.execute/stream(deadline=...)``): checked before every attempt
  and before every backoff sleep; always terminal.
* **Degradation** (``EvalContext.on_source_failure == "degrade"``): a
  source still down after retries — or behind an open circuit breaker —
  contributes an empty result (eager) or ends its stream at the delivered
  prefix (lazy), recorded as a typed
  :class:`~repro.core.errors.SourceDegradedWarning` in
  ``EvalStatistics.warnings``; partial results are always announced,
  never silent.  Under the default ``"fail"`` policy the classified fault
  propagates to the caller unchanged.

A driver with no configured policy bypasses all of the above: zero-fault
runs are bit-for-bit unchanged with the layer installed.

Cancellation & memory semantics
-------------------------------

Query-lifecycle governance (:mod:`repro.kleisli.governance`) threads through
the lowerings the same way resilience does — behind run-time ``EvalContext``
fields that default to ``None``, so the **zero-governance contract** holds: a
run with no cancellation token, no memory budget and no spill manager takes
exactly the pre-governance code paths (differential-pinned, like PR 5's
zero-statistics and PR 8's zero-knowledge contracts).

* **Checkpoint placement** (``EvalContext.cancellation``): cancellation is
  *cooperative* — the token is checked at every natural scheduling point and
  never interrupts mid-value.  The checkpoints are: the chunk boundaries
  of ``CompiledChunkedStream``'s pump (one check per chunk), the loop heads
  of the eager ``Ext``/``Fold`` closures (and their interpreter twins), and
  pre-driver-dispatch in ``KleisliEngine.driver_executor`` /
  ``driver_executor_batch``.  A tripped checkpoint raises the typed
  :class:`~repro.core.errors.QueryCancelledError` from *inside* the run's
  :class:`~repro.core.nrc.eval.EvalScope`, so every cursor the run opened is
  released on the way out — a cancelled query never leaks and never yields a
  partial value without the typed error.
* **Memory accounting** (``EvalContext.memory_budget``): the known unbounded
  materialization points charge the budget in nominal row units — the eager
  ``Ext`` element buffer, the join build sides (the hash index of an indexed
  join, the materialized inner of a blocked join), set-kind dedup seen-sets
  (via :func:`_make_seen_set`), and the chunked pump's transient chunk
  buffers (charged per chunk, released after the chunk is consumed).  An
  over-budget charge raises the typed
  :class:`~repro.core.errors.MemoryBudgetExceededError`.
* **Spill triggers** (``EvalContext.spill``): the engine attaches a
  :class:`~repro.kleisli.spill.SpillManager` *up front*, plan-gated by the
  PR 5 cost model (estimated rows × nominal row bytes vs. the budget) — not
  reactively mid-run — and the two biggest offenders degrade to
  disk-backed structures: join build sides become hash-partitioned spill
  runs (:class:`~repro.kleisli.spill.SpilledList` /
  :class:`~repro.kleisli.spill.SpilledIndex`) and dedup seen-sets become
  :class:`~repro.kleisli.spill.GovernedSeenSet`.  Spilled structures are
  bounded-memory by construction, so they do not charge the budget.
* **Parity rules**: spilled execution is bit-for-bit the in-memory
  execution — same values, same order, same ``elements_fetched`` — across
  both lowerings (the spill backends preserve append order and exact
  dedup under hash collisions), and governance never changes *what* a
  query computes, only whether it is allowed to finish and where its
  intermediates live.

Observability semantics
-----------------------

Tracing, metrics, and EXPLAIN ANALYZE (:mod:`repro.obs`) observe the
lowerings without touching a single compiled artifact: every signal comes
from choke points that already exist on the run-time side of the
``EvalContext`` seam.  The **zero-recorder contract** is the governance
contract's twin — ``EvalContext.trace`` defaults to ``None``, every hook
site is ``None``-guarded, and a run with no recorder attached takes exactly
the pre-observability code paths (differential-pinned by the test suite).

* **Span sources** (``EvalContext.trace``): ``driver_executor`` opens one
  ``driver`` span per remote request and ``driver_executor_batch`` one
  ``driver-batch`` span per native batch — the spans both lowerings
  share, since every remote round trip funnels through those two methods.
  ``EvalContext.evaluation_scope`` brackets the run in a ``scope`` span
  (closed on success *and* on the fault path), and the resilience layer
  records each retry as a zero-duration ``retry`` event.  Spans per query
  are bounded: past the budget a shared dropped-span sentinel keeps
  begin/end pairing balanced without growing the tree.
* **Per-stage timings**: the chunked lowering already times every chunk
  when a plan probe is attached (the PR 7 feedback loop); profiling simply
  tees that probe (:class:`~repro.obs.profile.ProbeTee`) so the feedback
  sink — when one exists — sees the identical call stream.  Forcing the
  tee routes the pump through its probe-timed branch, which is
  value-identical to the fast branch by the probe-neutrality pin.  The
  eager lowering has no chunk boundaries; its per-stage story is the
  per-driver fold of its trace spans.
* **Cardinality**: EXPLAIN ANALYZE reports the physical plan's estimate
  next to the actual row count; on the eager path (which builds no
  physical plan) the estimate is recomputed observation-only from the
  planner's cardinality model, never written back into the context.
* **Parity rules**: profiling and metrics are *observation only* — a
  profiled run's values, order, and ``elements_fetched`` are bit-identical
  to the unprofiled run under every lowering, and an attached-hub engine's
  fault-free overhead is CI-gated by ``benchmarks/bench_observability.py``.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from ..errors import EvaluationError, UnboundVariableError
from ..records import Record, RecordDirectory
from ..values import (
    CBag,
    CList,
    CSet,
    Ref,
    UNIT_VALUE,
    Variant,
    _COLLECTION_CLASSES,
    empty_like,
    iter_collection,
    make_collection,
    union_like,
)
from . import ast as A
from .ast import free_variables
from .eval import (
    Closure,
    Environment,
    EvalContext,
    Evaluator,
    _CountingStream,
    cache_payload,
    iterate_source,
    materialise,
    materialise_source,
    require_join_condition,
    scan_stream,
)
from .prims import (
    fused_primitive_with_const,
    lookup_primitive,
    lookup_primitive_raw,
)
from .structural import proven_collection_kind

__all__ = [
    "ExecutionMode", "CompiledQuery", "CompiledClosure",
    "CompiledChunkedStream", "ChunkPolicy", "compile_term",
    "compile_chunked", "register_compiler", "register_chunk_compiler",
    "supported_node_types", "chunkable_node_types", "term_fingerprint",
]

_COLLECTIONS = (CSet, CBag, CList)


class ExecutionMode(enum.Enum):
    """How the Kleisli engine runs an optimized NRC term."""

    INTERPRET = "interpret"
    COMPILED = "compiled"

    @classmethod
    def coerce(cls, value: Union["ExecutionMode", str]) -> "ExecutionMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise EvaluationError(
                f"unknown execution mode {value!r}; "
                f"expected one of {[mode.value for mode in cls]}"
            ) from None


class _Unbound:
    """Marks a top-level frame slot whose name had no binding at call time.

    The interpreter raises :class:`UnboundVariableError` only if an unbound
    variable is actually *reached*; compiled queries preserve that by filling
    missing slots with a marker and checking it on access.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class CompiledClosure:
    """The run-time value of a compiled ``Lam``: a frame snapshot + body closure.

    Like an interpreter :class:`~repro.core.nrc.eval.Closure`, the *bindings*
    are fixed at creation but the ambient context (driver executor, cache,
    statistics) is the one of whoever applies it: :meth:`apply_in` takes the
    applying context, so a closure that outlives its run — stored in the
    subquery cache, returned to user code — charges statistics to, and
    resolves drivers through, the run that calls it.  ``__call__`` (the bare
    Python-callable protocol) falls back to the creation context.
    """

    __slots__ = ("body_fn", "frame", "context")

    def __init__(self, body_fn, frame, context):
        self.body_fn = body_fn
        self.frame = frame
        self.context = context

    def apply_in(self, arg: object, context: EvalContext) -> object:
        frame = list(self.frame)
        frame.append(arg)
        return self.body_fn(frame, context)

    def __call__(self, arg: object) -> object:
        return self.apply_in(arg, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<compiled closure>"


def _apply_value(func: object, arg: object, context: EvalContext) -> object:
    """Apply a compiled closure, an interpreter closure, or a native callable."""
    if type(func) is CompiledClosure:
        return func.apply_in(arg, context)
    if isinstance(func, Closure):
        # An interpreter closure leaked across the boundary (e.g. out of a
        # fallback subtree or the subquery cache): evaluate it there.
        return Evaluator(context).apply_function(func, arg)
    if callable(func):
        return func(arg)
    raise EvaluationError(f"attempt to apply a non-function value {func!r}")


class _CompileState:
    """Per-``compile_term`` bookkeeping shared by the node compilers.

    ``fallbacks`` names subtrees delegated to the tree-walking interpreter
    (no eager compiler); ``eager`` names subtrees of a *streaming* lowering
    that had no chunk-wise form and were lowered eagerly instead.
    """

    __slots__ = ("n_free", "fallbacks", "eager")

    def __init__(self, n_free: int):
        self.n_free = n_free
        self.fallbacks: List[str] = []
        self.eager: List[str] = []


_Scope = Tuple[str, ...]
_CompiledFn = Callable[[list, EvalContext], object]
_COMPILERS: Dict[Type[A.Expr], Callable[[A.Expr, _Scope, _CompileState], _CompiledFn]] = {}


def register_compiler(node_type: Type[A.Expr]):
    """Register a closure compiler for an AST node type (extension hook).

    Dispatch is by *exact* type, so subclasses with different semantics (for
    example :class:`~repro.core.optimizer.parallel.ParallelExt`) are not
    silently compiled as their base class — they either register their own
    compiler with this decorator or fall back to the interpreter.

    A registered node type whose compiled form bakes in parameters beyond
    its structural children should also define ``fingerprint_extras()``
    returning those parameters, so :func:`term_fingerprint` (the engine's
    compile-cache key) can tell such terms apart; without it, terms
    containing the node are cached by identity only.
    """

    def decorator(function):
        _COMPILERS[node_type] = function
        return function

    return decorator


def supported_node_types() -> Tuple[str, ...]:
    """Names of node types with a native closure compiler (for docs and tests)."""
    return tuple(sorted(cls.__name__ for cls in _COMPILERS))


def _compile(expr: A.Expr, scope: _Scope, state: _CompileState) -> _CompiledFn:
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _compile_fallback(expr, scope, state)
    return compiler(expr, scope, state)


def _compile_fallback(expr: A.Expr, scope: _Scope, state: _CompileState) -> _CompiledFn:
    """Delegate an unsupported subtree to the tree-walking interpreter."""
    state.fallbacks.append(type(expr).__name__)
    names = tuple(scope)

    def run(frame, context):
        context.statistics.compiled_fallbacks += 1
        bindings = {}
        for name, value in zip(names, frame):
            if type(value) is not _Unbound:
                bindings[name] = value
        return Evaluator(context)._eval(expr, Environment(bindings))

    return run


def _require_bool(cond: object) -> bool:
    """Reject non-boolean condition values (shared by both lowerings).

    The boolean-check policy must stay identical between the eager and
    streaming backends (and, eventually, the interpreter — see ROADMAP);
    keeping it in one place makes a coordinated change possible.
    """
    if cond is True or cond is False:
        return cond
    raise EvaluationError(
        f"condition must be a boolean, got {type(cond).__name__}"
    )


def _slot_of(scope: _Scope, name: str) -> Optional[int]:
    """Resolve ``name`` to its innermost slot (shadowing: scan from the end)."""
    for index in range(len(scope) - 1, -1, -1):
        if scope[index] == name:
            return index
    return None


def _extended(frame: list, value: object) -> list:
    new_frame = list(frame)
    new_frame.append(value)
    return new_frame


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------

@register_compiler(A.Const)
def _compile_const(expr: A.Const, scope, state):
    value = UNIT_VALUE if expr.value is None else expr.value
    return lambda frame, context: value


@register_compiler(A.Var)
def _compile_var(expr: A.Var, scope, state):
    slot = _slot_of(scope, expr.name)
    if slot is None:
        # Free variable outside even the top-level scope (cannot happen via
        # compile_term, which seeds the scope with all free names).
        name = expr.name

        def unbound(frame, context):
            raise UnboundVariableError(name)

        return unbound
    if slot < state.n_free:
        # A top-level free name: its slot may hold the "no binding" marker.
        name = expr.name

        def checked(frame, context, _slot=slot, _name=name):
            value = frame[_slot]
            if type(value) is _Unbound:
                raise UnboundVariableError(_name)
            return value

        return checked

    def run(frame, context, _slot=slot):
        return frame[_slot]

    return run


@register_compiler(A.Lam)
def _compile_lam(expr: A.Lam, scope, state):
    body_fn = _compile(expr.body, scope + (expr.param,), state)

    def run(frame, context):
        return CompiledClosure(body_fn, tuple(frame), context)

    return run


@register_compiler(A.Apply)
def _compile_apply(expr: A.Apply, scope, state):
    func_fn = _compile(expr.func, scope, state)
    arg_fn = _compile(expr.arg, scope, state)

    def run(frame, context):
        func = func_fn(frame, context)
        arg = arg_fn(frame, context)
        if type(func) is CompiledClosure:
            return func.apply_in(arg, context)
        return _apply_value(func, arg, context)

    return run


@register_compiler(A.RecordExpr)
def _compile_record(expr: A.RecordExpr, scope, state):
    labels = tuple(expr.fields.keys())
    # The label set is static, so the Remy directory is interned once at
    # compile time; each evaluation fills a value array directly instead of
    # building a dict and re-interning.  Fields still evaluate in source
    # order (side-effect order matches the interpreter).
    directory = RecordDirectory.for_labels(labels)
    slot_fns = tuple(
        (directory.slots[label], _compile(value, scope, state))
        for label, value in expr.fields.items()
    )
    width = len(directory)

    def run(frame, context):
        values = [None] * width
        for slot, fn in slot_fns:
            values[slot] = fn(frame, context)
        return Record(_directory=directory, _values=tuple(values))

    return run


@register_compiler(A.Project)
def _compile_project(expr: A.Project, scope, state):
    subject_fn = _compile(expr.expr, scope, state)
    label = expr.label
    # Inline Remy fast path: cache (directory, slot) as one tuple so the
    # closure stays safe when shared across scheduler threads.
    cache: List[Optional[tuple]] = [None]

    def run(frame, context):
        subject = subject_fn(frame, context)
        if isinstance(subject, Record):
            cached = cache[0]
            directory = subject.directory
            if cached is not None and cached[0] is directory:
                return subject.values[cached[1]]
            slot = directory.slot_of(label)
            cache[0] = (directory, slot)
            return subject.values[slot]
        if isinstance(subject, Ref):
            target = subject.deref()
            if isinstance(target, Record):
                return target.project(label)
            raise EvaluationError(
                f"dereferenced value of {subject!r} is not a record; "
                f"cannot project {label!r}"
            )
        raise EvaluationError(
            f"cannot project field {label!r} from {type(subject).__name__}"
        )

    return run


@register_compiler(A.VariantExpr)
def _compile_variant(expr: A.VariantExpr, scope, state):
    value_fn = _compile(expr.expr, scope, state)
    tag = expr.tag

    def run(frame, context):
        return Variant(tag, value_fn(frame, context))

    return run


@register_compiler(A.Case)
def _compile_case(expr: A.Case, scope, state):
    subject_fn = _compile(expr.subject, scope, state)
    branch_fns = tuple(
        (branch.tag, _compile(branch.body, scope + (branch.var,), state))
        for branch in expr.branches
    )
    default_fn = None
    if expr.default is not None:
        var, body = expr.default
        default_fn = _compile(body, scope + (var,), state)

    def run(frame, context):
        subject = subject_fn(frame, context)
        if not isinstance(subject, Variant):
            raise EvaluationError(
                f"case subject must be a variant, got {type(subject).__name__}"
            )
        for tag, body_fn in branch_fns:
            if tag == subject.tag:
                return body_fn(_extended(frame, subject.value), context)
        if default_fn is not None:
            return default_fn(_extended(frame, subject), context)
        raise EvaluationError(f"no case branch matches variant tag {subject.tag!r}")

    return run


@register_compiler(A.Empty)
def _compile_empty(expr: A.Empty, scope, state):
    value = empty_like(expr.kind)
    return lambda frame, context: value


@register_compiler(A.Singleton)
def _compile_singleton(expr: A.Singleton, scope, state):
    cls = _COLLECTION_CLASSES[expr.kind]
    value_fn = _compile(expr.expr, scope, state)

    def run(frame, context):
        return cls((value_fn(frame, context),))

    return run


@register_compiler(A.Union)
def _compile_union(expr: A.Union, scope, state):
    left_fn = _compile(expr.left, scope, state)
    right_fn = _compile(expr.right, scope, state)
    kind = expr.kind

    def run(frame, context):
        left = left_fn(frame, context)
        right = right_fn(frame, context)
        return union_like(kind, left, right)

    return run


def _filter_shape(body: A.Expr) -> Optional[Tuple[tuple, A.Expr]]:
    """Detect the desugarer's filter chain in a loop body.

    A comprehension's conditions desugar to nested ``if c then ... else
    Empty`` (or the mirror, ``if c then Empty else ...``) around one
    ``Singleton(e)``.  Returns ``(conditions, e)`` with ``conditions`` the
    ``(emit_when, c)`` pairs outermost first, else ``None``.  A chain is
    tested in order and stops at the first failing pair — short-circuit,
    not a strict ``and``: a later condition may be ill-typed exactly when
    an earlier one fails.  Shared by the eager body emitter and the chunked
    ``Ext`` fusion so the two lowerings never diverge on which bodies
    qualify.
    """
    conditions = []
    node = body
    while type(node) is A.IfThenElse:
        if type(node.else_branch) is A.Empty:
            conditions.append((True, node.cond))
            node = node.then_branch
        elif type(node.then_branch) is A.Empty:
            conditions.append((False, node.cond))
            node = node.else_branch
        else:
            return None
    if not conditions or type(node) is not A.Singleton:
        return None
    return tuple(conditions), node.expr


def _compile_body_emitter(body: A.Expr, scope: _Scope, state: _CompileState,
                          chunked: bool = False):
    """Compile a loop body into ``emit(frame, context, elements)``.

    The generic form evaluates the body to a collection and splices its
    elements in (with ``chunked``, the body's chunk pipeline is drained
    instead of its eager value).  Two shapes the desugarer and the rewrite
    rules produce for nearly every comprehension get specialized emitters
    that never build the intermediate one-element collection:

    * ``Singleton(e)`` — append ``e`` directly;
    * a filter chain (see :func:`_filter_shape`) — test the conditions in
      order, then append directly.
    """
    if type(body) is A.Singleton:
        value_fn = _compile(body.expr, scope, state)

        def emit_singleton(frame, context, elements):
            elements.append(value_fn(frame, context))

        return emit_singleton

    filter_shape = _filter_shape(body)
    if filter_shape is not None:
        conditions, value_expr = filter_shape
        tests = tuple((_compile(cond, scope, state), emit_when)
                      for emit_when, cond in conditions)
        value_fn = _compile(value_expr, scope, state)
        if len(tests) == 1:
            (cond_fn, emit_when), = tests

            def emit_filter(frame, context, elements):
                if _require_bool(cond_fn(frame, context)) is emit_when:
                    elements.append(value_fn(frame, context))

            return emit_filter

        def emit_chain(frame, context, elements):
            for cond_fn, emit_when in tests:
                if _require_bool(cond_fn(frame, context)) is not emit_when:
                    return
            elements.append(value_fn(frame, context))

        return emit_chain

    if chunked:
        chunks_fn = _compile_chunk(body, scope, state)

        def emit_chunks(frame, context, elements):
            for chunk in chunks_fn(frame, context):
                elements.extend(chunk)

        return emit_chunks

    body_fn = _compile(body, scope, state)

    def emit(frame, context, elements):
        value = body_fn(frame, context)
        if isinstance(value, _COLLECTIONS):
            elements.extend(value)
        else:
            elements.extend(iter_collection(materialise(value)))

    return emit


@register_compiler(A.Ext)
def _compile_ext(expr: A.Ext, scope, state):
    source_fn = _compile(expr.source, scope, state)
    emit = _compile_body_emitter(expr.body, scope + (expr.var,), state)
    kind = expr.kind
    slot = len(scope)

    def run(frame, context):
        source = source_fn(frame, context)
        stats = context.statistics
        token = context.cancellation
        budget = context.memory_budget
        elements: list = []
        # One loop frame, one slot, reused across iterations: the hot path
        # allocates no environment.  Escaping closures snapshot the frame.
        loop_frame = _extended(frame, None)
        iterations = 0
        charged = 0
        try:
            if token is None and budget is None:
                for item in iterate_source(source):
                    iterations += 1
                    loop_frame[slot] = item
                    emit(loop_frame, context, elements)
            else:
                # Governed loop: a cancellation checkpoint at the loop head
                # and quantum-batched budget charges for the element buffer.
                for item in iterate_source(source):
                    if token is not None:
                        token.raise_if_cancelled()
                    iterations += 1
                    loop_frame[slot] = item
                    emit(loop_frame, context, elements)
                    if budget is not None and len(elements) - charged >= 256:
                        budget.charge_elements(len(elements) - charged)
                        charged = len(elements)
        finally:
            # Batched counter update; the finally keeps partial counts on a
            # failing body identical to the interpreter's per-iteration ones.
            stats.ext_iterations += iterations
            stats.note_intermediate(len(elements))
        if budget is not None and len(elements) > charged:
            budget.charge_elements(len(elements) - charged)
        return make_collection(kind, elements)

    return run


@register_compiler(A.Fold)
def _compile_fold(expr: A.Fold, scope, state):
    func_fn = _compile(expr.func, scope, state)
    init_fn = _compile(expr.init, scope, state)
    source_fn = _compile(expr.source, scope, state)

    def run(frame, context):
        func = func_fn(frame, context)
        accumulator = init_fn(frame, context)
        stats = context.statistics
        token = context.cancellation
        source = source_fn(frame, context)
        iterations = 0
        try:
            if token is None:
                for item in iterate_source(source):
                    iterations += 1
                    accumulator = _apply_value(
                        _apply_value(func, accumulator, context), item, context)
            else:
                for item in iterate_source(source):
                    token.raise_if_cancelled()
                    iterations += 1
                    accumulator = _apply_value(
                        _apply_value(func, accumulator, context), item, context)
        finally:
            stats.fold_iterations += iterations
        return accumulator

    return run


@register_compiler(A.IfThenElse)
def _compile_if(expr: A.IfThenElse, scope, state):
    cond_fn = _compile(expr.cond, scope, state)
    then_fn = _compile(expr.then_branch, scope, state)
    else_fn = _compile(expr.else_branch, scope, state)

    def run(frame, context):
        if _require_bool(cond_fn(frame, context)):
            return then_fn(frame, context)
        return else_fn(frame, context)

    return run


@register_compiler(A.PrimCall)
def _compile_prim(expr: A.PrimCall, scope, state):
    try:
        function = lookup_primitive(expr.name)
    except EvaluationError:
        # Unknown primitive: the interpreter raises only when the node is
        # reached, so defer the lookup (and its error) to run time.
        function = None
    name = expr.name
    arg_fns = tuple(_compile(arg, scope, state) for arg in expr.args)

    if function is not None and len(arg_fns) == 1:
        only_fn = arg_fns[0]

        def run1(frame, context):
            return function(only_fn(frame, context))

        return run1

    if function is not None and len(arg_fns) == 2:
        first_fn, second_fn = arg_fns

        def run2(frame, context):
            return function(first_fn(frame, context), second_fn(frame, context))

        return run2

    def run(frame, context):
        target = function if function is not None else lookup_primitive(name)
        return target(*[fn(frame, context) for fn in arg_fns])

    return run


@register_compiler(A.Let)
def _compile_let(expr: A.Let, scope, state):
    value_fn = _compile(expr.value, scope, state)
    body_fn = _compile(expr.body, scope + (expr.var,), state)

    def run(frame, context):
        return body_fn(_extended(frame, value_fn(frame, context)), context)

    return run


@register_compiler(A.Deref)
def _compile_deref(expr: A.Deref, scope, state):
    ref_fn = _compile(expr.expr, scope, state)

    def run(frame, context):
        ref = ref_fn(frame, context)
        if not isinstance(ref, Ref):
            raise EvaluationError(f"cannot dereference {type(ref).__name__}")
        return ref.deref()

    return run


@register_compiler(A.Scan)
def _compile_scan(expr: A.Scan, scope, state):
    driver = expr.driver
    base_request = dict(expr.request)
    arg_fns = tuple((key, _compile(arg, scope, state))
                    for key, arg in expr.args.items())

    def run(frame, context):
        executor = context.driver_executor
        if executor is None:
            raise EvaluationError(
                f"no driver executor available to satisfy scan of driver {driver!r}"
            )
        request = dict(base_request)
        for key, fn in arg_fns:
            request[key] = fn(frame, context)
        stats = context.statistics
        stats.scan_requests += 1
        result = executor(driver, request)
        if isinstance(result, _COLLECTIONS):
            stats.scan_elements += len(result)
            return result
        # Lazy cursor: counted as consumed, and registered with the active
        # evaluation scope (if any) so abandoning a pipeline closes it.
        return scan_stream(result, context)

    return run


def _build_source(value, context):
    """The indexed join's build input (governed materialization point).

    Under a spill manager a lazy build side stays a one-pass iterator — the
    governed index built from it is the bounded structure, so materializing
    first would defeat the spill.  Otherwise the existing behavior:
    materialize (the zero-governance path, bit-for-bit as before).
    """
    if context.spill is not None and not isinstance(value, _COLLECTIONS):
        return iterate_source(value)
    return materialise_source(value)


def _materialise_build_side(value, context):
    """Materialize a blocked join's build (inner) side under governance.

    The inner side of a blocked join is iterated multiple times (once per
    outer element or block), so it must be a multi-pass sequence.  Under a
    spill manager a lazy inner becomes a disk-backed
    :class:`~repro.kleisli.spill.SpilledList` (bounded memory, exact order);
    under a budget alone the materialized size is charged; ungoverned — or
    when the value is already a collection (no new memory) — this is exactly
    ``materialise_source``.
    """
    spill = context.spill
    if spill is not None and not isinstance(value, _COLLECTIONS):
        spilled = spill.spilled_list()
        for item in iterate_source(value):
            spilled.append(item)
        return spilled
    result = materialise_source(value)
    budget = context.memory_budget
    if budget is not None and not isinstance(value, _COLLECTIONS):
        budget.charge_elements(len(result))
    return result


def _build_join_index(inner, inner_key_fn, frame, key_slot, context):
    """Build the hash index of an indexed join's inner (build) side.

    Shared by the eager and streaming join lowerings so the index layout
    and key evaluation cannot diverge; the key frame reuses one slot across
    inner elements exactly like a loop frame.  This is a governed
    materialization point: under a spill manager the index is the
    disk-backed :class:`~repro.kleisli.spill.SpilledIndex`; under a budget
    alone each indexed row is charged (quantum-batched).
    """
    key_frame = _extended(frame, None)
    spill = context.spill
    if spill is not None:
        spilled = spill.index()
        for inner_item in inner:
            key_frame[key_slot] = inner_item
            spilled.add(inner_key_fn(key_frame, context), inner_item)
        return key_frame, spilled
    index: Dict[object, list] = {}
    budget = context.memory_budget
    if budget is None:
        for inner_item in inner:
            key_frame[key_slot] = inner_item
            index.setdefault(inner_key_fn(key_frame, context), []).append(inner_item)
        return key_frame, index
    count = 0
    for inner_item in inner:
        key_frame[key_slot] = inner_item
        index.setdefault(inner_key_fn(key_frame, context), []).append(inner_item)
        count += 1
        if count % 256 == 0:
            budget.charge_elements(256)
    if count % 256:
        budget.charge_elements(count % 256)
    return key_frame, index


@register_compiler(A.Join)
def _compile_join(expr: A.Join, scope, state):
    outer_fn = _compile(expr.outer, scope, state)
    inner_fn = _compile(expr.inner, scope, state)
    pair_scope = scope + (expr.outer_var, expr.inner_var)
    emit = _compile_body_emitter(expr.body, pair_scope, state)
    cond_fn = None
    if expr.condition is not None:
        cond_fn = _compile(expr.condition, pair_scope, state)
    kind = expr.kind
    outer_slot = len(scope)
    inner_slot = outer_slot + 1

    if expr.method == "indexed":
        if expr.outer_key is None or expr.inner_key is None:
            def broken(frame, context):
                raise EvaluationError(
                    "indexed join requires outer and inner key expressions")
            return broken
        outer_key_fn = _compile(expr.outer_key, scope + (expr.outer_var,), state)
        inner_key_fn = _compile(expr.inner_key, scope + (expr.inner_var,), state)

        def run_indexed(frame, context):
            outer = materialise_source(outer_fn(frame, context))
            context.statistics.joins_indexed += 1
            inner = _build_source(inner_fn(frame, context), context)
            key_frame, index = _build_join_index(
                inner, inner_key_fn, frame, outer_slot, context)
            elements: list = []
            pair_frame = _extended(_extended(frame, None), None)
            for outer_item in outer:
                key_frame[outer_slot] = outer_item
                matches = index.get(outer_key_fn(key_frame, context))
                if not matches:
                    continue
                pair_frame[outer_slot] = outer_item
                for inner_item in matches:
                    pair_frame[inner_slot] = inner_item
                    if cond_fn is not None and \
                            not require_join_condition(cond_fn(pair_frame, context)):
                        continue
                    emit(pair_frame, context, elements)
            return make_collection(kind, elements)

        return run_indexed

    block_size = max(1, expr.block_size)

    if block_size == 1:
        def run_unit_blocked(frame, context):
            # Per-element probe: the inner side is materialized ONCE and
            # probed per outer element (like the indexed join), instead of
            # re-evaluated per one-element block — same policy as the
            # interpreter and the streamed lowering.
            outer = materialise_source(outer_fn(frame, context))
            context.statistics.joins_blocked += 1
            elements: list = []
            pair_frame = _extended(_extended(frame, None), None)
            inner = None
            for outer_item in outer:
                if inner is None:
                    inner = _materialise_build_side(
                        inner_fn(frame, context), context)
                pair_frame[outer_slot] = outer_item
                for inner_item in inner:
                    pair_frame[inner_slot] = inner_item
                    if cond_fn is not None and \
                            not require_join_condition(cond_fn(pair_frame, context)):
                        continue
                    emit(pair_frame, context, elements)
            return make_collection(kind, elements)

        return run_unit_blocked

    def run_blocked(frame, context):
        outer = materialise_source(outer_fn(frame, context))
        context.statistics.joins_blocked += 1
        elements: list = []
        pair_frame = _extended(_extended(frame, None), None)
        for start in range(0, len(outer), block_size):
            block = outer[start:start + block_size]
            # The inner side is re-evaluated once per outer block, exactly
            # like the interpreter (a driver stream can be consumed once);
            # emission is outer-major so the block size never shows in the
            # element sequence (see the interpreter's _blocked_join).
            inner = _materialise_build_side(inner_fn(frame, context), context)
            for outer_item in block:
                pair_frame[outer_slot] = outer_item
                for inner_item in inner:
                    pair_frame[inner_slot] = inner_item
                    if cond_fn is not None and \
                            not require_join_condition(cond_fn(pair_frame, context)):
                        continue
                    emit(pair_frame, context, elements)
        return make_collection(kind, elements)

    return run_blocked


@register_compiler(A.Cached)
def _compile_cached(expr: A.Cached, scope, state):
    inner_fn = _compile(expr.expr, scope, state)
    key = expr.key

    def run(frame, context):
        cache = context.cache
        stats = context.statistics
        if key in cache:
            stats.cache_hits += 1
            return cache[key]
        stats.cache_misses += 1
        value = cache_payload(inner_fn(frame, context))
        cache[key] = value
        return value

    return run


# ---------------------------------------------------------------------------
# The public entry point
# ---------------------------------------------------------------------------

def _build_frame(free_names: Tuple[str, ...], env: Optional[Environment]) -> list:
    """Read a query's free names out of ``env`` into the flat top-level frame.

    Shared by both lowering targets so unbound-name handling cannot diverge
    between ``execute`` and ``stream``: a missing binding becomes an
    :class:`_Unbound` marker, raising only if the variable is reached.
    """
    frame: list = []
    for name in free_names:
        try:
            frame.append(env.lookup(name) if env is not None
                         else _Unbound(name))
        except UnboundVariableError:
            frame.append(_Unbound(name))
    return frame


class CompiledQuery:
    """An NRC term lowered to nested closures, callable like the evaluator.

    ``free_names`` lists the term's free variables in slot order; calling the
    query reads them out of the supplied :class:`Environment` into the flat
    top-level frame.  ``fallback_nodes`` names the node types (if any) that
    had no native compiler and were delegated to the interpreter.
    """

    __slots__ = ("expr", "free_names", "fallback_nodes", "_fn")

    def __init__(self, expr: A.Expr):
        self.expr = expr
        self.free_names: Tuple[str, ...] = tuple(sorted(free_variables(expr)))
        state = _CompileState(n_free=len(self.free_names))
        self._fn = _compile(expr, self.free_names, state)
        self.fallback_nodes: Tuple[str, ...] = tuple(sorted(set(state.fallbacks)))

    @property
    def fully_compiled(self) -> bool:
        return not self.fallback_nodes

    def __call__(self, env: Optional[Environment] = None,
                 context: Optional[EvalContext] = None) -> object:
        context = context if context is not None else EvalContext()
        return self._fn(_build_frame(self.free_names, env), context)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "full" if self.fully_compiled else \
            "fallback: " + ", ".join(self.fallback_nodes)
        return f"<CompiledQuery ({status})>"


def compile_term(term: A.Expr) -> CompiledQuery:
    """Lower an (optimized) NRC term into nested closures.

    Returns a :class:`CompiledQuery`; call it with an
    :class:`~repro.core.nrc.eval.Environment` and an
    :class:`~repro.core.nrc.eval.EvalContext` to evaluate.
    """
    return CompiledQuery(term)


# ---------------------------------------------------------------------------
# Chunked (morsel-at-a-time) lowering
# ---------------------------------------------------------------------------
#
# The streaming lowering target: stages exchange *lists* of at most K
# elements instead of single elements, so the per-element cost of a pipeline
# stage is one tight-loop iteration rather than a generator-frame
# suspend/resume.  Adjacent Ext stages with map/filter bodies fuse into ONE
# chunk stage that runs each stage as a tight loop over the chunk; set-kind
# dedup, the typed union's shared seen-filter and the join probes have
# chunk-wise forms that preserve exact element-sequence parity with execute
# (see the module docstring's "Chunked semantics").  Chunk sizes ramp from 1
# (the first chunk is the first element, so time-to-first-result is one
# source element) doubling up to the ChunkPolicy maximum, read from the
# EvalContext at run time.


class ChunkPolicy:
    """Chunk-size policy for the chunked lowering (a run-time parameter).

    ``sizes_for(driver)`` returns the ``(initial, maximum)`` ramp bounds for
    a source: chunks start at ``initial`` (1 by default, protecting
    time-to-first-result) and double per chunk up to ``maximum``.  Remote
    drivers — decided by the ``is_remote`` callable, which
    ``KleisliEngine.stream`` wires to its
    :class:`~repro.kleisli.statistics.SourceStatisticsRegistry` — keep the
    smaller ``remote_max_chunk`` so one chunk never buffers more than a
    bounded slice of a slow cursor; local sources ramp to ``max_chunk``.

    ``parallel_chunk`` selects the granularity of a streamed
    ``ParallelExt``'s prefetcher: 1 (the default) keeps one in-flight task
    per source *element*, with the source pulled one element at a time, so
    it runs only one window ahead — the right shape for overlapping remote
    latency — while a larger
    value submits one task per ``parallel_chunk`` source elements
    (``AdaptiveScheduler.prefetch``'s chunk-granular mode), amortizing task
    overhead when the body is cheap.
    """

    DEFAULT_MAX_CHUNK = 1024
    REMOTE_MAX_CHUNK = 32

    __slots__ = ("max_chunk", "remote_max_chunk", "initial_chunk",
                 "parallel_chunk", "is_remote", "adaptive_ramp")

    def __init__(self, max_chunk: int = DEFAULT_MAX_CHUNK,
                 remote_max_chunk: int = REMOTE_MAX_CHUNK,
                 initial_chunk: int = 1, parallel_chunk: int = 1,
                 is_remote: Optional[Callable[[str], bool]] = None,
                 adaptive_ramp: bool = False):
        for name, value in (("max_chunk", max_chunk),
                            ("remote_max_chunk", remote_max_chunk),
                            ("initial_chunk", initial_chunk),
                            ("parallel_chunk", parallel_chunk)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        if initial_chunk > max_chunk:
            raise ValueError(
                f"initial_chunk ({initial_chunk}) must not exceed "
                f"max_chunk ({max_chunk}): the ramp only ever grows")
        self.max_chunk = max_chunk
        self.remote_max_chunk = remote_max_chunk
        self.initial_chunk = initial_chunk
        self.parallel_chunk = parallel_chunk
        self.is_remote = is_remote
        #: With the planner's cost-adaptive ramp, chunk sizes stop doubling
        #: when the marginal per-chunk cost stops improving (see _ChunkRamp).
        self.adaptive_ramp = adaptive_ramp

    def sizes_for(self, driver: Optional[str] = None) -> Tuple[int, int]:
        """The ``(initial, maximum)`` chunk-size ramp bounds for a source."""
        maximum = self.max_chunk
        if driver is not None and self.is_remote is not None \
                and self.is_remote(driver):
            maximum = self.remote_max_chunk
        return self.initial_chunk, max(self.initial_chunk, maximum)


#: The policy used when a context carries none (local ramp to 1024).
DEFAULT_CHUNK_POLICY = ChunkPolicy()


def _active_policy(context: EvalContext) -> ChunkPolicy:
    policy = getattr(context, "chunk_policy", None)
    return DEFAULT_CHUNK_POLICY if policy is None else policy


def _iterate_streamed(value: object, context: EvalContext):
    """Iterate a collection or lazy stream produced by an eager section.

    Accepts exactly what :func:`~repro.core.nrc.eval.iterate_source` accepts
    (any iterable), so a term legal as a generator source under the eager
    backend is legal under the streaming one.  Lazy cursors that are not
    already scope-registered (``_CountingStream`` registers itself at
    creation) are registered with the active scope so an abandoned pipeline
    releases them deterministically.
    """
    if isinstance(value, _COLLECTIONS):
        return iter(value)
    if hasattr(value, "__iter__"):
        if not isinstance(value, _CountingStream):
            scope = context.scope
            if scope is not None and hasattr(value, "close"):
                scope.register(value)
                return _unregistering_iter(value, scope)
        return iter(value)
    raise EvaluationError(
        f"generator source must be a collection, got {type(value).__name__}"
    )


def _unregistering_iter(value: object, scope):
    """Iterate a scope-registered cursor, unregistering it when drained.

    Mirrors ``_CountingStream``'s self-unregistration: on natural
    exhaustion the scope stops tracking the dead cursor (so a long pipeline
    does not pin one per occurrence); on abandonment the ``yield from``
    never completes and the scope's close still reaches it.
    """
    yield from iter(value)
    scope.unregister(value)


class _BudgetedSeenSet:
    """A dedup seen-set that charges the run's memory budget as it grows.

    Charges are quantum-batched (one hierarchical budget walk per
    :data:`QUANTUM` distinct elements, not per element) so the dedup hot
    path pays one counter increment per element; the at-most-one-quantum
    under-charge at stream end is bounded and released with the budget.
    """

    QUANTUM = 256

    __slots__ = ("_set", "_budget", "_pending")

    def __init__(self, budget):
        self._set: set = set()
        self._budget = budget
        self._pending = 0

    def __contains__(self, value) -> bool:
        return value in self._set

    def add(self, value) -> None:
        before = len(self._set)
        self._set.add(value)
        if len(self._set) != before:
            self._pending += 1
            if self._pending >= self.QUANTUM:
                self._budget.charge_elements(self._pending)
                self._pending = 0

    def __len__(self) -> int:
        return len(self._set)


def _make_seen_set(context: EvalContext):
    """The seen-set for a set-kind dedup stage (governed materialization point).

    Plain ``set()`` ungoverned (the zero-governance path), a disk-backed
    :class:`~repro.kleisli.spill.GovernedSeenSet` under a spill manager
    (bounded memory, exact dedup), a budget-charging set under a budget
    alone.  All three satisfy the ``in``/``add`` protocol the dedup loops
    use, so chunk sizes and values stay identical across the backends.
    """
    spill = context.spill
    if spill is not None:
        return spill.seen_set()
    budget = context.memory_budget
    if budget is not None:
        return _BudgetedSeenSet(budget)
    return set()


def _ramped_chunks(iterator, initial: int, maximum: int,
                   adaptive: bool = False):
    """Group an element iterator into ramping chunks: 1, 2, 4, ... maximum.

    Pulls exactly ``size`` elements before yielding a chunk — no lookahead
    beyond the chunk boundary, so a consumer that stops early never caused
    more source consumption than the chunk it is reading.  With ``adaptive``
    (the planner's cost-adaptive ramp) the doubling stops when the marginal
    per-chunk cost stops improving — see :class:`_ChunkRamp`.
    """
    if adaptive:
        yield from _ChunkRamp(initial, maximum, adaptive=True) \
            .emit_pulled(iterator)
        return
    size = max(1, initial)
    maximum = max(size, maximum)
    chunk: list = []
    append = chunk.append
    for item in iterator:
        append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
            append = chunk.append
            if size < maximum:
                size = min(maximum, size * 2)
    if chunk:
        yield chunk


class _ChunkRamp:
    """A chunk-size ramp shared across several emission sites.

    The batched-scan stage emits one result's elements after another; a
    ramp that restarted at 1 for every result would re-pay tiny-chunk
    dispatch overhead per result.  This object carries the size across
    them: it still starts at ``initial`` (protecting the pipeline's very
    first chunk — TTFR) and doubles per emitted chunk to ``maximum``.

    With ``adaptive`` set (``ChunkPolicy.adaptive_ramp``, chosen by the
    planner) each chunk's *production* cost is measured — the time from
    resuming the producer to the chunk being ready, which excludes the
    consumer's own work between pulls.  Doubling amortizes per-chunk
    dispatch overhead; once a doubling fails to cut the per-element cost
    (``RAMP_IMPROVEMENT``), growing further only adds buffering and
    latency, so the ramp freezes at the current size.  Chunks cheaper than
    ``RAMP_COST_FLOOR`` carry no signal above timer noise and ramp exactly
    like the non-adaptive policy — with nothing measurable to amortize, a
    bigger chunk costs nothing — so an adaptive ramp over a fast local
    source is behaviourally identical to the geometric one.
    """

    #: A doubling must cut per-element production cost to below this
    #: fraction of the previous chunk's, or the ramp freezes.
    RAMP_IMPROVEMENT = 0.9
    #: Per-chunk production cost (seconds) below which there is no signal.
    RAMP_COST_FLOOR = 0.001

    __slots__ = ("size", "maximum", "adaptive", "_unit_cost", "_frozen")

    def __init__(self, initial: int, maximum: int, adaptive: bool = False):
        self.size = max(1, initial)
        self.maximum = max(self.size, maximum)
        self.adaptive = adaptive
        self._unit_cost: Optional[float] = None
        self._frozen = False

    def emit_sliced(self, elements):
        """Ramped chunks of an indexable sequence, by C-level slicing."""
        if self.adaptive:
            yield from self._emit_timed(iter(elements), sliced=elements)
            return
        start = 0
        total = len(elements)
        while start < total:
            yield list(elements[start:start + self.size])
            start += self.size
            self._grow()

    def emit_pulled(self, iterator):
        """Ramped chunks of a lazy cursor (no lookahead past the chunk)."""
        if self.adaptive:
            yield from self._emit_timed(iterator)
            return
        chunk: list = []
        append = chunk.append
        for item in iterator:
            append(item)
            if len(chunk) >= self.size:
                yield chunk
                chunk = []
                append = chunk.append
                self._grow()
        if chunk:
            yield chunk

    def _emit_timed(self, iterator, sliced=None):
        """The adaptive paths: per-chunk production timing feeds the ramp.

        ``sliced`` keeps the C-level slice cut for materialized sources
        (timing a slice is near-free, and near-free chunks keep doubling,
        so the fast path's behaviour is preserved).
        """
        if sliced is not None:
            start = 0
            total = len(sliced)
            while start < total:
                began = time.perf_counter()
                chunk = list(sliced[start:start + self.size])
                start += self.size
                self._note(len(chunk), time.perf_counter() - began)
                yield chunk
                self._grow()
            return
        chunk: list = []
        append = chunk.append
        began = time.perf_counter()
        for item in iterator:
            append(item)
            if len(chunk) >= self.size:
                self._note(len(chunk), time.perf_counter() - began)
                yield chunk
                chunk = []
                append = chunk.append
                self._grow()
                began = time.perf_counter()
        if chunk:
            yield chunk

    def _note(self, produced: int, elapsed: float) -> None:
        """Feed one chunk's production cost into the ramp decision."""
        if self._frozen or produced <= 0:
            return
        if elapsed < self.RAMP_COST_FLOOR:
            # Too cheap to measure: keep doubling (matches the blind ramp),
            # and leave the baseline untouched — a noise-era unit cost would
            # misread the first real chunk as a catastrophic regression.
            self._unit_cost = None
            return
        unit = elapsed / produced
        if self._unit_cost is not None \
                and unit > self._unit_cost * self.RAMP_IMPROVEMENT:
            # The last doubling did not improve marginal per-element cost:
            # the source is latency- or work-bound per element, and larger
            # chunks only buy buffering.  Stop here.
            self._frozen = True
        self._unit_cost = unit

    def _grow(self):
        if not self._frozen and self.size < self.maximum:
            self.size = min(self.maximum, self.size * 2)


def _sliced_chunks(elements, initial: int, maximum: int,
                   adaptive: bool = False):
    """Ramped chunks of an indexable sequence, cut by slicing.

    The fast path for *materialized* sources: a chunk is one C-level slice
    of the backing tuple/list, so chunking a local collection costs no
    per-element Python work at all (contrast :func:`_ramped_chunks`, which
    must pull cursor elements one by one).
    """
    if adaptive:
        yield from _ChunkRamp(initial, maximum, adaptive=True) \
            .emit_sliced(elements)
        return
    size = max(1, initial)
    maximum = max(size, maximum)
    total = len(elements)
    start = 0
    while start < total:
        end = start + size
        yield list(elements[start:end])
        start = end
        if size < maximum:
            size = min(maximum, size * 2)


def _chunk_elements(value: object, context: EvalContext,
                    initial: int, maximum: int, adaptive: bool = False):
    """Ramped chunks of an evaluated value: sliced when materialized,
    pulled element-wise when lazy (cursors stay scope-registered)."""
    if isinstance(value, _COLLECTIONS):
        return _sliced_chunks(value._elements, initial, maximum, adaptive)
    return _ramped_chunks(_iterate_streamed(value, context), initial, maximum,
                          adaptive)


_ChunkFn = Callable[[list, EvalContext], object]
_CHUNK_COMPILERS: Dict[Type[A.Expr], Callable[[A.Expr, _Scope, _CompileState], _ChunkFn]] = {}


def register_chunk_compiler(node_type: Type[A.Expr]):
    """Register a chunk-wise lowering for an AST node type.

    Same exact-type dispatch contract as :func:`register_compiler`.  The
    registered function compiles ``expr`` to a generator function
    ``chunks(frame, context)`` whose iterator yields non-empty **lists** of
    elements; the concatenation of the lists must equal the node's element
    sequence, and no work (including driver requests) may happen before the
    first ``next()``.
    """

    def decorator(function):
        _CHUNK_COMPILERS[node_type] = function
        return function

    return decorator


def chunkable_node_types() -> Tuple[str, ...]:
    """Names of node types with a native chunk-wise lowering."""
    return tuple(sorted(cls.__name__ for cls in _CHUNK_COMPILERS))


def _compile_chunk(expr: A.Expr, scope: _Scope, state: _CompileState) -> _ChunkFn:
    compiler = _CHUNK_COMPILERS.get(type(expr))
    if compiler is not None:
        return compiler(expr, scope, state)
    if _is_leaf(expr):
        return _chunk_leaf(expr, scope, state)
    return _chunk_via_eager(expr, scope, state)


def _scan_drivers(expr: A.Expr) -> Tuple[str, ...]:
    """Every driver name scanned anywhere in ``expr`` (for chunk sizing)."""
    names = set()
    if type(expr) is A.Scan:
        names.add(expr.driver)
    for child in expr.children():
        names.update(_scan_drivers(child))
    return tuple(sorted(names))


def _subtree_sizes(policy: ChunkPolicy, drivers: Tuple[str, ...]) -> Tuple[int, int]:
    """The most conservative ramp bounds over a subtree's scan drivers.

    A re-chunk point (an eager section, a ParallelExt's output) sits
    downstream of whatever cursors its subtree opens; pulling a chunk pulls
    through them.  Taking the minimum maximum over every driver the subtree
    can scan keeps
    the remote buffering bound ("one chunk never buffers more than a
    bounded slice of a slow cursor") intact across those points — a
    driver-free subtree gets the local sizes.
    """
    initial, maximum = policy.sizes_for()
    for driver in drivers:
        driver_initial, driver_maximum = policy.sizes_for(driver)
        initial = min(initial, driver_initial)
        maximum = min(maximum, driver_maximum)
    return initial, maximum


def _chunk_via_eager(expr: A.Expr, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """Evaluate a subtree with no chunk lowering, then chunk its value.

    The fallback for every node type without a chunk compiler: named in
    ``eager_nodes`` and counted by ``stream_fallbacks``.  The whole value is
    produced before the first chunk, so a term ``execute`` rejects raises
    here exactly where it raises there.  The eager value can
    still be a lazy cursor (an eagerly compiled ``Scan``), so the ramp uses
    the subtree's conservative driver sizes like any re-chunk point.
    """
    state.eager.append(type(expr).__name__)
    fn = _compile(expr, scope, state)
    drivers = _scan_drivers(expr)

    def chunks(frame, context):
        context.statistics.stream_fallbacks += 1
        policy = _active_policy(context)
        initial, maximum = _subtree_sizes(policy, drivers)
        yield from _chunk_elements(fn(frame, context), context,
                                   initial, maximum, policy.adaptive_ramp)

    return chunks


def _is_leaf(expr: A.Expr) -> bool:
    """Whether ``expr`` is chunked as a leaf in source position.

    Leaves are a bound variable, a literal, a field of a bound variable
    (``\\k <- p.keywd``) and a ``Cached`` value — a deliberate
    materialization point, since the subquery cache stores whole
    collections.  None has a cheaper pull-based form, so none is a
    fallback.
    """
    node_type = type(expr)
    if node_type is A.Project:
        return type(expr.expr) is A.Var
    return node_type in (A.Var, A.Const, A.Cached)


def _chunk_leaf(expr: A.Expr, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """A leaf in source position: evaluate (cheap), chunk lazily.

    Not a fallback, so not counted anywhere.  A leaf scans no driver, so
    its ramp takes the local bounds (``_subtree_sizes`` of no drivers).
    """
    fn = _compile(expr, scope, state)

    def chunks(frame, context):
        policy = _active_policy(context)
        initial, maximum = policy.sizes_for()
        yield from _chunk_elements(fn(frame, context), context,
                                   initial, maximum, policy.adaptive_ramp)

    return chunks


register_chunk_compiler(A.Var)(_chunk_leaf)
register_chunk_compiler(A.Const)(_chunk_leaf)
register_chunk_compiler(A.Cached)(_chunk_leaf)


@register_chunk_compiler(A.Empty)
def _chunk_empty(expr: A.Empty, scope, state):
    def chunks(frame, context):
        return
        yield  # pragma: no cover - makes this a generator function

    return chunks


@register_chunk_compiler(A.Singleton)
def _chunk_singleton(expr: A.Singleton, scope, state):
    value_fn = _compile(expr.expr, scope, state)

    def chunks(frame, context):
        yield [value_fn(frame, context)]

    return chunks


def _dedup_set_chunks(chunk_fn: _ChunkFn) -> _ChunkFn:
    """Chunk-wise dedup-as-you-go for set-kind pipelines.

    ``CSet`` iterates in first-occurrence insertion order, so suppressing
    repeats incrementally yields *exactly* the element sequence of the
    eagerly built set, at O(distinct elements) memory.  The seen-set is
    carried *across* chunk boundaries, so chunk sizes stay value-invisible.
    The raw stage is remembered (``undeduped``) so an enclosing set-kind
    union can chain operands under one shared seen-filter: filtering the raw
    concatenation yields the same first-occurrence sequence as filtering
    pre-deduped operands, with one live seen-set instead of one per layer.
    """

    def chunks(frame, context):
        seen = _make_seen_set(context)
        add = seen.add
        for chunk in chunk_fn(frame, context):
            out = []
            append = out.append
            for element in chunk:
                if element not in seen:
                    add(element)
                    append(element)
            if out:
                yield out

    chunks.undeduped = chunk_fn
    return chunks


@register_chunk_compiler(A.Union)
def _chunk_union(expr: A.Union, scope, state):
    """The typed streaming union: chain operand pipelines under a kind proof.

    ``union_like`` both deduplicates (sets) and type-checks the two
    operands' collection classes (all kinds).  When the static kind proof
    (:func:`~repro.core.nrc.structural.proven_collection_kind`) guarantees
    both operands produce this union's collection class, the run-time check
    is redundant and the union pipelines: the left operand's chunks, then
    the right's — for sets under one seen-filter carried across both
    operands, which matches ``left.union(right)``'s first-occurrence order
    exactly (bag/list union is concatenation, so chaining is the semantics).
    Without a proof for either operand (a bound ``Var``, a ``Scan``, a
    ``Cached`` value — or a *provable mismatch*), the union stays an eager
    ``union_like`` section, so it raises exactly where ``execute`` raises.
    """
    kind = expr.kind
    if (proven_collection_kind(expr.left) != kind
            or proven_collection_kind(expr.right) != kind):
        return _chunk_via_eager(expr, scope, state)
    left_fn = _compile_chunk(expr.left, scope, state)
    right_fn = _compile_chunk(expr.right, scope, state)
    if kind == "set":
        # One seen-set for the whole union chain: operands that dedup on
        # their own are unwrapped to their raw stages.
        left_fn = getattr(left_fn, "undeduped", left_fn)
        right_fn = getattr(right_fn, "undeduped", right_fn)

    def chunks(frame, context):
        yield from left_fn(frame, context)
        yield from right_fn(frame, context)

    if kind == "set":
        return _dedup_set_chunks(chunks)
    return chunks


@register_chunk_compiler(A.IfThenElse)
def _chunk_if(expr: A.IfThenElse, scope, state):
    cond_fn = _compile(expr.cond, scope, state)
    then_fn = _compile_chunk(expr.then_branch, scope, state)
    else_fn = _compile_chunk(expr.else_branch, scope, state)

    def chunks(frame, context):
        if _require_bool(cond_fn(frame, context)):
            yield from then_fn(frame, context)
        else:
            yield from else_fn(frame, context)

    return chunks


@register_chunk_compiler(A.Let)
def _chunk_let(expr: A.Let, scope, state):
    value_fn = _compile(expr.value, scope, state)
    body_fn = _compile_chunk(expr.body, scope + (expr.var,), state)

    def chunks(frame, context):
        yield from body_fn(_extended(frame, value_fn(frame, context)), context)

    return chunks


@register_chunk_compiler(A.Scan)
def _chunk_scan(expr: A.Scan, scope, state):
    run = _compile_scan(expr, scope, state)
    driver = expr.driver

    def chunks(frame, context):
        # The request fires on first next(); lazy cursors are registered
        # with the evaluation scope inside the eager scan closure.  Remote
        # drivers get the policy's smaller maximum chunk.
        policy = _active_policy(context)
        initial, maximum = policy.sizes_for(driver)
        yield from _chunk_elements(run(frame, context), context,
                                   initial, maximum, policy.adaptive_ramp)

    return chunks


def _execute_scan_batch(driver: str, requests: List[dict],
                        context: EvalContext) -> list:
    """Issue a chunk's worth of scan requests, batched where possible.

    Routes through ``EvalContext.driver_executor_batch`` (one
    ``Driver.execute_batch`` call for the whole chunk) when the engine
    provides it, else loops over the per-request executor.  Lazy results are
    scope-registered immediately — not on first consumption — so abandoning
    the pipeline mid-chunk releases cursors the batch opened but downstream
    never reached; eager collections are counted here like a single scan's.
    """
    executor = context.driver_executor
    batch_executor = context.driver_executor_batch
    if executor is None and batch_executor is None:
        raise EvaluationError(
            f"no driver executor available to satisfy scan of driver {driver!r}"
        )
    stats = context.statistics
    stats.scan_requests += len(requests)
    if batch_executor is not None:
        results = list(batch_executor(driver, requests))
    else:
        results = [executor(driver, request) for request in requests]
    prepared = []
    for result in results:
        if isinstance(result, _COLLECTIONS):
            stats.scan_elements += len(result)
            prepared.append(result)
        else:
            prepared.append(scan_stream(result, context))
    return prepared


def _chunk_ext_scan_batch(expr: A.Ext, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """``Ext`` whose body is a ``Scan``: batch the chunk's driver fetches.

    The eager lowering issues one request per source element; here a whole
    batch of requests is built first and dispatched in one
    ``execute_batch`` call, then each result's elements are yielded in
    request order — the same element sequence and the same drained-run
    statistics, at one driver round-trip per batch.

    The batch size is bounded by the *scan driver's* policy maximum (not
    just the source's chunk size): a remote scan driver keeps small batches,
    so one ``execute_batch`` call never blocks on — or buffers the results
    of — more than ``remote_max_chunk`` round-trips, however large the
    (possibly local, fully ramped) source's chunks grow.
    """
    source_fn = _compile_chunk(expr.source, scope, state)
    scan = expr.body
    body_scope = scope + (expr.var,)
    driver = scan.driver
    base_request = dict(scan.request)
    arg_fns = tuple((key, _compile(arg, body_scope, state))
                    for key, arg in scan.args.items())
    slot = len(scope)

    def chunks(frame, context):
        stats = context.statistics
        loop_frame = _extended(frame, None)
        policy = _active_policy(context)
        initial, maximum = policy.sizes_for(driver)
        probe = context.plan_probe
        stage = "scan:" + driver
        # ONE ramp for the whole stage: it starts at 1 for the first chunk
        # (TTFR) and keeps its reached size across results, instead of
        # re-paying the tiny-chunk dispatch overhead per scan result.
        ramp = _ChunkRamp(initial, maximum, policy.adaptive_ramp)
        for chunk in source_fn(frame, context):
            stats.ext_iterations += len(chunk)
            for start in range(0, len(chunk), maximum):
                requests = []
                for item in chunk[start:start + maximum]:
                    loop_frame[slot] = item
                    request = dict(base_request)
                    for key, fn in arg_fns:
                        request[key] = fn(loop_frame, context)
                    requests.append(request)
                if probe is None:
                    results = _execute_scan_batch(driver, requests, context)
                else:
                    began = time.perf_counter()
                    results = _execute_scan_batch(driver, requests, context)
                    probe.note_chunk(stage, len(requests),
                                     time.perf_counter() - began)
                for result in results:
                    if isinstance(result, _COLLECTIONS):
                        yield from ramp.emit_sliced(result._elements)
                    else:
                        yield from ramp.emit_pulled(iter(result))

    if expr.kind == "set":
        return _dedup_set_chunks(chunks)
    return chunks


def _ident(item):
    """The identity item-function (also a marker enabling specializations)."""
    return item


def _item_plan(expr: A.Expr, scope: _Scope, state: _CompileState,
               slot: int) -> Optional[tuple]:
    """Compile a fused-stage body into an *item-plan*, or ``None``.

    An item-plan realizes (per pipeline activation, via :func:`_realize`)
    into a single ``fn(item)`` callable, so a fused chunk stage can run as
    one ``list(map(fn, chunk))`` / one list comprehension — no loop-frame
    store and no nested argument-closure calls per element.  Covered: the
    loop variable, literals, bound/free variable reads (free top-level names
    keep raising per element when unbound, like the frame form), 1- and
    2-ary primitives known at compile time, and ``Project`` with the inline
    Remy directory cache.  Anything else returns ``None`` and the stage
    falls back to the general loop-frame form — same values either way.

    Enclosing-binder reads are realized once per activation: sound because
    a fused stage's enclosing frame slots cannot change while the stage's
    generator is live (a body pipeline is drained before the next outer
    element is bound).
    """
    node_type = type(expr)
    if node_type is A.Var:
        var_slot = _slot_of(scope, expr.name)
        if var_slot is None:
            return None
        if var_slot == slot:
            return ("item",)
        if var_slot < state.n_free:
            name = expr.name

            def build_checked(frame, context, _slot=var_slot, _name=name):
                value = frame[_slot]
                if type(value) is _Unbound:
                    def raising(item):
                        raise UnboundVariableError(_name)
                    return raising
                return lambda item, _value=value: _value

            return ("call", build_checked)

        def build_read(frame, context, _slot=var_slot):
            value = frame[_slot]
            return lambda item, _value=value: _value

        return ("call", build_read)
    if node_type is A.Const:
        return ("const", UNIT_VALUE if expr.value is None else expr.value)
    if node_type is A.PrimCall:
        try:
            # The call-site arity is static here, so the checked wrapper's
            # per-call arity test is elided (lookup_primitive_raw).
            function = lookup_primitive_raw(expr.name, len(expr.args))
        except EvaluationError:
            return None
        if len(expr.args) not in (1, 2):
            return None
        plans = [_item_plan(arg, scope, state, slot) for arg in expr.args]
        if any(plan is None for plan in plans):
            return None
        if len(plans) == 1:
            plan, = plans
            if plan == ("item",):
                # fn(item) == function(item): apply the primitive directly.
                return ("call", lambda frame, context, _f=function: _f)

            def build1(frame, context, _plan=plan, _f=function):
                arg_fn = _realize(_plan, frame, context)
                return lambda item: _f(arg_fn(item))

            return ("call", build1)
        first, second = plans
        if first == ("item",) and second[0] == "const":
            # Constant operand: its value checks run HERE, at compile time
            # (fused_primitive_with_const), leaving one call per element.
            fused = fused_primitive_with_const(expr.name, second[1],
                                               const_is_second=True)
            if fused is not None:
                return ("call", lambda frame, context, _fn=fused: _fn)
            value = second[1]
            return ("call", lambda frame, context, _f=function, _v=value:
                    (lambda item: _f(item, _v)))
        if first[0] == "const" and second == ("item",):
            fused = fused_primitive_with_const(expr.name, first[1],
                                               const_is_second=False)
            if fused is not None:
                return ("call", lambda frame, context, _fn=fused: _fn)
            value = first[1]
            return ("call", lambda frame, context, _f=function, _v=value:
                    (lambda item: _f(_v, item)))

        def build2(frame, context, _first=first, _second=second, _f=function):
            first_fn = _realize(_first, frame, context)
            second_fn = _realize(_second, frame, context)
            return lambda item: _f(first_fn(item), second_fn(item))

        return ("call", build2)
    if node_type is A.Project:
        subject_plan = _item_plan(expr.expr, scope, state, slot)
        if subject_plan is None:
            return None
        label = expr.label

        def build_project(frame, context, _plan=subject_plan, _label=label):
            subject_fn = _realize(_plan, frame, context)
            direct = subject_fn is _ident
            cache: List[Optional[tuple]] = [None]

            def project(item):
                subject = item if direct else subject_fn(item)
                if isinstance(subject, Record):
                    cached = cache[0]
                    directory = subject.directory
                    if cached is not None and cached[0] is directory:
                        return subject.values[cached[1]]
                    value_slot = directory.slot_of(_label)
                    cache[0] = (directory, value_slot)
                    return subject.values[value_slot]
                if isinstance(subject, Ref):
                    target = subject.deref()
                    if isinstance(target, Record):
                        return target.project(_label)
                    raise EvaluationError(
                        f"dereferenced value of {subject!r} is not a record; "
                        f"cannot project {_label!r}")
                raise EvaluationError(
                    f"cannot project field {_label!r} from {type(subject).__name__}")

            return project

        return ("call", build_project)
    return None


def _realize(plan: tuple, frame: list, context: EvalContext):
    """Turn an item-plan into its per-activation ``fn(item)`` callable."""
    tag = plan[0]
    if tag == "item":
        return _ident
    if tag == "const":
        value = plan[1]
        return lambda item: value
    return plan[1](frame, context)


@register_chunk_compiler(A.Ext)
def _chunk_ext(expr: A.Ext, scope, state):
    """Chunked ``Ext``: fuse adjacent map/filter stages into one chunk stage.

    Walking down through directly nested ``Ext`` nodes whose bodies are the
    desugarer's ``Singleton``/filter-chain shapes collects an op list
    (innermost first); every stage binds its loop variable at the *same*
    frame slot (each source is compiled in the enclosing scope), so one
    reused loop frame serves the whole fused segment.  At run time each
    chunk flows through the ops as tight loops — no generator frame per
    stage — with per-stage ``ext_iterations`` batched per chunk and
    set-kind stages deduping through a seen-set that persists across
    chunks.
    """
    slot = len(scope)
    stages = []  # outermost-first: (op, dedup_after)
    node = expr
    top = True
    while type(node) is A.Ext:  # exact type: ParallelExt has its own lowering
        body = node.body
        body_scope = scope + (node.var,)
        if type(body) is A.Singleton:
            plan = _item_plan(body.expr, body_scope, state, slot)
            if plan == ("item",):
                # Identity map: no transformation, only loop accounting.
                op = ("count",)
            elif plan is not None:
                op = ("vmap", plan)
            else:
                op = ("map", _compile(body.expr, body_scope, state))
        else:
            filter_shape = _filter_shape(body)
            if filter_shape is None:
                break
            conditions, value_expr = filter_shape
            cond_plans = tuple((_item_plan(cond, body_scope, state, slot),
                                emit_when) for emit_when, cond in conditions)
            value_plan = _item_plan(value_expr, body_scope, state, slot)
            if value_plan is not None and \
                    all(plan is not None for plan, _ in cond_plans):
                op = ("vfilter", cond_plans, value_plan)
            else:
                op = ("filter",
                      tuple((_compile(cond, body_scope, state), emit_when)
                            for emit_when, cond in conditions),
                      _compile(value_expr, body_scope, state))
        # The top stage's set dedup is the wrapper below; an absorbed inner
        # stage's dedup becomes an op between it and the enclosing stage.
        stages.append((op, node.kind == "set" and not top))
        top = False
        node = node.source

    if not stages:
        if type(expr.body) is A.Scan:
            return _chunk_ext_scan_batch(expr, scope, state)
        return _chunk_ext_generic(expr, scope, state)

    source_fn = _compile_chunk(node, scope, state)
    op_list: List[tuple] = []
    for op, dedup_after in reversed(stages):  # innermost first
        op_list.append(op)
        if dedup_after:
            op_list.append(("dedup",))
    ops = tuple(op_list)

    def chunks(frame, context):
        stats = context.statistics
        loop_frame = _extended(frame, None)
        require_bool = _require_bool  # closure-local for the hot comprehensions
        # Realize the vectorized ops' item-functions once per activation
        # (enclosing-binder reads bind here; see _item_plan), so each hot
        # pass below is one list comprehension / one C-level map per chunk.
        realized = []
        for op in ops:
            tag = op[0]
            if tag == "vmap":
                realized.append((tag, _realize(op[1], frame, context)))
            elif tag == "vfilter":
                tests = tuple((_realize(plan, frame, context), emit_when)
                              for plan, emit_when in op[1])
                realized.append((tag, tests, _realize(op[2], frame, context)))
            elif tag == "dedup":
                realized.append((tag, _make_seen_set(context)))
            else:
                realized.append(op)
        for out in source_fn(frame, context):
            for op in realized:
                tag = op[0]
                if tag == "vmap":
                    stats.ext_iterations += len(out)
                    out = list(map(op[1], out))
                elif tag == "vfilter":
                    _, tests, value_fn = op
                    stats.ext_iterations += len(out)
                    # A chain short-circuits: each condition only sees the
                    # items every earlier one passed.
                    for cond_fn, emit_when in tests[:-1]:
                        out = [item for item in out
                               if require_bool(cond_fn(item)) is emit_when]
                    cond_fn, emit_when = tests[-1]
                    if value_fn is _ident:
                        out = [item for item in out
                               if require_bool(cond_fn(item)) is emit_when]
                    else:
                        out = [value_fn(item) for item in out
                               if require_bool(cond_fn(item)) is emit_when]
                elif tag == "count":
                    stats.ext_iterations += len(out)
                elif tag == "map":
                    value_fn = op[1]
                    stats.ext_iterations += len(out)
                    nxt = []
                    append = nxt.append
                    for item in out:
                        loop_frame[slot] = item
                        append(value_fn(loop_frame, context))
                    out = nxt
                elif tag == "filter":
                    _, tests, value_fn = op
                    stats.ext_iterations += len(out)
                    nxt = []
                    append = nxt.append
                    for item in out:
                        loop_frame[slot] = item
                        for cond_fn, emit_when in tests:
                            if _require_bool(cond_fn(loop_frame, context)) \
                                    is not emit_when:
                                break
                        else:
                            append(value_fn(loop_frame, context))
                    out = nxt
                else:  # dedup (an absorbed set-kind stage)
                    seen = op[1]
                    add = seen.add
                    nxt = []
                    append = nxt.append
                    for element in out:
                        if element not in seen:
                            add(element)
                            append(element)
                    out = nxt
                if not out:
                    break
            if out:
                yield out

    if expr.kind == "set":
        return _dedup_set_chunks(chunks)
    return chunks


def _chunk_ext_generic(expr: A.Ext, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """Chunked ``Ext`` with an arbitrary (collection-producing) body.

    The body's own chunk stream passes through: its chunks become output
    chunks.  The loop frame is safely reused across source elements: the
    body's chunks for one element are drained before the next is bound, and
    escaping closures snapshot the frame at creation.
    """
    source_fn = _compile_chunk(expr.source, scope, state)
    body_fn = _compile_chunk(expr.body, scope + (expr.var,), state)
    slot = len(scope)

    def chunks(frame, context):
        stats = context.statistics
        loop_frame = _extended(frame, None)
        for chunk in source_fn(frame, context):
            stats.ext_iterations += len(chunk)
            for item in chunk:
                loop_frame[slot] = item
                yield from body_fn(loop_frame, context)

    if expr.kind == "set":
        return _dedup_set_chunks(chunks)
    return chunks


@register_chunk_compiler(A.Join)
def _chunk_join(expr: A.Join, scope, state):
    """Chunk-wise join probing: the outer (probe) side streams, the inner
    (build) side materializes.

    The asymmetry is inherent: an indexed join's hash index and a blocked
    join's inner rescan need the whole inner collection, but the outer side
    can be consumed chunk by chunk, so results flow before the outer source
    is exhausted.

    * **Indexed** — the hash index is built before the first outer pull and
      probed per outer element; one output chunk per probed outer chunk.
    * **Block size 1** (what the optimizer emits under the streaming hint)
      — the inner side is materialized once, on first need, and probed per
      outer element.
    * **Block size > 1** — outer elements are buffered into blocks across
      chunk boundaries and the inner side is re-materialized once per
      block, exactly like the eager lowering (a driver stream can be
      consumed once); one output chunk per block.  Emission is outer-major,
      so the block size never shows in the element sequence.

    The body is emitted through :func:`_compile_body_emitter`: ``Singleton``
    and filter-chain bodies append directly, any other body drains its
    chunk pipeline.
    """
    outer_fn = _compile_chunk(expr.outer, scope, state)
    inner_fn = _compile(expr.inner, scope, state)
    pair_scope = scope + (expr.outer_var, expr.inner_var)
    emit = _compile_body_emitter(expr.body, pair_scope, state, chunked=True)
    cond_fn = None
    if expr.condition is not None:
        cond_fn = _compile(expr.condition, pair_scope, state)
    outer_slot = len(scope)
    inner_slot = outer_slot + 1

    def probe_nested(outer_items, inner, pair_frame, context, out):
        # The nested-loop probe of a blocked join, appending into ``out``.
        for outer_item in outer_items:
            pair_frame[outer_slot] = outer_item
            for inner_item in inner:
                pair_frame[inner_slot] = inner_item
                if cond_fn is not None and \
                        not require_join_condition(cond_fn(pair_frame, context)):
                    continue
                emit(pair_frame, context, out)

    if expr.method == "indexed":
        if expr.outer_key is None or expr.inner_key is None:
            def broken(frame, context):
                raise EvaluationError(
                    "indexed join requires outer and inner key expressions")
                yield  # pragma: no cover
            return broken
        outer_key_fn = _compile(expr.outer_key, scope + (expr.outer_var,), state)
        inner_key_fn = _compile(expr.inner_key, scope + (expr.inner_var,), state)

        def chunks_indexed(frame, context):
            context.statistics.joins_indexed += 1
            # Build side first: the index exists before the first outer
            # element is pulled.
            inner = _build_source(inner_fn(frame, context), context)
            key_frame, index = _build_join_index(
                inner, inner_key_fn, frame, outer_slot, context)
            pair_frame = _extended(_extended(frame, None), None)
            for chunk in outer_fn(frame, context):
                out: list = []
                for outer_item in chunk:
                    key_frame[outer_slot] = outer_item
                    matches = index.get(outer_key_fn(key_frame, context))
                    if not matches:
                        continue
                    pair_frame[outer_slot] = outer_item
                    for inner_item in matches:
                        pair_frame[inner_slot] = inner_item
                        if cond_fn is not None and \
                                not require_join_condition(cond_fn(pair_frame, context)):
                            continue
                        emit(pair_frame, context, out)
                if out:
                    yield out

        chunks_fn = chunks_indexed
    elif max(1, expr.block_size) == 1:
        def chunks_unit_blocked(frame, context):
            context.statistics.joins_blocked += 1
            pair_frame = _extended(_extended(frame, None), None)
            inner = None
            for chunk in outer_fn(frame, context):
                if inner is None:
                    inner = _materialise_build_side(
                        inner_fn(frame, context), context)
                out: list = []
                probe_nested(chunk, inner, pair_frame, context, out)
                if out:
                    yield out

        chunks_fn = chunks_unit_blocked
    else:
        block_size = expr.block_size

        def chunks_blocked(frame, context):
            context.statistics.joins_blocked += 1
            pair_frame = _extended(_extended(frame, None), None)
            pending: list = []
            exhausted = False
            outer = outer_fn(frame, context)
            while not exhausted:
                for chunk in outer:
                    pending.extend(chunk)
                    if len(pending) >= block_size:
                        break
                else:
                    exhausted = True
                start = 0
                # Full blocks, then (once the outer side is exhausted) the
                # final partial block.
                while len(pending) - start >= block_size or \
                        (exhausted and start < len(pending)):
                    block = pending[start:start + block_size]
                    start += len(block)
                    inner = _materialise_build_side(
                        inner_fn(frame, context), context)
                    out: list = []
                    probe_nested(block, inner, pair_frame, context, out)
                    if out:
                        yield out
                del pending[:start]

        chunks_fn = chunks_blocked

    if expr.kind == "set":
        return _dedup_set_chunks(chunks_fn)
    return chunks_fn


class CompiledChunkedStream:
    """An NRC term lowered to a chunk-at-a-time generator pipeline.

    Calling it returns an *iterator over elements* (chunks are an internal
    exchange format; the engine's ``stream`` contract is element-wise) —
    use :meth:`chunks` to observe the chunk boundaries.  A non-collection
    value is yielded as a single element, matching ``KleisliEngine.stream``.
    The whole run happens inside a fresh
    :class:`~repro.core.nrc.eval.EvalScope` on the supplied context, so
    exhaustion, abandonment or failure releases every cursor the pipeline
    opens — source scans *and* body-level scans, including those behind
    buffered-but-unconsumed chunk elements.

    ``eager_nodes`` names node types that had no chunk-wise lowering and ran
    eagerly inside the pipeline; ``fallback_nodes`` names node types (inside
    those eager sections) delegated all the way back to the interpreter.
    """

    __slots__ = ("expr", "free_names", "fallback_nodes", "eager_nodes", "_fn")

    def __init__(self, expr: A.Expr):
        self.expr = expr
        self.free_names: Tuple[str, ...] = tuple(sorted(free_variables(expr)))
        state = _CompileState(n_free=len(self.free_names))
        self._fn = self._lower_toplevel(expr, self.free_names, state)
        self.fallback_nodes: Tuple[str, ...] = tuple(sorted(set(state.fallbacks)))
        self.eager_nodes: Tuple[str, ...] = tuple(sorted(set(state.eager)))

    @classmethod
    def _lower_toplevel(cls, expr: A.Expr, scope: _Scope,
                        state: _CompileState) -> _ChunkFn:
        """Top-level lowering: tolerates a non-collection result.

        A scalar query streams as a single element (matching the engine's
        historical ``stream`` contract), unlike source/body positions where
        a scalar is an error.  The tolerance follows the *transparent spine*
        — ``Let`` bodies, ``IfThenElse`` branches, and leaves — so
        ``Let(x, Ext(...))`` still streams its comprehension while
        ``Let(x, x + 2)`` yields one element instead of raising.
        """
        node_type = type(expr)
        if node_type is A.Let:
            value_fn = _compile(expr.value, scope, state)
            body_fn = cls._lower_toplevel(expr.body, scope + (expr.var,), state)

            def chunk_let(frame, context):
                yield from body_fn(_extended(frame, value_fn(frame, context)),
                                   context)

            return chunk_let
        if node_type is A.IfThenElse:
            cond_fn = _compile(expr.cond, scope, state)
            then_fn = cls._lower_toplevel(expr.then_branch, scope, state)
            else_fn = cls._lower_toplevel(expr.else_branch, scope, state)

            def chunk_if(frame, context):
                if _require_bool(cond_fn(frame, context)):
                    yield from then_fn(frame, context)
                else:
                    yield from else_fn(frame, context)

            return chunk_if
        if _is_leaf(expr):
            # Evaluate, then chunk the elements — or yield the value itself
            # when it is scalar.
            return cls._tolerant_chunks(_compile(expr, scope, state),
                                        count_fallback=False)
        if node_type in _CHUNK_COMPILERS:
            # Collection-producing nodes (Ext, Scan, Join, Union, ...): a
            # scalar cannot legally appear here, so chunk directly.
            return _compile_chunk(expr, scope, state)
        state.eager.append(node_type.__name__)
        return cls._tolerant_chunks(_compile(expr, scope, state),
                                    count_fallback=True)

    @staticmethod
    def _tolerant_chunks(fn: _CompiledFn, count_fallback: bool) -> _ChunkFn:
        """Chunk a value's elements if it is a CPL collection, else yield the
        value as a one-element chunk.

        Deliberately as strict as ``iter_collection``: a plain Python
        iterable (tuple, dict, generator) bound to a variable is *one*
        value, exactly as ``execute`` and the interpreted stream treat it —
        not an element sequence to explode.
        """

        def chunks(frame, context):
            if count_fallback:
                context.statistics.stream_fallbacks += 1
            value = fn(frame, context)
            if isinstance(value, _COLLECTIONS):
                policy = _active_policy(context)
                initial, maximum = policy.sizes_for()
                yield from _sliced_chunks(value._elements, initial, maximum,
                                          policy.adaptive_ramp)
            else:
                yield [value]

        return chunks

    @property
    def fully_compiled(self) -> bool:
        """No interpreter fallback anywhere in the pipeline."""
        return not self.fallback_nodes

    @property
    def fully_streamed(self) -> bool:
        """Every node lowered chunk-wise (no eager sections)."""
        return not self.eager_nodes

    def __call__(self, env: Optional[Environment] = None,
                 context: Optional[EvalContext] = None):
        context = context if context is not None else EvalContext()
        return self._pump(_build_frame(self.free_names, env), context)

    def chunks(self, env: Optional[Environment] = None,
               context: Optional[EvalContext] = None):
        """Iterate the pipeline's chunks (lists) instead of its elements."""
        context = context if context is not None else EvalContext()
        return self._pump_chunks(_build_frame(self.free_names, env), context)

    def _pump_chunks(self, frame, context):
        with context.evaluation_scope():
            token = context.cancellation
            if token is None:
                yield from self._fn(frame, context)
                return
            for chunk in self._fn(frame, context):
                token.raise_if_cancelled()
                yield chunk

    def _pump(self, frame, context):
        # The scope spans the whole iteration: activated on first next(),
        # closed when the pipeline is exhausted, abandoned (GeneratorExit)
        # or fails — releasing cursors even when chunk elements were
        # buffered but never consumed.
        probe = context.plan_probe
        token = context.cancellation
        budget = context.memory_budget
        with context.evaluation_scope():
            if probe is None and token is None and budget is None:
                for chunk in self._fn(frame, context):
                    yield from chunk
                return
            if probe is None:
                # Governed pump: a cancellation checkpoint at every chunk
                # boundary, and the chunk buffer charged transiently (the
                # chunk is in memory from production until consumed).
                for chunk in self._fn(frame, context):
                    if token is not None:
                        token.raise_if_cancelled()
                    if budget is None:
                        yield from chunk
                    else:
                        budget.charge_elements(len(chunk))
                        try:
                            yield from chunk
                        finally:
                            budget.release_elements(len(chunk))
                return
            # Feedback probing: time each chunk's *production* (the stretch
            # from resuming the pipeline to the chunk being ready — consumer
            # time between pulls is excluded) under the "pipeline" stage,
            # and commit the true output cardinality only when the run
            # drains normally, so an abandoned stream never records a
            # partial count as the query's cardinality.
            iterator = self._fn(frame, context)
            total = 0
            while True:
                began = time.perf_counter()
                try:
                    chunk = next(iterator)
                except StopIteration:
                    break
                probe.note_chunk("pipeline", len(chunk),
                                 time.perf_counter() - began)
                if token is not None:
                    token.raise_if_cancelled()
                total += len(chunk)
                if budget is None:
                    yield from chunk
                else:
                    budget.charge_elements(len(chunk))
                    try:
                        yield from chunk
                    finally:
                        budget.release_elements(len(chunk))
            probe.complete(total)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        detail = "fully streamed" if self.fully_streamed else \
            "eager: " + ", ".join(self.eager_nodes)
        return f"<CompiledChunkedStream ({detail})>"


def compile_chunked(term: A.Expr) -> CompiledChunkedStream:
    """Lower an (optimized) NRC term into a chunk-at-a-time pipeline.

    Returns a :class:`CompiledChunkedStream`; call it with an
    :class:`~repro.core.nrc.eval.Environment` and an
    :class:`~repro.core.nrc.eval.EvalContext` (whose ``chunk_policy``
    governs the chunk-size ramp) to get the element iterator.
    """
    return CompiledChunkedStream(term)


# ---------------------------------------------------------------------------
# Term fingerprints (compile-cache identity)
# ---------------------------------------------------------------------------

def _const_token(value: object) -> Tuple:
    """A type-exact token for a literal.

    Structural ``Expr`` equality uses Python ``==``, under which
    ``Const(True) == Const(1) == Const(1.0)`` — fine for rewrite fixpoints,
    unsound as a compile-cache key (the closure bakes the literal in).
    """
    try:
        hash(value)
    except TypeError:
        return ("unhashable", id(value))
    return (type(value).__name__, value)


def _freeze_request_value(value: object) -> object:
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (key, _freeze_request_value(item)) for key, item in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze_request_value(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_freeze_request_value(item) for item in value))
    return _const_token(value)


def term_fingerprint(expr: A.Expr, _scope: _Scope = ()) -> Tuple:
    """A hashable identity of a term suitable for caching compiled queries.

    Differs from structural equality in exactly the ways a compile cache
    needs:

    * **stricter** where closures bake detail in — literal *types*
      (``True`` vs ``1``), ``Cached.key``, ``Join.block_size``;
    * **looser** where compiled code is interchangeable — bound variables
      are de-Bruijn-indexed, so terms that differ only in the fresh binder
      names the desugarer mints share one compiled query.  Free names stay
      literal (they select top-level frame slots by name).
    """
    node_type = type(expr)
    name = node_type.__name__

    def sub(child: A.Expr, scope: _Scope = _scope) -> Tuple:
        return term_fingerprint(child, scope)

    if node_type is A.Const:
        return (name, _const_token(expr.value))
    if node_type is A.Var:
        for index in range(len(_scope) - 1, -1, -1):
            if _scope[index] == expr.name:
                return (name, len(_scope) - 1 - index)
        return (name, "free", expr.name)
    if node_type is A.Lam:
        return (name, sub(expr.body, _scope + (expr.param,)))
    if node_type is A.Apply:
        return (name, sub(expr.func), sub(expr.arg))
    if node_type is A.RecordExpr:
        return (name, tuple((label, sub(value))
                            for label, value in expr.fields.items()))
    if node_type is A.Project:
        return (name, expr.label, sub(expr.expr))
    if node_type is A.VariantExpr:
        return (name, expr.tag, sub(expr.expr))
    if node_type is A.Case:
        branches = tuple((branch.tag, sub(branch.body, _scope + (branch.var,)))
                         for branch in expr.branches)
        default = None
        if expr.default is not None:
            default = sub(expr.default[1], _scope + (expr.default[0],))
        return (name, sub(expr.subject), branches, default)
    if node_type is A.Empty:
        return (name, expr.kind)
    if node_type is A.Singleton:
        return (name, expr.kind, sub(expr.expr))
    if node_type is A.Union:
        return (name, expr.kind, sub(expr.left), sub(expr.right))
    if node_type is A.Ext:
        return (name, expr.kind, sub(expr.source),
                sub(expr.body, _scope + (expr.var,)))
    if isinstance(expr, A.Ext):
        # An Ext subclass: its compiled loop may bake in parameters this
        # function cannot know about.  Subclasses declare them via a
        # ``fingerprint_extras()`` method (ParallelExt: scheduler settings);
        # without one, fall through to the sound identity key below.
        extras = getattr(expr, "fingerprint_extras", None)
        if extras is not None:
            return (name, expr.kind, sub(expr.source),
                    sub(expr.body, _scope + (expr.var,)), tuple(extras()))
    if node_type is A.Fold:
        return (name, sub(expr.func), sub(expr.init), sub(expr.source))
    if node_type is A.IfThenElse:
        return (name, sub(expr.cond), sub(expr.then_branch), sub(expr.else_branch))
    if node_type is A.PrimCall:
        return (name, expr.name, tuple(sub(arg) for arg in expr.args))
    if node_type is A.Let:
        return (name, sub(expr.value), sub(expr.body, _scope + (expr.var,)))
    if node_type is A.Deref:
        return (name, sub(expr.expr))
    if node_type is A.Scan:
        # args stay in insertion order: the compiled closure evaluates them
        # in that order, so it is part of the baked-in behavior.
        return (name, expr.driver, expr.kind,
                _freeze_request_value(expr.request),
                tuple((key, sub(arg)) for key, arg in expr.args.items()))
    if node_type is A.Cached:
        return (name, expr.key, sub(expr.expr))
    if node_type is A.Join:
        pair_scope = _scope + (expr.outer_var, expr.inner_var)
        return (name, expr.method, expr.kind, expr.block_size,
                sub(expr.outer), sub(expr.inner),
                None if expr.condition is None else sub(expr.condition, pair_scope),
                sub(expr.body, pair_scope),
                None if expr.outer_key is None
                else sub(expr.outer_key, _scope + (expr.outer_var,)),
                None if expr.inner_key is None
                else sub(expr.inner_key, _scope + (expr.inner_var,)))
    # Unknown node type (no native compiler): structural equality is too
    # loose to key a compile cache (it conflates True/1 and may ignore
    # baked-in attributes), so key on object identity — always sound, at the
    # price of never sharing across rebuilt terms.  The id stays valid
    # because the memoized CompiledQuery keeps its term alive.
    return (name, "identity", id(expr))
