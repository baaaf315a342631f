"""The CPL session: the user-facing layer of the system.

A :class:`Session` is what the paper's biologist-facing views are built on: it
parses CPL, type-checks it against the declared types of registered sources,
desugars to NRC, hands the term to the Kleisli engine for optimization and
evaluation, and formats results (CPL value syntax, HTML, tab-delimited).

Typical use::

    session = Session()
    session.register_driver(RelationalDriver("GDB", gdb_database))
    session.register_driver(EntrezDriver("GenBank", entrez_server))
    session.run('define Loci22 == ...')
    result = session.run('{ [locus = l, homologs = NA-Links(u)] | \\l <- Loci22, ... }')
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core import types as T
from ..core.cpl import ast as S
from ..core.cpl.desugar import desugar_expression, desugar_statement
from ..core.cpl.parser import parse, parse_expression
from ..core.cpl.printer import render_html, render_tabular, render_value
from ..core.cpl.typecheck import TypeChecker, TypeEnvironment, TypeScheme
from ..core.errors import CPLTypeError, ReproError
from ..core.nrc import ast as A
from ..core.nrc.eval import Environment
from ..core.optimizer import OptimizerConfig
from ..core.values import from_python
from .drivers.base import Driver
from .engine import ExecutionMode, KleisliEngine
from .governance import CancellationToken, MemoryBudget

__all__ = ["Session", "QueryResult"]


class _TrackedStream:
    """A session-registered wrapper around a streamed query's iterator.

    The session keeps every live stream it handed out in a registry so that
    :meth:`Session.close` (what the query service calls when a client
    disconnects mid-stream) can release *this* session's cursors — and only
    this session's: the underlying cursors belong to the run's own
    ``EvalScope``, so closing one session never touches another's pipelines
    even though both run on the same shared engine.  A drained or closed
    stream unregisters itself, so the registry holds only live streams.
    """

    __slots__ = ("_session", "_iterator", "_done")

    def __init__(self, session: "Session", iterator: Iterator[object]):
        self._session = session
        self._iterator = iterator
        self._done = False

    def __iter__(self) -> "_TrackedStream":
        return self

    def __next__(self) -> object:
        try:
            return next(self._iterator)
        except BaseException:
            # Exhaustion and mid-stream failure both end the stream: the
            # engine's evaluation scope has already released the cursors.
            self._untrack()
            raise

    def close(self) -> None:
        """Close the underlying pipeline (releases its cursors) and
        unregister; closing twice, or after draining, is a no-op."""
        self._untrack()
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()

    def _untrack(self) -> None:
        if not self._done:
            self._done = True
            self._session._forget_stream(self)

    def __enter__(self) -> "_TrackedStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class QueryResult:
    """The value of a query plus the compile/run artefacts a caller may inspect."""

    def __init__(self, value: object, nrc: A.Expr, optimized: A.Expr,
                 inferred_type: Optional[T.Type]):
        self.value = value
        self.nrc = nrc
        self.optimized = optimized
        self.inferred_type = inferred_type

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"QueryResult({self.value!r})"


class Session:
    """A CPL session over a Kleisli engine."""

    def __init__(self, engine: Optional[KleisliEngine] = None,
                 optimizer_config: Optional[OptimizerConfig] = None,
                 typecheck: bool = True,
                 execution_mode: Optional[object] = None,
                 on_source_failure: Optional[str] = None,
                 memory_limit: Optional[int] = None):
        if engine is None:
            engine = KleisliEngine(
                optimizer_config,
                execution_mode=(ExecutionMode.COMPILED if execution_mode is None
                                else execution_mode))
        elif execution_mode is not None:
            # An explicit mode must not be silently dropped when the caller
            # supplies their own engine.
            engine.execution_mode = ExecutionMode.coerce(execution_mode)
        self.engine = engine
        self.typecheck = typecheck
        #: Session default for what a federated run does when a source stays
        #: down after retries: ``None`` defers to the engine's policy,
        #: ``"fail"`` propagates, ``"degrade"`` completes with typed
        #: partial-result warnings.  Per-call overrides win.
        self.on_source_failure = on_source_failure
        #: The session-wide memory quota: every governed run this session
        #: starts charges a per-run child of this budget, so concurrent
        #: queries share the cap and a finished run's usage flows back.
        #: ``None`` (the default) leaves runs ungoverned unless a per-call
        #: budget (or an engine pool) says otherwise.
        self.memory_budget: Optional[MemoryBudget] = None
        if memory_limit is not None:
            self.set_memory_limit(memory_limit)
        self.values: Dict[str, object] = {}
        # ``define f == e`` makes f a *synonym* for e (the paper's wording), so
        # definitions are stored as NRC expressions and expanded into queries
        # before optimization — that is what lets the optimizer see through
        # Loci22 / ASN-IDs in the DOE query and push work to the drivers.
        self.definitions: Dict[str, A.Expr] = {}
        self.type_checker = TypeChecker()
        # Live streamed queries handed out by this session.  Guarded by a
        # lock: the query service closes a disconnecting client's session
        # from the serving thread while a stream wrapper may be
        # unregistering itself.
        self._streams_lock = threading.Lock()
        self._open_streams: List[_TrackedStream] = []
        self._register_existing_driver_functions()

    # -- registration ------------------------------------------------------------

    def register_driver(self, driver: Driver, latency: Optional[float] = None,
                        source_types: Optional[Dict[str, T.Type]] = None) -> Driver:
        """Register a driver with the engine and bind its CPL functions.

        ``source_types`` optionally declares the CPL result type of each driver
        function for the type checker (e.g. the Publication type for an
        Entrez division).
        """
        self.engine.register_driver(driver, latency=latency)
        self._bind_driver_functions(driver)
        for name, ty in (source_types or {}).items():
            self.type_checker.bind_value_type(name, ty)
        return driver

    def _register_existing_driver_functions(self) -> None:
        for driver in self.engine.drivers.values():
            self._bind_driver_functions(driver)

    def _bind_driver_functions(self, driver: Driver) -> None:
        for function in driver.cpl_functions():
            # A callable fallback so that applications the optimizer does not
            # convert into Scan nodes still evaluate.
            def call(argument, _driver=driver, _function=function):
                return _driver.execute(_function.build_request(argument))

            self.values[function.name] = call
            # Give the function a permissive type so typechecking of queries
            # that call it does not fail (drivers may declare better types via
            # ``source_types``).
            if self.type_checker.environment.lookup(function.name) is None:
                self.type_checker.bind_value_type(
                    function.name, T.FunctionType(T.fresh_type_var(), T.fresh_type_var()))

    def bind(self, name: str, value: object, cpl_type: Optional[T.Type] = None,
             list_as: str = "list") -> object:
        """Bind a Python or CPL value in the session environment.

        Plain Python data (dicts, lists, sets, scalars) is lifted into CPL
        values; ``cpl_type`` (or an inferred type) is declared to the checker.
        """
        lifted = from_python(value, list_as=list_as)
        self.values[name] = lifted
        if cpl_type is None:
            from ..core.values import infer_type

            try:
                cpl_type = infer_type(lifted)
            except ReproError:
                cpl_type = None
        if cpl_type is not None:
            self.type_checker.bind_value_type(name, cpl_type)
        return lifted

    def define_type(self, name: str, cpl_type: T.Type) -> None:
        """Declare the type of a name without binding a value (e.g. a driver function)."""
        self.type_checker.bind_value_type(name, cpl_type)

    # -- running CPL ----------------------------------------------------------------

    def run(self, source: str, optimize: bool = True,
            deadline: Optional[float] = None,
            on_source_failure: Optional[str] = None,
            cancellation: Optional[CancellationToken] = None,
            memory_budget=None, spill: Optional[bool] = None,
            profile: bool = False):
        """Run a CPL program (one or more statements); return the last query's value.

        ``deadline`` (seconds) bounds each statement's driver work;
        ``on_source_failure`` overrides the session/engine failure policy
        (``"fail"`` | ``"degrade"``) for this call.  ``cancellation``,
        ``memory_budget`` and ``spill`` govern each statement's run as in
        :meth:`~repro.kleisli.engine.KleisliEngine.execute`; the session
        quota (:meth:`set_memory_limit`) applies when no per-call budget is
        given.
        """
        program = parse(source)
        result = None
        for statement in program.statements:
            result = self._run_statement(
                statement, optimize, deadline,
                self._failure_policy(on_source_failure),
                cancellation, self._effective_budget(memory_budget), spill,
                profile)
        return result

    def query(self, source: str, optimize: bool = True,
              mode: Optional[object] = None,
              deadline: Optional[float] = None,
              on_source_failure: Optional[str] = None,
              cancellation: Optional[CancellationToken] = None,
              memory_budget=None, spill: Optional[bool] = None,
              profile: bool = False) -> QueryResult:
        """Run a single CPL expression and return the full :class:`QueryResult`.

        ``mode`` overrides the engine's execution mode for this query
        (``"compiled"`` | ``"interpret"``); ``deadline`` and
        ``on_source_failure`` as in :meth:`run`; ``cancellation``,
        ``memory_budget`` and ``spill`` as in
        :meth:`~repro.kleisli.engine.KleisliEngine.execute`.
        """
        expression = parse_expression(source)
        inferred = self._infer(expression)
        nrc = self._expand(desugar_expression(expression))
        optimized = self.engine.compile(nrc) if optimize else nrc
        value = self.engine.execute(
            optimized, self.values, optimize=False, mode=mode,
            deadline=deadline,
            on_source_failure=self._failure_policy(on_source_failure),
            cancellation=cancellation,
            memory_budget=self._effective_budget(memory_budget), spill=spill,
            profile=profile)
        return QueryResult(value, nrc, optimized, inferred)

    def _failure_policy(self, override: Optional[str]) -> Optional[str]:
        """Per-call override, else the session default, else the engine's."""
        return override if override is not None else self.on_source_failure

    # -- governance ---------------------------------------------------------------

    def set_memory_limit(self, limit: Optional[int]) -> None:
        """Install (or clear, with ``None``) the session-wide memory quota.

        The quota parents into the engine's pool when one is configured, so
        a charge is admitted only if the query, the session *and* the engine
        all have room.  Replacing the quota affects runs started afterwards;
        in-flight runs keep charging the budget they were admitted under.
        """
        if limit is None:
            self.memory_budget = None
            return
        self.memory_budget = MemoryBudget(
            limit, label="session", parent=self.engine.memory_pool)

    def _effective_budget(self, memory_budget):
        """Per-call budget composed with the session quota.

        No per-call budget → the session quota (or ``None``: ungoverned).
        A per-call ``int`` under a session quota caps this one query *inside*
        the quota; a caller-built :class:`MemoryBudget` is trusted as-is.
        """
        if memory_budget is None:
            return self.memory_budget
        if (self.memory_budget is not None
                and not isinstance(memory_budget, MemoryBudget)):
            return MemoryBudget(int(memory_budget), label="query",
                                parent=self.memory_budget)
        return memory_budget

    def stream(self, source: str, optimize: bool = True,
               mode: Optional[object] = None,
               deadline: Optional[float] = None,
               on_source_failure: Optional[str] = None,
               cancellation: Optional[CancellationToken] = None,
               memory_budget=None, spill: Optional[bool] = None,
               profile: bool = False) -> Iterator[object]:
        """Run a query with pipelined (lazy) result delivery.

        In compiled mode the optimized term is lowered to a chunked
        pipeline (:meth:`KleisliEngine.stream`), so *any* query shape —
        nested comprehensions, filter chains, parallel remote loops, join
        probes — yields elements as they are produced; the first chunk is
        one source element, so time-to-first-result does not wait for
        sources to drain.  Closing the returned iterator early releases
        every cursor the pipeline opened (``engine.last_eval_statistics`` /
        :attr:`last_eval_statistics` reports the run, including
        ``stream_fallbacks`` for sections that had to run eagerly).
        """
        expression = parse_expression(source)
        self._infer(expression)
        nrc = self._expand(desugar_expression(expression))
        stream = _TrackedStream(
            self, self.engine.stream(
                nrc, self.values, optimize=optimize, mode=mode,
                deadline=deadline,
                on_source_failure=self._failure_policy(on_source_failure),
                cancellation=cancellation,
                memory_budget=self._effective_budget(memory_budget),
                spill=spill, profile=profile))
        with self._streams_lock:
            self._open_streams.append(stream)
        return stream

    def _forget_stream(self, stream: "_TrackedStream") -> None:
        with self._streams_lock:
            try:
                self._open_streams.remove(stream)
            except ValueError:
                pass

    @property
    def open_stream_count(self) -> int:
        """How many streamed queries from this session are still live."""
        with self._streams_lock:
            return len(self._open_streams)

    def close(self) -> None:
        """End the session: close every live stream this session handed out.

        Only *this* session's cursors are released (each stream's cursors
        live in its own run's ``EvalScope``); the engine — and every other
        session multiplexed onto it — is untouched.  The query service
        calls this when a client disconnects, cleanly or not.
        """
        with self._streams_lock:
            streams = list(self._open_streams)
        for stream in streams:
            try:
                stream.close()
            except Exception:  # pragma: no cover - best-effort release
                pass
        # Return any quota the session still holds to the engine pool; the
        # per-run children have already settled, so this is belt-and-braces
        # against a leaked charge pinning pool capacity after disconnect.
        if self.memory_budget is not None:
            self.memory_budget.close()

    @property
    def last_eval_statistics(self):
        """The :class:`~repro.core.nrc.eval.EvalStatistics` of the last run."""
        return self.engine.last_eval_statistics

    @property
    def last_warnings(self) -> List[object]:
        """Typed :class:`~repro.core.errors.SourceDegradedWarning` records of
        the last run started on this thread (empty = complete results).

        Reads the engine's *thread-local* statistics, so on a shared engine
        another session's concurrent run cannot clobber the answer.
        """
        statistics = self.engine.thread_eval_statistics()
        return list(statistics.warnings) if statistics is not None else []

    @property
    def last_profile(self):
        """The :class:`~repro.obs.profile.QueryProfile` of the last observed
        run started on this thread, or ``None`` (unobserved runs record
        nothing — the zero-recorder contract)."""
        return self.engine.thread_profile()

    def explain(self, source: str) -> Tuple[A.Expr, List[Tuple[str, str]]]:
        """Return the optimized NRC form of a query and per-stage rewrite traces."""
        expression = parse_expression(source)
        nrc = self._expand(desugar_expression(expression))
        optimized, _, traces = self.engine.optimizer.explain(nrc)
        return optimized, traces

    def _run_statement(self, statement: S.Statement, optimize: bool,
                       deadline: Optional[float] = None,
                       on_source_failure: Optional[str] = None,
                       cancellation: Optional[CancellationToken] = None,
                       memory_budget=None, spill: Optional[bool] = None,
                       profile: bool = False):
        if isinstance(statement, S.Define):
            if self.typecheck:
                try:
                    self.type_checker.define(statement.name, statement.expr)
                except CPLTypeError:
                    # Definitions over un-typed driver functions are allowed;
                    # queries over properly declared sources still get checked.
                    pass
            _, _, nrc = desugar_statement(statement)
            self.definitions[statement.name] = self._expand(nrc)
            return None
        if self.typecheck and isinstance(statement, S.ExprStatement):
            self._infer(statement.expr)
        _, _, nrc = desugar_statement(statement)
        return self.engine.execute(self._expand(nrc), self.values,
                                   optimize=optimize, deadline=deadline,
                                   on_source_failure=on_source_failure,
                                   cancellation=cancellation,
                                   memory_budget=memory_budget, spill=spill,
                                   profile=profile)

    def _expand(self, nrc: A.Expr, depth: int = 20) -> A.Expr:
        """Substitute defined synonyms into ``nrc`` (non-recursive definitions only)."""
        current = nrc
        for _ in range(depth):
            free = A.free_variables(current)
            pending = [name for name in free if name in self.definitions]
            if not pending:
                return current
            for name in pending:
                current = A.substitute(current, name, self.definitions[name])
        return current

    def _infer(self, expression: S.SExpr) -> Optional[T.Type]:
        if not self.typecheck:
            return None
        try:
            return self.type_checker.infer(expression)
        except CPLTypeError:
            # Sources without declared types (driver functions, raw binds) make
            # full checking impossible; evaluation still proceeds, matching the
            # paper's "static type information is ... useful" (not mandatory).
            return None

    # -- output formatting --------------------------------------------------------------

    def print_value(self, value: object, width: int = 100) -> str:
        """Render a value in CPL value syntax."""
        return render_value(value, width=width)

    def print_html(self, value: object, title: str = "CPL query result") -> str:
        """Render a value as an HTML page (nested tables for nested relations)."""
        return render_html(value, title)

    def print_tabular(self, value: object, separator: str = "\t") -> str:
        """Render a flat relation as delimited text."""
        return render_tabular(value, separator)
