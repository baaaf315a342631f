"""Spans recorded from the benchmark's own wrappers around the layer entry points.

Nothing under ``src/`` records a span for the benchmark: :class:`Tracer`
replaces module functions and class methods with thin wrappers for the
length of a traced window, then puts the originals back.  A span is ``(id, name, start, end, parent, query id, thread)``;
spans stay in memory and are written out once, at the end of the run.

A span on a thread with no open span of its own (a scheduler worker, the
query service's serving thread) hangs under the span open on the client's
thread at that moment: with one client, that is what caused the work.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.cpl.typecheck import TypeChecker
from repro.core.nrc import ast as A
from repro.core.nrc.compile import CompiledQuery
from repro.core.optimizer import OptimizerPipeline
from repro.core.planner.feedback import PlanProbe
from repro.kleisli import engine as engine_module
from repro.kleisli import session as session_module
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.net import framing
from repro.server import client as client_module
from repro.server import service as service_module
from repro.server.client import KleisliClient
from repro.server.service import KleisliServer

Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]


class Tracer:
    """Records spans and layer counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: The span stack of the client's thread (see :meth:`follow`).
        self._client_stack: List[Tuple[int, Optional[int]]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def follow(self) -> None:
        """Make the calling thread the client whose open span other threads
        fall back to."""
        self._client_stack = self._stack()

    def current(self) -> Tuple[Optional[int], Optional[int]]:
        """``(span id, query id)`` a span opened now would hang under."""
        stack = self._stack()
        if stack:
            return stack[-1]
        try:
            return self._client_stack[-1]
        except IndexError:  # the client is between queries
            return (None, None)

    def begin(self, name: str, qid: Optional[int] = None) -> tuple:
        parent, inherited_qid = self.current()
        span_id = next(self._ids)
        qid = inherited_qid if qid is None else qid
        self._stack().append((span_id, qid))
        return (span_id, name, parent, qid, time.perf_counter())

    def end(self, token: tuple) -> None:
        finished = time.perf_counter()
        span_id, name, parent, qid, started = token
        self._stack().pop()
        # list.append is atomic under the interpreter lock.
        self.spans.append((span_id, name, started, finished, parent, qid,
                           threading.get_ident()))

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``function`` inside a span; ``after(args, kwargs, result)`` reads
        counters off the call once the span has ended."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(token)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- installing wrappers -------------------------------------------------------

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute`` (module, class or instance) until
        :meth:`uninstall`, which restores exactly what was there."""
        own = vars(owner)
        if attribute in own:
            original = own[attribute]
            self._restore.append(lambda: setattr(owner, attribute, original))
        else:
            self._restore.append(lambda: delattr(owner, attribute))
        setattr(owner, attribute, replacement)

    def wrap_driver(self, method: Callable) -> Callable:
        """A driver method inside a span named after the driver instance."""
        tracer = self

        @functools.wraps(method)
        def traced(driver, *args, **kwargs):
            token = tracer.begin(f"driver.{driver.name}")
            try:
                return method(driver, *args, **kwargs)
            finally:
                tracer.end(token)

        return traced

    def install(self) -> None:
        """Wrap every layer entry point, and the methods of both drivers."""
        wrap, patch = self.wrap, self.patch
        for name in ("parse", "parse_expression"):
            patch(session_module, name,
                  wrap("cpl.parse", getattr(session_module, name)))
        for name in ("desugar_expression", "desugar_statement"):
            patch(session_module, name,
                  wrap("cpl.desugar", getattr(session_module, name)))
        patch(TypeChecker, "infer", wrap("cpl.typecheck", TypeChecker.infer))
        patch(session_module.Session, "_expand",
              wrap("session.expand", session_module.Session._expand))
        patch(OptimizerPipeline, "optimize",
              wrap("optimizer.rewrite", OptimizerPipeline.optimize,
                   after=self._after_optimize))
        patch(KleisliEngine, "plan_for",
              wrap("planner.plan", KleisliEngine.plan_for))
        for name in ("compile_term", "compile_stream", "compile_chunked"):
            patch(engine_module, name,
                  wrap("nrc.lower", getattr(engine_module, name)))
        patch(CompiledQuery, "__call__",
              wrap("nrc.execute", CompiledQuery.__call__))
        tracked = session_module._TrackedStream
        patch(tracked, "__next__", wrap("nrc.execute", tracked.__next__))
        note_chunk = PlanProbe.note_chunk

        def counted_note_chunk(probe, stage, rows, seconds):
            if stage == "pipeline":
                self.count("chunk.rows", rows)
                self.count("chunk.count", 1)
            return note_chunk(probe, stage, rows, seconds)

        patch(PlanProbe, "note_chunk", counted_note_chunk)
        for driver_class in (RelationalDriver, EntrezDriver):
            for method in ("execute", "execute_batch"):
                patch(driver_class, method,
                      self.wrap_driver(getattr(driver_class, method)))
        patch(service_module, "encode_value",
              wrap("wire.encode_value", service_module.encode_value))
        patch(client_module, "decode_value",
              wrap("wire.decode_value", client_module.decode_value))
        patch(framing, "encode_frame",
              wrap("wire.frame_encode", framing.encode_frame))
        patch(framing, "json", _JsonCodec(wrap("wire.frame_decode", json.loads)))
        patch(KleisliClient, "request",
              wrap("client.request", KleisliClient.request))
        patch(KleisliServer, "_handle",
              wrap("server.handle", KleisliServer._handle))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _after_optimize(self, args, kwargs, optimized) -> None:
        stats = args[2] if len(args) > 2 else kwargs.get("stats")
        if stats is not None:
            self.count("optimizer.rules_fired", stats.total())
        for driver, scans in scans_by_driver(optimized).items():
            self.count(f"optimizer.scans.{driver}", scans)

    # -- read-out ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name of each span minus what its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, started, finished, *_ in self.spans:
            covered = _covered(children.get(span_id, ()), started, finished)
            totals[name] += max(0.0, finished - started - covered)
        return totals

    def write(self, path, header: Dict[str, object]) -> None:
        """Write every span, times in whole microseconds from the first."""
        origin = min((span[2] for span in self.spans), default=0.0)
        spans = [(span_id, name, round((started - origin) * 1e6),
                  round((finished - origin) * 1e6), parent, qid, thread)
                 for span_id, name, started, finished, parent, qid, thread
                 in self.spans]
        fields = ["id", "name", "start_us", "end_us", "parent", "query",
                  "thread"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": fields, "spans": spans},
                      handle, separators=(",", ":"))


class _JsonCodec:
    """Stands in for the ``json`` module inside :mod:`repro.net.framing`, so
    the frame decode (``json.loads``) can be timed on its own."""

    def __init__(self, loads: Callable):
        self.loads = loads
        self.dumps = json.dumps


def _covered(intervals: Iterable[Tuple[float, float]], low: float,
             high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for started, finished in sorted(intervals):
        started, finished = max(started, reach), min(finished, high)
        if finished > started:
            total += finished - started
            reach = finished
    return total


def scans_by_driver(term: A.Expr) -> Dict[str, int]:
    """Scan nodes per driver in an (optimized) NRC term."""
    counts: Dict[str, int] = defaultdict(int)
    pending = [term]
    while pending:
        node = pending.pop()
        if isinstance(node, A.Scan):
            counts[node.driver] += 1
        pending.extend(node.children())
    return counts
