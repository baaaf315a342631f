"""Golden pin of the engine's and the server's accounting views.

One fixed script drives every counter the books report — retries, a
timeout, a mid-stream recovery, degradations, an opened breaker, a
cancelled, a spilled and a budget-rejected query, immediate, queued and
rejected admissions on a one-slot server, a refused session, a failed
query, and a graceful drain — and then compares ``engine.health()`` and
every ``stats`` section, field for field, against literal expected values.

The script uses only the public surface (engine runs, the wire protocol,
``engine.health()``), so the same file pins that the views keep reporting
exactly the same numbers however the counts behind them are stored.
Resilience timing runs on a fake clock; the server's admission queue is the
only real wait.
"""

import threading

import pytest

from conftest import wait_until

from repro.core.errors import (
    CircuitOpenError,
    MemoryBudgetExceededError,
    QueryCancelledError,
    RemoteQueryError,
    ServerOverloadedError,
    TransientDriverError,
)
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalScope
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import CancellationToken
from repro.kleisli.resilience import CircuitBreakerPolicy, RetryPolicy
from repro.server import KleisliClient, KleisliServer

from fault_drivers import FaultInjectingDriver


class FakeClock:
    """A deterministic clock + sleeper pair: sleeping advances the clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _scan(driver, count=8):
    return B.ext("x", B.singleton(B.var("x"), "list"),
                 A.Scan(driver, {"table": "t", "count": count}, kind="list"),
                 kind="list")


def _dedup(count):
    return B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(1400)),
                                  "set"),
                 A.Scan("Plain", {"table": "t", "count": count}, kind="list"),
                 kind="set")


def _engine():
    """Faulty request ordinals: #1 fails (retried by #2); #3 dies after
    three elements (re-issued as #4); #5 stalls past the timeout (retried
    by #6); #7 and #8 fail (degraded); #9 fails and opens the breaker."""
    clock = FakeClock()
    engine = KleisliEngine()
    engine.register_driver(FaultInjectingDriver(
        name="Faulty", total=8, fail_on={1, 7, 8, 9},
        midstream_fail_on={3}, latency={5: 0.2}, sleeper=clock.sleep,
        fault_type=TransientDriverError))
    engine.register_driver(FaultInjectingDriver(name="Plain", total=2000))
    engine.resilience.clock = clock
    engine.resilience.sleeper = clock.sleep
    engine.configure_resilience(
        "Faulty",
        RetryPolicy(max_attempts=2, backoff_base=0.0, request_timeout=0.1),
        CircuitBreakerPolicy(failure_threshold=3, recovery_time=60.0))
    return engine


def _engine_script(engine):
    faulty = _scan("Faulty")
    assert list(engine.execute(faulty, optimize=False)) == list(range(8))
    assert list(engine.stream(faulty, optimize=False, chunked=True)) \
        == list(range(8))
    assert list(engine.execute(faulty, optimize=False)) == list(range(8))
    for _ in range(2):
        assert list(engine.execute(faulty, optimize=False,
                                   on_source_failure="degrade")) == []
    with pytest.raises(CircuitOpenError):
        engine.execute(faulty, optimize=False)

    token = CancellationToken()
    stream = engine.stream(_scan("Plain", 500), optimize=False,
                           cancellation=token)
    for _ in range(3):
        next(stream)
    token.cancel("golden script")
    with pytest.raises(QueryCancelledError):
        list(stream)

    spilled = list(engine.stream(_dedup(1500), optimize=False, spill=True))
    assert sorted(spilled) == list(range(1400))
    with pytest.raises(MemoryBudgetExceededError):
        engine.execute(_dedup(1500), optimize=False, memory_budget=64,
                       spill=False)


def _setup(session):
    session.bind("Nums", list(range(40)))


QUERY = "{ x | \\x <- Nums }"


def _server_script(server, watcher):
    def server_field(name):
        return watcher.server_stats("server")["server"][name]

    with KleisliClient(server.address) as holder, \
            KleisliClient(server.address) as waiter:
        assert len(holder.query(QUERY)) == 40          # immediate
        with pytest.raises(RemoteQueryError):
            holder.query("{ x | \\x <- NoSuchName }")   # a failure

        # queued: the holder's open cursor owns the only slot
        cursor = holder.open(QUERY)
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(waiter.query(QUERY)))
        thread.start()
        assert wait_until(lambda: server_field("queued") == 1)
        holder.close_cursor(cursor)
        thread.join(timeout=10.0)
        assert len(answers[0]) == 40 and waiter.last_admission == "queued"

        # rejected: the queue wait outlives the server's queue timeout
        cursor = holder.open(QUERY)
        with pytest.raises(ServerOverloadedError):
            waiter.query(QUERY)
        holder.close_cursor(cursor)

        # refused: a fourth session over the three-session cap
        with KleisliClient(server.address) as extra:
            with pytest.raises(ServerOverloadedError):
                extra.hello()
    assert wait_until(lambda: server_field("sessions_closed") == 2)


EXPECTED_HEALTH = {
    "compile_cache": {"hits": 4, "misses": 5, "evictions": 0, "size": 5,
                      "limit": 128},
    "subquery_cache": {"hits": 0, "misses": 0, "size": 0},
    "plan_feedback": {"entries": 2, "recordings": 2, "lookups": 3,
                      "hits": 0},
    "drivers": {"Faulty": 9, "Plain": 3},
    "live_scopes": 0,
    "resilience": {
        "Faulty": {"requests": 6, "retries": 5, "timeouts": 1,
                   "failures": 4, "midstream_faults": 1, "recoveries": 1,
                   "degraded": 2,
                   "breaker": {"state": "open", "trips": 1, "probes": 0,
                               "successes": 4, "failures": 6,
                               "consecutive_failures": 3}},
    },
    "persistence": {"attached": False},
    "governance": {"cancellations": 1, "spills": 1, "bytes_spilled": 29640,
                   "rows_spilled": 1400, "budget_rejections": 1,
                   "watchdog_kills": 0},
    "observability": {"attached": False},
    "row_width": {"default": 64, "sampled_rows": 1400,
                  "sampled_bytes": 29640.0,
                  "row_bytes": 29640.0 / 1400},
}

#: Serving compiles the wire queries on the shared engine; nothing else in
#: the engine's books moves.
EXPECTED_SERVED_HEALTH = dict(
    EXPECTED_HEALTH,
    compile_cache={"hits": 5, "misses": 7, "evictions": 0, "size": 7,
                   "limit": 128},
    plan_feedback={"entries": 2, "recordings": 2, "lookups": 5, "hits": 0})

EXPECTED_SERVER = {"sessions_opened": 3, "sessions_closed": 2,
                   "sessions_refused": 1, "queries": 4, "rejections": 1,
                   "queued": 2, "failures": 1, "cursors_opened": 2,
                   "cursors_closed": 2}

EXPECTED_ADMISSION = {"policy": "queue", "max_concurrent_queries": 1,
                      "queue_timeout": 0.3}

SECTIONS = ("server", "engine", "sessions", "admission", "governance",
            "observability", "slow_queries")


def test_health_and_stats_sections_match_the_golden_books():
    engine = _engine()
    _engine_script(engine)
    assert engine.health() == EXPECTED_HEALTH
    assert EvalScope.live_count() == 0

    server = KleisliServer(engine, max_sessions=3, max_concurrent_queries=1,
                           queue_timeout=0.3, session_setup=_setup)
    with server:
        with KleisliClient(server.address) as watcher:
            _server_script(server, watcher)
            sections = {name: watcher.server_stats(name)[name]
                        for name in SECTIONS}
            full = watcher.server_stats()
    # the drain (stop) leaves the engine's books as serving left them
    assert engine.health() == EXPECTED_SERVED_HEALTH
    assert sections == {
        "server": EXPECTED_SERVER,
        "engine": EXPECTED_SERVED_HEALTH,
        "sessions": 1,
        "admission": EXPECTED_ADMISSION,
        "governance": EXPECTED_HEALTH["governance"],
        "observability": {"attached": False},
        "slow_queries": [],
    }
    assert full == {"ok": True, "server": EXPECTED_SERVER,
                    "engine": EXPECTED_SERVED_HEALTH, "sessions": 1,
                    "admission": EXPECTED_ADMISSION}
