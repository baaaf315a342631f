"""The soak harness: many concurrent sessions, faults injected, books balanced.

The acceptance bar for the query service: with >= 8 concurrent client
sessions running a mixed CPL corpus (eager queries, streamed cursors,
abandoned cursors) against ONE shared engine,

* every served value is **bit-identical** to a single-user ``execute`` of
  the same query on a reference session,
* fault-injection schedules (dead sources, mid-stream failures, latency
  stalls) surface as typed errors on the session that hit them and *only*
  that session — afterwards the same session recovers and other sessions
  never notice,
* when the dust settles the books balance: zero live ``EvalScope``s beyond
  the baseline, zero open driver cursors, ``cursors_opened ==
  cursors_closed``, ``sessions_opened == sessions_closed``.
"""

import threading

import pytest

from conftest import wait_until
from fault_drivers import FaultInjectingDriver

from repro.core.errors import RemoteQueryError
from repro.core.nrc.eval import EvalScope
from repro.core.values import iter_collection
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session
from repro.server import KleisliClient, KleisliServer

CLIENTS = 8
ROUNDS = 3

SETUP = '''
define DB == {[title = "perforin", year = 1989],
              [title = "bcr", year = 1992],
              [title = "exons", year = 1992],
              [title = "maps", year = 1994]}
define Xs == [|5, 3, 1, 4, 1, 5, 9, 2, 6|]
'''

# Each corpus entry: (label, CPL expression, how it is run).
CORPUS = [
    ("filter", '{p.title | \\p <- DB, p.year = 1992}', "query"),
    ("restructure", '{[t = p.title, y = p.year] | \\p <- DB}', "query"),
    ("nested", '{[y = p.year, ts = {q.title | \\q <- DB, q.year = p.year}]'
               ' | \\p <- DB}', "query"),
    ("arithmetic", '{x * x | \\x <- Xs}', "query"),
    ("scan", '{x | \\x <- Stable(12)}', "query"),
    ("stream-scan", '{x + 100 | \\x <- Stable(20)}', "stream"),
    ("stream-abandon", '{x | \\x <- Stable(500)}', "abandon"),
]


def _reference_values():
    """Single-user ground truth on a private engine with a private driver."""
    engine = KleisliEngine()
    engine.register_driver(FaultInjectingDriver(name="Stable", total=1000))
    session = Session(engine=engine)
    session.run(SETUP)
    expected = {}
    for label, source, _ in CORPUS:
        expected[label] = session.query(source).value
    return expected


@pytest.fixture(scope="module")
def expected():
    return _reference_values()


def _soak_server(**kwargs):
    engine = KleisliEngine()
    stable = engine.register_driver(
        FaultInjectingDriver(name="Stable", total=1000))
    server = KleisliServer(engine, max_sessions=CLIENTS + 4,
                           max_concurrent_queries=CLIENTS + 4,
                           session_setup=lambda s: s.run(SETUP), **kwargs)
    return server, stable


def _client_script(address, expected, errors, seed):
    """One simulated user: the full corpus, ROUNDS times, mixed run styles."""
    try:
        with KleisliClient(address) as client:
            for round_number in range(ROUNDS):
                for index, (label, source, how) in enumerate(CORPUS):
                    value = None
                    if how == "query":
                        value = client.query(source)
                    elif how == "stream":
                        batch = 1 + (seed + round_number + index) % 7
                        streamed = list(client.stream(source, batch=batch))
                        reference = list(iter_collection(expected[label]))
                        if streamed != reference:
                            errors.append(f"{label}: streamed {streamed!r}"
                                          f" != {reference!r}")
                        continue
                    else:  # abandon: take a few elements, close mid-cursor
                        stream = client.stream(source, batch=4)
                        taken = [next(stream) for _ in range(3)]
                        stream.close()
                        if taken != [0, 1, 2]:
                            errors.append(f"{label}: prefix {taken!r}")
                        continue
                    if value != expected[label] or \
                            type(value) is not type(expected[label]):
                        errors.append(
                            f"{label}: {value!r} != {expected[label]!r}")
    except Exception as error:  # noqa: BLE001 - collected, not swallowed
        errors.append(f"client {seed}: {type(error).__name__}: {error}")


class TestSoak:
    def test_eight_concurrent_sessions_match_single_user_execution(
            self, expected):
        server, stable = _soak_server()
        baseline_scopes = EvalScope.live_count()
        errors = []
        with server:
            threads = [threading.Thread(
                target=_client_script,
                args=(server.address, expected, errors, seed))
                for seed in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), \
                "soak clients wedged"
            assert wait_until(lambda: server.active_sessions == 0)
        assert not errors, "\n".join(errors[:10])
        # The books balance.
        assert wait_until(lambda: stable.open_cursors == 0), \
            f"{stable.open_cursors} driver cursors leaked"
        assert wait_until(
            lambda: EvalScope.live_count() == baseline_scopes), \
            "EvalScopes leaked by the soak"
        stats = server.stats()
        assert stats["sessions_opened"] == stats["sessions_closed"] == CLIENTS
        assert stats["cursors_opened"] == stats["cursors_closed"] > 0
        assert stats["failures"] == 0
        expected_queries = CLIENTS * ROUNDS * len(CORPUS)
        assert stats["queries"] == expected_queries
        # Shared caches were actually shared: far fewer compilations than
        # queries (every session after the first rides the warm cache).
        health = server.engine.health()
        assert health["live_scopes"] == baseline_scopes
        gets = health["compile_cache"]["hits"] + \
            health["compile_cache"]["misses"]
        assert gets > 0
        assert health["compile_cache"]["hits"] > \
            health["compile_cache"]["misses"]

    def test_fault_schedules_poison_nothing_but_their_own_request(
            self, expected):
        """Half the clients hammer a driver with a fault schedule (every
        3rd request dies, every 7th dies mid-stream, odd requests stall);
        the other half run clean queries throughout.  Faults must surface
        as typed errors on the requesting session only; afterwards every
        session still gets exact values."""
        server, stable = _soak_server()
        flaky = server.engine.register_driver(FaultInjectingDriver(
            name="Flaky", total=50,
            fail_on=set(range(3, 300, 3)),
            midstream_fail_on=set(range(7, 300, 7)),
            latency={n: 0.002 for n in range(1, 300, 2)}))
        baseline_scopes = EvalScope.live_count()
        errors = []
        faults_seen = []

        def faulty_script(seed):
            try:
                with KleisliClient(server.address) as client:
                    for _ in range(6):
                        try:
                            value = client.query('{x | \\x <- Flaky(6)}')
                            if sorted(iter_collection(value)) != \
                                    list(range(6)):
                                errors.append(f"flaky value: {value!r}")
                        except RemoteQueryError as error:
                            if error.error_type != "DriverError":
                                errors.append(
                                    f"wrong fault type: {error.error_type}")
                            faults_seen.append(seed)
                    # Recovery on the *same* session: a clean source works.
                    value = client.query('{p.title | \\p <- DB,'
                                         ' p.year = 1992}')
                    if value != expected["filter"]:
                        errors.append(f"post-fault recovery: {value!r}")
            except Exception as error:  # noqa: BLE001
                errors.append(f"faulty client {seed}: {error}")

        with server:
            threads = [threading.Thread(target=faulty_script, args=(seed,))
                       for seed in range(CLIENTS // 2)]
            threads += [threading.Thread(
                target=_client_script,
                args=(server.address, expected, errors, seed))
                for seed in range(CLIENTS // 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert wait_until(lambda: server.active_sessions == 0)
        assert not errors, "\n".join(errors[:10])
        assert faults_seen, "the schedule injected no faults at all"
        assert flaky.faults_raised > 0
        assert wait_until(lambda: flaky.open_cursors == 0)
        assert wait_until(lambda: stable.open_cursors == 0)
        assert wait_until(
            lambda: EvalScope.live_count() == baseline_scopes)
        stats = server.stats()
        assert stats["sessions_opened"] == stats["sessions_closed"]
        assert stats["cursors_opened"] == stats["cursors_closed"]
        assert stats["failures"] == len(faults_seen)

    def test_mass_dirty_disconnects_leak_nothing(self):
        """Every client opens a long cursor and vanishes without a goodbye;
        the server must tear all of them down on its own."""
        server, stable = _soak_server()
        baseline_scopes = EvalScope.live_count()
        with server:
            clients = []
            for _ in range(CLIENTS):
                client = KleisliClient(server.address)
                reply = client.request(
                    {"op": "open", "source": '{x | \\x <- Stable(800)}'})
                client.request({"op": "fetch", "cursor": reply["cursor"],
                                "n": 2})
                clients.append(client)
            assert stable.open_cursors == CLIENTS
            for client in clients:
                client.kill()
            assert wait_until(lambda: stable.open_cursors == 0), \
                f"{stable.open_cursors} cursors survived dirty disconnects"
            assert wait_until(lambda: server.active_sessions == 0)
        assert EvalScope.live_count() == baseline_scopes
        stats = server.stats()
        assert stats["cursors_opened"] == stats["cursors_closed"] == CLIENTS
        assert stats["sessions_opened"] == stats["sessions_closed"] == CLIENTS
