"""Resilience over the wire: warnings, options, books, and the chaos soak.

What this file pins down, end to end through the framed-JSON protocol:

* transient driver faults recover *server-side* — clients receive exact
  values and never learn a retry happened;
* ``on_source_failure="degrade"`` rides the wire: degraded runs answer
  with partial values plus typed warning records in the response (and in
  every ``fetch`` reply of a degraded stream) — never silent truncation;
* malformed resilience options are wire-protocol errors, not 500s;
* the ``stats`` op exposes the engine's per-driver resilience books;
* the chaos soak: 8 concurrent sessions, half of them drawing from a
  driver with a transient-fault schedule, all of them receiving values
  bit-identical to a fault-free single-user run, with balanced books and
  zero cursor/scope leaks afterwards.
"""

import threading

import pytest

from conftest import wait_until
from fault_drivers import FaultInjectingDriver

from repro.core.errors import RemoteQueryError, TransientDriverError
from repro.core.nrc.eval import EvalScope
from repro.core.values import iter_collection
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.resilience import CircuitBreakerPolicy, RetryPolicy
from repro.server import KleisliClient, KleisliServer

FAST_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.0)


def _server(driver, retry=FAST_RETRY, breaker=None, **server_kwargs):
    engine = KleisliEngine()
    engine.register_driver(driver)
    if retry is not None or breaker is not None:
        engine.configure_resilience(driver.name, retry, breaker)
    return KleisliServer(engine, **server_kwargs)


class TestWireResilience:
    def test_transient_fault_recovers_invisibly(self):
        driver = FaultInjectingDriver(fail_on={1},
                                      fault_type=TransientDriverError)
        with _server(driver) as server, \
                KleisliClient(server.address) as client:
            value = client.query('{x | \\x <- Faulty(6)}')
            assert sorted(iter_collection(value)) == list(range(6))
            assert client.last_warnings == []
        assert driver.requests_served == 2  # the fault plus the retry

    def test_midstream_fault_recovers_over_streamed_cursor(self):
        driver = FaultInjectingDriver(midstream_fail_on={1},
                                      midstream_after=3,
                                      fault_type=TransientDriverError)
        with _server(driver) as server, \
                KleisliClient(server.address) as client:
            values = list(client.stream('{x | \\x <- Faulty(8)}', batch=3))
            assert sorted(values) == list(range(8))
            assert client.last_warnings == []
        assert driver.open_cursors == 0

    def test_degraded_run_answers_with_typed_warnings(self):
        driver = FaultInjectingDriver(fail_on={1, 2, 3, 4},
                                      fault_type=TransientDriverError)
        with _server(driver) as server, \
                KleisliClient(server.address) as client:
            value = client.query('{x | \\x <- Faulty(6)}',
                                 on_source_failure="degrade")
            assert list(iter_collection(value)) == []
            assert len(client.last_warnings) == 1
            warning = client.last_warnings[0]
            assert warning["driver"] == "Faulty"
            assert warning["error_type"] == "TransientDriverError"
            assert "reason" in warning and "requests_dropped" in warning

    def test_degraded_stream_carries_warnings_on_fetch(self):
        # Cursor #1 dies at 3 elements, its replacement at 0: the retry
        # budget is spent mid-stream, so the degraded cursor ends at the
        # delivered prefix and the fetch replies say so.
        driver = FaultInjectingDriver(
            midstream_fail_on={1, 2}, midstream_after={1: 3, 2: 0},
            fault_type=TransientDriverError)
        with _server(driver, retry=RetryPolicy(max_attempts=2,
                                               backoff_base=0.0)) as server, \
                KleisliClient(server.address) as client:
            values = list(client.stream('{x | \\x <- Faulty(8)}', batch=2,
                                        on_source_failure="degrade"))
            assert sorted(values) == [0, 1, 2]
            assert [w["driver"] for w in client.last_warnings] == ["Faulty"]
        assert driver.open_cursors == 0

    def test_fail_policy_faults_carry_their_type(self):
        driver = FaultInjectingDriver(fail_on={1, 2, 3, 4},
                                      fault_type=TransientDriverError)
        with _server(driver) as server, \
                KleisliClient(server.address) as client:
            with pytest.raises(RemoteQueryError) as excinfo:
                client.query('{x | \\x <- Faulty(6)}')
            assert excinfo.value.error_type == "TransientDriverError"

    def test_generous_deadline_passes_through(self):
        driver = FaultInjectingDriver(fault_type=TransientDriverError)
        with _server(driver) as server, \
                KleisliClient(server.address) as client:
            value = client.query('{x | \\x <- Faulty(4)}', deadline=60.0)
            assert sorted(iter_collection(value)) == list(range(4))

    @pytest.mark.parametrize("message", [
        {"op": "query", "source": "{x | \\x <- Faulty(2)}",
         "deadline": -1.0},
        {"op": "query", "source": "{x | \\x <- Faulty(2)}",
         "deadline": True},
        {"op": "query", "source": "{x | \\x <- Faulty(2)}",
         "deadline": "soon"},
        {"op": "query", "source": "{x | \\x <- Faulty(2)}",
         "on_source_failure": "shrug"},
        {"op": "open", "source": "{x | \\x <- Faulty(2)}",
         "on_source_failure": 7},
    ])
    def test_malformed_options_are_wire_errors(self, message):
        driver = FaultInjectingDriver(fault_type=TransientDriverError)
        with _server(driver) as server, \
                KleisliClient(server.address) as client:
            with pytest.raises(RemoteQueryError) as excinfo:
                client.request(message)
            assert excinfo.value.error_type == "WireProtocolError"

    def test_stats_op_exposes_resilience_books(self):
        driver = FaultInjectingDriver(fail_on={1},
                                      fault_type=TransientDriverError)
        with _server(driver, breaker=CircuitBreakerPolicy(
                failure_threshold=50)) as server, \
                KleisliClient(server.address) as client:
            client.query('{x | \\x <- Faulty(4)}')
            books = client.server_stats()["engine"]["resilience"]["Faulty"]
            assert books["requests"] == 1
            assert books["retries"] == 1
            assert books["failures"] == 1
            assert books["breaker"]["state"] == "closed"
            assert books["breaker"]["trips"] == 0


class TestChaosSoak:
    """8 concurrent sessions; half draw from a transiently-faulty driver.

    The fault schedule is bounded (3 pre-open + 3 mid-stream fault
    ordinals, every mid-stream cursor makes progress first) and the retry
    budget exceeds it, so *every* request is guaranteed to recover no
    matter how the threads interleave — which makes "all clients see
    bit-identical values" a deterministic assertion, not a probabilistic
    one.
    """

    CLIENTS = 8
    ROUNDS = 3

    def test_soak_recovers_bit_identically_with_balanced_books(self):
        engine = KleisliEngine()
        stable = engine.register_driver(
            FaultInjectingDriver(name="Stable", total=100))
        flaky = engine.register_driver(FaultInjectingDriver(
            name="Flaky", total=100,
            fail_on={2, 5, 9}, midstream_fail_on={3, 7, 11},
            midstream_after=3, fault_type=TransientDriverError))
        engine.configure_resilience(
            "Flaky", FAST_RETRY, CircuitBreakerPolicy(failure_threshold=50))
        server = KleisliServer(engine, max_sessions=self.CLIENTS + 4,
                               max_concurrent_queries=self.CLIENTS + 4)
        baseline_scopes = EvalScope.live_count()
        errors = []

        def script(seed):
            faulty = seed % 2 == 0  # half the clients draw from Flaky
            source_name = "Flaky" if faulty else "Stable"
            try:
                with KleisliClient(server.address) as client:
                    for round_number in range(self.ROUNDS):
                        value = client.query(
                            '{x + 1 | \\x <- %s(8)}' % source_name)
                        if sorted(iter_collection(value)) != \
                                list(range(1, 9)):
                            errors.append(f"{source_name} query: {value!r}")
                        if client.last_warnings:
                            errors.append(
                                f"unexpected degradation: "
                                f"{client.last_warnings!r}")
                        batch = 1 + (seed + round_number) % 5
                        streamed = sorted(client.stream(
                            '{x | \\x <- %s(10)}' % source_name,
                            batch=batch))
                        if streamed != list(range(10)):
                            errors.append(
                                f"{source_name} stream: {streamed!r}")
            except Exception as error:  # noqa: BLE001 - collected below
                errors.append(f"client {seed}: "
                              f"{type(error).__name__}: {error}")

        with server:
            threads = [threading.Thread(target=script, args=(seed,))
                       for seed in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads), \
                "soak clients wedged"
            assert wait_until(lambda: server.active_sessions == 0)

            assert not errors, "\n".join(errors[:10])

            # Every scheduled fault actually fired and was recovered.
            assert flaky.faults_raised == 6
            books = server.engine.health()["resilience"]["Flaky"]
            assert books["failures"] + books["midstream_faults"] == 6
            assert books["retries"] == 6
            assert books["breaker"]["state"] == "closed"
            assert books["breaker"]["trips"] == 0
            # Breaker books balance: every fault (pre-open AND mid-stream)
            # landed on the breaker.
            assert books["breaker"]["failures"] == \
                books["failures"] + books["midstream_faults"]

            # Zero leaks: cursors, scopes, service counters.
            assert wait_until(lambda: flaky.open_cursors == 0), \
                f"{flaky.open_cursors} flaky cursors leaked"
            assert wait_until(lambda: stable.open_cursors == 0), \
                f"{stable.open_cursors} stable cursors leaked"
            assert wait_until(
                lambda: EvalScope.live_count() == baseline_scopes), \
                "EvalScopes leaked by the soak"
            stats = server.stats()
            assert stats["sessions_opened"] == stats["sessions_closed"] \
                == self.CLIENTS
            assert stats["cursors_opened"] == stats["cursors_closed"] > 0
            assert stats["failures"] == 0
