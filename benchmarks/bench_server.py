"""Query-service stress smoke: latency/throughput under concurrent sessions.

Three sections, written to ``BENCH_server.json``:

* **single_client** — one session issuing queries sequentially over the wire
  against a ~3ms-latency driver: per-query p50/p99 and throughput; this is
  the baseline the concurrency section must beat.
* **concurrent** — ``BENCH_SERVER_CLIENTS`` sessions (default 8) issuing the
  same workload at once through ONE shared engine: per-query p50/p99 and
  aggregate throughput.  The workload is I/O-bound (the driver sleeps, the
  GIL is released), so session multiplexing must overlap those waits —
  aggregate throughput is gated at ``BENCH_SERVER_FACTOR`` x the
  single-client baseline (default 2.0; the local margin is far larger).
* **admission** — a deliberately saturated 1-slot server under the reject
  policy: clients see typed rejections, nothing breaks, and the section
  records how many requests were shed vs served.
"""

import os
import threading
import time

from repro.kleisli.drivers.base import Driver, DriverFunction
from repro.kleisli.engine import KleisliEngine
from repro.core.errors import ServerOverloadedError
from repro.server import KleisliClient, KleisliServer

from conftest import report, update_summary

#: Aggregate concurrent throughput must be >= FACTOR x single-client.
SERVER_FACTOR = float(os.environ.get("BENCH_SERVER_FACTOR", "2.0"))
CLIENTS = int(os.environ.get("BENCH_SERVER_CLIENTS", "8"))
QUERIES = int(os.environ.get("BENCH_SERVER_QUERIES", "25"))

#: Simulated remote-source latency per request (seconds).
DRIVER_LATENCY = 0.003

QUERY = '{x + 1 | \\x <- Slow(6)}'


class SlowDriver(Driver):
    """A remote-ish source: every request sleeps ``DRIVER_LATENCY`` (releasing
    the GIL, like real network wait) then yields ``0..count-1``."""

    def _execute(self, request):
        time.sleep(DRIVER_LATENCY)
        return iter(range(request.get("count", 6)))

    def cpl_functions(self):
        return [DriverFunction(self.name, {"table": "t"},
                               argument_key="count")]


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]

def _latency_stats(samples):
    return {
        "queries": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000, 3),
        "mean_ms": round(sum(samples) / len(samples) * 1000, 3),
    }


def _server():
    engine = KleisliEngine()
    engine.register_driver(SlowDriver("Slow"), latency=DRIVER_LATENCY)
    return KleisliServer(engine, max_sessions=CLIENTS + 2,
                         max_concurrent_queries=CLIENTS + 2)


def _client_workload(address, queries, latencies, errors):
    try:
        with KleisliClient(address) as client:
            expected = client.query(QUERY)  # warm this session's path
            for _ in range(queries):
                started = time.perf_counter()
                value = client.query(QUERY)
                latencies.append(time.perf_counter() - started)
                if value != expected:
                    errors.append(f"value drift: {value!r}")
    except Exception as error:  # noqa: BLE001 - surfaces in the assertion
        errors.append(f"{type(error).__name__}: {error}")


def test_concurrent_sessions_overlap_io(capsys):
    server = _server()
    with server:
        # -- single client baseline ----------------------------------------
        single_latencies, errors = [], []
        started = time.perf_counter()
        _client_workload(server.address, QUERIES, single_latencies, errors)
        single_elapsed = time.perf_counter() - started
        assert not errors, errors[:3]
        single = _latency_stats(single_latencies)
        single["throughput_qps"] = round(QUERIES / single_elapsed, 1)

        # -- concurrent sessions -------------------------------------------
        concurrent_latencies, errors = [], []
        threads = [threading.Thread(
            target=_client_workload,
            args=(server.address, QUERIES, concurrent_latencies, errors))
            for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        concurrent_elapsed = time.perf_counter() - started
        assert not errors, errors[:3]
        total = CLIENTS * QUERIES
        concurrent = _latency_stats(concurrent_latencies)
        concurrent["clients"] = CLIENTS
        concurrent["throughput_qps"] = round(total / concurrent_elapsed, 1)

    # stop() has joined the serving threads: the books are final here.
    stats = server.stats()
    scaling = concurrent["throughput_qps"] / single["throughput_qps"]
    update_summary("BENCH_server.json", "single_client", single)
    update_summary("BENCH_server.json", "concurrent", {
        **concurrent, "scaling_vs_single": round(scaling, 2),
        "required_factor": SERVER_FACTOR})
    with capsys.disabled():
        report("query service: single vs concurrent sessions", [
            ["single", 1, single["p50_ms"], single["p99_ms"],
             single["throughput_qps"]],
            ["concurrent", CLIENTS, concurrent["p50_ms"],
             concurrent["p99_ms"], concurrent["throughput_qps"]],
        ], ["workload", "sessions", "p50 ms", "p99 ms", "qps"])
        print(f"scaling: {scaling:.2f}x (gate: >= {SERVER_FACTOR}x)")

    assert stats["sessions_opened"] == stats["sessions_closed"] == CLIENTS + 1
    assert stats["failures"] == 0
    assert scaling >= SERVER_FACTOR, \
        (f"concurrent sessions only reached {scaling:.2f}x the single-client "
         f"throughput (gate {SERVER_FACTOR}x) — I/O waits are not overlapping")


def test_admission_sheds_load_without_breaking(capsys):
    engine = KleisliEngine()
    engine.register_driver(SlowDriver("Slow"), latency=DRIVER_LATENCY)
    counters = {"served": 0, "rejected": 0}
    lock = threading.Lock()
    errors = []

    with KleisliServer(engine, max_concurrent_queries=1,
                       admission="reject") as server:
        def hammer():
            try:
                with KleisliClient(server.address) as client:
                    for _ in range(QUERIES):
                        try:
                            client.query(QUERY)
                            with lock:
                                counters["served"] += 1
                        except ServerOverloadedError:
                            with lock:
                                counters["rejected"] += 1
            except Exception as error:  # noqa: BLE001
                errors.append(f"{type(error).__name__}: {error}")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:3]
        # After the storm the server still answers correctly.
        with KleisliClient(server.address) as client:
            assert sorted(client.query(QUERY)) == [1, 2, 3, 4, 5, 6]
        rejections = server.stats()["rejections"]

    update_summary("BENCH_server.json", "admission", {
        "policy": "reject", "slots": 1, "hammer_threads": 4,
        "served": counters["served"], "rejected": counters["rejected"],
        "server_rejections": rejections})
    with capsys.disabled():
        report("query service: 1-slot reject-policy saturation", [
            ["served", counters["served"]],
            ["rejected (typed)", counters["rejected"]],
        ], ["outcome", "requests"])

    assert counters["served"] >= 4, "saturated server served nothing"
    assert counters["rejected"] == rejections
    assert counters["served"] + counters["rejected"] == 4 * QUERIES
