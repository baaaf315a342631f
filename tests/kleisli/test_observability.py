"""Observability at the engine level: EXPLAIN ANALYZE, the hub, the pins.

The PR 10 acceptance criteria, as tests:

* **Federated EXPLAIN ANALYZE** — a profiled query over a fault-injecting
  driver shows per-stage timings, actual vs. planner-estimated rows, and
  retry/spill annotations, in both lowerings, while producing values
  bit-identical to the unprofiled run.
* **Zero-recorder contract** — no hub + ``profile=False`` leaves every
  observability field ``None`` and reproduces the unobserved run exactly
  (values + ``elements_fetched``); attaching a hub changes observations,
  never results.
* **One accounting spine** — the engine's always-on registry counts every
  driver request once under its driver label (native batches included),
  with retries, failures and spills beside them, and EXPLAIN ANALYZE
  agrees with it.
* **Sampled row width** — with zero samples ``engine.row_width`` returns
  ``NOMINAL_ROW_BYTES`` verbatim (the spill plan gate is bit-identical to
  the PR 9 constant); spilled runs feed it real bytes-per-row.
"""

import re

import pytest

from fault_drivers import FaultInjectingDriver

from repro.core.errors import QueryCancelledError, TransientDriverError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalScope
from repro.core.values import CList, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import NOMINAL_ROW_BYTES, CancellationToken
from repro.kleisli.resilience import RetryPolicy
from repro.obs import Observability
from repro.obs.metrics import RowWidthEstimator


class RangeDriver(Driver):
    def __init__(self, name="ranges"):
        super().__init__(name)

    def _execute(self, request):
        count = int(request.get("count", 5))

        def cursor():
            for i in range(count):
                yield i

        return cursor()


class BatchRangeDriver(RangeDriver):
    """Ships a whole batch of requests in one round trip."""

    batch_single_round_trip = True

    def __init__(self):
        super().__init__("batchy")
        self.batch_calls = []

    def execute_batch(self, requests):
        self.batch_calls.append(len(requests))
        return [self.execute(request) for request in requests]


def _scan(count=50, driver="ranges"):
    return A.Scan(driver, {"table": "t", "count": count}, args={},
                  kind="bag")


def _doubling(count=50, driver="ranges"):
    return B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)),
                                  "bag"),
                 _scan(count, driver), kind="bag")


def _dedup(count=1500):
    return B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(1400)),
                                  "set"),
                 A.Scan("ranges", {"table": "t", "count": count}, args={},
                        kind="list"),
                 kind="set")


def _plain_engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _federated_engine():
    """A fault-injecting remote whose first faulting request self-heals."""
    engine = KleisliEngine()
    engine.register_driver(FaultInjectingDriver(
        name="Faulty", total=50, fail_on=(1,),
        fault_type=TransientDriverError))
    engine.resilience.set_policy(
        "Faulty", retry=RetryPolicy(max_attempts=4, backoff_base=0.0))
    return engine


def _run(engine, expr, lowering, **kwargs):
    if lowering == "eager":
        return sorted(iter_collection(engine.execute(expr, **kwargs)))
    if lowering == "interpreted-stream":
        return sorted(engine.stream(expr, mode="interpret", **kwargs))
    return sorted(engine.stream(expr, **kwargs))


LOWERINGS = ["eager", "chunked"]


# -- EXPLAIN ANALYZE across both lowerings ------------------------------------

@pytest.mark.parametrize("lowering", LOWERINGS)
def test_profiled_federated_run_is_bit_identical_and_annotated(lowering):
    expr = _doubling(driver="Faulty")
    baseline = _run(_federated_engine(), expr, lowering)

    engine = _federated_engine()
    values = _run(engine, expr, lowering, profile=True)
    assert values == baseline

    profile = engine.last_profile
    assert profile is not None and profile.status == "ok"
    assert profile.actual_rows == 50.0
    assert profile.estimated_rows is not None  # eager recomputes, streams plan
    assert profile.elapsed is not None and profile.elapsed >= 0
    # the fault on request #0 was retried: the annotation survives
    assert "retries=1" in profile.annotations()
    # every remote round trip shows up as a per-driver span fold
    assert profile.drivers["Faulty"]["requests"] >= 1
    text = profile.render()
    assert "EXPLAIN ANALYZE" in text and "rows: actual=50" in text
    assert "retries=1" in text


def test_chunked_profile_reports_per_stage_timings():
    engine = _plain_engine()
    list(engine.stream(_doubling(), profile=True))
    profile = engine.last_profile
    stage = profile.stages["pipeline"]
    assert stage["rows"] == 50 and stage["chunks"] >= 1
    assert stage["seconds"] >= 0
    assert "stage pipeline: 50 rows" in profile.render()


def test_profiled_spilled_run_carries_spill_annotations():
    engine = _plain_engine()
    values = list(engine.stream(_dedup(), optimize=False, spill=True,
                                profile=True))
    plain = list(_plain_engine().stream(_dedup(), optimize=False))
    assert values == plain
    profile = engine.last_profile
    assert profile.books["spills"] > 0
    assert any(note.startswith("spills=") for note in profile.annotations())
    assert "spills=" in profile.render()


def test_profiled_cancelled_stream_finalizes_with_the_error_status():
    engine = _plain_engine()
    token = CancellationToken()
    stream = engine.stream(_doubling(count=500), cancellation=token,
                           profile=True)
    for _ in range(3):
        next(stream)
    token.cancel("mid-stream")
    with pytest.raises(QueryCancelledError):
        list(stream)
    profile = engine.last_profile
    assert profile is not None
    assert profile.status == "QueryCancelledError"
    assert EvalScope.live_count() == 0


def test_profile_is_thread_local_and_session_safe():
    engine = _plain_engine()
    engine.execute(_doubling(), profile=True)
    assert engine.thread_profile() is engine.last_profile

    import threading
    seen = []

    def other_thread():
        seen.append(engine.thread_profile())

    t = threading.Thread(target=other_thread)
    t.start()
    t.join()
    assert seen == [None]  # another thread never sees this thread's profile


# -- the zero-recorder contract ------------------------------------------------

def test_zero_recorder_engine_has_no_observability_state():
    engine = _plain_engine()
    assert engine.observability is None
    list(engine.stream(_doubling()))
    engine.execute(_doubling())
    assert engine.last_profile is None
    assert engine.thread_profile() is None
    assert engine.health()["observability"] == {"attached": False}


@pytest.mark.parametrize("lowering", LOWERINGS + ["interpreted-stream"])
def test_attached_hub_changes_observations_never_results(lowering):
    expr = _doubling(driver="Faulty")
    bare = _federated_engine()
    baseline = _run(bare, expr, lowering)
    bare_fetched = bare.last_eval_statistics.elements_fetched

    observed = _federated_engine()
    hub = observed.attach_observability(Observability())
    assert _run(observed, expr, lowering) == baseline
    assert observed.last_eval_statistics.elements_fetched == bare_fetched
    # ... but the hub really did observe the run
    assert hub.tracer.snapshot()["finished"] == 1
    assert hub.metrics is observed.metrics
    # counting never depended on the hub: both engines counted the same
    for engine in (bare, observed):
        assert engine.metrics.get("repro_queries_total").value == 1
        requests = engine.metrics.get("repro_driver_requests_total")
        assert requests.values()[("Faulty",)] >= 1


def test_registry_counts_retries_and_failures_per_driver():
    engine = _federated_engine()
    list(engine.stream(_doubling(driver="Faulty")))
    metrics = engine.metrics
    assert metrics.get("repro_retries_total").values() == {("Faulty",): 1}
    assert metrics.get("repro_driver_failures_total").values() \
        == {("Faulty",): 1}
    # the failed try + the retry
    assert metrics.get("repro_driver_requests_total").values() \
        == {("Faulty",): 2}
    assert metrics.get("repro_driver_request_seconds").labels("Faulty") \
        .count == 2
    books = engine.health()["resilience"]["Faulty"]
    assert (books["retries"], books["failures"]) == (1, 1)


def test_native_batches_count_every_request_once():
    engine = _plain_engine()
    driver = engine.register_driver(BatchRangeDriver())
    before = driver.request_count
    expr = B.ext("x", A.Scan("batchy", {"table": "t"},
                             args={"count": B.var("x")}, kind="bag"),
                 A.Const(CList(range(7))), kind="bag")
    list(engine.stream(expr, optimize=False, profile=True))
    assert driver.batch_calls == [1, 2, 4]
    requests = driver.request_count - before
    assert requests == 7
    assert engine.last_eval_statistics.scan_requests == requests
    assert engine.last_profile.drivers["batchy"]["requests"] == requests
    metrics = engine.metrics
    assert metrics.get("repro_driver_requests_total").values() \
        == {("batchy",): requests}
    # one latency observation per round trip: one per native batch
    assert metrics.get("repro_driver_request_seconds").labels("batchy") \
        .count == 3


_SAMPLE = re.compile(r'([a-zA-Z_:][\w:]*)(?:\{(.*)\})? (\S+)\Z')
_LABEL = re.compile(r'([a-zA-Z_]\w*)="((?:[^"\\\n]|\\[\\"n])*)"(?:,|\Z)')


def _parse_exposition(text):
    """Prometheus text format, one line at a time: (name, labels, value)."""
    samples = []
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        assert match, line
        labels, body, pos = {}, match.group(2) or "", 0
        while pos < len(body):
            label = _LABEL.match(body, pos)
            assert label, line
            labels[label.group(1)] = re.sub(
                r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1),
                label.group(2))
            pos = label.end()
        samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def test_outside_driver_names_are_escaped_in_the_exposition():
    name = 'we"ird\\name'
    engine = KleisliEngine()
    engine.register_driver(RangeDriver(name))
    assert len(list(engine.stream(_doubling(count=5, driver=name)))) == 5
    samples = _parse_exposition(engine.metrics.render())
    requests = [value for metric, labels, value in samples
                if metric == "repro_driver_requests_total"]
    assert requests == [1.0]
    assert ("repro_driver_requests_total", {"driver": name}, 1.0) in samples


def test_hub_slow_query_log_records_profiles():
    engine = _plain_engine()
    hub = engine.attach_observability(Observability(slow_query_threshold=0.0))
    engine.execute(_doubling())
    assert hub.slow_queries.snapshot()["logged"] == 1
    entry = hub.slow_queries.entries()[0]
    assert entry["actual_rows"] == 50.0


def test_spill_books_feed_the_registry():
    engine = _plain_engine()
    list(engine.stream(_dedup(), optimize=False, spill=True))
    spills = engine.metrics.get("repro_spills_total").value
    assert spills > 0
    assert engine.metrics.get("repro_query_spilled_bytes").count == 1
    assert engine.health()["governance"]["spills"] == spills


# -- sampled row width (the PR 9 constant-gate differential pin) ----------------

def test_zero_samples_reproduce_the_nominal_constant_bit_for_bit():
    engine = _plain_engine()
    estimator = engine.row_width
    assert isinstance(estimator, RowWidthEstimator)
    assert estimator.row_bytes() == NOMINAL_ROW_BYTES
    # stays pinned across unspilled runs: nothing feeds the estimator
    list(engine.stream(_doubling()))
    engine.execute(_doubling())
    assert estimator.snapshot()["sampled_rows"] == 0
    assert estimator.row_bytes() == NOMINAL_ROW_BYTES


def test_spilled_runs_feed_the_row_width_estimator():
    engine = _plain_engine()
    list(engine.stream(_dedup(), optimize=False, spill=True))
    snap = engine.row_width.snapshot()
    assert snap["sampled_rows"] > 0
    assert snap["row_bytes"] >= 1.0
    assert engine.health()["row_width"]["sampled_rows"] > 0
