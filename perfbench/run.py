"""End-to-end benchmark of the CPL/Kleisli system on the paper's queries.

Run from the repository root::

    python3 perfbench/run.py --workload doe_chr22 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run builds the workload's inputs from ``--seed``, computes reference
answers, warms up with one untimed client session, and then runs client
sessions of a fixed number of queries for ``--seconds``, checking every
answer.  Each session is set up afresh (``setup_s`` is the median set-up
time).  Between queries the run reads the machine's speed from fixed
pieces of interpreter work, and the CPU time inside every timed interval
is scaled to a reference speed (see ``calibration.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
measures half its time untraced and half traced, reports the difference
as ``bench.trace_overhead_pct``, and writes its spans to
``perfbench/out/<workload>.trace.json``.  ``--workload all`` runs every
workload untraced, each in its own process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.net.remote import RemoteCallLog  # noqa: E402

from calibration import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Samples  # noqa: E402

OUT = HERE / "out"
REPORT_PREFIX = "report: "

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
#: Printed beside the gated end-to-end metrics but not gated.  The first
#: three each read 0 on some workload by design (no failures, no driver,
#: no wire); the wall-clock latencies and the speed scale move with the
#: machine, not the program.
UNGATED = {"failed_ratio": "ratio", "source_requests_per_query": "count",
           "wire_bytes_per_row": "bytes", "queries": "count",
           "wall_latency_p50_ms": "ms", "wall_latency_p90_ms": "ms",
           "speed_scale": "ratio"}
UNITS = {**{metric["name"]: metric["unit"]
            for metric in SPEC["end_to_end"] + SPEC["per_layer"]}, **UNGATED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return report_all(args.seed, args.seconds)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    inputs = workload.build(seed)
    build_s = time.perf_counter() - started
    references = workload.references(inputs)
    speed = Speed()
    workload.warm_up(inputs, references, speed)
    if not trace:
        samples = workload.run(inputs, references, seconds, seed, speed)
        values = end_to_end(samples)
        print(REPORT_PREFIX + json.dumps(_with_units(values, values)))
        names = END_TO_END
    else:
        # The untraced half draws other queries, so the traced half
        # does not find them already lowered in the compile cache.
        baseline = workload.run(inputs, references, seconds / 2, seed + 1, speed)
        tracer = Tracer()
        tracer.install()
        try:
            samples = workload.run(inputs, references, seconds / 2, seed,
                                   speed, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(samples, tracer, baseline, build_s)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}.trace.json",
                     {"workload": name, "seed": seed,
                      "queries": samples.attempted})
        names = PER_LAYER
    for metric, value in values.items():
        print(f"{name} {metric} = {value:.6g} {UNITS[metric]}")
    return {"correct": samples.failed == 0, "attempted": samples.attempted,
            "failed": samples.failed, "metrics": _with_units(values, names)}


def _with_units(values: dict, names) -> dict:
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


def end_to_end(samples: Samples) -> dict:
    latencies = sorted(samples.latencies)
    wall = sorted(samples.wall_latencies)
    return {
        "setup_s": statistics.median(samples.setups),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * _quantile(latencies, 0.9),
        "throughput_qps": len(latencies) / sum(latencies),
        "ttfr_p50_ms": 1000 * statistics.median(samples.ttfr),
        "elements_fetched_per_query": samples.per_query("elements_fetched"),
        "peak_rss_mb": samples.peak_rss_mb,
        "failed_ratio": samples.failed / samples.attempted,
        "source_requests_per_query": sum(samples.requests.values()) / samples.queries,
        "wire_bytes_per_row": samples.reply_bytes / max(1, samples.rows),
        "queries": len(latencies),
        "wall_latency_p50_ms": 1000 * statistics.median(wall),
        "wall_latency_p90_ms": 1000 * _quantile(wall, 0.9),
        "speed_scale": statistics.median(samples.scales),
    }


def _quantile(ordered, fraction: float) -> float:
    """The ``fraction`` quantile of sorted samples (inclusive method)."""
    if len(ordered) < 2:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


#: Per-layer times: metric -> span names whose self times it sums.
LAYER_TIMES = {
    "cpl.parse_ms": ("cpl.parse",),
    "cpl.typecheck_ms": ("cpl.typecheck",),
    "cpl.desugar_ms": ("cpl.desugar",),
    "session.expand_ms": ("session.expand",),
    "optimizer.rewrite_ms": ("optimizer.rewrite",),
    "planner.plan_ms": ("planner.plan",),
    "nrc.lower_ms": ("nrc.lower",),
    "nrc.execute_self_ms": ("nrc.execute",),
    "drivers.GDB.busy_ms": ("driver.GDB",),
    "drivers.GenBank.busy_ms": ("driver.GenBank",),
    "wire.encode_ms": ("wire.encode_value", "wire.frame_encode"),
    "wire.decode_ms": ("wire.decode_value", "wire.frame_decode"),
    "server.handle_self_ms": ("server.handle",),
}

DRIVERS = ("GDB", "GenBank")


def per_layer(samples: Samples, tracer: Tracer, baseline: Samples,
              build_s: float) -> dict:
    queries = samples.queries
    self_times = tracer.self_times()
    counters = tracer.counters
    values = {name: 1000 * sum(self_times.get(span, 0.0) for span in spans)
              / queries for name, spans in LAYER_TIMES.items()}
    values["optimizer.rules_fired"] = counters["optimizer.rules_fired"] / queries
    for driver in DRIVERS:
        values[f"optimizer.scans.{driver}"] = \
            counters[f"optimizer.scans.{driver}"] / queries
        values[f"drivers.{driver}.requests"] = \
            samples.requests.get(driver, 0) / queries
    values["optimizer.scans_per_query"] = sum(
        values[f"optimizer.scans.{driver}"] for driver in DRIVERS)
    values["nrc.compile_cache_hit_ratio"] = _ratio(
        samples.totals["compile_cache_hits"], samples.totals["compile_cache_misses"])
    for counter in ("ext_iterations", "scalar_stages", "stream_fallbacks"):
        values[f"nrc.{counter}"] = samples.per_query(counter)
    values["nrc.rows_per_chunk"] = (counters["chunk.rows"] / counters["chunk.count"]
                                    if counters["chunk.count"] else 0.0)
    values["cache.hit_ratio"] = _ratio(samples.totals["cache_hits"],
                                       samples.totals["cache_misses"])
    values["remote.wait_ms"] = 1000 * sum(
        call["finished"] - call["started"] for call in samples.calls) / queries
    log = RemoteCallLog()
    log.calls = samples.calls
    values["remote.max_in_flight"] = log.max_concurrency()
    values["resilience.retries"] = samples.per_query("retries")
    values["wire.frame_bytes"] = samples.reply_bytes / queries
    values["wire.bytes_per_row"] = samples.reply_bytes / max(1, samples.rows)
    values["server.admission_queued_ratio"] = (
        samples.queued / samples.admitted if samples.admitted else 0.0)
    values["bio.build_s"] = build_s
    values["bench.trace_overhead_pct"] = 100 * (
        statistics.fmean(samples.latencies)
        / statistics.fmean(baseline.latencies) - 1)
    return {name: values[name] for name in PER_LAYER}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def report_all(seed: int, seconds: float) -> int:
    """Run every workload untraced in its own process and print one table."""
    reports = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            print(f"{name}: failed with exit code {completed.returncode}")
            return 1
        result = json.loads(lines[-1])
        report = next(json.loads(line[len(REPORT_PREFIX):]) for line in lines
                      if line.startswith(REPORT_PREFIX))
        report["correct"] = {"value": result["correct"], "unit": ""}
        reports[name] = report
    first = next(iter(reports.values()))
    print(f"{'metric':<28}{'unit':>8}" + "".join(f"{n:>14}" for n in reports))
    for metric, entry in first.items():
        cells = "".join(f"{_cell(report[metric]['value']):>14}"
                        for report in reports.values())
        print(f"{metric:<28}{entry['unit']:>8}{cells}")
    return 0 if all(report["correct"]["value"] for report in reports.values()) else 1


def _cell(value) -> str:
    return str(value) if isinstance(value, bool) else f"{value:.4g}"


if __name__ == "__main__":
    sys.exit(main())
