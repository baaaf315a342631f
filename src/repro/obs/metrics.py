"""Labelled metrics: counters, gauges and fixed-bucket histograms.

Every :class:`~repro.kleisli.engine.KleisliEngine` owns one always-on
:class:`MetricsRegistry` (``engine.metrics``), the only place engine-wide
counts are kept.  The engine, its resilience layer, the query service and
the observability hub register the instruments they count into it;
``engine.health()``, the server's ``stats`` sections and the ``metrics``
wire op read the same series back, so no two reports can disagree.

* **Label families.**  A metric is a family of series keyed by label values
  (``driver``, ``event`` ...): ``family.labels("GDB")`` returns that
  series, created on first use.  An unlabelled family has one series,
  present from construction, and takes ``inc``/``set``/``observe`` itself.
* **One lock per family**, guarding its series map and every cell of its
  series; the registry's lock guards its name → family map.  Readers
  snapshot under the lock and get plain data back.
* **Fixed exponential buckets.**  Histograms share one strictly increasing
  bound ladder (``start * growth**i``) plus an implicit +Inf bucket, so two
  histograms with identical bounds merge exactly and associatively by
  adding cells (property-tested in ``tests/properties``).
* **Prometheus text exposition.**  :meth:`MetricsRegistry.render` emits
  ``# HELP``/``# TYPE``, one sample per series
  (``name{driver="GDB",event="retries"} 3``, label values escaped),
  cumulative ``le`` buckets and ``_sum``/``_count``.  Integral values print
  as integers and all others at full round-trip precision.

The module also hosts :class:`RowWidthEstimator` — the sampled row-width
model that replaces the constant ``NOMINAL_ROW_BYTES`` spill gate.  With
zero samples it returns its default verbatim, so an engine that never
spilled reproduces the historical constant bit-for-bit.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RowWidthEstimator",
    "exponential_buckets",
]

Labels = Tuple[str, ...]

def exponential_buckets(start: float, growth: float, count: int) -> Tuple[float, ...]:
    """A fixed exponential bound ladder: ``start * growth**i`` for ``count`` bounds.

    ``start`` must be positive and ``growth`` strictly greater than 1 so the
    ladder is strictly increasing — the invariant every histogram operation
    (observe via bisect, cumulative rendering, exact merge) relies on.
    """
    if count < 1:
        raise ValueError("bucket count must be >= 1")
    if start <= 0:
        raise ValueError("bucket start must be > 0")
    if growth <= 1.0:
        raise ValueError("bucket growth must be > 1")
    bounds = tuple(start * growth ** i for i in range(count))
    for lo, hi in zip(bounds, bounds[1:]):
        if not lo < hi:  # pragma: no cover - float overflow guard
            raise ValueError("bucket bounds must be strictly increasing")
    return bounds


# Preset bucket ladders for the standard instruments.
LATENCY_BUCKETS = exponential_buckets(0.0001, 2.0, 18)    # 100µs .. ~13s
CHUNK_BUCKETS = exponential_buckets(1.0, 2.0, 16)         # 1 .. 32768 rows
QUEUE_WAIT_BUCKETS = exponential_buckets(0.001, 2.0, 14)  # 1ms .. ~8s
SPILL_BUCKETS = exponential_buckets(1024.0, 4.0, 12)      # 1KiB .. ~4GiB


def _format_value(value: float) -> str:
    """A sample value or bucket bound as Prometheus text, losslessly."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, int) or value.is_integer():
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(names: Labels, values: Labels, *extra: str) -> str:
    pairs = [f'{name}="{_escape(value)}"' for name, value in zip(names, values)]
    pairs.extend(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Value:
    """One counter or gauge series; shares its family's lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _Buckets:
    """One histogram series: ``len(bounds) + 1`` cells, the last for +Inf.

    An observation lands in the first bucket whose upper bound is
    ``>= value`` (Prometheus ``le`` semantics), or in the overflow cell.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        self._lock = lock
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def cells(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def _add(self, counts: List[int], total: float, count: int) -> None:
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total
            self._count += count

    @property
    def count(self) -> int:
        return self.cells()[2]

    @property
    def sum(self) -> float:
        return self.cells()[1]


class _Family:
    """A named metric: help text, label names, one series per label values."""

    kind = ""

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Labels = tuple(labels)
        self._lock = threading.Lock()
        self._series: Dict[Labels, object] = {}
        if not self.label_names:
            self._series[()] = self._new_series()

    def labels(self, *values: str):
        """The series for these label values (one per label name, in order)."""
        series = self._series.get(values)
        if series is not None:
            return series
        if len(values) != len(self.label_names):
            raise ValueError(f"metric {self.name!r} takes labels "
                             f"{self.label_names}, got {values!r}")
        with self._lock:
            return self._series.setdefault(values, self._new_series())

    def series(self) -> List[Tuple[Labels, object]]:
        with self._lock:
            return sorted(self._series.items())

    def snapshot(self) -> Dict[str, object]:
        if not self.label_names:
            return {"kind": self.kind, **self._sample(self._series[()])}
        return {"kind": self.kind, "labels": list(self.label_names),
                "series": [{"labels": dict(zip(self.label_names, key)),
                            **self._sample(series)}
                           for key, series in self.series()]}


class Counter(_Family):
    """A monotonically increasing count per label combination (thread-safe)."""

    kind = "counter"

    def _new_series(self) -> _Value:
        return _Value(self._lock)

    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value

    def values(self) -> Dict[Labels, float]:
        """Every series' value, keyed by its label values."""
        with self._lock:
            return {key: series._value for key, series in self._series.items()}

    def _sample(self, series: _Value) -> Dict[str, object]:
        return {"value": series.value}

    def render(self, lines: List[str]) -> None:
        for key, value in sorted(self.values().items()):
            labels = _label_text(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")


class Gauge(Counter):
    """A value that can go up and down per label combination (thread-safe)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self.labels().set(value)

    def add(self, amount: float) -> None:
        self.labels().add(amount)


class Histogram(_Family):
    """Fixed-bucket histogram family; every series shares the bound ladder."""

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float], help: str = "",
                 labels: Sequence[str] = ()) -> None:
        bounds = tuple(map(float, bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bound")
        if any(not lo < hi for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        super().__init__(name, help, labels)

    def _new_series(self) -> _Buckets:
        return _Buckets(self._lock, self.bounds)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s counts in, series by series (exact, associative).

        Requires identical bucket bounds — merging differently shaped
        histograms would silently smear counts, so it is an error instead.
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for key, series in other.series():
            self.labels(*key)._add(*series.cells())

    @property
    def count(self) -> int:
        return self.labels().count

    @property
    def sum(self) -> float:
        return self.labels().sum

    def _sample(self, series: _Buckets) -> Dict[str, object]:
        counts, total, count = series.cells()
        return {"bounds": list(self.bounds), "counts": counts, "sum": total,
                "count": count}

    def render(self, lines: List[str]) -> None:
        names, name = self.label_names, self.name
        for key, series in self.series():
            counts, total, count = series.cells()
            cumulative = 0
            for bound, cell in zip(self.bounds + (math.inf,), counts):
                cumulative += cell
                le = f'le="{_format_value(bound)}"'
                lines.append(f"{name}_bucket{_label_text(names, key, le)} "
                             f"{cumulative}")
            labels = _label_text(names, key)
            lines.append(f"{name}_sum{labels} {_format_value(total)}")
            lines.append(f"{name}_count{labels} {count}")


class MetricsRegistry:
    """Get-or-create store of metric families guarded by one lock.

    Metric names are unique across kinds; asking for an existing name with a
    different kind, label names or histogram bounds raises instead of
    silently aliasing two instruments.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Family] = {}

    def _get_or_create(self, cls, name: str, labels: Sequence[str], *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, *args, labels=labels)
                return metric
        if metric.kind != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        if metric.label_names != tuple(labels):
            raise ValueError(f"metric {name!r} already registered with "
                             f"labels {metric.label_names}")
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(self, name: str, bounds: Sequence[float], help: str = "",
                  labels: Sequence[str] = ()) -> Histogram:
        metric = self._get_or_create(Histogram, name, labels, bounds, help)
        if metric.bounds != tuple(map(float, bounds)):
            raise ValueError(
                f"histogram {name!r} already registered with different bounds")
        return metric

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data snapshot of every metric, wire- and JSON-safe."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def render(self) -> str:
        """Prometheus text exposition of every registered metric."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            metric.render(lines)
        return "\n".join(lines) + ("\n" if lines else "")


class RowWidthEstimator:
    """Sampled bytes-per-row model for the governance spill gate.

    Fed from spill bookkeeping (every spilled frame knows both its encoded
    byte length and how many rows it carried), so the estimate reflects the
    *actual* serialized width of this workload's rows.  The differential
    pin: with zero samples :meth:`row_bytes` returns the constructor
    default verbatim — historically ``governance.NOMINAL_ROW_BYTES`` — so
    an engine that never observed a row reproduces the constant-gate
    behaviour bit-for-bit.
    """

    def __init__(self, default: float) -> None:
        self._default = default
        self._lock = threading.Lock()
        self._bytes = 0.0
        self._rows = 0

    def observe(self, nbytes: float, rows: int) -> None:
        if rows <= 0 or nbytes < 0:
            return
        with self._lock:
            self._bytes += nbytes
            self._rows += rows

    def row_bytes(self) -> float:
        with self._lock:
            if self._rows == 0:
                return self._default
            return max(1.0, self._bytes / self._rows)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            rows, nbytes = self._rows, self._bytes
        return {
            "default": self._default,
            "sampled_rows": rows,
            "sampled_bytes": nbytes,
            "row_bytes": self.row_bytes(),
        }
