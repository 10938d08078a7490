"""Labelled metrics registry: counters, gauges and Welford histograms.

The registry is the aggregation side of the telemetry subsystem — where
the event ring keeps a bounded *window* of raw observations, the metrics
keep exact *totals* for the whole run: per-buffer enqueue/dequeue counts,
per-input arbitration grants and denies, occupancy distributions.

Design constraints, matching the rest of the repo's determinism
discipline:

* **Bit-exact snapshots.**  :meth:`MetricsRegistry.snapshot_state`
  produces a canonical, JSON-able document whose floats survive a JSON
  round trip exactly (the histogram state is the raw Welford accumulator
  of :class:`~repro.utils.stats.OnlineStats`), so metrics compose with
  :mod:`repro.cache` checkpoints the same way the simulator's meters do.
* **In-place restore.**  Instrumented components cache direct references
  to their :class:`Counter` objects at adoption time (no dict lookup per
  event); :meth:`MetricsRegistry.restore_state` therefore mutates the
  existing metric objects rather than rebuilding them, keeping every
  cached reference live across a checkpoint restore.
* **Mergeable.**  :meth:`MetricsRegistry.merge_state` folds another
  registry's snapshot into this one (counters add, gauges keep the max,
  histograms use the parallel Welford merge), which is how per-worker
  metrics from ``parallel_simulate`` runs combine into one report.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.utils.stats import OnlineStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_VERSION",
    "MetricsRegistry",
]

#: Version tag of the registry snapshot format.
METRICS_VERSION = 1

#: Canonical key of one metric: (type, name, sorted (label, value) pairs).
_Key = tuple[str, str, tuple[tuple[str, str], ...]]


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (callers on hot paths may also ``+=`` directly)."""
        self.value += amount


class Gauge:
    """Last-written value (e.g. current free-list depth).

    ``updates`` counts writes so an untouched gauge is distinguishable
    from one explicitly set to zero.  Merging two gauges keeps the
    maximum — across parallel runs there is no meaningful "last" writer,
    so the peak is the only order-independent choice.
    """

    __slots__ = ("name", "labels", "value", "updates")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self.updates = 0

    def set(self, value: int) -> None:
        """Record the current value."""
        self.value = value
        self.updates += 1


class Histogram:
    """Welford summary (count/mean/variance/min/max) of a sample stream."""

    __slots__ = ("name", "labels", "stats")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.stats = OnlineStats()

    def record(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.stats.add(value)


#: Union of the three metric classes (for annotations).
Metric = Counter | Gauge | Histogram

_TYPE_NAMES: dict[type[Any], str] = {
    Counter: "counter",
    Gauge: "gauge",
    Histogram: "histogram",
}
_TYPES_BY_NAME: dict[str, type[Any]] = {v: k for k, v in _TYPE_NAMES.items()}


def _labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Get-or-create store of labelled metrics with exact serialization."""

    def __init__(self) -> None:
        self._metrics: dict[_Key, Metric] = {}

    # -- get-or-create -----------------------------------------------------

    def _get(self, type_name: str, name: str, labels: dict[str, Any]) -> Metric:
        clean = {key: str(value) for key, value in labels.items()}
        key: _Key = (type_name, name, _labels_key(clean))
        metric = self._metrics.get(key)
        if metric is None:
            metric = _TYPES_BY_NAME[type_name](name, clean)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        metric = self._get("counter", name, labels)
        if not isinstance(metric, Counter):  # pragma: no cover - type guard
            raise ConfigurationError(f"{name} is not a counter")
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``name`` + ``labels``."""
        metric = self._get("gauge", name, labels)
        if not isinstance(metric, Gauge):  # pragma: no cover - type guard
            raise ConfigurationError(f"{name} is not a gauge")
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram registered under ``name`` + ``labels``."""
        metric = self._get("histogram", name, labels)
        if not isinstance(metric, Histogram):  # pragma: no cover - type guard
            raise ConfigurationError(f"{name} is not a histogram")
        return metric

    # -- queries -----------------------------------------------------------

    def rows(self) -> Iterator[Metric]:
        """Every metric, in canonical (type, name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def counters(self, name: str) -> list[Counter]:
        """Every counter registered under ``name``, canonical order."""
        return [
            metric
            for metric in self.rows()
            if isinstance(metric, Counter) and metric.name == name
        ]

    def histograms(self, name: str) -> list[Histogram]:
        """Every histogram registered under ``name``, canonical order."""
        return [
            metric
            for metric in self.rows()
            if isinstance(metric, Histogram) and metric.name == name
        ]

    def value(self, name: str) -> int:
        """Sum of every counter registered under ``name`` (0 when none)."""
        return sum(counter.value for counter in self.counters(name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- serialization -----------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Canonical, JSON-able, bit-exact snapshot of every metric."""
        records: list[dict[str, Any]] = []
        for metric in self.rows():
            record: dict[str, Any] = {
                "type": _TYPE_NAMES[type(metric)],
                "name": metric.name,
                "labels": dict(sorted(metric.labels.items())),
            }
            if isinstance(metric, Counter):
                record["value"] = metric.value
            elif isinstance(metric, Gauge):
                record["value"] = metric.value
                record["updates"] = metric.updates
            else:
                record["state"] = metric.stats.get_state()
            records.append(record)
        return {"version": METRICS_VERSION, "metrics": records}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Overwrite this registry with a :meth:`snapshot_state` document.

        Existing metric objects are mutated in place (cached references
        held by instrumented components stay valid); metrics present here
        but absent from the snapshot are reset to their empty state;
        metrics only in the snapshot are created.
        """
        if state.get("version") != METRICS_VERSION:
            raise ConfigurationError(
                f"metrics snapshot version {state.get('version')!r} is not "
                f"the supported version {METRICS_VERSION}"
            )
        seen: set[_Key] = set()
        for record in state["metrics"]:
            metric = self._get(record["type"], record["name"], record["labels"])
            seen.add(
                (record["type"], metric.name, _labels_key(metric.labels))
            )
            if isinstance(metric, Counter):
                metric.value = record["value"]
            elif isinstance(metric, Gauge):
                metric.value = record["value"]
                metric.updates = record["updates"]
            else:
                metric.stats.set_state(record["state"])
        for key, metric in self._metrics.items():
            if key in seen:
                continue
            if isinstance(metric, Counter):
                metric.value = 0
            elif isinstance(metric, Gauge):
                metric.value = 0
                metric.updates = 0
            else:
                metric.stats = OnlineStats()

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add; gauges keep the maximum value (and add update
        counts); histograms use the exact parallel Welford merge.
        """
        if state.get("version") != METRICS_VERSION:
            raise ConfigurationError(
                f"metrics snapshot version {state.get('version')!r} is not "
                f"the supported version {METRICS_VERSION}"
            )
        for record in state["metrics"]:
            metric = self._get(record["type"], record["name"], record["labels"])
            if isinstance(metric, Counter):
                metric.value += record["value"]
            elif isinstance(metric, Gauge):
                if record["updates"]:
                    metric.value = (
                        record["value"]
                        if not metric.updates
                        else max(metric.value, record["value"])
                    )
                metric.updates += record["updates"]
            else:
                other = OnlineStats()
                other.set_state(record["state"])
                metric.stats.merge(other)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (see :meth:`merge_state`)."""
        self.merge_state(other.snapshot_state())
