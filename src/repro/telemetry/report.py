"""Plain-text telemetry reports and metrics-document aggregation.

``python -m repro.telemetry report <dir-or-files>`` loads one or more
``*.metrics.json`` documents written by
:meth:`~repro.telemetry.session.TraceSession.export`,
merges them (counters add, histograms Welford-merge — exactly the
semantics of :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_state`)
and renders the run summary: delivery/loss totals, the hottest queues by
enqueue count, mean buffer occupancy, and per-switch arbitration
fairness (Jain's index over per-input grant counts).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.telemetry.metrics import METRICS_VERSION, MetricsRegistry

__all__ = [
    "jain_fairness",
    "load_metrics_document",
    "merge_metrics_documents",
    "metrics_files",
    "render_report",
]


def jain_fairness(shares: list[int]) -> float:
    """Jain's fairness index of ``shares``: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly even service; ``1/n`` means one claimant got
    everything.  An all-zero (or empty) share list reports 1.0 — nothing
    was served, so nothing was served unfairly.
    """
    total = sum(shares)
    if not shares or total == 0:
        return 1.0
    return total * total / (len(shares) * sum(x * x for x in shares))


def load_metrics_document(path: str | Path) -> dict[str, Any]:
    """Load and structurally validate one ``*.metrics.json`` document."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"{path} is not a JSON metrics document: {error}"
        ) from error
    if not isinstance(document, dict) or "metrics" not in document:
        raise ConfigurationError(f"{path} has no 'metrics' key")
    if document.get("format") != METRICS_VERSION:
        raise ConfigurationError(
            f"{path} has metrics format {document.get('format')!r}; "
            f"this build reads format {METRICS_VERSION}"
        )
    return document


def metrics_files(target: str | Path) -> list[Path]:
    """The metrics documents under ``target`` (a file or a directory)."""
    path = Path(target)
    if path.is_dir():
        return sorted(path.glob("*.metrics.json"))
    return [path]


def merge_metrics_documents(
    paths: list[Path],
) -> tuple[MetricsRegistry, dict[str, Any]]:
    """Merge metrics documents into one registry plus combined run info."""
    if not paths:
        raise ConfigurationError("no metrics documents to merge")
    registry = MetricsRegistry()
    info: dict[str, Any] = {
        "tags": [],
        "cycles": 0,
        "events_emitted": 0,
        "events_dropped": 0,
    }
    for path in paths:
        document = load_metrics_document(path)
        registry.merge_state(document["metrics"])
        info["tags"].append(document.get("tag", Path(path).stem))
        info["cycles"] += document.get("cycles", 0)
        info["events_emitted"] += document.get("events_emitted", 0)
        info["events_dropped"] += document.get("events_dropped", 0)
    return registry, info


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def render_report(
    registry: MetricsRegistry,
    info: dict[str, Any] | None = None,
    top: int = 10,
) -> str:
    """Render the plain-text run summary for ``registry``."""
    lines: list[str] = ["repro.telemetry report", "======================"]
    if info:
        lines.append(f"runs merged:      {len(info['tags'])}")
        for tag in info["tags"]:
            lines.append(f"  - {tag}")
        lines.append(f"cycles simulated: {info['cycles']}")
        lines.append(
            f"events emitted:   {info['events_emitted']} "
            f"(dropped from ring: {info['events_dropped']})"
        )
    lines.append("")
    lines.append("traffic totals")
    lines.append("--------------")
    for name in (
        "packets_delivered_total",
        "packets_delivered_measured",
        "packets_lost_total",
        "packets_lost_measured",
        "packets_discarded_total",
        "packets_discarded_measured",
        "flow_control_blocks_total",
    ):
        lines.append(f"{name:<28} {registry.value(name)}")
    links = registry.counters("link_transfers_total")
    if links:
        lines.append("link transfers by stage:")
        for counter in links:
            stage = counter.labels.get("stage", "?")
            lines.append(f"  stage {stage:<3} {counter.value}")

    enqueues = registry.counters("buffer_enqueues_total")
    if enqueues:
        lines.append("")
        lines.append(f"hot queues (top {top} by enqueues)")
        lines.append("-------------------------------")
        occupancy = {
            h.labels.get("buffer", ""): h
            for h in registry.histograms("buffer_occupancy")
        }
        dequeues = {
            c.labels.get("buffer", ""): c.value
            for c in registry.counters("buffer_dequeues_total")
        }
        ranked = sorted(
            enqueues, key=lambda c: (-c.value, c.labels.get("buffer", ""))
        )
        for counter in ranked[:top]:
            label = counter.labels.get("buffer", "")
            hist = occupancy.get(label)
            sampled = hist is not None and hist.stats.count > 0
            mean = hist.stats.mean if sampled and hist is not None else 0.0
            peak = hist.stats.maximum if sampled and hist is not None else 0.0
            lines.append(
                f"  {label:<28} enq={counter.value:<7} "
                f"deq={dequeues.get(label, 0):<7} "
                f"mean_occ={_fmt(mean)} peak_occ={peak}"
            )

    grants = registry.counters("arbiter_grants_total")
    if grants:
        lines.append("")
        lines.append("arbitration fairness (Jain's index per switch)")
        lines.append("----------------------------------------------")
        per_switch: dict[str, list[int]] = {}
        for counter in grants:
            per_switch.setdefault(counter.labels.get("switch", ""), []).append(
                counter.value
            )
        denies = {
            c.labels.get("switch", ""): 0
            for c in registry.counters("arbiter_denies_total")
        }
        for counter in registry.counters("arbiter_denies_total"):
            denies[counter.labels.get("switch", "")] += counter.value
        for switch in sorted(per_switch):
            shares = per_switch[switch]
            lines.append(
                f"  {switch:<20} grants={sum(shares):<7} "
                f"denies={denies.get(switch, 0):<7} "
                f"fairness={_fmt(jain_fairness(shares))}"
            )
    return "\n".join(lines) + "\n"
