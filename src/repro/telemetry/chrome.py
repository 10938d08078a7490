"""Chrome ``trace_event`` JSON export of the trace-event window.

Produces the JSON Object Format consumed by ``about://tracing`` /
Perfetto: queue lengths and free-list depths become ``"C"`` (counter)
events plotted as stacked area charts per component, and discrete
happenings (grants, denies, block transitions, link transfers,
deliveries, losses, drops) become ``"i"`` (instant) events on a per-kind
track.  Timestamps are microsecond-valued in the viewer; we map one
*clock* to one microsecond (``ts = cycle * cycle_clocks``) so the paper's
12-clock network cycle reads directly off the time axis.

:func:`validate_chrome_trace` is the structural checker the tests and CI
smoke job run over exported files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ConfigurationError
from repro.network.simulator import CYCLE_CLOCKS
from repro.telemetry.events import EVENT_KINDS, TraceEvent

__all__ = ["validate_chrome_trace", "write_chrome_trace"]

#: Synthetic pid for all emitted events (one simulated network).
_PID = 1

#: Kinds rendered as counter tracks (the rest become instants).
_COUNTER_KINDS = ("enqueue", "dequeue")


def write_chrome_trace(
    events: Iterable[TraceEvent],
    path: str | Path,
    cycle_clocks: int = CYCLE_CLOCKS,
) -> Path:
    """Write ``events`` to ``path`` in Chrome trace_event JSON format."""
    trace_events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro.telemetry omega network"},
        }
    ]
    # One thread per event kind keeps instant tracks visually separated.
    tids = {kind: index + 1 for index, kind in enumerate(EVENT_KINDS)}
    for kind, tid in tids.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": kind},
            }
        )
    for event in events:
        ts = event.cycle * cycle_clocks
        if event.kind in _COUNTER_KINDS:
            trace_events.append(
                {
                    "name": event.component,
                    "ph": "C",
                    "pid": _PID,
                    "tid": tids[event.kind],
                    "ts": ts,
                    "args": {f"q{event.port}": event.value, "free": event.extra},
                }
            )
        else:
            trace_events.append(
                {
                    "name": f"{event.kind}:{event.component}",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": tids[event.kind],
                    "ts": ts,
                    "args": {
                        "port": event.port,
                        "value": event.value,
                        "extra": event.extra,
                    },
                }
            )
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "metadata": {"clocks_per_cycle": cycle_clocks},
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document))
    return target


def validate_chrome_trace(path: str | Path) -> dict[str, int]:
    """Structurally validate a trace file written by :func:`write_chrome_trace`.

    Returns ``{"counters": N, "instants": M, "metadata": K}``.  Raises
    :class:`~repro.errors.ConfigurationError` if the document is not the
    JSON Object Format, an event is missing a required field, uses an
    unknown phase, or timestamps within a thread go backwards (the trace
    viewer tolerates that poorly).
    """
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"trace file is not JSON: {error}") from error
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ConfigurationError(
            "trace file is not JSON Object Format (no traceEvents key)"
        )
    counts = {"counters": 0, "instants": 0, "metadata": 0}
    last_ts: dict[int, int] = {}
    for index, event in enumerate(document["traceEvents"]):
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ConfigurationError(
                    f"trace event {index} is missing {field!r}"
                )
        phase = event["ph"]
        if phase == "M":
            counts["metadata"] += 1
            continue
        if "ts" not in event:
            raise ConfigurationError(f"trace event {index} is missing 'ts'")
        tid = event["tid"]
        if event["ts"] < last_ts.get(tid, 0):
            raise ConfigurationError(
                f"trace event {index} goes backwards in time on tid {tid}"
            )
        last_ts[tid] = event["ts"]
        if phase == "C":
            counts["counters"] += 1
        elif phase == "i":
            if event.get("s") not in ("t", "p", "g"):
                raise ConfigurationError(
                    f"instant event {index} has invalid scope {event.get('s')!r}"
                )
            counts["instants"] += 1
        else:
            raise ConfigurationError(
                f"trace event {index} has unsupported phase {phase!r}"
            )
    return counts
