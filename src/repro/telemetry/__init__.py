"""repro.telemetry — cycle-level tracing, metrics and waveform export.

The observability subsystem: a zero-overhead-when-disabled event bus
(:class:`TraceSession`), the :class:`~repro.instrument.Observer` that
watches buffers, slot managers, arbiters, the omega-network simulator
and the ComCoBB chip ports through :mod:`repro.instrument` (the layer it
shares with :mod:`repro.analysis.sanitizer`); a
labelled :class:`MetricsRegistry` (counters, gauges, Welford histograms)
with bit-exact snapshots that compose with :mod:`repro.cache`
checkpoints and ``parallel_simulate`` merges; and exporters for VCD
waveforms (GTKWave), Chrome ``trace_event`` JSON (``about://tracing``)
and plain-text reports.

Enable on any run with ``REPRO_TRACE=<dir>`` (full event tracing plus
export) or ``REPRO_METRICS=<dir>`` (counters only, no event ring), or
the ``--trace``/``--metrics`` flags of ``python -m repro.experiments``.
With both unset, simulations construct the plain classes and no
telemetry code runs at all.
"""

from repro.telemetry.chrome import validate_chrome_trace, write_chrome_trace
from repro.telemetry.events import (
    DEFAULT_RING_CAPACITY,
    EVENT_KINDS,
    EventRing,
    TraceEvent,
)
from repro.telemetry.metrics import (
    METRICS_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report import (
    jain_fairness,
    load_metrics_document,
    merge_metrics_documents,
    metrics_files,
    render_report,
)
from repro.telemetry.session import TraceSession, config_tag
from repro.telemetry.vcd import read_vcd, write_vcd

__all__ = [
    "Counter",
    "DEFAULT_RING_CAPACITY",
    "EVENT_KINDS",
    "EventRing",
    "Gauge",
    "Histogram",
    "METRICS_VERSION",
    "MetricsRegistry",
    "TraceEvent",
    "TraceSession",
    "config_tag",
    "jain_fairness",
    "load_metrics_document",
    "merge_metrics_documents",
    "metrics_files",
    "read_vcd",
    "render_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_vcd",
]
