#!/usr/bin/env python
"""CI smoke check for the telemetry subsystem.

Five end-to-end properties, checked on a real (short) figure3-style
configuration:

1. **Artifacts are valid**: a traced run exports a VCD waveform that the
   structural VCD parser accepts, a Chrome ``trace_event`` JSON that its
   validator accepts (loadable in ``about://tracing``), and a metrics
   document the report renderer consumes.
2. **Counters reconcile**: per-buffer enqueue/dequeue totals, arbiter
   grants, and the network delivery counters agree exactly with the
   datapath's own accounting (sinks, meters, buffered residue).
3. **Results are unperturbed**: the traced run's meters are bit-identical
   to a plain run of the same config.
4. **Both rails compose**: with ``REPRO_SANITIZE=1`` and ``REPRO_TRACE``
   set together, ``make_simulator`` builds one observed simulator whose
   run is still bit-identical, whose counters reconcile exactly, and
   whose sanitizer report is clean.
5. **Disabled path is free**: with telemetry off, ``make_simulator``
   returns the exact plain class, and an interleaved min-of-k timing of
   two identical disabled builds stays within 2% of each other —
   demonstrating the off-default adds no measurable overhead (both
   halves ARE the plain simulator; the comparison bounds timing noise,
   with one retry to absorb a noisy runner).

Usage::

    PYTHONPATH=src python tests/telemetry_smoke.py

No pytest dependency — a plain script CI (and a curious developer) can
run directly; exits non-zero with a diagnostic on the first violation.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.sanitizer import HardwareSanitizer  # noqa: E402
from repro.instrument import ObservedOmegaNetworkSimulator  # noqa: E402
from repro.network.simulator import (  # noqa: E402
    NetworkConfig,
    OmegaNetworkSimulator,
    make_simulator,
)
from repro.telemetry import (  # noqa: E402
    TraceSession,
    read_vcd,
    render_report,
    validate_chrome_trace,
)
from repro.telemetry.report import (  # noqa: E402
    merge_metrics_documents,
    metrics_files,
)

#: The figure3 headline configuration at smoke scale: DAMQ, four slots,
#: blocking protocol, uniform traffic (Section 4.2.1 of the paper).
CONFIG = NetworkConfig(
    num_ports=16,
    radix=4,
    buffer_kind="DAMQ",
    slots_per_buffer=4,
    offered_load=0.7,
    seed=1988,
)
WARMUP, MEASURE = 100, 400

#: Disabled-path overhead budget (ratio of interleaved min-of-k times).
MAX_OVERHEAD = 1.02


def fail(message: str) -> None:
    print(f"telemetry-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_unperturbed(
    observed: OmegaNetworkSimulator, plain: OmegaNetworkSimulator, what: str
) -> None:
    """Property 3: an observed run is bit-identical to the plain run."""
    if observed.meters.latency.get_state() != plain.meters.latency.get_state():
        fail(f"{what} run perturbed the latency statistics")
    if (observed.meters.delivered, observed.meters.discarded) != (
        plain.meters.delivered,
        plain.meters.discarded,
    ):
        fail(f"{what} run perturbed the delivery counters")
    print(
        f"telemetry-smoke: {what} run bit-identical to plain "
        f"(delivered={observed.meters.delivered})"
    )


def check_reconciliation(
    simulator: OmegaNetworkSimulator, session: TraceSession
) -> None:
    """Property 2: the traced counters agree with the datapath."""
    metrics = session.metrics
    delivered_total = sum(
        sink.received for row in simulator._exit_sinks for sink in row
    )
    checks = [
        (
            "delivered_total == sum of sink.received",
            metrics.value("packets_delivered_total"),
            delivered_total,
        ),
        (
            "delivered_measured == meters.delivered",
            metrics.value("packets_delivered_measured"),
            simulator.meters.delivered,
        ),
        (
            "discarded_measured == meters.discarded",
            metrics.value("packets_discarded_measured"),
            simulator.meters.discarded,
        ),
        (
            "enqueues - dequeues == packets still buffered",
            metrics.value("buffer_enqueues_total")
            - metrics.value("buffer_dequeues_total"),
            simulator.total_buffered_packets,
        ),
        (
            "arbiter grants == buffer dequeues",
            metrics.value("arbiter_grants_total"),
            metrics.value("buffer_dequeues_total"),
        ),
    ]
    for description, actual, expected in checks:
        if actual != expected:
            fail(f"{description}: {actual} != {expected}")
    print(f"telemetry-smoke: {len(checks)} counter reconciliations exact")


def check_traced_run(export_dir: Path, plain: OmegaNetworkSimulator) -> None:
    """Properties 1-3: valid artifacts, exact reconciliation, no drift."""
    session = TraceSession(export_dir=export_dir)
    traced = ObservedOmegaNetworkSimulator(CONFIG, [session])
    traced.run(WARMUP, MEASURE)
    check_unperturbed(traced, plain, "traced")

    vcd_info = read_vcd(next(export_dir.glob("*.vcd")))
    if not vcd_info["signals"] or not vcd_info["changes"]:
        fail(f"VCD export has no signals/changes: {vcd_info}")
    print(
        f"telemetry-smoke: VCD valid ({len(vcd_info['signals'])} signals, "
        f"{vcd_info['changes']} changes)"
    )

    trace_path = next(export_dir.glob("*.trace.json"))
    counts = validate_chrome_trace(trace_path)
    if not counts["counters"] or not counts["instants"]:
        fail(f"Chrome trace export is empty: {counts}")
    print(
        f"telemetry-smoke: Chrome trace valid ({counts['counters']} "
        f"counters, {counts['instants']} instants)"
    )

    check_reconciliation(traced, session)

    registry, info = merge_metrics_documents(metrics_files(export_dir))
    report = render_report(registry, info)
    if "arbitration fairness" not in report or "hot queues" not in report:
        fail("rendered report is missing expected sections")
    print("telemetry-smoke: report renders from the exported document")


def check_combined_run(plain: OmegaNetworkSimulator) -> None:
    """Property 4: sanitizer and tracer on one run via the environment."""
    os.environ["REPRO_SANITIZE"] = "1"
    os.environ["REPRO_TRACE"] = "1"
    os.environ.pop("REPRO_METRICS", None)
    try:
        combined = make_simulator(CONFIG)
    finally:
        for variable in ("REPRO_SANITIZE", "REPRO_TRACE"):
            os.environ.pop(variable, None)
    sanitizer = combined.observer(HardwareSanitizer)
    session = combined.observer(TraceSession)
    if sanitizer is None or session is None:
        fail(f"combined build lacks a rail: {combined.observers}")
    combined.run(WARMUP, MEASURE)
    check_unperturbed(combined, plain, "sanitized+traced")
    check_reconciliation(combined, session)
    if not sanitizer.clean:
        fail(f"combined run is not sanitizer-clean:\n{sanitizer.render()}")
    print(f"telemetry-smoke: {sanitizer.render()}")


def _min_of_k_interleaved(runs: int = 3) -> tuple[float, float]:
    """Interleaved min-of-k wall times of two identical DISABLED builds.

    Both halves construct and run the plain simulator through
    ``make_simulator`` with telemetry off; interleaving A/B per round
    cancels thermal and scheduling drift, and min-of-k discards outlier
    runs.  The ratio between the halves bounds the measurement noise —
    and therefore the largest overhead the disabled default could be
    hiding.
    """
    config = CONFIG.with_overrides(offered_load=0.5)
    best_a = best_b = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        make_simulator(config).run(50, 150)
        best_a = min(best_a, time.perf_counter() - started)
        started = time.perf_counter()
        make_simulator(config).run(50, 150)
        best_b = min(best_b, time.perf_counter() - started)
    return best_a, best_b


def check_disabled_path() -> None:
    """Property 5: telemetry off means the plain class and no overhead."""
    for variable in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_SANITIZE"):
        os.environ.pop(variable, None)
    simulator = make_simulator(CONFIG)
    if type(simulator) is not OmegaNetworkSimulator:
        fail(
            f"disabled default built {type(simulator).__name__}, "
            f"not the plain OmegaNetworkSimulator"
        )
    print("telemetry-smoke: disabled default constructs the plain class")

    for attempt in range(2):
        time_a, time_b = _min_of_k_interleaved()
        ratio = max(time_a, time_b) / min(time_a, time_b)
        if ratio < MAX_OVERHEAD:
            print(
                f"telemetry-smoke: disabled-path overhead bound "
                f"{ratio:.4f}x < {MAX_OVERHEAD}x "
                f"({time_a * 1000:.1f}ms vs {time_b * 1000:.1f}ms)"
            )
            return
        print(
            f"telemetry-smoke: noisy timing round ({ratio:.4f}x), "
            f"retry {attempt + 1}"
        )
    fail(
        f"disabled-path timing ratio {ratio:.4f}x exceeds {MAX_OVERHEAD}x "
        f"after retries (noisy runner or real overhead on the off path)"
    )


def main() -> int:
    plain = OmegaNetworkSimulator(CONFIG)
    plain.run(WARMUP, MEASURE)
    with tempfile.TemporaryDirectory(prefix="telemetry_smoke_") as scratch:
        check_traced_run(Path(scratch), plain)
    check_combined_run(plain)
    check_disabled_path()
    print("telemetry-smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
