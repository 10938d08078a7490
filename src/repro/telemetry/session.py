"""The trace session: one run's telemetry observer.

A :class:`TraceSession` is the :class:`~repro.instrument.Observer` that
turns the model's choke-point activity into cycle-stamped events (the
bounded :class:`~repro.telemetry.events.EventRing`) and labelled metrics
(the :class:`~repro.telemetry.metrics.MetricsRegistry`).  It watches

* every buffer kind (``push``/``pop`` → enqueue/dequeue events,
  per-buffer counters, occupancy histograms);
* :class:`~repro.core.linkedlist.SlotListManager` (slot alloc/free/retire
  events and retire counters);
* every :class:`~repro.switch.scheduler.Scheduler` (grant/deny events and
  per-input fairness counters);
* the ComCoBB chip's input/output port FSMs (link events and per-port
  counters);
* an :class:`~repro.instrument.ObservedOmegaNetworkSimulator`'s link
  transfers, deliveries, losses, drops and flow-control transitions.

The network counters reconcile exactly with the simulator's meters:
``packets_delivered_measured`` equals ``meters.delivered``,
``packets_lost_measured`` equals ``meters.lost``, and
``packets_delivered_total`` equals the sum of every sink's ``received``
counter (warm-up deliveries included).

When built by :func:`repro.network.simulator.make_simulator` under
``REPRO_TRACE=<dir>`` (or ``REPRO_METRICS=<dir>``), the session exports
the VCD waveform, Chrome ``trace_event`` JSON and metrics document into
``<dir>`` when the run completes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.chip.comcobb import ComCoBBChip
from repro.chip.input_port import InputPort
from repro.chip.output_port import OutputPort
from repro.core.buffer import SwitchBuffer
from repro.core.linkedlist import SlotListManager
from repro.core.packet import Packet
from repro.instrument import Observer, observe, switch_label
from repro.network.simulator import NetworkConfig, OmegaNetworkSimulator
from repro.switch.scheduler import Grant, Scheduler
from repro.telemetry.chrome import write_chrome_trace
from repro.telemetry.events import DEFAULT_RING_CAPACITY, EventRing, TraceEvent
from repro.telemetry.metrics import (
    METRICS_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.vcd import write_vcd

__all__ = ["TraceSession", "config_tag"]


def config_tag(config: NetworkConfig) -> str:
    """Deterministic file-name stem identifying one config's exports."""
    load = f"{config.offered_load:g}".replace(".", "p")
    return (
        f"{config.buffer_kind.lower()}_{config.protocol}"
        f"_{config.traffic_kind}_n{config.num_ports}_r{config.radix}"
        f"_s{config.slots_per_buffer}_load{load}_seed{config.seed}"
    )


@dataclass
class _BufferMetrics:
    label: str
    enqueues: Counter
    dequeues: Counter
    occupancy: Histogram
    free: Gauge


class TraceSession(Observer):
    """One run's telemetry sink: event ring + metrics + cycle stamp.

    ``capacity=0`` puts the session in metrics-only mode: every emission
    is counted but none retained, so the waveform exporters have nothing
    to write while the counters stay complete.  ``export_dir`` (if set)
    receives the exported files when an observed simulator's run ends.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RING_CAPACITY,
        metrics: MetricsRegistry | None = None,
        export_dir: str | Path | None = None,
    ) -> None:
        #: Simulated cycle stamp; advanced by the observed simulator (or
        #: the chip ports) before events of that cycle are emitted.
        self.cycle = 0
        self.ring = EventRing(capacity)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.export_dir = Path(export_dir) if export_dir is not None else None
        self._buffers: dict[SwitchBuffer, _BufferMetrics] = {}
        self._managers: dict[SlotListManager, tuple[str, Counter]] = {}
        self._schedulers: dict[
            Scheduler, tuple[str, list[Counter], list[Counter]]
        ] = {}
        # Network-event counters by event label: link transfers (switch
        # and chip-port labels), flow-control blocks (buffer labels), and
        # (total, measured) pairs by event kind.
        self._links: dict[str, Counter] = {}
        self._blocks: dict[str, Counter] = {}
        self._totals: dict[str, tuple[Counter, Counter]] = {}

    def emit(
        self, kind: str, component: str, port: int, value: int, extra: int = 0
    ) -> None:
        """Append one cycle-stamped event to the ring."""
        self.ring.append(
            TraceEvent(self.cycle, kind, component, port, value, extra)
        )

    def adopt_chip(self, chip: ComCoBBChip) -> ComCoBBChip:
        """Observe a ComCoBB chip: its slot managers and both port FSMs."""
        for port, buffer in enumerate(chip.buffers):
            observe(buffer.lists, self, f"{chip.name}.in{port}")
        for input_port in chip.input_ports:
            observe(input_port, self, input_port.name)
        for output_port in chip.output_ports:
            observe(output_port, self, output_port.name)
        return chip

    # -- observer hooks ----------------------------------------------------

    def attach(self, component: Any, label: str) -> None:
        metrics = self.metrics
        if isinstance(component, SwitchBuffer):
            self._buffers[component] = _BufferMetrics(
                label,
                metrics.counter("buffer_enqueues_total", buffer=label),
                metrics.counter("buffer_dequeues_total", buffer=label),
                metrics.histogram("buffer_occupancy", buffer=label),
                metrics.gauge("buffer_free_slots", buffer=label),
            )
        elif isinstance(component, SlotListManager):
            self._managers[component] = (
                label,
                metrics.counter("slot_retires_total", buffer=label),
            )
        elif isinstance(component, Scheduler):
            self._schedulers[component] = (
                label,
                [
                    metrics.counter("arbiter_grants_total", switch=label, input=i)
                    for i in range(component.num_inputs)
                ],
                [
                    metrics.counter("arbiter_denies_total", switch=label, input=i)
                    for i in range(component.num_inputs)
                ],
            )
        elif isinstance(component, InputPort):
            self._links[label] = metrics.counter(
                "chip_packets_received_total", port=label
            )
        elif isinstance(component, OutputPort):
            self._links[label] = metrics.counter(
                "chip_packets_sent_total", port=label
            )
        elif isinstance(component, OmegaNetworkSimulator):
            self._attach_network(component)

    def _attach_network(self, simulator: OmegaNetworkSimulator) -> None:
        metrics = self.metrics
        for kind, name in (
            ("deliver", "delivered"),
            ("loss", "lost"),
            ("drop", "discarded"),
        ):
            self._totals[kind] = (
                metrics.counter(f"packets_{name}_total"),
                metrics.counter(f"packets_{name}_measured"),
            )
        for stage, row in enumerate(simulator.switches):
            links = metrics.counter("link_transfers_total", stage=stage)
            for index, switch in enumerate(row):
                label = switch_label(stage, index)
                self._links[label] = links
                blocks = metrics.counter("flow_control_blocks_total", switch=label)
                for port in range(switch.num_inputs):
                    self._blocks[f"{label}.in{port}"] = blocks
        # Deliveries cross the last stage's exit links.
        self._links["network"] = metrics.counter(
            "link_transfers_total", stage=simulator.topology.num_stages - 1
        )

    def on_cycle(self, cycle: int) -> None:
        self.cycle = cycle

    def on_push(
        self, buffer: SwitchBuffer, packet: Packet, destination: int
    ) -> None:
        bound = self._buffers[buffer]
        bound.enqueues.value += 1
        occupancy = buffer.occupancy
        bound.occupancy.stats.add(occupancy)
        free = buffer.effective_capacity - occupancy
        bound.free.set(free)
        self.emit(
            "enqueue",
            bound.label,
            destination,
            buffer.queue_length(destination),
            free,
        )

    def on_pop(
        self, buffer: SwitchBuffer, packet: Packet, destination: int
    ) -> None:
        bound = self._buffers[buffer]
        bound.dequeues.value += 1
        free = buffer.effective_capacity - buffer.occupancy
        bound.free.set(free)
        self.emit(
            "dequeue",
            bound.label,
            destination,
            buffer.queue_length(destination),
            free,
        )

    def on_slot(
        self, manager: SlotListManager, op: str, slot: int, list_id: int
    ) -> None:
        label, retires = self._managers[manager]
        if op == "alloc":
            self.emit("alloc", label, list_id, slot, manager.free_count)
        elif op == "free":
            self.emit("free", label, -1, slot, manager.free_count)
        elif op == "retire":
            retires.value += 1
            self.emit("retire", label, -1, slot, manager.free_count)

    def on_grant(
        self,
        scheduler: Scheduler,
        rows: Sequence[list[int]],
        grants: list[Grant],
    ) -> None:
        """Count grants, and a *deny* for every input that held a packet
        this cycle but received no grant — the quantity the paper's
        fairness discussion reasons about."""
        label, granted, denied = self._schedulers[scheduler]
        served = [False] * scheduler.num_inputs
        for grant in grants:
            served[grant.input_port] = True
            granted[grant.input_port].value += 1
            self.emit(
                "grant",
                label,
                grant.input_port,
                grant.output_port,
                grant.packet.size,
            )
        for input_port, row in enumerate(rows):
            if served[input_port]:
                continue
            longest = max(row)
            if longest > 0:
                denied[input_port].value += 1
                self.emit("deny", label, input_port, longest)

    def on_network(
        self,
        kind: str,
        label: str,
        port: int,
        value: int,
        extra: int = 0,
        measured: bool = False,
    ) -> None:
        if kind in ("link", "deliver"):
            self._links[label].value += 1
        if kind in self._totals:
            total, in_window = self._totals[kind]
            total.value += 1
            if measured:
                in_window.value += 1
        elif kind == "block":
            self._blocks[label].value += 1
        self.emit(kind, label, port, value, extra)

    def on_finish(self, simulator: OmegaNetworkSimulator) -> None:
        if self.export_dir is not None:
            self.export(self.export_dir, simulator)

    def on_snapshot(self, state: dict[str, Any]) -> None:
        state["telemetry"] = self.metrics.snapshot_state()

    def on_restore(self, state: dict[str, Any]) -> None:
        saved = state.get("telemetry")
        if saved is not None:
            self.metrics.restore_state(saved)

    # -- export ------------------------------------------------------------

    def export(
        self, directory: str | Path, simulator: OmegaNetworkSimulator
    ) -> list[Path]:
        """Write the VCD, Chrome trace and metrics files for a run.

        File names derive deterministically from the simulator's config
        (:func:`config_tag`); re-exporting the same run overwrites the
        same files.  In metrics-only mode (ring capacity 0) only the
        metrics document is written.
        """
        config = simulator.config
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        tag = config_tag(config)
        written: list[Path] = []
        events = self.ring.events()
        if self.ring.capacity > 0:
            # Both writers default to the network's 12-clock cycle.
            written.append(write_vcd(events, target / f"{tag}.vcd"))
            written.append(
                write_chrome_trace(events, target / f"{tag}.trace.json")
            )
        document = {
            "format": METRICS_VERSION,
            "tag": tag,
            "config": config.to_state(),
            "cycles": simulator.cycle,
            "events_emitted": self.ring.emitted,
            "events_dropped": self.ring.dropped,
            "metrics": self.metrics.snapshot_state(),
        }
        metrics_path = target / f"{tag}.metrics.json"
        scratch = metrics_path.with_name(f"{metrics_path.name}.tmp{os.getpid()}")
        scratch.write_text(json.dumps(document))
        os.replace(scratch, metrics_path)
        written.append(metrics_path)
        return written
