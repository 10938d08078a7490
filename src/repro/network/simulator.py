"""Synchronous simulator of an Omega network of n×n switches.

This is the reproduction of the paper's Section 4.2 evaluation substrate.
Following the paper's own simplifications (shared with Pfister & Norton):

* fixed-length packets (one buffer slot each, unless the variable-length
  extension is enabled);
* synchronized transmission — a packet crosses one switch per *network
  cycle*, each network cycle standing for 12 clock cycles (8 to transmit,
  4 to route);
* processors are Bernoulli message generators, memories are sinks.

Within a network cycle the simulator processes stages **from last to
first**: every switch first transmits (freeing slots), then receives from
upstream, so a slot freed in a cycle can be refilled in the same cycle but
a packet advances at most one stage per cycle.  Sources inject after all
switch-to-switch movement.  Flow control follows the configured protocol:

* **blocking** — the arbiter treats an output as blocked when the
  downstream buffer cannot accept the candidate packet;
* **discarding** — nothing is blocked; a packet forwarded into a full
  switch buffer is dropped and counted.  Under both protocols a packet
  whose stage-0 buffer is full waits at its source.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.packet import Packet, PacketFactory
from repro.core.registry import make_buffer_factory
from repro.errors import BufferFullError, ConfigurationError, SimulationError
from repro.kernel.base import SimKernel
from repro.network.metrics import Meters, SimulationResult
from repro.network.sources import Sink, Source
from repro.network.topology import OmegaTopology
from repro.network.traffic import TrafficPattern, make_traffic
from repro.switch.arbiter import BlockedPredicate, make_arbiter
from repro.switch.flow_control import Protocol
from repro.switch.switch import Switch
from repro.utils.rng import RandomStream

__all__ = [
    "NetworkConfig",
    "OmegaNetworkSimulator",
    "SNAPSHOT_VERSION",
    "load_checkpoint",
    "make_simulator",
    "restore_simulator",
    "resume_run",
    "simulate",
]

#: Clock cycles represented by one network cycle (8 transmit + 4 route).
CYCLE_CLOCKS = 12

#: Packets each source can hold; a full queue stalls the generator.
#: Under either protocol a packet whose stage-0 buffer is full waits
#: here rather than being dropped: the paper's processors are "simply
#: message generators", and holding at the source reproduces its Table 3
#: numbers, where only switch-to-switch transfers discard.
SOURCE_QUEUE_CAPACITY = 4

#: Version tag of the simulator snapshot format.  Bump whenever the
#: structure of :meth:`OmegaNetworkSimulator.snapshot` changes; restore
#: refuses snapshots from any other version.
SNAPSHOT_VERSION = 3

#: Test hook: when set to an integer N, a run that writes a checkpoint at
#: exactly cycle N hard-exits the process immediately afterwards (the
#: checkpoint/resume tests use this to simulate a worker dying mid-run).
#: A *resumed* run starts at cycle >= N and never writes a checkpoint at
#: N again, so the replacement attempt survives.
CHECKPOINT_EXIT_ENV = "REPRO_TEST_EXIT_AT_CHECKPOINT"

#: Process exit code used by the :data:`CHECKPOINT_EXIT_ENV` test hook.
CHECKPOINT_EXIT_CODE = 23


@dataclass(frozen=True)
class NetworkConfig:
    """Everything that defines one simulation run.

    The defaults are the paper's headline configuration: a 64×64 Omega
    network of 4×4 switches with four slots per input buffer, blocking
    protocol, smart arbitration and uniform traffic.
    """

    num_ports: int = 64
    radix: int = 4
    buffer_kind: str = "DAMQ"
    slots_per_buffer: int = 4
    protocol: Protocol = Protocol.BLOCKING
    arbiter_kind: str = "smart"
    traffic_kind: str = "uniform"
    offered_load: float = 0.5
    hot_fraction: float = 0.05
    seed: int = 1988
    packet_size: int = 1
    #: When set, packet sizes are uniform on [packet_size, packet_size_max]
    #: (variable-length traffic — the paper's conclusion flags this as the
    #: DAMQ buffer's real target).
    packet_size_max: int | None = None
    #: Blocking flow-control fidelity: "precise" lets the upstream switch
    #: know the exact downstream queue a packet will join (idealized
    #: pre-routing); "conservative" only lets it know whether a packet of
    #: *any* destination would fit — the realistic constraint the paper
    #: raises against the statically partitioned buffers (Section 2).
    #: FIFO and DAMQ behave identically under both settings.
    flow_control_fidelity: str = "precise"
    #: When True, a packet of ``size`` slots occupies its link (and its
    #: buffer's read port) for ``size`` network cycles, arriving downstream
    #: ``size - 1`` cycles after its grant — store-and-forward
    #: serialization for the variable-length extension.  With fixed
    #: one-slot packets this is exactly the paper's synchronized model, so
    #: the flag changes nothing for the paper's own experiments.
    serialize_links: bool = False
    #: Fault injection: probability that a packet is destroyed on each
    #: link crossing (counted in ``Meters.lost``).  0.0 — the default for
    #: every paper experiment — draws nothing from the RNG, so results
    #: are bit-identical to a build without fault support.
    packet_loss_rate: float = 0.0
    #: Fault injection: hard-failed slots removed from every input buffer
    #: before the run, exercising graceful degradation at reduced
    #: capacity.  0 leaves the buffers untouched.
    retired_slots_per_buffer: int = 0

    def __post_init__(self) -> None:
        # Accept "blocking"/"discarding" strings and normalize to the
        # enum: every downstream predicate compares against Protocol
        # members, so a raw string would silently behave as discarding.
        if not isinstance(self.protocol, Protocol):
            object.__setattr__(
                self, "protocol", Protocol.from_name(self.protocol)
            )

    def with_overrides(self, **kwargs: Any) -> "NetworkConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **kwargs)

    def to_state(self) -> dict[str, Any]:
        """Every field as a JSON-able dict (cache keys, checkpoints).

        The :class:`Protocol` enum is stored by name; all other fields
        are primitives already.  The dict is also the canonical payload
        hashed into this config's cache key, so field order does not
        matter (keys are sorted at hash time) but values must be stable.
        """
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["protocol"] = str(self.protocol)
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "NetworkConfig":
        """Rebuild a config from a :meth:`to_state` dict.

        A field this version does not have (say, from a snapshot written
        before it was removed) raises :class:`ConfigurationError` naming
        it, rather than a bare ``TypeError`` from the constructor.
        """
        unknown = sorted(set(state) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown NetworkConfig field(s) {', '.join(unknown)}"
            )
        kwargs = dict(state)
        kwargs["protocol"] = Protocol.from_name(kwargs["protocol"])
        return cls(**kwargs)


@dataclass(slots=True)
class _StageLink:
    """Pre-resolved wiring of one switch output to its downstream input."""

    switch: "Switch"
    input_port: int


class OmegaNetworkSimulator(SimKernel):
    """Cycle-by-cycle simulation of one :class:`NetworkConfig`.

    The semantics oracle and, as is, the ``"reference"``
    :class:`~repro.kernel.base.SimKernel`.
    """

    name = "reference"

    def __init__(self, config: NetworkConfig) -> None:
        if config.flow_control_fidelity not in ("precise", "conservative"):
            raise ConfigurationError(
                f"unknown flow-control fidelity "
                f"{config.flow_control_fidelity!r}"
            )
        if not 0.0 <= config.packet_loss_rate <= 1.0:
            raise ConfigurationError(
                f"packet loss rate out of range: {config.packet_loss_rate}"
            )
        if config.retired_slots_per_buffer < 0:
            raise ConfigurationError("retired_slots_per_buffer must be >= 0")
        self.config = config
        self.topology = OmegaTopology(config.num_ports, config.radix)
        self.pattern: TrafficPattern = make_traffic(
            config.traffic_kind,
            config.num_ports,
            hot_fraction=config.hot_fraction,
        )
        self.factory = PacketFactory()
        root = RandomStream(config.seed, "omega")
        buffer_factory = self._make_buffer_factory(config)
        self.switches: list[list[Switch]] = []
        next_id = 0
        for _stage in range(self.topology.num_stages):
            row = []
            for _index in range(self.topology.switches_per_stage):
                arbiter = make_arbiter(
                    config.arbiter_kind, config.radix, config.radix
                )
                row.append(
                    Switch(next_id, config.radix, config.radix, buffer_factory, arbiter)
                )
                next_id += 1
            self.switches.append(row)
        if config.retired_slots_per_buffer:
            for row in self.switches:
                for switch in row:
                    for buffer in switch.buffers:
                        buffer.retire_slots(config.retired_slots_per_buffer)
        # The loss stream is only spawned when faults are active, keeping
        # zero-fault runs bit-identical to a build without fault support.
        self._loss_rng = (
            root.spawn("link-loss") if config.packet_loss_rate > 0.0 else None
        )
        self.sources = [
            Source(
                port=port,
                offered_load=config.offered_load,
                topology=self.topology,
                pattern=self.pattern,
                factory=self.factory,
                rng=root.spawn(f"source{port}"),
                queue_capacity=SOURCE_QUEUE_CAPACITY,
                cycle_clocks=CYCLE_CLOCKS,
                packet_size=config.packet_size,
                packet_size_max=config.packet_size_max,
            )
            for port in range(config.num_ports)
        ]
        self.sinks = [
            Sink(port, CYCLE_CLOCKS) for port in range(config.num_ports)
        ]
        # Pre-resolve inter-stage wiring: downstream[stage][switch][output].
        self._downstream: list[list[list[_StageLink]]] = []
        for stage in range(self.topology.num_stages - 1):
            stage_links = []
            for index in range(self.topology.switches_per_stage):
                links = []
                for output in range(config.radix):
                    location = self.topology.next_hop(stage, index, output)
                    links.append(
                        _StageLink(
                            self.switches[stage + 1][location.switch],
                            location.port,
                        )
                    )
                stage_links.append(links)
            self._downstream.append(stage_links)
        self.cycle = 0
        self.meters = Meters(num_ports=config.num_ports)
        self._measure_start_clock: int | None = None
        # Link-serialization state (only consulted when serialize_links):
        # cycle at which each resource becomes free, plus the in-flight
        # deliveries bucketed by completion cycle.
        stages = self.topology.num_stages
        per_stage = self.topology.switches_per_stage
        self._link_free_at = [
            [[0] * config.radix for _ in range(per_stage)] for _ in range(stages)
        ]
        self._reader_free_at = [
            [[0] * config.radix for _ in range(per_stage)] for _ in range(stages)
        ]
        self._source_free_at = [0] * config.num_ports
        self._pending: dict[int, list[tuple]] = {}
        # Hot-path state, all derived from the config and wiring above.
        self._last_stage = stages - 1
        self._serialize = config.serialize_links
        self._blocking = config.protocol is Protocol.BLOCKING
        # Where each source's port enters stage 0.
        self._entries = [
            self.topology.entry_point(port) for port in range(config.num_ports)
        ]
        self._entry_switches = [
            self.switches[0][entry.switch] for entry in self._entries
        ]
        # Sink fed by each final-stage switch output.
        self._exit_sinks = [
            [
                self.sinks[self.topology.exit_link(index, output)]
                for output in range(config.radix)
            ]
            for index in range(per_stage)
        ]
        # Occupied slots per stage: a stage whose count is zero has nothing
        # to arbitrate, so ``step`` skips it entirely (active-stage
        # worklist).  Maintained by _run_switch/_forward/_inject.
        self._stage_slots = [0] * stages
        # The flow-control predicate of each switch never changes shape
        # during a run, so build it once instead of rebuilding closures
        # every switch-cycle.
        self._blocked_for: list[list[BlockedPredicate]] = [
            [
                self._make_blocked(stage, index)
                for index in range(per_stage)
            ]
            for stage in range(stages)
        ]

    def _make_buffer_factory(
        self, config: NetworkConfig
    ) -> Callable[[int], SwitchBuffer]:
        """Build the per-input buffer factory.

        Override hook for instrumented simulators:
        :class:`repro.instrument.ObservedOmegaNetworkSimulator` wraps the
        returned factory so every buffer is observed (and labelled) as it
        is built, while this base class keeps the plain, zero-overhead
        construction.
        """
        return make_buffer_factory(config.buffer_kind, config.slots_per_buffer)

    def _make_blocked(self, stage: int, index: int) -> BlockedPredicate:
        """Build the per-switch flow-control predicate once, up front."""
        if stage == self._last_stage:
            def blocked(input_port: int, output_port: int, packet: Packet) -> bool:
                return False  # sinks always accept
        elif self._blocking and self.config.flow_control_fidelity == "conservative":
            buffers = [
                link.switch.buffers[link.input_port]
                for link in self._downstream[stage][index]
            ]

            def blocked(input_port: int, output_port: int, packet: Packet) -> bool:
                return not buffers[output_port].can_accept_without_prerouting(
                    packet.size
                )
        elif self._blocking:
            buffers = [
                link.switch.buffers[link.input_port]
                for link in self._downstream[stage][index]
            ]

            def blocked(input_port: int, output_port: int, packet: Packet) -> bool:
                return not buffers[output_port].can_accept(
                    packet.route[packet.hop + 1], packet.size
                )
        else:
            def blocked(input_port: int, output_port: int, packet: Packet) -> bool:
                return False

        if self._serialize:
            link_free = self._link_free_at[stage][index]
            reader_free = self._reader_free_at[stage][index]
            flow_blocked = blocked

            def blocked(input_port: int, output_port: int, packet: Packet) -> bool:
                if self.cycle < link_free[output_port]:
                    return True  # previous packet still on the wire
                if self.cycle < reader_free[input_port]:
                    return True  # buffer's read port still streaming
                return flow_blocked(input_port, output_port, packet)

        return blocked

    # ------------------------------------------------------------------
    # One network cycle
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole network by one network cycle."""
        stage_slots = self._stage_slots
        for stage in range(self._last_stage, -1, -1):
            if stage_slots[stage] == 0:
                continue  # nothing buffered anywhere in this stage
            blocked_row = self._blocked_for[stage]
            for index, switch in enumerate(self.switches[stage]):
                if switch._occupancy == 0:
                    continue
                self._run_switch(stage, index, switch, blocked_row[index])
        self._inject()
        if self._serialize:
            self._complete_in_flight()
        self._sample_occupancy()
        self.cycle += 1

    def _run_switch(
        self,
        stage: int,
        index: int,
        switch: Switch,
        blocked: BlockedPredicate,
    ) -> None:
        """Arbitrate and move one switch's granted packets downstream."""
        grants = switch.plan_transmissions(blocked)
        if not grants:
            return
        last = stage == self._last_stage
        serialize = self._serialize
        stage_slots = self._stage_slots
        for grant in grants:
            packet = switch.execute(grant)
            stage_slots[stage] -= packet.size
            if serialize and packet.size > 1:
                done = self.cycle + packet.size
                self._link_free_at[stage][index][grant.output_port] = done
                self._reader_free_at[stage][index][grant.input_port] = done
                self._pending.setdefault(done - 1, []).append(
                    ("hop", stage, index, grant.output_port, packet)
                )
            elif last:
                self._deliver(index, grant.output_port, packet)
            else:
                self._forward(stage, index, grant.output_port, packet)

    def _link_fault_destroys(self, packet: Packet) -> bool:
        """Fault injection: whether this link crossing loses the packet."""
        if self._loss_rng is None:
            return False
        if self._loss_rng.bernoulli(self.config.packet_loss_rate):
            if self._in_measurement(packet):
                self.meters.lost += 1
            return True
        return False

    def _forward(
        self, stage: int, index: int, output_port: int, packet: Packet
    ) -> None:
        """Move a packet across one inter-stage link."""
        if self._link_fault_destroys(packet):
            return
        link = self._downstream[stage][index][output_port]
        # Inlined packet.advance_hop() / output_port_at_current_hop():
        # forwarded packets always carry a route entry for the next stage.
        packet.hop += 1
        next_output = packet.route[packet.hop]
        try:
            link.switch.receive(link.input_port, packet, next_output)
        except BufferFullError:
            if self._blocking:
                raise SimulationError(
                    "blocking protocol forwarded into a full buffer"
                ) from None
            self._count_discard(packet)
        else:
            self._stage_slots[stage + 1] += packet.size

    def _deliver(self, index: int, output_port: int, packet: Packet) -> None:
        """Hand a packet leaving the last stage to its memory sink."""
        if self._link_fault_destroys(packet):
            return
        sink = self._exit_sinks[index][output_port]
        sink.deliver(packet, self.cycle)
        if self._in_measurement(packet):
            self.meters.delivered += 1
            self.meters.latency.add(packet.latency())
            self.meters.network_latency.add(packet.network_latency())

    def _inject(self) -> None:
        """Generate new packets and push injection-queue heads into stage 0."""
        serialize = self._serialize
        cycle = self.cycle
        measure_start = self._measure_start_clock
        meters = self.meters
        for source in self.sources:
            generated = source.maybe_generate(cycle)
            if (
                generated is not None
                and measure_start is not None
                and generated.created_at >= measure_start
            ):
                meters.generated += 1
            queue = source.queue
            head = queue[0] if queue else None
            if head is None:
                continue
            if serialize and cycle < self._source_free_at[source.port]:
                continue  # injection link still streaming a prior packet
            entry = self._entries[source.port]
            switch = self._entry_switches[source.port]
            local_output = head.output_port_at_current_hop()
            if switch.can_accept(entry.port, local_output, head.size):
                packet = source.dequeue()
                if serialize and packet.size > 1:
                    done = cycle + packet.size
                    self._source_free_at[source.port] = done
                    self._pending.setdefault(done - 1, []).append(
                        ("inject", 0, entry.switch, entry.port, packet)
                    )
                    continue
                # Injection completes at the end of this network cycle (the
                # frame boundary), after the packet's mid-frame creation.
                packet.injected_at = (cycle + 1) * CYCLE_CLOCKS
                switch.receive(entry.port, packet, local_output)
                self._stage_slots[0] += packet.size
                if self._in_measurement(packet):
                    meters.injected += 1

    def _complete_in_flight(self) -> None:
        """Land every serialized transfer whose last slot arrives now."""
        for entry in self._pending.pop(self.cycle, []):
            kind, stage, index, port, packet = entry
            if kind == "inject":
                packet.injected_at = (self.cycle + 1) * CYCLE_CLOCKS
                local_output = packet.output_port_at_current_hop()
                # The stage-0 input buffer is fed only by this source link,
                # so the space checked at launch is still there.
                self.switches[0][index].receive(port, packet, local_output)
                self._stage_slots[0] += packet.size
                if self._in_measurement(packet):
                    self.meters.injected += 1
            elif stage == self.topology.num_stages - 1:
                self._deliver(index, port, packet)
            else:
                self._forward(stage, index, port, packet)

    @property
    def in_flight_count(self) -> int:
        """Packets currently serializing across links."""
        return sum(len(bucket) for bucket in self._pending.values())

    def _count_discard(self, packet: Packet) -> None:
        if self._in_measurement(packet):
            self.meters.discarded += 1

    def _sample_occupancy(self) -> None:
        if self._measure_start_clock is not None:
            # Per-stage counters already hold the per-switch sums.
            self.meters.occupancy.add(sum(self._stage_slots))

    def _in_measurement(self, packet: Packet) -> bool:
        """Whether this packet counts toward the measurement window."""
        return (
            self._measure_start_clock is not None
            and packet.created_at >= self._measure_start_clock
        )

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run(
        self,
        warmup_cycles: int = 2000,
        measure_cycles: int = 10000,
        checkpoint_every: int | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> SimulationResult:
        """Warm up, measure, and summarize.

        Packets *generated* during warm-up never contribute to the meters,
        even if delivered during the measurement window; packets generated
        during measurement but still in flight at the end are simply not
        counted as delivered (standard open-loop methodology).

        With ``checkpoint_every`` and ``checkpoint_path`` set (one
        without the other raises :class:`ConfigurationError`), a full
        :meth:`snapshot` is written (atomically) to ``checkpoint_path``
        every ``checkpoint_every`` cycles; a run restored from such a
        checkpoint (:func:`resume_run`) continues here — ``self.cycle``
        may already be non-zero — and finishes bit-identical to an
        uninterrupted run.
        """
        if warmup_cycles < 0 or measure_cycles < 1:
            raise ConfigurationError("invalid warmup/measure cycle counts")
        _check_checkpoint_pair(checkpoint_every, checkpoint_path)
        total_cycles = warmup_cycles + measure_cycles
        if self.cycle > total_cycles:
            raise ConfigurationError(
                f"simulator already at cycle {self.cycle}, beyond the "
                f"requested {total_cycles}-cycle window"
            )
        target = None if checkpoint_path is None else Path(checkpoint_path)
        exit_at = os.environ.get(CHECKPOINT_EXIT_ENV)
        while self.cycle < total_cycles:
            if self.cycle == warmup_cycles:
                self.begin_measurement()
            self.step()
            if (
                target is not None
                and checkpoint_every is not None
                and self.cycle < total_cycles
                and self.cycle % checkpoint_every == 0
            ):
                self.save_checkpoint(
                    target,
                    warmup_cycles,
                    measure_cycles,
                    checkpoint_every,
                )
                if exit_at is not None and self.cycle == int(exit_at):
                    # Test hook: die like a killed worker, leaving the
                    # just-written checkpoint as the recovery point.
                    os._exit(CHECKPOINT_EXIT_CODE)
        return self.finish(warmup_cycles, measure_cycles)

    def begin_measurement(self) -> None:
        """Open the measurement window at the current cycle.

        Packets generated from here on are metered.  A window that is
        already open (e.g. restored from a checkpoint) keeps its start.
        """
        if self._measure_start_clock is None:
            self._measure_start_clock = self.cycle * CYCLE_CLOCKS

    def finish(
        self, warmup_cycles: int, measure_cycles: int
    ) -> SimulationResult:
        """Summarize the run as a :class:`SimulationResult`."""
        self.meters.cycles = measure_cycles
        return SimulationResult(
            buffer_kind=self.config.buffer_kind,
            protocol=str(self.config.protocol),
            arbiter_kind=self.config.arbiter_kind,
            traffic_kind=self.pattern.kind,
            offered_load=self.config.offered_load,
            slots_per_buffer=self.config.slots_per_buffer,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            seed=self.config.seed,
            meters=self.meters,
        )

    def packed_state(self) -> dict[str, Any]:
        """The backend-comparable state (:meth:`SimKernel.packed_state`).

        Buffers pack their *logical* queues — for the DAMQ, the
        pointer-RAM list order of each destination, not the physical
        slot indices: which free slot a packet landed in is unobservable,
        so backends may manage free space differently (DESIGN §12).
        """
        switches = [
            [
                {
                    "occupancy": switch.occupancy,
                    "received": switch.packets_received,
                    "forwarded": switch.packets_forwarded,
                    **switch.arbiter.snapshot_state(),
                    "lengths": [
                        list(buffer.queue_lengths()) for buffer in switch.buffers
                    ],
                    "queues": [
                        [
                            [
                                [
                                    packet.packet_id,
                                    packet.destination,
                                    packet.created_at,
                                    packet.injected_at,
                                ]
                                for packet in queue
                            ]
                            for queue in buffer.logical_queues()
                        ]
                        for buffer in switch.buffers
                    ],
                }
                for switch in row
            ]
            for row in self.switches
        ]
        sources = [
            {
                "generated": source.generated,
                "stalled": source.stalled_cycles,
                "queue": [
                    [packet.packet_id, packet.destination, packet.created_at]
                    for packet in source.queue
                ],
            }
            for source in self.sources
        ]
        return {
            "cycle": self.cycle,
            "measure_start_clock": self._measure_start_clock,
            "stage_slots": list(self._stage_slots),
            "factory_next": self.factory.snapshot_state(),
            "switches": switches,
            "sources": sources,
            "sinks": [
                {"received": sink.received, "misrouted": sink.misrouted}
                for sink in self.sinks
            ],
            "meters": self.meters.snapshot_state(),
        }

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Bit-exact, JSON-able snapshot of the whole simulation.

        Captures everything the run's future depends on: the config, the
        cycle counter and measurement window state, the packet-id
        counter, every source's injection queue and (flushed — see
        :meth:`~repro.network.sources.Source.snapshot_state`) RNG
        stream, every sink and switch (buffers with their slot RAM and
        pointer registers, arbiter fairness state, counters), the
        meters' exact Welford accumulators, the link-serialization
        registers with their in-flight transfers, and the fault model's
        loss stream.  Taking a snapshot never perturbs the run: a
        simulation continued after ``snapshot()`` is draw-for-draw
        identical to one that never snapshotted.
        """
        pending = {
            str(done): [
                [kind, stage, index, port, packet.to_state()]
                for kind, stage, index, port, packet in bucket
            ]
            for done, bucket in self._pending.items()
        }
        return {
            "version": SNAPSHOT_VERSION,
            "config": self.config.to_state(),
            "cycle": self.cycle,
            "measure_start_clock": self._measure_start_clock,
            "factory": self.factory.snapshot_state(),
            "loss_rng": (
                None if self._loss_rng is None else self._loss_rng.get_state()
            ),
            "sources": [source.snapshot_state() for source in self.sources],
            "sinks": [sink.snapshot_state() for sink in self.sinks],
            "switches": [
                [switch.snapshot_state() for switch in row]
                for row in self.switches
            ],
            "meters": self.meters.snapshot_state(),
            "stage_slots": list(self._stage_slots),
            "link_free_at": [
                [list(row) for row in stage] for stage in self._link_free_at
            ],
            "reader_free_at": [
                [list(row) for row in stage] for stage in self._reader_free_at
            ],
            "source_free_at": list(self._source_free_at),
            "pending": pending,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Overwrite this simulator with a :meth:`snapshot` dict.

        The simulator must have been built from the *same config* the
        snapshot was taken under (checked); restoring mutates component
        lists in place, so the flow-control closures and live-length
        views wired at construction stay valid.
        """
        if state.get("version") != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"snapshot version {state.get('version')!r} is not the "
                f"supported version {SNAPSHOT_VERSION}"
            )
        if state["config"] != self.config.to_state():
            raise ConfigurationError(
                "snapshot was taken under a different NetworkConfig; "
                "restore into a simulator built from the same config"
            )
        self.cycle = state["cycle"]
        self._measure_start_clock = state["measure_start_clock"]
        self.factory.restore_state(state["factory"])
        if self._loss_rng is not None and state["loss_rng"] is not None:
            self._loss_rng.set_state(state["loss_rng"])
        for source, source_state in zip(self.sources, state["sources"]):
            source.restore_state(source_state)
        for sink, sink_state in zip(self.sinks, state["sinks"]):
            sink.restore_state(sink_state)
        for row, row_state in zip(self.switches, state["switches"]):
            for switch, switch_state in zip(row, row_state):
                switch.restore_state(switch_state)
        self.meters.restore_state(state["meters"])
        self._stage_slots[:] = state["stage_slots"]
        # The innermost free-at lists are captured by the flow-control
        # closures built in __init__ — mutate them in place.
        for stage_rows, saved_stage in zip(
            self._link_free_at, state["link_free_at"]
        ):
            for row_list, saved in zip(stage_rows, saved_stage):
                row_list[:] = saved
        for stage_rows, saved_stage in zip(
            self._reader_free_at, state["reader_free_at"]
        ):
            for row_list, saved in zip(stage_rows, saved_stage):
                row_list[:] = saved
        self._source_free_at[:] = state["source_free_at"]
        self._pending = {
            int(done): [
                (kind, stage, index, port, Packet.from_state(packet_state))
                for kind, stage, index, port, packet_state in bucket
            ]
            for done, bucket in state["pending"].items()
        }

    def save_checkpoint(
        self,
        path: str | Path,
        warmup_cycles: int,
        measure_cycles: int,
        checkpoint_every: int,
    ) -> Path:
        """Write a resumable checkpoint file (atomic replace).

        The file records the run window alongside the snapshot, so
        :func:`resume_run` needs nothing but the path.
        """
        document = {
            "format": SNAPSHOT_VERSION,
            "warmup_cycles": warmup_cycles,
            "measure_cycles": measure_cycles,
            "checkpoint_every": checkpoint_every,
            "state": self.snapshot(),
        }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
        scratch.write_text(json.dumps(document))
        os.replace(scratch, target)
        return target

    @property
    def total_buffered(self) -> int:
        """Slots currently occupied inside the network (tests/metrics)."""
        return sum(switch.occupancy for row in self.switches for switch in row)

    @property
    def total_buffered_packets(self) -> int:
        """Packets currently buffered (a multi-slot packet counts once)."""
        return sum(
            len(buffer.packets())
            for row in self.switches
            for switch in row
            for buffer in switch.buffers
        )


def _check_checkpoint_pair(
    checkpoint_every: int | None, checkpoint_path: str | Path | None
) -> None:
    """Refuse a checkpoint cadence without a file, or a file without one."""
    if (checkpoint_every is None) != (checkpoint_path is None):
        raise ConfigurationError(
            "checkpointing needs both checkpoint_every and a checkpoint "
            "path; got only one"
        )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be >= 1")


def make_simulator(
    config: NetworkConfig,
    sanitize: bool | None = None,
    trace: bool | None = None,
) -> OmegaNetworkSimulator:
    """Build a plain or observed (sanitized and/or traced) simulator.

    ``sanitize=None`` (the default) consults the ``REPRO_SANITIZE``
    environment variable, so an unmodified experiment pipeline — including
    the parallel workers of :mod:`repro.perf`, which inherit the
    environment — runs sanitized when the user exports ``REPRO_SANITIZE=1``.
    ``trace=None`` likewise consults ``REPRO_TRACE`` (full event tracing)
    and ``REPRO_METRICS`` (counters only, no event ring); when either
    names a directory, the run exports its telemetry artifacts there.
    Both rails observe without perturbing (no RNG draws, no behaviour
    changes), so results are bit-identical with either, both or neither;
    with everything off, this constructs :class:`OmegaNetworkSimulator`
    directly and carries zero instrumentation overhead.
    """
    from repro.instrument import (
        ObservedOmegaNetworkSimulator,
        Observer,
        env_instrumentation,
    )

    env = env_instrumentation()
    if sanitize is None:
        sanitize = env.sanitize
    if trace is None:
        trace_dir, metrics_dir = env.trace_dir, env.metrics_dir
    else:
        trace_dir, metrics_dir = ("" if trace else None), None
    if not sanitize and trace_dir is None and metrics_dir is None:
        return OmegaNetworkSimulator(config)
    observers: list[Observer] = []
    if sanitize:
        from repro.analysis.sanitizer import HardwareSanitizer

        observers.append(HardwareSanitizer())
    if trace_dir is not None or metrics_dir is not None:
        from repro.telemetry.session import TraceSession

        if trace_dir is not None:
            session = TraceSession(export_dir=trace_dir or None)
        else:
            session = TraceSession(capacity=0, export_dir=metrics_dir or None)
        observers.append(session)
    return ObservedOmegaNetworkSimulator(config, observers)


def simulate(
    config: NetworkConfig,
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
    sanitize: bool | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path: str | Path | None = None,
    backend: str | None = None,
) -> SimulationResult:
    """Build a simulator for ``config`` and run it once.

    ``sanitize`` as in :func:`make_simulator`; sanitized runs produce
    bit-identical results and additionally surface hardware-model
    violations through the simulator's sanitizer report.
    ``checkpoint_every``/``checkpoint_path`` as in
    :meth:`OmegaNetworkSimulator.run`.

    ``backend`` forces a simulation backend (``"reference"`` or
    ``"numpy"``); ``None`` prefers the numpy default, softly.  Both
    backends produce byte-identical results; instrumented paths
    (sanitizer, telemetry, checkpointing) are implemented only by the
    reference simulator, so a forced numpy request combined with one of
    them raises :class:`~repro.errors.ConfigurationError` while the soft
    default falls back — the resolution rules of
    :func:`repro.kernel.base.choose_backend`.
    """
    from repro.instrument import env_instrumentation
    from repro.kernel.base import choose_backend

    _check_checkpoint_pair(checkpoint_every, checkpoint_path)
    env = env_instrumentation()
    resolved, _fallback = choose_backend(
        config,
        backend,
        sanitize=env.sanitize if sanitize is None else sanitize,
        trace=env.tracing,
        checkpoint=checkpoint_every is not None,
    )
    if resolved == "numpy":
        from repro.kernel.numpy_kernel import NumpyKernel

        return NumpyKernel(config).run(warmup_cycles, measure_cycles)
    return make_simulator(config, sanitize).run(
        warmup_cycles,
        measure_cycles,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint document written by ``run``."""
    document: dict[str, Any] = json.loads(Path(path).read_text())
    if document.get("format") != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path} has format {document.get('format')!r}, "
            f"expected {SNAPSHOT_VERSION}"
        )
    return document


def restore_simulator(
    state: dict[str, Any], sanitize: bool | None = None
) -> OmegaNetworkSimulator:
    """Rebuild a simulator from a :meth:`OmegaNetworkSimulator.snapshot`.

    A fresh simulator is constructed from the snapshot's own config and
    the snapshot restored into it, so the result is valid under either
    the plain or an observed class — snapshots themselves are
    sanitizer-agnostic (the sanitizer holds no simulation state).
    """
    config = NetworkConfig.from_state(state["config"])
    simulator = make_simulator(config, sanitize)
    simulator.restore(state)
    return simulator


def resume_run(
    path: str | Path, sanitize: bool | None = None
) -> SimulationResult:
    """Resume an interrupted run from its last checkpoint file.

    The finished result is bit-identical to the uninterrupted run:
    the checkpoint captures every RNG stream, register and accumulator,
    and the resumed ``run`` keeps checkpointing on the original cadence.
    """
    document = load_checkpoint(path)
    simulator = restore_simulator(document["state"], sanitize)
    return simulator.run(
        document["warmup_cycles"],
        document["measure_cycles"],
        checkpoint_every=document["checkpoint_every"],
        checkpoint_path=path,
    )
