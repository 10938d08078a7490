"""The reference backend: the pure-Python simulator behind ``SimKernel``.

Wraps :class:`~repro.network.simulator.OmegaNetworkSimulator` verbatim —
no behavioural changes, the object simulator stays the semantics oracle
— and adds the packed-state view the differential harness compares
between backends.

The packed state reads each buffer's *logical* queue contents (packets
in FIFO order per destination queue).  For the DAMQ that is the
pointer-RAM list order of each destination, not the physical slot
indices: which free slot a packet landed in is an implementation detail
no experiment can observe, so backends are free to manage free space
differently (DESIGN §12).
"""

from __future__ import annotations

from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.packet import Packet
from repro.errors import InvariantError
from repro.kernel.base import SimKernel
from repro.network.metrics import SimulationResult
from repro.network.simulator import NetworkConfig, OmegaNetworkSimulator

__all__ = ["ReferenceKernel", "packed_buffer_queues"]


def _entry(packet: Packet) -> list[Any]:
    return [
        packet.packet_id,
        packet.destination,
        packet.created_at,
        packet.injected_at,
    ]


def packed_buffer_queues(buffer: SwitchBuffer) -> list[list[list[Any]]]:
    """The logical queue contents of one buffer, packed for comparison.

    Returns one list per destination queue (a single list for the FIFO,
    whose one physical queue serves every destination), each entry
    ``[packet_id, destination, created_at, injected_at]`` in FIFO
    order.
    """
    kind = buffer.kind
    if kind == "FIFO":
        # One shared queue; the stored per-entry destination is the
        # packet's local output, derivable from its route, so only the
        # packets themselves are packed.
        queue = buffer._queue  # noqa: SLF001 - packed-state accessor
        return [[_entry(packet) for packet, _destination in queue]]
    if kind in ("SAMQ", "SAFC"):
        queues = buffer._queues  # noqa: SLF001 - packed-state accessor
        return [[_entry(packet) for packet in queue] for queue in queues]
    if kind == "DAMQ":
        lists = buffer._lists  # noqa: SLF001 - packed-state accessor
        slot_packet = buffer._slot_packet  # noqa: SLF001
        packed: list[list[list[Any]]] = []
        for output in range(buffer.num_outputs):
            row: list[list[Any]] = []
            previous: int | None = None
            for slot in lists.slots(output):
                packet = slot_packet[slot]
                if packet is None:
                    raise InvariantError(
                        f"allocated DAMQ slot {slot} holds no packet"
                    )
                if packet.packet_id != previous:
                    row.append(_entry(packet))
                    previous = packet.packet_id
            packed.append(row)
        return packed
    raise InvariantError(f"unknown buffer kind {kind!r}")


class ReferenceKernel(SimKernel):
    """The existing object-per-packet simulator, unchanged."""

    name = "reference"

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.simulator = OmegaNetworkSimulator(config)

    @property
    def cycle(self) -> int:
        return self.simulator.cycle

    def prepare(self, total_cycles: int) -> None:
        pass

    def begin_measurement(self) -> None:
        self.simulator.begin_measurement()

    def step(self) -> None:
        self.simulator.step()

    def packed_state(self) -> dict[str, Any]:
        sim = self.simulator
        switches = [
            [
                {
                    "occupancy": switch.occupancy,
                    "received": switch.packets_received,
                    "forwarded": switch.packets_forwarded,
                    "priority": switch.arbiter._priority,  # noqa: SLF001
                    "stale": [
                        list(row)
                        for row in switch.arbiter._stale  # noqa: SLF001
                    ],
                    "lengths": [
                        list(buffer.queue_lengths())
                        for buffer in switch.buffers
                    ],
                    "queues": [
                        packed_buffer_queues(buffer)
                        for buffer in switch.buffers
                    ],
                }
                for switch in row
            ]
            for row in sim.switches
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
            for source in sim.sources
        ]
        sinks = [
            {"received": sink.received, "misrouted": sink.misrouted}
            for sink in sim.sinks
        ]
        return {
            "cycle": sim.cycle,
            "measure_start_clock": sim._measure_start_clock,  # noqa: SLF001
            "stage_slots": list(sim._stage_slots),  # noqa: SLF001
            "factory_next": sim.factory.snapshot_state(),
            "switches": switches,
            "sources": sources,
            "sinks": sinks,
            "meters": sim.meters.snapshot_state(),
        }

    def finish(
        self, warmup_cycles: int, measure_cycles: int
    ) -> SimulationResult:
        return self.simulator.result(warmup_cycles, measure_cycles)
