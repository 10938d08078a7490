"""Fault campaigns: sweep fault rates, measure delivery and degradation.

Two campaign styles, matching the repo's two simulation substrates:

* :func:`run_chip_campaign` exercises the cycle-accurate ComCoBB model — a
  2D mesh of chips with seeded bit flips on every wire, hard-failed buffer
  slots retired on every port, the link checksum detecting corruption, and
  the end-to-end transport (:mod:`repro.faults.transport`) recovering it.
  The headline number is the end-to-end delivery rate, which retransmission
  keeps near 1.0 at fault rates that destroy a large fraction of raw
  packets.

* :func:`run_buffer_sweep` exercises the Omega-network simulator — the
  paper's four buffer architectures operating at reduced capacity (retired
  slots) under packet loss, reporting the delivered throughput each
  architecture sustains while degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.chip.comcobb import NUM_PORTS
from repro.chip.degrade import ChipFaultPolicy
from repro.chip.topologies import build_mesh, open_shortest_circuit
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector, StuckAtFault
from repro.faults.transport import MAX_FRAME_PAYLOAD, ReliableMessenger
from repro.network.metrics import SimulationResult
from repro.network.simulator import NetworkConfig
from repro.perf.parallel import parallel_simulate
from repro.switch.flow_control import Protocol

__all__ = [
    "BufferSweepCell",
    "ChipCampaignResult",
    "EXTENDED_BUFFER_KINDS",
    "run_buffer_sweep",
    "run_chip_campaign",
]

#: Buffer architectures compared by the paper, in its own order.
BUFFER_KINDS = ("FIFO", "SAMQ", "SAFC", "DAMQ")

#: The paper's four plus the ``repro.arch`` zoo, so degraded-capacity
#: campaigns exercise ``retire_slot`` on the reserved-slot DAMQ (which
#: must keep at least one shared slot free) and the crosspoint-queued
#: buffer (which retires from its fullest crosspoint, like SAMQ's
#: partitions).
EXTENDED_BUFFER_KINDS = (*BUFFER_KINDS, "DAMQ-RSV", "CQ")


@dataclass
class ChipCampaignResult:
    """Outcome of one chip-network fault campaign."""

    nodes: int
    bit_flip_rate: float
    retired_slots_per_buffer: int
    messages_sent: int
    messages_delivered: int
    failed_messages: int
    retransmissions: int
    duplicates_dropped: int
    undecodable_frames: int
    misrouted_frames: int
    bytes_seen: int
    flips_injected: int
    cycles: int
    fault_counters: dict[str, int] = field(default_factory=dict)

    @property
    def delivery_rate(self) -> float:
        """Fraction of sent messages delivered end-to-end."""
        if self.messages_sent == 0:
            return math.nan
        return self.messages_delivered / self.messages_sent

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.nodes} nodes, flip rate {self.bit_flip_rate:g}, "
            f"{self.retired_slots_per_buffer} retired slot(s)/buffer: "
            f"{self.messages_delivered}/{self.messages_sent} delivered "
            f"({100 * self.delivery_rate:.2f}%), "
            f"{self.retransmissions} retransmissions, "
            f"{self.flips_injected} flips injected, "
            f"{self.cycles} cycles"
        )


def _mesh_shape(nodes: int) -> tuple[int, int]:
    """The most nearly square rows × columns factoring of ``nodes``."""
    for rows in range(int(math.isqrt(nodes)), 0, -1):
        if nodes % rows == 0:
            return rows, nodes // rows
    raise ConfigurationError(f"cannot mesh {nodes} nodes")  # pragma: no cover


def run_chip_campaign(
    nodes: int = 16,
    bit_flip_rate: float = 1e-3,
    retired_slots_per_buffer: int = 1,
    messages_per_flow: int = 4,
    payload_bytes: int = 12,
    peer_offsets: tuple[int, ...] = (1, 4),
    stuck_faults: tuple[StuckAtFault, ...] = (),
    seed: int = 1988,
    send_interval: int = 120,
    max_cycles: int = 200_000,
    base_timeout: int = 500,
    max_attempts: int = 16,
) -> ChipCampaignResult:
    """Fault-inject a mesh of ComCoBB chips and measure e2e delivery.

    Every node sends ``messages_per_flow`` messages to each peer at the
    given index offsets (modulo the node count), staggered ``send_interval``
    cycles apart so injection queues stay short.  The run ends when every
    message is either acknowledged or has exhausted its retransmission
    budget and the network has drained, or at ``max_cycles``.

    The default offsets (1, 4) give mostly nearest-neighbour flows on a
    square mesh (plus a few multi-hop wrap-around routes).  With no
    link-level retransmission, a packet dies to a single bit flip on any
    of its hops, so per-attempt loss grows exponentially with route
    length — at a 1e-3 flip rate a corner-to-corner route already loses
    ~3 of 4 attempts, and recovery is entirely the transport's
    ``max_attempts`` budget.  Campaigns over long routes should raise it.
    """
    if payload_bytes > MAX_FRAME_PAYLOAD:
        raise ConfigurationError(
            f"payload_bytes must be <= {MAX_FRAME_PAYLOAD} "
            f"(single-packet frames)"
        )
    rows, columns = _mesh_shape(nodes)
    policy = ChipFaultPolicy(checksum=True, degrade=True)
    network, names = build_mesh(rows, columns, faults=policy)

    # Graceful degradation under hard faults: take slots out of service in
    # every buffer of every chip before traffic starts.
    for name in names:
        chip = network.nodes[name].chip
        for port in range(NUM_PORTS):
            for _ in range(retired_slots_per_buffer):
                chip.retire_slot(port)

    injector = FaultInjector(
        seed, bit_flip_rate=bit_flip_rate, stuck_faults=stuck_faults
    )
    injector.attach(network.links())

    messengers = [
        ReliableMessenger(
            network,
            name,
            address,
            base_timeout=base_timeout,
            max_attempts=max_attempts,
        )
        for address, name in enumerate(names)
    ]

    # Circuits for every data flow plus the reverse flow carrying its ACKs.
    def ensure_circuit(src: int, dst: int) -> None:
        if dst not in messengers[src]._circuits:
            circuit = open_shortest_circuit(network, names[src], names[dst])
            messengers[src].connect(dst, circuit)

    flows: list[tuple[int, int]] = []
    for src in range(nodes):
        for offset in peer_offsets:
            dst = (src + offset) % nodes
            if dst == src:
                continue
            ensure_circuit(src, dst)
            ensure_circuit(dst, src)
            flows.append((src, dst))

    # Deterministic payloads, distinct per message.
    sends: list[tuple[int, int, bytes]] = []
    for src, dst in flows:
        for index in range(messages_per_flow):
            payload = bytes(
                (src * 31 + dst * 7 + index * 13 + offset) % 256
                for offset in range(payload_bytes)
            )
            sends.append((src, dst, payload))

    next_send = 0
    while True:
        cycle = network.cycle
        if next_send < len(sends) and cycle >= next_send * send_interval:
            src, dst, payload = sends[next_send]
            messengers[src].send(dst, payload)
            next_send += 1
        network.tick()
        for messenger in messengers:
            messenger.tick(network.cycle)
        done = (
            next_send >= len(sends)
            and all(m.inflight == 0 for m in messengers)
            and not network.busy
        )
        if done or network.cycle >= max_cycles:
            break

    network.check_invariants()
    injector.detach()

    return ChipCampaignResult(
        nodes=nodes,
        bit_flip_rate=bit_flip_rate,
        retired_slots_per_buffer=retired_slots_per_buffer,
        messages_sent=sum(m.stats.messages_sent for m in messengers),
        messages_delivered=sum(
            m.stats.messages_delivered for m in messengers
        ),
        failed_messages=sum(len(m.failed) for m in messengers),
        retransmissions=sum(m.retransmissions for m in messengers),
        duplicates_dropped=sum(
            m.stats.duplicates_dropped for m in messengers
        ),
        undecodable_frames=sum(
            m.stats.undecodable_frames for m in messengers
        ),
        misrouted_frames=sum(m.stats.misrouted_frames for m in messengers),
        bytes_seen=injector.bytes_seen,
        flips_injected=injector.flips_injected,
        cycles=network.cycle,
        fault_counters=policy.counters.as_dict(),
    )


@dataclass
class BufferSweepCell:
    """One (buffer architecture, loss rate) cell of the degradation sweep."""

    buffer_kind: str
    packet_loss_rate: float
    retired_slots_per_buffer: int
    result: SimulationResult

    @property
    def delivered_throughput(self) -> float:
        """Delivered packets per cycle per port while degraded."""
        return self.result.delivered_throughput

    @property
    def loss_fraction(self) -> float:
        """Fraction of generated packets destroyed by injected faults."""
        return self.result.meters.loss_fraction


def run_buffer_sweep(
    buffer_kinds: tuple[str, ...] = BUFFER_KINDS,
    loss_rates: tuple[float, ...] = (0.0, 1e-3, 1e-2),
    retired_slots_per_buffer: int = 1,
    num_ports: int = 16,
    radix: int = 4,
    slots_per_buffer: int = 8,
    offered_load: float = 0.5,
    seed: int = 1988,
    warmup_cycles: int = 200,
    measure_cycles: int = 1000,
) -> list[BufferSweepCell]:
    """Degraded-capacity throughput of the selected buffer architectures.

    Every input buffer loses ``retired_slots_per_buffer`` slots to hard
    faults (for the statically partitioned SAMQ/SAFC — and the
    crosspoint-queued CQ — this thins their largest partition; the
    reserved-slot DAMQ surrenders shared-pool slots so its reservations
    stay intact), and each link crossing loses the packet with
    probability ``packet_loss_rate``.  ``slots_per_buffer`` defaults to
    eight so a 4×4 switch's static partitions keep at least one slot
    after a retirement.  The crosspoint-queued buffer runs under its own
    per-output LQF scheduler; everything else uses the paper's smart
    arbiter.
    """
    if slots_per_buffer - retired_slots_per_buffer < 1:
        raise ConfigurationError("retirement would leave buffers empty")
    base = NetworkConfig(
        num_ports=num_ports,
        radix=radix,
        slots_per_buffer=slots_per_buffer,
        protocol=Protocol.DISCARDING,
        offered_load=offered_load,
        seed=seed,
        retired_slots_per_buffer=retired_slots_per_buffer,
    )
    grid = [(kind, rate) for kind in buffer_kinds for rate in loss_rates]
    results = parallel_simulate(
        [
            base.with_overrides(
                buffer_kind=kind,
                arbiter_kind="lqf" if kind == "CQ" else "smart",
                packet_loss_rate=rate,
            )
            for kind, rate in grid
        ],
        warmup_cycles,
        measure_cycles,
    )
    return [
        BufferSweepCell(
            buffer_kind=kind,
            packet_loss_rate=rate,
            retired_slots_per_buffer=retired_slots_per_buffer,
            result=result,
        )
        for (kind, rate), result in zip(grid, results)
    ]
