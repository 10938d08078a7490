"""Cycle-accurate model of the ComCoBB DAMQ micro-architecture (Sec. 3)."""

from repro.chip.arbiter import ChipArbiter
from repro.chip.area import (
    SlotSizeEstimate,
    estimate_slot_size,
    slot_size_sweep,
    uniform_length_distribution,
)
from repro.chip.comcobb import (
    DEFAULT_SLOTS,
    NUM_PORTS,
    PROCESSOR_PORT,
    ComCoBBChip,
)
from repro.chip.degrade import ChipFaultPolicy, FaultCounters
from repro.chip.host import (
    HostAdapter,
    LENGTH_PREFIX_BYTES,
    ReceivedMessage,
    packetize,
)
from repro.chip.input_port import DEFAULT_STOP_THRESHOLD, InputPort
from repro.chip.network import ChipNetwork, Circuit, Node
from repro.chip.output_port import OutputPort
from repro.chip.router import CircuitRouter, RouteEntry
from repro.chip.slots import SLOT_BYTES, DamqBufferHw, HwPacket
from repro.chip.synchronizer import Synchronizer
from repro.chip.topologies import (
    TopologyBuilder,
    build_mesh,
    build_ring,
    open_shortest_circuit,
    shortest_path,
)
from repro.chip.trace import TraceEvent, TraceRecorder
from repro.chip.wires import START, Link, Wire, xor_checksum

__all__ = [
    "ChipArbiter",
    "ChipFaultPolicy",
    "ChipNetwork",
    "Circuit",
    "CircuitRouter",
    "ComCoBBChip",
    "FaultCounters",
    "DEFAULT_SLOTS",
    "DEFAULT_STOP_THRESHOLD",
    "DamqBufferHw",
    "HostAdapter",
    "HwPacket",
    "InputPort",
    "LENGTH_PREFIX_BYTES",
    "Link",
    "NUM_PORTS",
    "Node",
    "OutputPort",
    "PROCESSOR_PORT",
    "ReceivedMessage",
    "RouteEntry",
    "SLOT_BYTES",
    "START",
    "SlotSizeEstimate",
    "Synchronizer",
    "TopologyBuilder",
    "build_mesh",
    "build_ring",
    "estimate_slot_size",
    "open_shortest_circuit",
    "shortest_path",
    "slot_size_sweep",
    "uniform_length_distribution",
    "TraceEvent",
    "TraceRecorder",
    "Wire",
    "packetize",
    "xor_checksum",
]
