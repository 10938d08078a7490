"""Figure 1 — the four switch organizations, structurally.

Figure 1 of the paper is a block diagram; its reproducible content is the
*structure* of each organization: how many queues each input port exposes,
how the storage is partitioned, and what connection fabric the buffers
need.  This experiment instantiates each architecture in a 4×4 switch and
derives those facts from the live objects, plus an ASCII rendition of the
block diagrams.
"""

from __future__ import annotations

from repro.core import PAPER_ORDER, make_buffer
from repro.experiments.report import ExperimentResult
from repro.utils.tables import TextTable

__all__ = ["run", "structural_facts"]

_DIAGRAMS = {
    "FIFO": """\
in0 ->[========]--+
in1 ->[========]--+--[ 4x4 crossbar ]--> out0..3
in2 ->[========]--+
in3 ->[========]--+       (one FIFO queue per input)""",
    "SAFC": """\
in0 ->[==|==|==|==]--4 lines--+
in1 ->[==|==|==|==]--4 lines--+--[ four 4x1 switches ]--> out0..3
in2 ->[==|==|==|==]--4 lines--+
in3 ->[==|==|==|==]--4 lines--+  (static queues, fully connected)""",
    "SAMQ": """\
in0 ->[==|==|==|==]--+
in1 ->[==|==|==|==]--+--[ 4x4 crossbar ]--> out0..3
in2 ->[==|==|==|==]--+
in3 ->[==|==|==|==]--+     (static queues, single read port)""",
    "DAMQ": """\
in0 ->[linked lists]--+
in1 ->[linked lists]--+--[ 4x4 crossbar ]--> out0..3
in2 ->[linked lists]--+
in3 ->[linked lists]--+  (dynamic queues share all slots)""",
}


def structural_facts(kind: str, capacity: int = 4, ports: int = 4) -> dict:
    """Structural properties of one architecture, from a live instance.

    Partitioning is determined empirically: fill one destination's queue
    until it rejects, then check whether another destination would still
    be accepted (true only for the statically partitioned designs).
    """
    from repro.core import PacketFactory

    buffer = make_buffer(kind, capacity, ports)
    factory = PacketFactory()
    destination = 0
    while buffer.can_accept(destination):
        buffer.push(factory.create(0, destination), destination)
    accepts_other = buffer.can_accept((destination + 1) % ports)
    return {
        "kind": buffer.kind,
        "queues_per_input": ports if buffer.kind != "FIFO" else 1,
        "reads_per_cycle": buffer.max_reads_per_cycle,
        "statically_partitioned": accepts_other,
        "slots_usable_by_one_destination": buffer.occupancy,
        "fabric": (
            f"{ports} {ports}x1 switches"
            if buffer.max_reads_per_cycle > 1
            else f"{ports}x{ports} crossbar"
        ),
    }


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate Figure 1 as diagrams plus a structural comparison."""
    result = ExperimentResult(
        experiment_id="figure1",
        title="The four buffer organizations",
        paper_reference="Figure 1, Section 2",
    )
    table = TextTable(
        "Structural comparison (4x4 switch, 4 slots per input)",
        [
            "Buffer",
            "Queues/input",
            "Reads/cycle",
            "Fabric",
            "Slots one destination can use",
        ],
    )
    facts = {}
    for kind in PAPER_ORDER:
        info = structural_facts(kind)
        facts[kind] = info
        table.add_row(
            [
                info["kind"],
                info["queues_per_input"],
                info["reads_per_cycle"],
                info["fabric"],
                info["slots_usable_by_one_destination"],
            ]
        )
    result.tables.append(table)
    result.data["facts"] = facts
    for kind in PAPER_ORDER:
        result.notes.append(f"{kind}:\n{_DIAGRAMS[kind]}")
    return result
