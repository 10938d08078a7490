"""Extension — the slot-size tradeoff of Section 3.2.3, quantified.

The paper discusses why eight-byte slots were chosen: smaller slots
multiply the per-slot registers and the pointer work, larger slots strand
storage to internal fragmentation.  This experiment produces the tradeoff
table from the analytic model in :mod:`repro.chip.area` and then verifies
its fragmentation column against the byte-level chip simulation (counting
actually-stranded bytes while packets of mixed sizes stream through).
"""

from __future__ import annotations

from repro.chip import ChipNetwork
from repro.chip.area import slot_size_sweep
from repro.experiments.report import ExperimentResult
from repro.perf import parallel_map
from repro.utils.rng import RandomStream
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "measured_fragmentation"]

#: Candidate slot sizes, as weighed in Section 3.2.3.
SLOT_SIZES = (4, 8, 16, 32)

#: Data-RAM budget per input port (the ComCoBB's 96 static cells).
BUDGET_BYTES = 96


def measured_fragmentation(
    slot_bytes: int, messages: int = 40, seed: int = 5
) -> float:
    """Fraction of occupied slot bytes stranded, measured on the chip model.

    Streams messages of random sizes through one link and samples, at
    every cycle, how many bytes of the receiving buffer's *occupied* slots
    hold no data.
    """
    num_slots = BUDGET_BYTES // slot_bytes
    network = ChipNetwork(num_slots=num_slots, slot_bytes=slot_bytes)
    network.add_node("tx")
    network.add_node("rx")
    network.connect("tx", 0, "rx", 0)
    circuit = network.open_circuit(["tx", "rx"])
    rng = RandomStream(seed, "slotsize")
    for _ in range(messages):
        network.send(circuit, bytes(rng.randint(0, 256) for _ in range(rng.randint(1, 100))))
    occupied_samples = 0
    wasted_samples = 0
    buffer = network.nodes["rx"].chip.buffers[0]
    while network.busy:
        network.tick()
        for queue in buffer.queues:
            for packet in queue:
                if not packet.length_known or not packet.fully_written:
                    continue
                slots_held = len(packet.slots) - packet.slots_released
                if slots_held <= 0:
                    continue
                occupied_samples += slots_held * slot_bytes
                wasted_samples += (
                    len(packet.slots) * slot_bytes - packet.length
                )
    if occupied_samples == 0:
        return 0.0
    return wasted_samples / occupied_samples


def _fragmentation_task(task: tuple) -> float:
    """Pool worker: measured fragmentation at one slot size."""
    slot_bytes, seed = task
    return measured_fragmentation(slot_bytes, seed=seed)


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate the slot-size tradeoff discussion as a table."""
    result = ExperimentResult(
        experiment_id="ext-slotsize",
        title="Extension: the slot-size tradeoff (96-byte budget per port)",
        paper_reference="Section 3.2.3 (Buffer Implementation)",
    )
    table = TextTable(
        "Analytic tradeoff, uniform packet lengths 1-32 bytes",
        [
            "Slot bytes",
            "Slots",
            "Register bits/byte",
            "Fragmentation",
            "Ptr ops/packet",
            "Packets capacity",
        ],
    )
    estimates = slot_size_sweep(SLOT_SIZES, BUDGET_BYTES)
    for estimate in estimates:
        table.add_row(
            [
                estimate.slot_bytes,
                estimate.num_slots,
                format_value(estimate.register_bits_per_byte, 2),
                format_value(estimate.expected_fragmentation, 3),
                format_value(estimate.pointer_ops_per_packet, 2),
                format_value(estimate.expected_packets_capacity, 1),
            ]
        )
    result.tables.append(table)
    result.data["estimates"] = {e.slot_bytes: e for e in estimates}
    sizes_to_measure = (8,) if quick else (4, 8, 16)
    measured = TextTable(
        "Fragmentation measured on the byte-level chip model",
        ["Slot bytes", "measured stranded fraction"],
    )
    result.data["measured"] = {}
    tasks = [(slot_bytes, seed) for slot_bytes in sizes_to_measure]
    fractions = parallel_map(
        _fragmentation_task, tasks, codec="json", payloads=tasks
    )
    for slot_bytes, fraction in zip(sizes_to_measure, fractions):
        result.data["measured"][slot_bytes] = fraction
        measured.add_row([slot_bytes, format_value(fraction, 3)])
    result.tables.append(measured)
    result.notes.append(
        "Eight bytes sits at the knee: a quarter of the register overhead "
        "of 4-byte slots for half the fragmentation of 16-byte slots — "
        "the balance the designers describe choosing."
    )
    return result
