"""Extension — fault tolerance and graceful degradation.

The paper designs for performance on the assumption of reliable links and
storage; this extension asks what each layer of the reproduction does when
that assumption fails.  Two campaigns (see :mod:`repro.faults.campaign`):

1. **End-to-end recovery on the chip network** — a 16-node mesh of
   ComCoBB chips with seeded bit flips on every wire and one hard-failed
   slot retired from every buffer.  The link checksum detects corruption,
   degrade-mode receive FSMs contain it, and host-level
   ack/timeout/retransmission recovers it.  The headline: delivery stays
   at ~100% while a substantial fraction of raw packets is destroyed.

2. **Degraded-capacity throughput on the Omega network** — the paper's
   four buffer architectures plus the ``repro.arch`` zoo (reserved-slot
   DAMQ, crosspoint-queued) running with a retired slot per buffer
   under increasing packet loss.  The DAMQ's dynamic allocation absorbs
   the lost capacity wherever demand is; the static partitions of
   SAMQ/SAFC (and CQ's crosspoints) lose a whole partition slot, and
   the reserved-slot DAMQ gives up shared-pool capacity while keeping
   every reservation intact.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.faults.campaign import (
    EXTENDED_BUFFER_KINDS,
    ChipCampaignResult,
    run_buffer_sweep,
    run_chip_campaign,
)
from repro.perf.parallel import parallel_map
from repro.utils.tables import TextTable, format_value

__all__ = ["run"]

#: Link-loss probabilities swept in the buffer degradation campaign.
LOSS_RATES = (0.0, 1e-3, 1e-2)


def _campaign_task(
    task: tuple[int, float, int, int, int]
) -> ChipCampaignResult:
    """Cacheable unit of work: one closed-loop chip fault campaign."""
    nodes, bit_flip_rate, retired, messages_per_flow, seed = task
    return run_chip_campaign(
        nodes=nodes,
        bit_flip_rate=bit_flip_rate,
        retired_slots_per_buffer=retired,
        messages_per_flow=messages_per_flow,
        seed=seed,
    )


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Run both fault campaigns and tabulate the results.

    The chip campaign is one closed-loop run (inherently serial); the
    buffer degradation sweep is an independent grid.
    """
    result = ExperimentResult(
        experiment_id="ext-faults",
        title="Extension: fault injection, graceful degradation, recovery",
        paper_reference="Robustness extension (no counterpart in the paper)",
    )

    # One closed-loop run (inherently serial), routed through the mapper
    # purely for its memoization: under --cache a warm re-run serves the
    # campaign's counters from the store instead of re-simulating.
    tasks = [(16, 1e-3, 1, 1 if quick else 2, seed)]
    campaign = parallel_map(
        _campaign_task, tasks, codec="chip-campaign", payloads=tasks
    )[0]
    chip_table = TextTable(
        "End-to-end recovery, 16-node mesh, bit flip rate 1e-3, "
        "1 retired slot per buffer",
        ["Metric", "Value"],
    )
    chip_table.add_row(["messages sent", str(campaign.messages_sent)])
    chip_table.add_row(
        ["messages delivered", str(campaign.messages_delivered)]
    )
    chip_table.add_row(
        ["delivery rate", format_value(campaign.delivery_rate, 4)]
    )
    chip_table.add_row(["retransmissions", str(campaign.retransmissions)])
    chip_table.add_row(["bit flips injected", str(campaign.flips_injected)])
    chip_table.add_row(
        [
            "faults detected",
            str(sum(campaign.fault_counters.values())),
        ]
    )
    chip_table.add_row(["cycles", str(campaign.cycles)])
    result.tables.append(chip_table)
    result.data["chip_campaign"] = {
        "delivery_rate": campaign.delivery_rate,
        "messages_sent": campaign.messages_sent,
        "messages_delivered": campaign.messages_delivered,
        "retransmissions": campaign.retransmissions,
        "flips_injected": campaign.flips_injected,
        "fault_counters": campaign.fault_counters,
    }
    result.notes.append(campaign.describe())

    cells = run_buffer_sweep(
        buffer_kinds=EXTENDED_BUFFER_KINDS,
        loss_rates=LOSS_RATES,
        retired_slots_per_buffer=1,
        seed=seed,
        warmup_cycles=100 if quick else 200,
        measure_cycles=400 if quick else 1000,
    )
    sweep_table = TextTable(
        "Delivered throughput at reduced capacity "
        "(16 ports, 8-slot buffers, 1 slot retired per buffer)",
        ["Buffer"] + [f"loss {rate:g}" for rate in LOSS_RATES],
    )
    by_kind: dict[str, list] = {}
    for cell in cells:
        by_kind.setdefault(cell.buffer_kind, []).append(cell)
    data: dict[tuple[str, float], float] = {}
    for kind, kind_cells in by_kind.items():
        row = [kind]
        for cell in kind_cells:
            data[(kind, cell.packet_loss_rate)] = cell.delivered_throughput
            row.append(format_value(cell.delivered_throughput, 3))
        sweep_table.add_row(row)
    result.tables.append(sweep_table)
    result.data["buffer_sweep"] = data

    best = max(by_kind, key=lambda kind: data[(kind, LOSS_RATES[-1])])
    result.notes.append(
        f"at loss rate {LOSS_RATES[-1]:g} the best degraded architecture "
        f"is {best} ({data[(best, LOSS_RATES[-1])]:.3f} delivered)"
    )
    return result
