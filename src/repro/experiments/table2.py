"""Table 2 — probability of discarding, Markov analysis of 2×2 switches.

Exact steady-state analysis of the four buffer architectures in a 2×2
discarding switch under the long-clock assumption, across the paper's
traffic grid (25% … 99% of link capacity) and buffer sizes (2-6 slots;
even sizes only for the statically partitioned buffers).
"""

from __future__ import annotations

from repro.markov import (
    PAPER_BUFFER_SIZES,
    PAPER_TRAFFIC_GRID,
    discard_table,
)
from repro.experiments.report import ExperimentResult
from repro.utils.tables import TextTable, format_value

__all__ = ["run"]

#: Row order of the paper's table.
_KIND_ORDER = ("FIFO", "DAMQ", "SAMQ", "SAFC")

#: Sizes used for the quick (benchmark) variant: skip the largest FIFO
#: state spaces, keep every architecture represented.
_QUICK_SIZES = {
    "FIFO": (2, 3),
    "DAMQ": (2, 4),
    "SAMQ": (2, 4),
    "SAFC": (2, 4),
}


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate Table 2 (all four architecture blocks)."""
    result = ExperimentResult(
        experiment_id="table2",
        title="Probability for discarding — Markov analysis (2x2 switch)",
        paper_reference="Table 2, Section 4.1",
    )
    columns = ["Switch", "Slots/port"] + [
        f"{rate:.0%}" for rate in PAPER_TRAFFIC_GRID
    ]
    table = TextTable("Discard probability per arriving packet", columns)
    data: dict[tuple[str, int], tuple[float, ...]] = {}
    for kind in _KIND_ORDER:
        sizes = _QUICK_SIZES[kind] if quick else PAPER_BUFFER_SIZES[kind]
        block = discard_table(kind, sizes=sizes)
        for slots, probabilities in sorted(block.rows.items()):
            data[(kind, slots)] = probabilities
            table.add_row(
                [kind, slots]
                + [
                    format_value(prob, decimals=3, zero_plus=True)
                    for prob in probabilities
                ]
            )
    result.tables.append(table)
    result.data["discard"] = data
    result.notes.append(
        "Modeling choices where the paper is silent: transmissions precede "
        "arrivals within a long-clock cycle, and arbitration ties are "
        "split uniformly (see repro.markov.models)."
    )
    return result
