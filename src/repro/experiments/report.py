"""Common result containers and formatting for the experiment harness.

Every experiment module (``table1`` … ``table6``, ``figure1``, ``figure3``)
exposes ``run(quick=False, seed=...) -> ExperimentResult``.  ``quick`` runs
a shortened version suitable for the benchmark harness; the full version
is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.tables import TextTable

__all__ = [
    "ExperimentResult",
    "FULL_WARMUP",
    "FULL_MEASURE",
    "QUICK_WARMUP",
    "QUICK_MEASURE",
    "sim_cycles",
]

#: Simulation windows (network cycles) for full experiment runs.
FULL_WARMUP = 1500
FULL_MEASURE = 6000

#: Shortened windows for the quick/benchmark runs.
QUICK_WARMUP = 200
QUICK_MEASURE = 900


def sim_cycles(quick: bool) -> tuple[int, int]:
    """(warmup, measure) cycle counts for the requested fidelity."""
    if quick:
        return QUICK_WARMUP, QUICK_MEASURE
    return FULL_WARMUP, FULL_MEASURE


@dataclass
class ExperimentResult:
    """Output of one experiment: tables plus free-form notes."""

    experiment_id: str
    title: str
    paper_reference: str
    tables: list[TextTable] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Structured data for programmatic checks (tests assert on this).
    data: dict = field(default_factory=dict)
    #: Which backend ran the simulations this run executed, and why any
    #: fell back: ``{"simulations": {backend: count}, "fallbacks":
    #: {reason: count}}``.  Filled by the runner; never rendered, and
    #: ignored by ``==`` because the report is backend-independent.
    backends: dict[str, dict[str, int]] = field(
        default_factory=dict, compare=False
    )

    def render(self) -> str:
        """Human-readable report: header, tables, notes."""
        lines = [
            f"[{self.experiment_id}] {self.title}",
            f"Reproduces: {self.paper_reference}",
            "",
        ]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        if self.notes:
            lines.append("Notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)
