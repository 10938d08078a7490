"""Extension — exact cross-validation of the Markov chains.

The paper's analytic instrument is the exact Markov chain of a 2×2
discarding switch (Section 4.1, Table 2).  This experiment re-derives
every such chain a second way: :func:`repro.analysis.model.cross_validate`
executes the real buffer classes over every reachable state, turns the
explored edges into a transition matrix and compares its stationary
distribution state by state with the symbolic chain.  Each row reports
the analytic discard probability, the states explored and modelled, and
the largest stationary disagreement; any disagreement beyond the
tolerance raises :class:`~repro.errors.SimulationError` naming the
configuration, so a mismatch is never reported as a number (or cached).
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.experiments.report import ExperimentResult
from repro.markov.models import SwitchChainBuilder
from repro.perf import parallel_map
from repro.utils.tables import TextTable, format_value

__all__ = ["run"]

_QUICK_CONFIGS = (
    ("FIFO", 2),
    ("FIFO", 4),
    ("DAMQ", 2),
    ("DAMQ", 4),
    ("SAMQ", 4),
    ("SAFC", 4),
)

#: The full grid grows each architecture as far as a few seconds of
#: exploration allows (FIFO-5 is 3969 states; DAMQ-8 is 2025 modelled).
_FULL_CONFIGS = _QUICK_CONFIGS + (
    ("FIFO", 5),
    ("DAMQ", 6),
    ("DAMQ", 8),
    ("SAMQ", 6),
    ("SAFC", 6),
)

_RATES = (0.75, 0.95)

#: Largest stationary disagreement accepted as agreement.
_TOLERANCE = 1e-9


def _validate_task(task: tuple) -> dict:
    """Pool worker: one exact chain-vs-buffer-classes comparison."""
    # Imported here: loading the model checker with the experiment
    # registry would slow every CLI start-up.
    from repro.analysis.model import cross_validate

    kind, slots, rate = task
    check = cross_validate(kind, slots, rate, tolerance=_TOLERANCE)
    if not check.ok:
        raise SimulationError(
            f"{kind}-{slots} at rate {rate}: {check.describe()}"
        )
    analytic = SwitchChainBuilder(kind, slots).analyze(rate)
    return {
        "kind": kind,
        "slots": slots,
        "rate": rate,
        "discard": analytic.discard_probability,
        "explored": check.explored_states,
        "modelled": check.reference_states,
        "max_error": check.max_error,
    }


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Cross-validate every configuration's chain, exactly."""
    configs = _QUICK_CONFIGS if quick else _FULL_CONFIGS
    result = ExperimentResult(
        experiment_id="ext-validation",
        title="Extension: Markov chains vs the explored buffer classes",
        paper_reference="Methodological check of Section 4.1",
    )
    tasks = [(kind, slots, rate) for kind, slots in configs for rate in _RATES]
    rows = parallel_map(_validate_task, tasks, codec="json")
    table = TextTable(
        "Discard probability and exact stationary agreement",
        [
            "Buffer",
            "Slots",
            "Traffic",
            "discard",
            "explored",
            "modelled",
            "max |Δπ|",
        ],
    )
    for row in rows:
        table.add_row(
            [
                row["kind"],
                row["slots"],
                f"{row['rate']:.0%}",
                format_value(row["discard"], 4, zero_plus=True),
                row["explored"],
                row["modelled"],
                f"{row['max_error']:.1e}",
            ]
        )
    result.tables.append(table)
    result.data["rows"] = rows
    worst = max(row["max_error"] for row in rows)
    explored = sum(row["explored"] for row in rows)
    result.notes.append(
        f"Worst max |Δπ| {worst:.1e} over {explored} explored states in "
        f"{len(rows)} chains (tolerance {_TOLERANCE:.0e})."
    )
    return result
