"""Exact Markov-chain analysis of small discarding switches (Section 4.1)."""

from repro.markov.analysis import (
    PAPER_BUFFER_SIZES,
    PAPER_TRAFFIC_GRID,
    DiscardTable,
    analyze_switch,
    discard_probability,
    discard_table,
)
from repro.markov.arbitration import service_outcomes
from repro.markov.chain import MarkovChain
from repro.markov.models import SwitchChainBuilder, SwitchSteadyState
from repro.markov.theory import HOL_SATURATION
from repro.markov.ports import (
    DamqPortModel,
    FifoPortModel,
    PortModel,
    SafcPortModel,
    SamqPortModel,
    port_model,
)

__all__ = [
    "DamqPortModel",
    "DiscardTable",
    "FifoPortModel",
    "HOL_SATURATION",
    "MarkovChain",
    "PAPER_BUFFER_SIZES",
    "PAPER_TRAFFIC_GRID",
    "PortModel",
    "SafcPortModel",
    "SamqPortModel",
    "SwitchChainBuilder",
    "SwitchSteadyState",
    "analyze_switch",
    "discard_probability",
    "discard_table",
    "port_model",
    "service_outcomes",
]
