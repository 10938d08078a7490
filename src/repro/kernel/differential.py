"""Per-cycle differential harness for the simulation backends.

The exactness bar for the vectorized kernel is *byte-identical* packed
state after every cycle, not merely matching end-of-run metrics.  This
module runs the reference and numpy kernels in lockstep on one
configuration, compares their canonical state digests
(:meth:`~repro.kernel.base.SimKernel.state_digest`) cycle by cycle, and
on the first divergence reports which packed-state entries disagree
plus a replayable :class:`~repro.analysis.counterexample.Counterexample`
whose action trace re-drives both kernels to the divergent cycle.

The counterexample plugs into the model checker's replay machinery via
:class:`KernelDiffSystem`, a deterministic
:class:`~repro.analysis.explore.TransitionSystem` that
:func:`repro.analysis.model.build_system` imports on demand for the
name ``"kernel-diff"``: its only action is ``("cycle",)`` and its probe
re-raises the digest mismatch as a
:class:`~repro.analysis.properties.PropertyViolation`, so a serialized
trace replays bit-exactly with the standard tooling
(``Counterexample.replay`` or the rendered standalone script).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.analysis.counterexample import Counterexample
from repro.analysis.explore import Action, TransitionSystem
from repro.analysis.properties import PropertyViolation
from repro.errors import ConfigurationError
from repro.kernel.base import (
    SimKernel,
    config_label,
    make_kernel,
    numpy_unsupported_reason,
)
from repro.network.simulator import NetworkConfig

__all__ = [
    "DiffReport",
    "KernelDiffSystem",
    "diff_kernels",
    "first_difference",
]

#: Stable property identifier carried by divergence violations.
DIVERGENCE_PROP = "kernel-equivalence"


def first_difference(
    reference: Any, candidate: Any, path: str = ""
) -> str | None:
    """The path of the first leaf where two packed states disagree.

    Walks dicts (sorted key order) and sequences in lockstep and returns
    a ``/``-separated path such as ``"switches/s1w03/in2/queue1"``, or
    ``None`` when the structures are identical.  Used only for diagnosis
    — equality is decided by the canonical digests.
    """
    if isinstance(reference, dict) and isinstance(candidate, dict):
        for key in sorted(set(reference) | set(candidate), key=str):
            if key not in reference or key not in candidate:
                return f"{path}/{key}"
            found = first_difference(
                reference[key], candidate[key], f"{path}/{key}"
            )
            if found is not None:
                return found
        return None
    if isinstance(reference, (list, tuple)) and isinstance(
        candidate, (list, tuple)
    ):
        if len(reference) != len(candidate):
            return f"{path}/len({len(reference)}!={len(candidate)})"
        for index, (left, right) in enumerate(zip(reference, candidate)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if reference != candidate:
        return path or "/"
    return None


@dataclass
class DiffReport:
    """Outcome of one lockstep differential run."""

    config: NetworkConfig
    cycles_compared: int
    #: Completed-cycle count at the first observed divergence (``None``
    #: — the backends stayed equivalent).
    divergence_cycle: int | None = None
    #: Packed-state path of the first disagreeing entry.
    divergence_path: str | None = None
    reference_digest: str | None = None
    numpy_digest: str | None = None
    counterexample: Counterexample | None = None
    #: Final metrics digests (populated on fully equivalent runs).
    result_digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.divergence_cycle is None

    def describe(self) -> str:
        label = config_label(self.config)
        if self.ok:
            return (
                f"{label}: equivalent over {self.cycles_compared} cycles"
            )
        return (
            f"{label}: DIVERGED at cycle {self.divergence_cycle} "
            f"(first difference at {self.divergence_path}; "
            f"reference {self.reference_digest} != numpy {self.numpy_digest})"
        )


@dataclass
class KernelDiffSystem(TransitionSystem):
    """Deterministic transition system replaying a lockstep comparison.

    The system exists so kernel divergences serialize through the same
    :class:`Counterexample` machinery as model-checker violations.  Its
    state is the pair of kernels; the single action ``("cycle",)``
    advances both by one network cycle (opening the measurement window
    when the configured warmup boundary is reached) and
    :meth:`probe` raises when the packed states disagree.  ``network``
    is the :meth:`NetworkConfig.to_state` form of the configuration, so
    the system's config stays plain JSON.
    """

    name = "kernel-diff"

    network: dict[str, Any]
    warmup_cycles: int = 0

    def __post_init__(self) -> None:
        self.network_config = NetworkConfig.from_state(self.network)
        self.kind = self.network_config.buffer_kind
        reason = numpy_unsupported_reason(self.network_config)
        if reason is not None:
            raise ConfigurationError(
                f"cannot diff backends on this configuration ({reason})"
            )
        if self.warmup_cycles < 0:
            raise ConfigurationError("warmup_cycles must be >= 0")

    # -- transition-system interface -----------------------------------

    def initial(self) -> tuple[Hashable, Any]:
        reference = make_kernel(self.network_config, "reference")
        vectorized = make_kernel(self.network_config, "numpy")
        payload = (reference, vectorized)
        return self._key(payload), payload

    def enumerate_actions(self, payload: Any) -> list[Action]:
        return [("cycle",)]

    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        if action != ("cycle",):
            raise ConfigurationError(f"unknown action {action!r}")
        reference, vectorized = payload
        for kernel in (reference, vectorized):
            if kernel.cycle == self.warmup_cycles:
                kernel.begin_measurement()
            kernel.step()
        return self._key(payload), payload

    def probe(self, payload: Any) -> None:
        reference, vectorized = payload
        left = reference.state_digest()
        right = vectorized.state_digest()
        if left != right:
            where = first_difference(
                reference.packed_state(), vectorized.packed_state()
            )
            raise self.violation(
                DIVERGENCE_PROP,
                f"backends diverged at cycle {reference.cycle}: "
                f"first difference at {where} "
                f"(reference {left} != numpy {right})",
            )

    def _key(self, payload: tuple[SimKernel, SimKernel]) -> Hashable:
        reference, _vectorized = payload
        return (self.name, reference.cycle)


def diff_kernels(
    config: NetworkConfig,
    warmup_cycles: int = 200,
    measure_cycles: int = 900,
    compare_every: int = 1,
) -> DiffReport:
    """Run both backends in lockstep and compare packed states.

    Digests are compared every ``compare_every`` cycles (and always on
    the final cycle).  On the first mismatch the returned report carries
    the divergent cycle, the first differing packed-state path, and a
    counterexample whose trace replays the divergence.  On equivalence
    the report additionally pins both backends' final
    :class:`~repro.network.metrics.SimulationResult` digests, which must
    also agree (a safety net over the per-cycle comparison).
    """
    from repro.utils.digest import digest_json

    if measure_cycles < 1:
        raise ConfigurationError("measure_cycles must be >= 1")
    if compare_every < 1:
        raise ConfigurationError("compare_every must be >= 1")
    total = warmup_cycles + measure_cycles
    system = KernelDiffSystem(config.to_state(), warmup_cycles)
    _key, payload = system.initial()
    reference, vectorized = payload
    reference.prepare(total)
    vectorized.prepare(total)
    compared = 0
    for cycle in range(total):
        _key, payload = system.apply(payload, ("cycle",))
        if (cycle + 1) % compare_every and cycle + 1 != total:
            continue
        compared += 1
        try:
            system.probe(payload)
        except PropertyViolation as error:
            return DiffReport(
                config=config,
                cycles_compared=compared,
                divergence_cycle=cycle + 1,
                divergence_path=first_difference(
                    reference.packed_state(), vectorized.packed_state()
                ),
                reference_digest=reference.state_digest(),
                numpy_digest=vectorized.state_digest(),
                counterexample=Counterexample(
                    config=system.config(),
                    actions=[("cycle",)] * (cycle + 1),
                    violation=error.violation,
                ),
            )
    result_digests = {
        "reference": digest_json(
            reference.finish(warmup_cycles, measure_cycles).to_state()
        ),
        "numpy": digest_json(
            vectorized.finish(warmup_cycles, measure_cycles).to_state()
        ),
    }
    report = DiffReport(
        config=config,
        cycles_compared=compared,
        result_digests=result_digests,
    )
    if result_digests["reference"] != result_digests["numpy"]:
        report.divergence_cycle = total
        report.divergence_path = "result"
        report.reference_digest = result_digests["reference"]
        report.numpy_digest = result_digests["numpy"]
    return report
