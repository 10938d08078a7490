"""Explicit-state bounded model checker for the buffer hardware.

Exhaustively explores every arrival × grant × departure interleaving of
the paper's four buffer architectures at small parameters, in lockstep
with the reference specifications of :mod:`repro.analysis.properties`.
Two transition systems are provided:

* :class:`BufferSystem` — one buffer, atomic arrive/depart/retire
  actions.  This is the finest interleaving model: any pop ordering the
  hardware could exhibit is some path here.
* :class:`SwitchSystem` — one n×n switch, whole-cycle actions (a grant
  set followed by per-input arrivals, matching the Markov cycle model of
  :mod:`repro.markov.models`).  Grant nondeterminism is *adversarial*:
  every crossbar-legal grant set (including non-maximal ones and the
  empty set) is explored, which over-approximates the behaviour of any
  arbiter fairness state.  Separately, the real
  :class:`~repro.switch.arbiter.CrossbarArbiter` is checked in every
  explored state, for every priority-pointer value and both fairness
  schemes: its grants must be crossbar-legal, serve actual head packets,
  be *maximal* (work conservation) and leave buffer state untouched.

Soundness of the state canonicalization:

* Packet ids are renumbered canonically after every transition.  Ids
  never influence buffer behaviour (they are only identity-checked), so
  relabeling is a bisimulation.
* In the default ``collapse`` layout mode, DAMQ states are keyed on list
  *contents* (plus retirement), quotienting away the physical slot
  threading.  Every ``SlotListManager`` operation is symmetric under
  slot renaming (allocation always takes the free-list head, wherever it
  physically is), so states equal up to renaming have isomorphic
  futures.  ``exact`` layout mode keys on the full register file instead
  and explores every reachable physical threading — the stronger check,
  used by default for single-buffer verification where it stays small.

Refinement properties (the paper's architectural claims):

* :func:`verify_fifo_refinement` — a DAMQ buffer restricted to one queue
  is observationally equivalent to a FIFO buffer, state by state along
  every interleaving.
* :func:`verify_dominance` — a DAMQ buffer never rejects a packet that a
  SAMQ/SAFC buffer with the same total slots accepts, along every
  partitioned-accepted workload; strict-dominance witnesses (states
  where only DAMQ accepts) are counted.

The checker is itself verified by :func:`run_self_test`, which plants
known bugs (free-list off-by-one, dropped tail-pointer update, double
grant, FIFO reorder, occupancy leak) via targeted monkeypatching and
asserts each one is caught.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Hashable

from repro.analysis.counterexample import Counterexample
from repro.analysis.explore import Action, explore
from repro.analysis.properties import (
    PropertyViolation,
    SpecBuffer,
    Violation,
    check_conformance,
    make_spec,
)
from repro.core.buffer import SwitchBuffer
from repro.core.fifo import FifoBuffer
from repro.core.linkedlist import NO_SLOT, SlotListManager
from repro.core.packet import Packet
from repro.core.registry import make_buffer
from repro.core.samq import SamqBuffer
from repro.errors import (
    BufferEmptyError,
    BufferFullError,
    ConfigurationError,
    FaultError,
    InvariantError,
    ReproError,
    SimulationError,
)
from repro.switch.arbiter import CrossbarArbiter

__all__ = [
    "BufferSystem",
    "CrossValidation",
    "ModelCheckResult",
    "MutationResult",
    "MUTATIONS",
    "StarvationSystem",
    "SwitchSystem",
    "build_system",
    "cross_validate",
    "run_self_test",
    "verify_buffer",
    "verify_dominance",
    "verify_fifo_refinement",
    "verify_starvation",
    "verify_switch",
]


def _packet(packet_id: int, destination: int) -> Packet:
    return Packet(packet_id=packet_id, source=0, destination=destination)


def _raise(
    prop: str,
    message: str,
    kind: str,
    action: Action | None = None,
) -> PropertyViolation:
    return PropertyViolation(
        Violation(prop=prop, message=message, kind=kind), action
    )


# ----------------------------------------------------------------------
# Single-buffer transition system
# ----------------------------------------------------------------------


class BufferSystem:
    """All arrive/depart/retire interleavings of one buffer."""

    name = "buffer"

    def __init__(
        self,
        kind: str,
        capacity: int,
        num_outputs: int,
        *,
        protocol: str = "discarding",
        with_retirement: bool = True,
        exact_layout: bool = True,
    ) -> None:
        if protocol not in ("discarding", "blocking"):
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        self.kind = kind.upper()
        self.capacity = capacity
        self.num_outputs = num_outputs
        self.protocol = protocol
        self.with_retirement = with_retirement
        self.exact_layout = exact_layout
        # Scratch instance, re-restored from snapshots per action.
        self._scratch = make_buffer(self.kind, capacity, num_outputs)

    def config(self) -> dict[str, Any]:
        return {
            "system": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "num_outputs": self.num_outputs,
            "protocol": self.protocol,
            "with_retirement": self.with_retirement,
            "exact_layout": self.exact_layout,
        }

    # -- engine interface ----------------------------------------------

    def initial(self) -> tuple[Hashable, Any]:
        buffer = make_buffer(self.kind, self.capacity, self.num_outputs)
        spec = make_spec(self.kind, self.capacity, self.num_outputs)
        if buffer.max_reads_per_cycle != spec.max_serves:
            raise _raise(
                "read-ports",
                f"implementation advertises {buffer.max_reads_per_cycle} "
                f"read ports, specification expects {spec.max_serves}",
                self.kind,
            )
        return self._pack(buffer, spec)

    def successors(
        self, payload: Any
    ) -> Iterator[tuple[Action, Hashable, Any]]:
        self.probe(payload)
        for action in self.enumerate_actions(payload):
            yield (action, *self.apply(payload, action))

    # -- action enumeration --------------------------------------------

    def enumerate_actions(self, payload: Any) -> list[Action]:
        _, spec = payload
        actions: list[Action] = []
        for destination in range(self.num_outputs):
            if spec.can_accept(destination):
                actions.append(("arrive", destination))
            if spec.peek(destination) is not None:
                actions.append(("depart", destination))
        if self.with_retirement and spec.can_retire():
            actions.append(("retire",))
        return actions

    def probe(self, payload: Any) -> None:
        """Negative conformance checks that do not change state.

        A rejected push must raise :class:`BufferFullError` and leave no
        partial mutation behind; a pop from an empty queue must raise
        :class:`BufferEmptyError`; an impossible retirement must raise
        :class:`FaultError`.  All three are verified against pristine
        restores, so a dirty failure path cannot hide.
        """
        _, spec = payload
        for destination in range(self.num_outputs):
            if not spec.can_accept(destination):
                self._probe_one(payload, ("arrive", destination))
            if spec.peek(destination) is None:
                self._probe_one(payload, ("depart", destination))
        if self.with_retirement and not spec.can_retire():
            self._probe_one(payload, ("retire",))

    def _is_probe_action(self, spec: SpecBuffer, action: Action) -> bool:
        """Whether ``action`` is a negative-probe marker in this state."""
        name = action[0]
        if name == "arrive":
            return not spec.can_accept(int(action[1]))
        if name == "depart":
            return spec.peek(int(action[1])) is None
        if name == "retire":
            return not spec.can_retire()
        return False

    def _probe_one(self, payload: Any, action: Action) -> None:
        snapshot, spec = payload
        name = action[0]
        buffer = self._restore(snapshot)
        if name == "arrive":
            destination = int(action[1])
            if buffer.can_accept(destination):
                raise _raise(
                    "acceptance",
                    f"buffer accepts for output {destination} in a "
                    f"state the specification rejects",
                    self.kind,
                    action,
                )
            try:
                buffer.push(
                    _packet(spec.fresh_id(), destination), destination
                )
            except BufferFullError:
                pass
            except ReproError as error:
                raise _raise(
                    "wrong-error",
                    f"rejected push raised {type(error).__name__} "
                    f"instead of BufferFullError",
                    self.kind,
                    action,
                ) from error
            else:
                raise _raise(
                    "missing-reject",
                    f"push to full output {destination} did not raise",
                    self.kind,
                    action,
                )
            if buffer.snapshot_state() != snapshot:
                raise _raise(
                    "partial-mutation",
                    f"rejected push for output {destination} mutated "
                    f"buffer state",
                    self.kind,
                    action,
                )
        elif name == "depart":
            destination = int(action[1])
            head = buffer.peek(destination)
            if head is not None:
                raise _raise(
                    "phantom-head",
                    f"buffer offers packet {head.packet_id} for output "
                    f"{destination}, specification offers none",
                    self.kind,
                    action,
                )
            try:
                buffer.pop(destination)
            except BufferEmptyError:
                pass
            except ReproError as error:
                raise _raise(
                    "wrong-error",
                    f"empty pop raised {type(error).__name__} instead "
                    f"of BufferEmptyError",
                    self.kind,
                    action,
                ) from error
            else:
                raise _raise(
                    "pop-from-empty",
                    f"pop({destination}) succeeded on an empty queue",
                    self.kind,
                    action,
                )
            if buffer.snapshot_state() != snapshot:
                raise _raise(
                    "partial-mutation",
                    f"failed pop for output {destination} mutated "
                    f"buffer state",
                    self.kind,
                    action,
                )
        elif name == "retire":
            try:
                buffer.retire_slot()
            except FaultError:
                pass
            except ReproError as error:
                raise _raise(
                    "wrong-error",
                    f"impossible retirement raised {type(error).__name__} "
                    f"instead of FaultError",
                    self.kind,
                    action,
                ) from error
            else:
                raise _raise(
                    "missing-retire-fault",
                    "retire_slot() succeeded with no spare free slot",
                    self.kind,
                    action,
                )
        else:
            raise ConfigurationError(f"unknown probe action {action!r}")

    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        snapshot, spec = payload
        name = action[0]
        if self._is_probe_action(spec, action):
            # A counterexample can end on a negative-probe marker (the
            # violation arose from a rejected operation's misbehaviour).
            # Re-run just that probe; the state does not change.
            self._probe_one(payload, action)
            buffer = self._restore(snapshot)
            key: Hashable = (
                buffer.canonical_state() if self.exact_layout else spec.key()
            )
            return key, payload
        buffer = self._restore(snapshot)
        successor = spec.copy()
        if name == "arrive":
            destination = int(action[1])
            if not buffer.can_accept(destination):
                raise _raise(
                    "acceptance",
                    f"buffer rejects for output {destination} in a state "
                    f"the specification accepts",
                    self.kind,
                    action,
                )
            packet_id = successor.push(destination)
            try:
                buffer.push(_packet(packet_id, destination), destination)
            except ReproError as error:
                raise _raise(
                    "unexpected-reject",
                    f"push to output {destination} raised "
                    f"{type(error).__name__}: {error}",
                    self.kind,
                    action,
                ) from error
        elif name == "depart":
            destination = int(action[1])
            expected = successor.pop(destination)
            try:
                popped = buffer.pop(destination)
            except ReproError as error:
                raise _raise(
                    "unexpected-empty",
                    f"pop({destination}) raised {type(error).__name__} "
                    f"with a queued packet",
                    self.kind,
                    action,
                ) from error
            if popped.packet_id != expected:
                raise _raise(
                    "fifo-order",
                    f"pop({destination}) returned packet "
                    f"{popped.packet_id}, FIFO order requires {expected}",
                    self.kind,
                    action,
                )
        elif name == "retire":
            successor.retire()
            try:
                buffer.retire_slot()
            except ReproError as error:
                raise _raise(
                    "retire-fault",
                    f"retire_slot() raised {type(error).__name__} with a "
                    f"spare free slot: {error}",
                    self.kind,
                    action,
                ) from error
        else:
            raise ConfigurationError(f"unknown action {action!r}")
        self._check(buffer, successor, action)
        return self._pack(buffer, successor)

    # -- internals ------------------------------------------------------

    def _restore(self, snapshot: dict[str, Any]) -> SwitchBuffer:
        self._scratch.restore_state(snapshot)
        return self._scratch

    def _check(
        self, buffer: SwitchBuffer, spec: SpecBuffer, action: Action
    ) -> None:
        try:
            check_conformance(buffer, spec)
        except PropertyViolation as error:
            error.action = action
            raise

    def _pack(
        self, buffer: SwitchBuffer, spec: SpecBuffer
    ) -> tuple[Hashable, Any]:
        mapping = spec.renumber()
        for packet in buffer.packets():
            new_id = mapping.get(packet.packet_id)
            if new_id is None:
                raise _raise(
                    "phantom-packet",
                    f"buffer stores packet {packet.packet_id} the "
                    f"specification does not hold",
                    self.kind,
                )
            packet.packet_id = new_id
        key: Hashable = (
            buffer.canonical_state() if self.exact_layout else spec.key()
        )
        return key, (buffer.snapshot_state(), spec)


# ----------------------------------------------------------------------
# No-starvation transition system
# ----------------------------------------------------------------------


class StarvationSystem:
    """Every output below its slot quota must still be accepting.

    The liveness gap in plain DAMQ's dynamic sharing: one hot output can
    absorb the entire slot pool, after which arrivals for *every other*
    output are rejected even though those outputs hold nothing — the
    single-hot-output starvation the reserved-slot variant
    (arXiv 0910.1852) exists to cure.  Expressed as a safety property
    over reachable states: in no reachable state may an output holding
    fewer than ``quota`` packets have its arrivals rejected.  Plain DAMQ
    violates it within ``capacity`` steps (fill one queue, offer another
    output); :class:`~repro.arch.damq_reserved.DamqReservedBuffer` with
    ``reserved >= quota`` satisfies it exhaustively, and the statically
    partitioned architectures satisfy it trivially.

    Unlike :class:`BufferSystem` this system drives the implementation
    alone (no lockstep spec): the property quantifies over the
    implementation's own acceptance surface.
    """

    name = "starvation"

    def __init__(
        self,
        kind: str,
        capacity: int,
        num_outputs: int,
        *,
        quota: int | None = None,
    ) -> None:
        self.kind = kind.upper()
        self.capacity = capacity
        self.num_outputs = num_outputs
        probe = make_buffer(self.kind, capacity, num_outputs)
        # Default quota: the buffer's own reservation, where it has one.
        self.quota = quota if quota is not None else getattr(probe, "reserved", 1)
        if self.quota < 1:
            raise ConfigurationError(
                f"starvation quota must be at least 1, got {self.quota}"
            )
        # Scratch instance, re-restored from snapshots per action.
        self._scratch = make_buffer(self.kind, capacity, num_outputs)

    def config(self) -> dict[str, Any]:
        return {
            "system": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "num_outputs": self.num_outputs,
            "quota": self.quota,
        }

    # -- engine interface ----------------------------------------------

    def initial(self) -> tuple[Hashable, Any]:
        buffer = make_buffer(self.kind, self.capacity, self.num_outputs)
        self._check_property(buffer, None)
        return self._key(buffer), buffer.snapshot_state()

    def successors(
        self, payload: Any
    ) -> Iterator[tuple[Action, Hashable, Any]]:
        self.probe(payload)
        for action in self.enumerate_actions(payload):
            yield (action, *self.apply(payload, action))

    def enumerate_actions(self, payload: Any) -> list[Action]:
        buffer = self._restore(payload)
        actions: list[Action] = []
        for destination in range(self.num_outputs):
            if buffer.can_accept(destination):
                actions.append(("arrive", destination))
            if buffer.peek(destination) is not None:
                actions.append(("depart", destination))
        return actions

    def probe(self, payload: Any) -> None:
        """Re-check the no-starvation property (pure, state unchanged)."""
        self._check_property(self._restore(payload), None)

    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        buffer = self._restore(payload)
        name = action[0]
        if name == "arrive":
            destination = int(action[1])
            # Fresh id above every resident packet: ids must be unique
            # among co-resident packets (the buffers' own invariants
            # count unique ids), and canonical_state() excludes them.
            next_id = 1 + max(
                (packet.packet_id for packet in buffer.packets()),
                default=-1,
            )
            try:
                buffer.push(_packet(next_id, destination), destination)
            except ReproError as error:
                raise _raise(
                    "unexpected-reject",
                    f"push to output {destination} raised "
                    f"{type(error).__name__}: {error}",
                    self.kind,
                    action,
                ) from error
        elif name == "depart":
            destination = int(action[1])
            try:
                buffer.pop(destination)
            except ReproError as error:
                raise _raise(
                    "unexpected-empty",
                    f"pop({destination}) raised {type(error).__name__} "
                    f"with a queued packet",
                    self.kind,
                    action,
                ) from error
        else:
            raise ConfigurationError(f"unknown action {action!r}")
        self._check_property(buffer, action)
        return self._key(buffer), buffer.snapshot_state()

    # -- internals ------------------------------------------------------

    def _key(self, buffer: SwitchBuffer) -> Hashable:
        # The property, the enabled actions and their effects all depend
        # only on the per-output queue lengths (size-1 packets, no
        # retirement actions), so states are quotiented on them: physical
        # slot threadings with equal lengths have isomorphic futures
        # (the same slot-renaming symmetry argument as collapse layout).
        return (
            buffer.kind,
            buffer.retired_count,
            tuple(buffer.queue_lengths()),
        )

    def _restore(self, snapshot: dict[str, Any]) -> SwitchBuffer:
        self._scratch.restore_state(snapshot)
        return self._scratch

    def _check_property(
        self, buffer: SwitchBuffer, action: Action | None
    ) -> None:
        for destination in range(self.num_outputs):
            held = buffer.queue_length(destination)
            if held < self.quota and not buffer.can_accept(destination):
                raise _raise(
                    "starvation",
                    f"output {destination} holds {held} packet(s), below "
                    f"its quota of {self.quota}, yet a new arrival is "
                    f"rejected (lengths "
                    f"{list(buffer.queue_lengths())}, occupancy "
                    f"{buffer.occupancy}/{buffer.effective_capacity})",
                    self.kind,
                    action,
                )
        try:
            buffer.check_invariants()
        except InvariantError as error:
            raise _raise("invariants", str(error), self.kind, action) from error


# ----------------------------------------------------------------------
# Whole-switch transition system
# ----------------------------------------------------------------------


class SwitchSystem:
    """One n×n switch: every grant × arrival interleaving per cycle.

    ``mode="safety"`` explores adversarial grants (every crossbar-legal
    grant set); ``mode="markov"`` restricts grants to the longest-queue
    arbitration policy of :mod:`repro.markov.arbitration` and weights
    each transition so the explored graph converts into the exact Markov
    chain (see :func:`cross_validate`).
    """

    name = "switch"

    def __init__(
        self,
        kind: str,
        num_ports: int,
        slots: int,
        *,
        protocol: str = "discarding",
        mode: str = "safety",
        exact_layout: bool = False,
        check_arbiter: bool = True,
    ) -> None:
        if mode not in ("safety", "markov"):
            raise ConfigurationError(f"unknown switch mode {mode!r}")
        if protocol not in ("discarding", "blocking"):
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        if mode == "markov" and protocol != "discarding":
            raise ConfigurationError(
                "the Markov cross-validation models the discarding protocol"
            )
        if mode == "markov" and exact_layout:
            raise ConfigurationError(
                "markov mode aggregates over slot layouts; use collapse "
                "layout"
            )
        self.kind = kind.upper()
        self.num_ports = num_ports
        self.slots = slots
        self.protocol = protocol
        self.mode = mode
        self.exact_layout = exact_layout
        self.check_arbiter = check_arbiter
        self._scratch = [
            make_buffer(self.kind, slots, num_ports) for _ in range(num_ports)
        ]

    def config(self) -> dict[str, Any]:
        return {
            "system": self.name,
            "kind": self.kind,
            "num_ports": self.num_ports,
            "slots": self.slots,
            "protocol": self.protocol,
            "mode": self.mode,
            "exact_layout": self.exact_layout,
            "check_arbiter": self.check_arbiter,
        }

    # -- engine interface ----------------------------------------------

    def initial(self) -> tuple[Hashable, Any]:
        buffers = [
            make_buffer(self.kind, self.slots, self.num_ports)
            for _ in range(self.num_ports)
        ]
        specs = [
            make_spec(self.kind, self.slots, self.num_ports)
            for _ in range(self.num_ports)
        ]
        return self._pack(buffers, specs)

    def successors(
        self, payload: Any
    ) -> Iterator[tuple[Action, Hashable, Any]]:
        self.probe(payload)
        for action in self.enumerate_actions(payload):
            yield (action, *self.apply(payload, action))

    def enumerate_actions(self, payload: Any) -> list[Action]:
        _, specs = payload
        arrival_options: list[int | None] = [None] + list(
            range(self.num_ports)
        )
        actions: list[Action] = []
        for weight, served in self._service_outcomes(specs):
            for combo in product(arrival_options, repeat=self.num_ports):
                if (
                    self.mode == "safety"
                    and not served
                    and all(choice is None for choice in combo)
                ):
                    # Identity transition; nothing to verify or reach.
                    continue
                if weight is None:
                    actions.append(("cycle", served, combo))
                else:
                    actions.append(
                        (
                            "cycle",
                            served,
                            combo,
                            (weight.numerator, weight.denominator),
                        )
                    )
        return actions

    def probe(self, payload: Any) -> None:
        if self.check_arbiter:
            self._check_real_arbiter(payload)

    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        snapshots, specs = payload
        if action[0] == "arbitrate":
            # Probe marker: the violation came from the real-arbiter
            # conformance check in this state.  Re-run it; no transition.
            self._check_real_arbiter(payload)
            if self.exact_layout:
                key: Hashable = tuple(
                    buffer.canonical_state()
                    for buffer in self._restore(snapshots)
                )
            else:
                key = tuple(spec.key() for spec in specs)
            return key, payload
        if action[0] != "cycle":
            raise ConfigurationError(f"unknown action {action!r}")
        served: tuple[tuple[int, int], ...] = action[1]
        combo: tuple[int | None, ...] = action[2]
        buffers = self._restore(snapshots)
        successors = [spec.copy() for spec in specs]
        # Phase 1: transmissions (the granted pops).
        for input_port, output_port in served:
            expected = successors[input_port].pop(output_port)
            try:
                popped = buffers[input_port].pop(output_port)
            except ReproError as error:
                raise _raise(
                    "unexpected-empty",
                    f"input {input_port}: pop({output_port}) raised "
                    f"{type(error).__name__} for a granted packet",
                    self.kind,
                    action,
                ) from error
            if popped.packet_id != expected:
                raise _raise(
                    "fifo-order",
                    f"input {input_port}: pop({output_port}) returned "
                    f"packet {popped.packet_id}, FIFO order requires "
                    f"{expected}",
                    self.kind,
                    action,
                )
        # Phase 2: arrivals (discarding: a full buffer drops the packet).
        for input_port, destination in enumerate(combo):
            if destination is None:
                continue
            spec = successors[input_port]
            buffer = buffers[input_port]
            if buffer.can_accept(destination) != spec.can_accept(destination):
                raise _raise(
                    "acceptance",
                    f"input {input_port}: can_accept({destination}) "
                    f"diverges from the specification",
                    self.kind,
                    action,
                )
            if spec.can_accept(destination):
                packet_id = spec.push(destination)
                try:
                    buffer.push(
                        _packet(packet_id, destination), destination
                    )
                except ReproError as error:
                    raise _raise(
                        "unexpected-reject",
                        f"input {input_port}: push to output "
                        f"{destination} raised {type(error).__name__}",
                        self.kind,
                        action,
                    ) from error
            else:
                # Discarding: the packet is dropped at the full buffer.
                # Blocking: it stalls upstream.  Either way the buffer
                # must refuse it cleanly and hold no partial state.
                try:
                    buffer.push(
                        _packet(spec.fresh_id(), destination), destination
                    )
                except BufferFullError:
                    pass
                else:
                    raise _raise(
                        "missing-reject",
                        f"input {input_port}: push to full output "
                        f"{destination} did not raise",
                        self.kind,
                        action,
                    )
        for input_port in range(self.num_ports):
            try:
                check_conformance(buffers[input_port], successors[input_port])
            except PropertyViolation as error:
                error.action = action
                raise
        return self._pack(buffers, successors)

    # -- grant enumeration ---------------------------------------------

    def _legal_service_sets(
        self, specs: list[SpecBuffer]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Every crossbar-legal grant set, the empty set included.

        Legal means: each granted queue actually offers a packet, no
        output is granted twice, and no input exceeds its read-port
        budget.  Enumerated output by output, so the result covers every
        matching any arbiter — however unfair or broken its fairness
        state — could produce.
        """
        n = self.num_ports
        budgets = [spec.max_serves for spec in specs]
        candidates = [
            [
                input_port
                for input_port in range(n)
                if specs[input_port].peek(output_port) is not None
            ]
            for output_port in range(n)
        ]
        results: list[tuple[tuple[int, int], ...]] = []
        chosen: list[tuple[int, int]] = []

        def descend(output_port: int) -> None:
            if output_port == n:
                results.append(tuple(chosen))
                return
            descend(output_port + 1)  # leave this output idle
            for input_port in candidates[output_port]:
                if budgets[input_port] > 0:
                    budgets[input_port] -= 1
                    chosen.append((input_port, output_port))
                    descend(output_port + 1)
                    chosen.pop()
                    budgets[input_port] += 1

        descend(0)
        return results

    def _service_outcomes(
        self, specs: list[SpecBuffer]
    ) -> list[tuple[Fraction | None, tuple[tuple[int, int], ...]]]:
        sets = self._legal_service_sets(specs)
        if self.mode == "safety":
            return [(None, grant_set) for grant_set in sets]
        # Markov mode re-derives the longest-queue arbitration policy of
        # repro.markov.arbitration independently: keep only maximum-size
        # grant sets, then only those serving the lexicographically best
        # (sorted descending) queue-length multiset, split uniformly.
        max_size = max(len(grant_set) for grant_set in sets)
        biggest = [
            grant_set for grant_set in sets if len(grant_set) == max_size
        ]

        def score(
            grant_set: tuple[tuple[int, int], ...]
        ) -> tuple[int, ...]:
            lengths = [
                specs[input_port].queue_length(output_port)
                for input_port, output_port in grant_set
            ]
            return tuple(sorted(lengths, reverse=True))

        best_score = max(score(grant_set) for grant_set in biggest)
        winners = [
            grant_set
            for grant_set in biggest
            if score(grant_set) == best_score
        ]
        weight = Fraction(1, len(winners))
        return [(weight, grant_set) for grant_set in winners]

    # -- real-arbiter conformance --------------------------------------

    def _check_real_arbiter(self, payload: Any) -> None:
        """The production arbiter, checked in every explored state.

        For both fairness schemes and every priority-pointer value (with
        zeroed stale counts — the adversarial grant enumeration already
        covers every stale configuration), the arbiter's decision must
        be crossbar-legal, serve genuine head packets, be maximal (work
        conservation: no legal grant can be added) and must not mutate
        any buffer.
        """
        snapshots, specs = payload
        n = self.num_ports
        requests = [
            (input_port, output_port)
            for input_port in range(n)
            for output_port in range(n)
            if specs[input_port].peek(output_port) is not None
        ]
        for smart in (False, True):
            for priority in range(n):
                scheme = "smart" if smart else "dumb"
                context = f"{scheme} arbiter, priority {priority}"
                action: Action = ("arbitrate", scheme, priority)
                buffers = self._restore(snapshots)
                arbiter = CrossbarArbiter(n, n, smart=smart)
                arbiter._priority = priority
                grants = arbiter.arbitrate(
                    buffers, lambda _i, _o, _p: False
                )
                for input_port in range(n):
                    if buffers[input_port].snapshot_state() != snapshots[
                        input_port
                    ]:
                        raise _raise(
                            "arbiter-mutation",
                            f"{context}: arbitration mutated buffer "
                            f"{input_port}",
                            self.kind,
                            action,
                        )
                granted_outputs: dict[int, int] = {}
                reads: dict[int, int] = {}
                for grant in grants:
                    if grant.output_port in granted_outputs:
                        raise _raise(
                            "double-grant",
                            f"{context}: output {grant.output_port} "
                            f"granted to inputs "
                            f"{granted_outputs[grant.output_port]} and "
                            f"{grant.input_port}",
                            self.kind,
                            action,
                        )
                    granted_outputs[grant.output_port] = grant.input_port
                    reads[grant.input_port] = (
                        reads.get(grant.input_port, 0) + 1
                    )
                    if (
                        reads[grant.input_port]
                        > specs[grant.input_port].max_serves
                    ):
                        raise _raise(
                            "read-overrun",
                            f"{context}: input {grant.input_port} granted "
                            f"{reads[grant.input_port]} reads, budget "
                            f"{specs[grant.input_port].max_serves}",
                            self.kind,
                            action,
                        )
                    expected = specs[grant.input_port].peek(
                        grant.output_port
                    )
                    if (
                        expected is None
                        or grant.packet.packet_id != expected
                    ):
                        raise _raise(
                            "grant-identity",
                            f"{context}: grant ({grant.input_port} -> "
                            f"{grant.output_port}) carries packet "
                            f"{grant.packet.packet_id}, head is "
                            f"{expected}",
                            self.kind,
                            action,
                        )
                for input_port, output_port in requests:
                    if (
                        output_port not in granted_outputs
                        and reads.get(input_port, 0)
                        < specs[input_port].max_serves
                    ):
                        raise _raise(
                            "work-conservation",
                            f"{context}: queue ({input_port} -> "
                            f"{output_port}) offers a packet but neither "
                            f"it nor its output was served",
                            self.kind,
                            action,
                        )

    # -- internals ------------------------------------------------------

    def _restore(
        self, snapshots: list[dict[str, Any]]
    ) -> list[SwitchBuffer]:
        for buffer, snapshot in zip(self._scratch, snapshots):
            buffer.restore_state(snapshot)
        return self._scratch

    def _pack(
        self, buffers: list[SwitchBuffer], specs: list[SpecBuffer]
    ) -> tuple[Hashable, Any]:
        for buffer, spec in zip(buffers, specs):
            mapping = spec.renumber()
            for packet in buffer.packets():
                new_id = mapping.get(packet.packet_id)
                if new_id is None:
                    raise _raise(
                        "phantom-packet",
                        f"buffer stores packet {packet.packet_id} the "
                        f"specification does not hold",
                        self.kind,
                    )
                packet.packet_id = new_id
        if self.exact_layout:
            key: Hashable = tuple(
                buffer.canonical_state() for buffer in buffers
            )
        else:
            key = tuple(spec.key() for spec in specs)
        return key, (
            [buffer.snapshot_state() for buffer in buffers],
            specs,
        )

    def markov_state(self, key: Hashable) -> tuple[tuple[int, ...], ...]:
        """Map a collapse-layout state key to the
        :class:`~repro.markov.models.SwitchChainBuilder` encoding.

        The per-port spec keys carry the builder's state directly: the
        destination sequence for FIFO, per-output counts otherwise.
        """
        if not isinstance(key, tuple):
            raise ConfigurationError("markov_state needs a collapse key")
        return tuple(tuple(port_key[2]) for port_key in key)


# ----------------------------------------------------------------------
# Refinement systems
# ----------------------------------------------------------------------


class FifoRefinementSystem:
    """DAMQ restricted to one queue, in lockstep with a FIFO buffer.

    Both buffers receive the identical arrival/departure stream on
    output 0 only.  After every action their full observable states
    (minus the ``kind`` label) must coincide — observational
    equivalence, established exhaustively over all interleavings.
    """

    name = "refinement-fifo"

    def __init__(self, capacity: int, num_outputs: int) -> None:
        self.kind = "DAMQ"
        self.capacity = capacity
        self.num_outputs = num_outputs
        self._damq = make_buffer("DAMQ", capacity, num_outputs)
        self._fifo = make_buffer("FIFO", capacity, num_outputs)

    def config(self) -> dict[str, Any]:
        return {
            "system": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "num_outputs": self.num_outputs,
        }

    def initial(self) -> tuple[Hashable, Any]:
        damq = make_buffer("DAMQ", self.capacity, self.num_outputs)
        fifo = make_buffer("FIFO", self.capacity, self.num_outputs)
        return self._pack(damq, fifo, occupancy=0)

    def successors(
        self, payload: Any
    ) -> Iterator[tuple[Action, Hashable, Any]]:
        self.probe(payload)
        for action in self.enumerate_actions(payload):
            yield (action, *self.apply(payload, action))

    def enumerate_actions(self, payload: Any) -> list[Action]:
        _, _, occupancy = payload
        actions: list[Action] = []
        if occupancy < self.capacity:
            actions.append(("arrive", 0))
        if occupancy > 0:
            actions.append(("depart", 0))
        return actions

    def probe(self, payload: Any) -> None:
        damq_snapshot, fifo_snapshot, _ = payload
        damq, fifo = self._restore(damq_snapshot, fifo_snapshot)
        self._compare(damq, fifo, None)

    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        damq_snapshot, fifo_snapshot, occupancy = payload
        damq, fifo = self._restore(damq_snapshot, fifo_snapshot)
        name = action[0]
        if name == "arrive":
            for buffer in (damq, fifo):
                buffer.push(_packet(occupancy, 0), 0)
            occupancy += 1
        elif name == "depart":
            first = damq.pop(0)
            second = fifo.pop(0)
            if first.packet_id != second.packet_id:
                raise _raise(
                    "refinement",
                    f"DAMQ popped packet {first.packet_id}, FIFO popped "
                    f"{second.packet_id}",
                    "DAMQ",
                    action,
                )
            occupancy -= 1
        else:
            raise ConfigurationError(f"unknown action {action!r}")
        self._compare(damq, fifo, action)
        return self._pack(damq, fifo, occupancy=occupancy)

    def _compare(
        self, damq: SwitchBuffer, fifo: SwitchBuffer, action: Action | None
    ) -> None:
        left = damq.observable_state()
        right = fifo.observable_state()
        del left["kind"], right["kind"]
        if left != right:
            raise _raise(
                "refinement",
                f"single-queue DAMQ observably diverges from FIFO: "
                f"DAMQ {left}, FIFO {right}",
                "DAMQ",
                action,
            )
        for buffer in (damq, fifo):
            buffer.check_invariants()

    def _restore(
        self, damq_snapshot: dict[str, Any], fifo_snapshot: dict[str, Any]
    ) -> tuple[SwitchBuffer, SwitchBuffer]:
        self._damq.restore_state(damq_snapshot)
        self._fifo.restore_state(fifo_snapshot)
        return self._damq, self._fifo

    def _pack(
        self, damq: SwitchBuffer, fifo: SwitchBuffer, occupancy: int
    ) -> tuple[Hashable, Any]:
        # Renumber ids by queue position (identical in both by the
        # equivalence just checked).
        for position, packet in enumerate(fifo.packets()):
            packet.packet_id = position
        for position, packet in enumerate(
            sorted(damq.packets(), key=lambda p: p.packet_id)
        ):
            packet.packet_id = position
        key = (damq.canonical_state(), fifo.canonical_state())
        return key, (
            damq.snapshot_state(),
            fifo.snapshot_state(),
            occupancy,
        )


class DominanceSystem:
    """DAMQ vs. a statically partitioned buffer with the same slots.

    Both receive the identical workload, gated on the *partitioned*
    buffer's acceptance.  The property: DAMQ never rejects a packet the
    partitioned buffer accepts (dynamic sharing dominates static
    partitioning slot for slot).  States where only DAMQ accepts are
    counted as strict-dominance witnesses.
    """

    name = "dominance"

    def __init__(self, partitioned_kind: str, capacity: int, num_outputs: int) -> None:
        self.kind = partitioned_kind.upper()
        if self.kind not in ("SAMQ", "SAFC"):
            raise ConfigurationError(
                f"dominance compares SAMQ/SAFC to DAMQ, not {self.kind}"
            )
        self.capacity = capacity
        self.num_outputs = num_outputs
        self._partitioned = make_buffer(self.kind, capacity, num_outputs)
        self._damq = make_buffer("DAMQ", capacity, num_outputs)
        self.strict_witnesses = 0

    def config(self) -> dict[str, Any]:
        return {
            "system": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "num_outputs": self.num_outputs,
        }

    def initial(self) -> tuple[Hashable, Any]:
        partitioned = make_buffer(self.kind, self.capacity, self.num_outputs)
        damq = make_buffer("DAMQ", self.capacity, self.num_outputs)
        return self._pack(partitioned, damq, next_id=0)

    def successors(
        self, payload: Any
    ) -> Iterator[tuple[Action, Hashable, Any]]:
        self.probe(payload)
        for action in self.enumerate_actions(payload):
            yield (action, *self.apply(payload, action))

    def enumerate_actions(self, payload: Any) -> list[Action]:
        partitioned_snapshot, _, _ = payload
        partitioned, _ = self._restore(partitioned_snapshot, None)
        actions: list[Action] = []
        for destination in range(self.num_outputs):
            if partitioned.can_accept(destination):
                actions.append(("arrive", destination))
            if partitioned.peek(destination) is not None:
                actions.append(("depart", destination))
        return actions

    def probe(self, payload: Any) -> None:
        partitioned_snapshot, damq_snapshot, _ = payload
        partitioned, damq = self._restore(
            partitioned_snapshot, damq_snapshot
        )
        strict_here = False
        for destination in range(self.num_outputs):
            partitioned_accepts = partitioned.can_accept(destination)
            damq_accepts = damq.can_accept(destination)
            if partitioned_accepts and not damq_accepts:
                raise _raise(
                    "dominance",
                    f"{self.kind} accepts for output {destination} but a "
                    f"DAMQ with the same {self.capacity} slots rejects",
                    self.kind,
                )
            if damq_accepts and not partitioned_accepts:
                strict_here = True
        if strict_here:
            self.strict_witnesses += 1

    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        partitioned_snapshot, damq_snapshot, next_id = payload
        partitioned, damq = self._restore(
            partitioned_snapshot, damq_snapshot
        )
        name, destination = action[0], int(action[1])
        if name == "arrive":
            for buffer in (partitioned, damq):
                buffer.push(_packet(next_id, destination), destination)
            next_id += 1
        elif name == "depart":
            first = partitioned.pop(destination)
            second = damq.pop(destination)
            if first.packet_id != second.packet_id:
                raise _raise(
                    "fifo-order",
                    f"{self.kind} popped packet {first.packet_id}, DAMQ "
                    f"popped {second.packet_id} for output {destination}",
                    self.kind,
                    action,
                )
        else:
            raise ConfigurationError(f"unknown action {action!r}")
        for buffer in (partitioned, damq):
            buffer.check_invariants()
        return self._pack(partitioned, damq, next_id=next_id)

    def _restore(
        self,
        partitioned_snapshot: dict[str, Any],
        damq_snapshot: dict[str, Any] | None,
    ) -> tuple[SwitchBuffer, SwitchBuffer]:
        self._partitioned.restore_state(partitioned_snapshot)
        if damq_snapshot is not None:
            self._damq.restore_state(damq_snapshot)
        return self._partitioned, self._damq

    def _pack(
        self,
        partitioned: SwitchBuffer,
        damq: SwitchBuffer,
        next_id: int,
    ) -> tuple[Hashable, Any]:
        # Canonical ids: position within (queue, position) order of the
        # partitioned buffer; the DAMQ holds the same packets, so the one
        # mapping relabels both sides consistently.
        mapping: dict[int, int] = {}
        for packet in partitioned.packets():
            mapping[packet.packet_id] = len(mapping)
        for buffer in (partitioned, damq):
            for packet in buffer.packets():
                packet.packet_id = mapping[packet.packet_id]
        key = (partitioned.canonical_state(), damq.canonical_state())
        return key, (
            partitioned.snapshot_state(),
            damq.snapshot_state(),
            len(mapping),
        )


# ----------------------------------------------------------------------
# Verifier entry points
# ----------------------------------------------------------------------

#: Any of the model checker's transition systems.
ModelSystem = Any


def build_system(config: dict[str, Any]) -> ModelSystem:
    """Rebuild a transition system from its :meth:`config` dictionary.

    The inverse of ``system.config()``; used to replay serialized
    counterexamples.
    """
    name = config.get("system")
    if name == "buffer":
        return BufferSystem(
            config["kind"],
            config["capacity"],
            config["num_outputs"],
            protocol=config.get("protocol", "discarding"),
            with_retirement=config.get("with_retirement", True),
            exact_layout=config.get("exact_layout", True),
        )
    if name == "switch":
        return SwitchSystem(
            config["kind"],
            config["num_ports"],
            config["slots"],
            protocol=config.get("protocol", "discarding"),
            mode=config.get("mode", "safety"),
            exact_layout=config.get("exact_layout", False),
            check_arbiter=config.get("check_arbiter", True),
        )
    if name == "starvation":
        return StarvationSystem(
            config["kind"],
            config["capacity"],
            config["num_outputs"],
            quota=config.get("quota"),
        )
    if name == "refinement-fifo":
        return FifoRefinementSystem(
            config["capacity"], config["num_outputs"]
        )
    if name == "dominance":
        return DominanceSystem(
            config["kind"], config["capacity"], config["num_outputs"]
        )
    if name == "kernel-diff":
        # Imported here: the kernel package is optional machinery layered
        # on top of the analysis core, not a dependency of it.
        from repro.kernel.differential import KernelDiffSystem
        from repro.network.simulator import NetworkConfig

        return KernelDiffSystem(
            NetworkConfig.from_state(config["network"]),
            warmup_cycles=config.get("warmup_cycles", 0),
        )
    raise ConfigurationError(f"unknown transition system {name!r}")


@dataclass
class ModelCheckResult:
    """One bounded exhaustive check of one system configuration."""

    config: dict[str, Any]
    stats: "Any"
    violation: Violation | None = None
    counterexample: Counterexample | None = None
    #: Dominance checks only: states where DAMQ accepts and the
    #: partitioned buffer rejects (evidence the dominance is strict).
    strict_witnesses: int | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        label = f"{self.config['system']}[{self.config['kind']}]"
        size = (
            f"{self.stats.states} states, "
            f"{self.stats.transitions} transitions"
        )
        if self.stats.truncated:
            size += " (truncated)"
        if self.violation is None:
            suffix = "ok"
            if self.strict_witnesses:
                suffix += f", {self.strict_witnesses} strict witnesses"
            return f"{label}: {suffix} ({size})"
        trace_length = (
            len(self.counterexample.actions)
            if self.counterexample is not None
            else 0
        )
        return (
            f"{label}: VIOLATION {self.violation.render()} "
            f"[{trace_length}-step counterexample] ({size})"
        )


def _run(
    system: ModelSystem,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
) -> ModelCheckResult:
    result = explore(system, max_states=max_states, max_depth=max_depth)
    counterexample: Counterexample | None = None
    if result.violation is not None and result.trace is not None:
        counterexample = Counterexample(
            config=system.config(),
            actions=list(result.trace),
            violation=result.violation,
        )
    return ModelCheckResult(
        config=system.config(),
        stats=result.stats,
        violation=result.violation,
        counterexample=counterexample,
        strict_witnesses=getattr(system, "strict_witnesses", None),
    )


def verify_buffer(
    kind: str,
    capacity: int,
    num_outputs: int,
    *,
    protocol: str = "discarding",
    with_retirement: bool = True,
    exact_layout: bool = True,
    max_states: int | None = None,
    max_depth: int | None = None,
) -> ModelCheckResult:
    """Exhaustively check one buffer against its reference spec."""
    system = BufferSystem(
        kind,
        capacity,
        num_outputs,
        protocol=protocol,
        with_retirement=with_retirement,
        exact_layout=exact_layout,
    )
    return _run(system, max_states=max_states, max_depth=max_depth)


def verify_switch(
    kind: str,
    num_ports: int,
    slots: int,
    *,
    protocol: str = "discarding",
    exact_layout: bool = False,
    check_arbiter: bool = True,
    max_states: int | None = None,
    max_depth: int | None = None,
) -> ModelCheckResult:
    """Exhaustively check one switch under adversarial grants."""
    system = SwitchSystem(
        kind,
        num_ports,
        slots,
        protocol=protocol,
        mode="safety",
        exact_layout=exact_layout,
        check_arbiter=check_arbiter,
    )
    return _run(system, max_states=max_states, max_depth=max_depth)


def verify_starvation(
    kind: str,
    capacity: int,
    num_outputs: int = 2,
    *,
    quota: int | None = None,
    max_states: int | None = None,
    max_depth: int | None = None,
) -> ModelCheckResult:
    """No reachable state starves a below-quota output (see
    :class:`StarvationSystem`).  Plain DAMQ fails this; the reserved-slot
    variant and the partitioned architectures pass it."""
    system = StarvationSystem(kind, capacity, num_outputs, quota=quota)
    return _run(system, max_states=max_states, max_depth=max_depth)


def verify_fifo_refinement(
    capacity: int,
    num_outputs: int = 2,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
) -> ModelCheckResult:
    """DAMQ restricted to one queue ≡ FIFO, over all interleavings."""
    system = FifoRefinementSystem(capacity, num_outputs)
    return _run(system, max_states=max_states, max_depth=max_depth)


def verify_dominance(
    kind: str,
    capacity: int,
    num_outputs: int = 2,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
) -> ModelCheckResult:
    """SAMQ/SAFC acceptance never exceeds same-size DAMQ acceptance."""
    system = DominanceSystem(kind, capacity, num_outputs)
    return _run(system, max_states=max_states, max_depth=max_depth)


# ----------------------------------------------------------------------
# Markov cross-validation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidation:
    """Stationary-distribution agreement between the explored reachable
    graph and the independently built :mod:`repro.markov` chain."""

    kind: str
    slots: int
    num_ports: int
    rate: float
    explored_states: int
    reference_states: int
    max_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_error <= self.tolerance

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (
            f"markov[{self.kind}] rate {self.rate}: {status}, max "
            f"|Δπ| = {self.max_error:.3e} over {self.explored_states} "
            f"reachable / {self.reference_states} modelled states "
            f"(tolerance {self.tolerance:.0e})"
        )


def cross_validate(
    kind: str,
    slots: int,
    rate: float,
    num_ports: int = 2,
    *,
    tolerance: float = 1e-9,
    check_arbiter: bool = False,
) -> CrossValidation:
    """Cross-validate the explored state graph against ``repro.markov``.

    The switch system is explored in ``markov`` mode (service restricted
    to the longest-queue policy, re-derived here independently of
    :mod:`repro.markov.arbitration`), the recorded edges are converted
    into a transition matrix by :mod:`repro.markov.bridge`, and the
    stationary distribution is compared state by state with the chain
    :class:`repro.markov.models.SwitchChainBuilder` compiles from the
    same parameters.  Agreement within ``tolerance`` means two
    completely separate code paths — concrete register-level execution
    versus symbolic enumeration — induce the same Markov chain.
    """
    # Imported lazily: the bridge needs numpy/scipy, which pure
    # lint/model runs should not have to load.
    from repro.markov.bridge import chain_from_graph
    from repro.markov.models import SwitchChainBuilder

    if not 0.0 < rate < 1.0:
        raise ConfigurationError(
            f"traffic rate must lie strictly in (0, 1), got {rate}"
        )
    system = SwitchSystem(
        kind,
        num_ports,
        slots,
        mode="markov",
        check_arbiter=check_arbiter,
    )
    result = explore(system, record_edges=True)
    if result.violation is not None:
        raise SimulationError(
            "markov-mode exploration found a property violation: "
            + result.violation.render()
        )
    if result.edges is None:
        raise SimulationError("markov-mode exploration recorded no edges")
    weighted = []
    for source, target, action in result.edges:
        combo = action[2]
        numerator, denominator = action[3]
        arrivals = sum(1 for choice in combo if choice is not None)
        weighted.append(
            (
                source,
                target,
                Fraction(numerator, denominator),
                num_ports - arrivals,
                arrivals,
            )
        )
    chain = chain_from_graph(
        len(result.keys), weighted, rate, num_ports, tolerance=tolerance
    )
    stationary = chain.steady_state()
    explored: dict[tuple[tuple[int, ...], ...], float] = {}
    for state_index, key in enumerate(result.keys):
        explored[system.markov_state(key)] = float(stationary[state_index])
    builder = SwitchChainBuilder(kind, slots, num_ports=num_ports)
    reference_chain = builder.chain(rate)
    reference_stationary = reference_chain.steady_state()
    reference: dict[tuple[tuple[int, ...], ...], float] = {}
    for state_index, state in enumerate(builder.states):
        reference[state] = float(reference_stationary[state_index])
    for state in explored:
        if state not in reference:
            raise SimulationError(
                f"explored state {state!r} has no counterpart in the "
                f"symbolic chain"
            )
    max_error = 0.0
    for state in set(explored) | set(reference):
        difference = abs(
            explored.get(state, 0.0) - reference.get(state, 0.0)
        )
        if difference > max_error:
            max_error = difference
    return CrossValidation(
        kind=kind.upper(),
        slots=slots,
        num_ports=num_ports,
        rate=rate,
        explored_states=len(result.keys),
        reference_states=len(builder.states),
        max_error=max_error,
        tolerance=tolerance,
    )


# ----------------------------------------------------------------------
# Self-test: plant known bugs, assert the checker catches them
# ----------------------------------------------------------------------


@contextmanager
def _mutate_free_list_leak() -> Iterator[None]:
    """Off-by-one in the DAMQ free list: the final free slot's
    allocation forgets to decrement the free counter."""
    original = SlotListManager.allocate

    def buggy(self: SlotListManager, list_id: int) -> int:
        before = self._free_count
        slot = original(self, list_id)
        if before == 1:
            self._free_count = 1
        return slot

    SlotListManager.allocate = buggy  # type: ignore[method-assign]
    try:
        yield
    finally:
        SlotListManager.allocate = original  # type: ignore[method-assign]


@contextmanager
def _mutate_dropped_tail() -> Iterator[None]:
    """Dropped tail-pointer update: appending to a non-empty list keeps
    the stale tail register."""
    original = SlotListManager.allocate

    def buggy(self: SlotListManager, list_id: int) -> int:
        old_tail = self._tail[list_id]
        slot = original(self, list_id)
        if old_tail != NO_SLOT:
            self._tail[list_id] = old_tail
        return slot

    SlotListManager.allocate = buggy  # type: ignore[method-assign]
    try:
        yield
    finally:
        SlotListManager.allocate = original  # type: ignore[method-assign]


@contextmanager
def _mutate_double_grant() -> Iterator[None]:
    """Arbiter grants the same output twice in one cycle."""
    original = CrossbarArbiter.arbitrate

    def buggy(
        self: CrossbarArbiter,
        buffers: Any,
        blocked: Any,
        lengths: Any = None,
    ) -> Any:
        grants = original(self, buffers, blocked, lengths)
        if grants:
            grants.append(grants[0])
        return grants

    CrossbarArbiter.arbitrate = buggy  # type: ignore[method-assign]
    try:
        yield
    finally:
        CrossbarArbiter.arbitrate = original  # type: ignore[method-assign]


@contextmanager
def _mutate_fifo_reorder() -> Iterator[None]:
    """FIFO push inserts at the head instead of the tail (queue-jump),
    with the length registers patched up so only the *ordering*
    properties can catch it."""
    original = FifoBuffer.push

    def buggy(self: FifoBuffer, packet: Packet, destination: int) -> None:
        original(self, packet, destination)
        if len(self._queue) > 1:
            self._queue.rotate(1)
            for output in range(self.num_outputs):
                self._lengths[output] = 0
            self._lengths[self._queue[0][1]] = self._used

    FifoBuffer.push = buggy  # type: ignore[method-assign]
    try:
        yield
    finally:
        FifoBuffer.push = original  # type: ignore[method-assign]


@contextmanager
def _mutate_occupancy_leak() -> Iterator[None]:
    """SAMQ pop leaks its partition's occupancy accounting: the slot is
    never returned to the free pool."""
    original = SamqBuffer.pop

    def buggy(self: SamqBuffer, destination: int) -> Packet:
        packet = original(self, destination)
        self._used[destination] += packet.size
        return packet

    SamqBuffer.pop = buggy  # type: ignore[method-assign]
    try:
        yield
    finally:
        SamqBuffer.pop = original  # type: ignore[method-assign]


@dataclass(frozen=True)
class _Mutation:
    name: str
    description: str
    patch: Callable[[], Any]
    check: Callable[[], ModelCheckResult]


MUTATIONS: tuple[_Mutation, ...] = (
    _Mutation(
        name="damq-free-list-leak",
        description="DAMQ free-list counter off by one on the last slot",
        patch=_mutate_free_list_leak,
        check=lambda: verify_buffer("DAMQ", 4, 2),
    ),
    _Mutation(
        name="damq-dropped-tail",
        description="DAMQ tail-pointer register not updated on append",
        patch=_mutate_dropped_tail,
        check=lambda: verify_buffer("DAMQ", 4, 2),
    ),
    _Mutation(
        name="arbiter-double-grant",
        description="crossbar arbiter grants one output to two inputs",
        patch=_mutate_double_grant,
        check=lambda: verify_switch("DAMQ", 2, 2, max_states=64),
    ),
    _Mutation(
        name="fifo-reorder",
        description="FIFO push queue-jumps to the head",
        patch=_mutate_fifo_reorder,
        check=lambda: verify_buffer("FIFO", 2, 2),
    ),
    _Mutation(
        name="samq-occupancy-leak",
        description="SAMQ pop never frees its partition slot",
        patch=_mutate_occupancy_leak,
        check=lambda: verify_buffer("SAMQ", 4, 2),
    ),
)


@dataclass(frozen=True)
class MutationResult:
    """Outcome of one planted-bug detection run."""

    name: str
    description: str
    detected: bool
    violation: Violation | None
    trace_length: int

    def describe(self) -> str:
        status = "detected" if self.detected else "MISSED"
        detail = (
            f" as {self.violation.prop!r} in {self.trace_length} steps"
            if self.violation is not None
            else ""
        )
        return f"{self.name}: {status}{detail}"


def run_self_test() -> list[MutationResult]:
    """Plant each known bug, assert the checker finds it, then prove the
    un-mutated configurations still verify cleanly.

    Raises :class:`SimulationError` if any planted bug escapes detection
    or if a clean configuration reports a (false-positive) violation
    after the patches are unwound.
    """
    results: list[MutationResult] = []
    for mutation in MUTATIONS:
        with mutation.patch():
            outcome = mutation.check()
        trace_length = (
            len(outcome.counterexample.actions)
            if outcome.counterexample is not None
            else 0
        )
        results.append(
            MutationResult(
                name=mutation.name,
                description=mutation.description,
                detected=outcome.violation is not None,
                violation=outcome.violation,
                trace_length=trace_length,
            )
        )
    missed = [result.name for result in results if not result.detected]
    if missed:
        raise SimulationError(
            f"planted bugs escaped the model checker: {', '.join(missed)}"
        )
    for mutation in MUTATIONS:
        clean = mutation.check()
        if clean.violation is not None:
            raise SimulationError(
                f"false positive after unwinding {mutation.name}: "
                + clean.violation.render()
            )
    return results
