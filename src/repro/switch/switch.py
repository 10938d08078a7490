"""A small n×n packet switch assembled from the library's components.

One :class:`Switch` owns an input buffer per input port (any of the four
architectures), a :class:`~repro.switch.crossbar.Crossbar` sized for that
architecture's read capability, and a central
:class:`~repro.switch.arbiter.CrossbarArbiter`.  It operates at the
network-cycle granularity of the paper's Omega-network evaluation: in each
cycle the arbiter picks transmissions, the crossbar checks their legality,
and the simulator moves the granted packets downstream.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.packet import Packet
from repro.errors import ConfigurationError
from repro.switch.arbiter import BlockedPredicate, Grant, Scheduler
from repro.switch.crossbar import Crossbar

__all__ = ["Switch"]


class Switch:
    """An n×n switch with per-input buffers and a central arbiter.

    Parameters
    ----------
    switch_id:
        Identifier used in traces and error messages.
    num_inputs, num_outputs:
        Port counts (the paper uses 2×2 for the Markov analysis and 4×4
        for the Omega network).
    buffer_factory:
        ``factory(num_outputs) -> SwitchBuffer`` building one input
        buffer; see :func:`repro.core.registry.make_buffer_factory`.
    arbiter:
        The scheduling discipline: the paper's smart/dumb
        :class:`~repro.switch.arbiter.CrossbarArbiter` or any other
        :class:`~repro.switch.scheduler.Scheduler`.
    """

    def __init__(
        self,
        switch_id: int,
        num_inputs: int,
        num_outputs: int,
        buffer_factory: Callable[[int], SwitchBuffer],
        arbiter: Scheduler,
    ) -> None:
        if arbiter.num_inputs != num_inputs or arbiter.num_outputs != num_outputs:
            raise ConfigurationError("arbiter dimensions do not match switch")
        self.switch_id = switch_id
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.buffers: list[SwitchBuffer] = [
            buffer_factory(num_outputs) for _ in range(num_inputs)
        ]
        kinds = {buffer.kind for buffer in self.buffers}
        if len(kinds) != 1:
            raise ConfigurationError(f"mixed buffer kinds in one switch: {kinds}")
        self.buffer_kind = self.buffers[0].kind
        self.arbiter = arbiter
        self.crossbar = Crossbar(
            num_inputs,
            num_outputs,
            max_fanout=self.buffers[0].max_reads_per_cycle,
        )
        # Lifetime counters (reset by the simulator at end of warm-up).
        self.packets_received = 0
        self.packets_forwarded = 0
        # Occupied slots, maintained incrementally so the per-cycle
        # idle-switch check does not re-sum every buffer.
        self._occupancy = 0
        # Permanent queue-length views, when every buffer exposes a live
        # row: saves the arbiter a snapshot per switch per cycle.
        self._live_lengths = (
            [buffer.queue_lengths() for buffer in self.buffers]
            if all(buffer.lengths_are_live for buffer in self.buffers)
            else None
        )

    # ------------------------------------------------------------------
    # Receive side (called by the simulator when a packet arrives)
    # ------------------------------------------------------------------

    def can_accept(self, input_port: int, local_output: int, size: int = 1) -> bool:
        """Whether the buffer at ``input_port`` can take such a packet now."""
        if not 0 <= input_port < self.num_inputs:
            self._check_input(input_port)
        return self.buffers[input_port].can_accept(local_output, size)

    def receive(self, input_port: int, packet: Packet, local_output: int) -> None:
        """Store an arriving packet on its routed queue.

        Propagates :class:`~repro.errors.BufferFullError` so the caller can
        implement the discarding protocol; ``packets_received`` counts
        only packets actually stored.
        """
        if not 0 <= input_port < self.num_inputs:
            self._check_input(input_port)
        self.buffers[input_port].push(packet, local_output)
        self.packets_received += 1
        self._occupancy += packet.size

    # ------------------------------------------------------------------
    # Transmit side (one call per network cycle)
    # ------------------------------------------------------------------

    def plan_transmissions(self, blocked: BlockedPredicate) -> list[Grant]:
        """Arbitrate the crossbar for this cycle and validate connections."""
        grants = self.arbiter.arbitrate(self.buffers, blocked, self._live_lengths)
        self.crossbar.reset()
        for grant in grants:
            self.crossbar.connect(grant.input_port, grant.output_port)
        return grants

    def execute(self, grant: Grant) -> Packet:
        """Pop the granted packet out of its buffer."""
        packet = self.buffers[grant.input_port].pop(grant.output_port)
        if packet.packet_id != grant.packet.packet_id:
            raise ConfigurationError(
                f"switch {self.switch_id}: buffer state changed between "
                f"arbitration and execution"
            )
        self.packets_forwarded += 1
        self._occupancy -= packet.size
        return packet

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Total slots buffered across all input ports.

        Maintained incrementally by :meth:`receive`/:meth:`execute`;
        accurate as long as packets enter and leave through those methods.
        """
        return self._occupancy

    def reset_counters(self) -> None:
        """Zero the receive/forward counters (end of warm-up)."""
        self.packets_received = 0
        self.packets_forwarded = 0

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Buffers, arbiter fairness state and counters, JSON-able.

        The crossbar carries no cross-cycle state (it is reset at every
        arbitration), so it is not captured.
        """
        return {
            "buffers": [buffer.snapshot_state() for buffer in self.buffers],
            "arbiter": self.arbiter.snapshot_state(),
            "packets_received": self.packets_received,
            "packets_forwarded": self.packets_forwarded,
            "occupancy": self._occupancy,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Overwrite the switch with a :meth:`snapshot_state` dict.

        Buffer restores mutate their internal length registers in place,
        which keeps this switch's live-length views (and the simulator's
        flow-control closures over the buffers) valid.
        """
        for buffer, buffer_state in zip(self.buffers, state["buffers"]):
            buffer.restore_state(buffer_state)
        self.arbiter.restore_state(state["arbiter"])
        self.packets_received = state["packets_received"]
        self.packets_forwarded = state["packets_forwarded"]
        self._occupancy = state["occupancy"]

    def _check_input(self, input_port: int) -> None:
        if not 0 <= input_port < self.num_inputs:
            raise ConfigurationError(
                f"input {input_port} out of range [0, {self.num_inputs})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Switch(id={self.switch_id}, {self.num_inputs}x{self.num_outputs}, "
            f"{self.buffer_kind}, occupancy={self.occupancy})"
        )
