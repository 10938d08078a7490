"""Breadth-first frontier engine for the explicit-state model checker.

The engine is deliberately generic: a *transition system* supplies an
initial state and a deterministic successor enumeration; the engine owns
the frontier queue, the visited set (keyed on the system's canonical
state values) and the parent/action records needed to reconstruct a
counterexample.  Breadth-first order makes the first violation found a
*minimal* one: no shorter action sequence reaches any violating state.

Every system derives from :class:`TransitionSystem`, which owns what the
systems share: the successor walk (probe, enumerate, apply), the
push/pop wrappers that turn an implementation error into a structured
violation, the scratch buffers states are restored into, and the
configuration round trip (a system's config *is* its constructor
arguments, so a serialized counterexample rebuilds the very system that
found it).

Systems signal violations by raising
:class:`repro.analysis.properties.PropertyViolation` from their successor
generator (with the in-flight action attached); the engine converts the
exception into an :class:`ExplorationResult` carrying the full action
trace from the initial state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, ClassVar, Hashable, Iterator, Sequence

from repro.analysis.properties import PropertyViolation, Violation
from repro.core.buffer import SwitchBuffer
from repro.core.packet import Packet
from repro.errors import ConfigurationError, InvariantError, ReproError

__all__ = [
    "Action",
    "Edge",
    "ExplorationResult",
    "SearchStats",
    "TransitionSystem",
    "explore",
]

#: One atomic action, e.g. ``("arrive", 1)`` or ``("cycle", served, combo)``.
Action = tuple[Any, ...]

#: One recorded transition: (source state id, target state id, action).
Edge = tuple[int, int, Action]


class TransitionSystem(ABC):
    """Base of every transition system the engine explores.

    A concrete system is a dataclass whose fields are exactly its
    constructor arguments: :meth:`config` serializes them under the
    registry :attr:`name` and :meth:`from_config` is its strict inverse.
    Subclasses supply :meth:`initial`, :meth:`enumerate_actions` and
    :meth:`apply`; :meth:`probe` (state-level checks) and
    :meth:`datapath` (the buffers the system drives) are optional.
    """

    #: Registry name, stored as ``config()["system"]``.
    name: ClassVar[str]
    #: Buffer kind named in this system's violations.
    kind: str

    @abstractmethod
    def initial(self) -> tuple[Hashable, Any]:
        """Canonical key and opaque payload of the initial state."""

    @abstractmethod
    def enumerate_actions(self, payload: Any) -> list[Action]:
        """Every action enabled in the state ``payload``, in a fixed order."""

    @abstractmethod
    def apply(self, payload: Any, action: Action) -> tuple[Hashable, Any]:
        """Key and payload of the state ``action`` leads to."""

    def probe(self, payload: Any) -> None:
        """Checks on the state itself, run before its successors."""

    def successors(
        self, payload: Any
    ) -> Iterator[tuple[Action, Hashable, Any]]:
        """Enumerate ``(action, successor key, successor payload)``.

        Deterministic.  Raises :class:`PropertyViolation` (with the
        action attached) when a property fails along a transition.
        """
        self.probe(payload)
        for action in self.enumerate_actions(payload):
            yield (action, *self.apply(payload, action))

    # -- configuration round trip --------------------------------------

    def config(self) -> dict[str, Any]:
        """The system's name plus its constructor arguments."""
        arguments = {
            f.name: getattr(self, f.name)
            for f in fields(self)  # type: ignore[arg-type]
        }
        return {"system": self.name, **arguments}

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "TransitionSystem":
        """Rebuild the system :meth:`config` described.

        A field the constructor does not take, or one it needs that is
        absent, raises :class:`ConfigurationError` naming it: a stale
        trace must fail loudly, not replay a different system.
        """
        expected = [f.name for f in fields(cls)]  # type: ignore[arg-type]
        given = set(config) - {"system"}
        unknown = sorted(given - set(expected))
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.name} system field(s) {', '.join(unknown)}"
            )
        missing = [name for name in expected if name not in given]
        if missing:
            raise ConfigurationError(
                f"missing {cls.name} system field(s) {', '.join(missing)}"
            )
        return cls(**{name: config[name] for name in expected})

    # -- buffers -------------------------------------------------------

    def datapath(self) -> list[tuple[str, SwitchBuffer]]:
        """Fresh instances of the buffers this system drives, labelled
        for waveform export."""
        raise ConfigurationError(
            f"the {self.name} system drives no buffer datapath"
        )

    def fresh_buffers(self) -> list[SwitchBuffer]:
        """The :meth:`datapath` buffers without their labels."""
        return [buffer for _label, buffer in self.datapath()]

    @cached_property
    def _scratch(self) -> list[SwitchBuffer]:
        # Scratch instances, re-restored from snapshots per action.
        return self.fresh_buffers()

    def observe_datapath(self, observer: Any) -> None:
        """Attach ``observer`` to the buffers :meth:`apply` drives,
        under their :meth:`datapath` labels.

        Restoring a snapshot emits no trace event, so an observed replay
        records exactly the pushes, pops and retirements of each action.
        """
        # Imported here: the instrumentation layer loads the simulator.
        from repro.instrument import observe

        labels = [label for label, _buffer in self.datapath()]
        for label, buffer in zip(labels, self._scratch):
            observe(buffer, observer, label)

    def _restore(
        self, snapshots: Sequence[dict[str, Any]]
    ) -> list[SwitchBuffer]:
        """The scratch buffers, restored from the leading ``snapshots``."""
        for buffer, snapshot in zip(self._scratch, snapshots):
            buffer.restore_state(snapshot)
        return self._scratch

    # -- structured violations -----------------------------------------

    def violation(
        self, prop: str, message: str, action: Action | None = None
    ) -> PropertyViolation:
        return PropertyViolation(
            Violation(prop=prop, message=message, kind=self.kind), action
        )

    def push(
        self,
        buffer: SwitchBuffer,
        packet: Packet,
        action: Action,
        where: str = "",
    ) -> None:
        """Push an arrival the specification accepts; any error the
        buffer raises is an ``unexpected-reject`` violation."""
        try:
            buffer.push(packet, packet.destination)
        except ReproError as error:
            raise self.violation(
                "unexpected-reject",
                f"{where}push to output {packet.destination} raised "
                f"{type(error).__name__}: {error}",
                action,
            ) from error

    def pop(
        self,
        buffer: SwitchBuffer,
        destination: int,
        action: Action,
        where: str = "",
        expected: int | None = None,
    ) -> Packet:
        """Pop a queued packet; any error the buffer raises is an
        ``unexpected-empty`` violation, and a packet other than the
        ``expected`` id (when given) is a ``fifo-order`` one."""
        try:
            popped = buffer.pop(destination)
        except ReproError as error:
            raise self.violation(
                "unexpected-empty",
                f"{where}pop({destination}) raised {type(error).__name__} "
                f"with a queued packet",
                action,
            ) from error
        if expected is not None and popped.packet_id != expected:
            raise self.violation(
                "fifo-order",
                f"{where}pop({destination}) returned packet "
                f"{popped.packet_id}, FIFO order requires {expected}",
                action,
            )
        return popped


@dataclass
class SearchStats:
    """Search-size accounting for reports and CI budgets."""

    states: int = 0
    transitions: int = 0
    max_depth: int = 0
    truncated: bool = False


@dataclass
class ExplorationResult:
    """Outcome of one bounded exhaustive search."""

    stats: SearchStats
    violation: Violation | None = None
    #: Minimal action sequence from the initial state to the violation
    #: (the failing action last); ``None`` when the search was clean.
    trace: list[Action] | None = None
    #: Every canonical state key, in discovery (BFS) order.
    keys: list[Hashable] = field(default_factory=list)
    #: Recorded transitions when requested (for the Markov bridge).
    edges: list[Edge] | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def explore(
    system: TransitionSystem,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
    record_edges: bool = False,
) -> ExplorationResult:
    """Exhaustively explore ``system`` breadth-first.

    ``max_states``/``max_depth`` bound the search (the ``truncated`` flag
    reports when a bound was hit); within the bounds the reachable state
    space is covered completely.  With ``record_edges`` every transition
    is retained as ``(source id, target id, action)`` so the reachable
    graph can be converted into a Markov transition matrix.
    """
    stats = SearchStats()
    initial_key, initial_payload = system.initial()
    keys: list[Hashable] = [initial_key]
    index: dict[Hashable, int] = {initial_key: 0}
    payloads: dict[int, Any] = {0: initial_payload}
    parents: list[tuple[int, Action | None]] = [(-1, None)]
    depths: list[int] = [0]
    edges: list[Edge] | None = [] if record_edges else None
    frontier: deque[int] = deque([0])

    def trace_to(node: int, last_action: Action | None) -> list[Action]:
        actions: list[Action] = []
        while node > 0:
            parent, action = parents[node]
            if action is None:
                raise InvariantError(
                    f"non-root search node {node} has no producing action"
                )
            actions.append(action)
            node = parent
        actions.reverse()
        if last_action is not None:
            actions.append(last_action)
        return actions

    while frontier:
        node = frontier.popleft()
        payload = payloads.pop(node)
        if max_depth is not None and depths[node] >= max_depth:
            stats.truncated = True
            continue
        try:
            for action, successor_key, successor_payload in system.successors(
                payload
            ):
                stats.transitions += 1
                successor = index.get(successor_key)
                if successor is None:
                    if max_states is not None and len(keys) >= max_states:
                        stats.truncated = True
                        continue
                    successor = len(keys)
                    index[successor_key] = successor
                    keys.append(successor_key)
                    payloads[successor] = successor_payload
                    parents.append((node, action))
                    depths.append(depths[node] + 1)
                    if depths[successor] > stats.max_depth:
                        stats.max_depth = depths[successor]
                    frontier.append(successor)
                if edges is not None:
                    edges.append((node, successor, action))
        except PropertyViolation as error:
            stats.states = len(keys)
            return ExplorationResult(
                stats=stats,
                violation=error.violation,
                trace=trace_to(node, error.action),
                keys=keys,
                edges=edges,
            )
    stats.states = len(keys)
    return ExplorationResult(stats=stats, keys=keys, edges=edges)
