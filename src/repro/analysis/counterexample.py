"""Counterexample traces: serialize, replay, export as waveforms.

A counterexample is the minimal action sequence the model checker found
from the initial state to a property violation, together with the system
configuration it was found under.  Because every transition system in
:mod:`repro.analysis.model` is deterministic given the action sequence,
a counterexample replays bit-exactly: :meth:`Counterexample.replay`
re-executes the actions on freshly built buffers and returns the
violation it reproduces.

Counterexamples round-trip through JSON (:meth:`to_dict` /
:meth:`from_dict`), render as a standalone Python script
(:meth:`render_script`) and export through :mod:`repro.telemetry` as a
VCD waveform plus a Chrome ``trace_event`` file (:meth:`export`), so a
failed check can be inspected in GTKWave or ``about://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.properties import PropertyViolation, Violation
from repro.core.buffer import SwitchBuffer
from repro.core.packet import Packet
from repro.errors import ConfigurationError, ReproError

__all__ = ["Counterexample"]

#: Schema version of the serialized form.
COUNTEREXAMPLE_VERSION = 1


def _tuplify(value: Any) -> Any:
    """Recursively turn JSON arrays back into the tuples actions use."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def _listify(value: Any) -> Any:
    """Recursively turn action tuples into JSON-able lists."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


@dataclass
class Counterexample:
    """One minimal violating trace, replayable and exportable."""

    #: ``system.config()`` of the transition system the trace drives.
    config: dict[str, Any]
    #: The minimal action sequence; the final action is the violating
    #: one when the violation arose from a transition (rather than from
    #: a state-level probe, in which case the trace merely reaches the
    #: violating state).
    actions: list[tuple[Any, ...]] = field(default_factory=list)
    violation: Violation | None = None

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "version": COUNTEREXAMPLE_VERSION,
            "config": dict(self.config),
            "actions": [_listify(action) for action in self.actions],
        }
        if self.violation is not None:
            payload["violation"] = {
                "prop": self.violation.prop,
                "message": self.violation.message,
                "kind": self.violation.kind,
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Counterexample":
        version = payload.get("version")
        if version != COUNTEREXAMPLE_VERSION:
            raise ConfigurationError(
                f"unsupported counterexample version {version!r} "
                f"(expected {COUNTEREXAMPLE_VERSION})"
            )
        violation = None
        raw = payload.get("violation")
        if raw is not None:
            violation = Violation(
                prop=raw["prop"],
                message=raw["message"],
                kind=raw.get("kind", ""),
            )
        return cls(
            config=dict(payload["config"]),
            actions=[_tuplify(action) for action in payload["actions"]],
            violation=violation,
        )

    # -- replay --------------------------------------------------------

    def replay(self) -> Violation | None:
        """Re-execute the trace; return the violation it reproduces.

        Runs the exact state-level probes and transitions the model
        checker ran, in the same order, on freshly constructed buffers.
        Returns ``None`` if no property fails (e.g. the trace was found
        under a mutation that is no longer planted).
        """
        # Imported here: model.py imports this module at load time.
        from repro.analysis.model import build_system

        system = build_system(self.config)
        try:
            _key, payload = system.initial()
            for action in self.actions:
                system.probe(payload)
                _key, payload = system.apply(payload, action)
            system.probe(payload)
        except PropertyViolation as error:
            return error.violation
        return None

    # -- standalone script ---------------------------------------------

    def render_script(self) -> str:
        """A self-contained Python script that replays this trace."""
        document = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        expected = (
            self.violation.prop if self.violation is not None else None
        )
        return f'''#!/usr/bin/env python3
"""Replay a repro model-checker counterexample.

Generated by repro.analysis.counterexample; run with src/ on PYTHONPATH.
Exits 0 when the recorded violation reproduces, 1 otherwise.
"""

import json
import sys

from repro.analysis.counterexample import Counterexample

DOCUMENT = r"""
{document}
"""

EXPECTED_PROP = {expected!r}


def main() -> int:
    counterexample = Counterexample.from_dict(json.loads(DOCUMENT))
    violation = counterexample.replay()
    if violation is None:
        print("counterexample did NOT reproduce (no violation raised)")
        return 1
    print(f"reproduced: {{violation.render()}}")
    if EXPECTED_PROP is not None and violation.prop != EXPECTED_PROP:
        print(
            f"property mismatch: expected {{EXPECTED_PROP!r}}, "
            f"got {{violation.prop!r}}"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

    # -- waveform export -----------------------------------------------

    def export(
        self, directory: str | Path, basename: str = "counterexample"
    ) -> dict[str, Path]:
        """Export the trace's datapath activity via ``repro.telemetry``.

        Mechanically replays the pushes/pops/retirements of the action
        sequence on telemetry-adopted buffers (one simulated cycle per
        action) and writes ``<basename>.vcd`` plus
        ``<basename>.trace.json`` into ``directory``.  Returns the two
        paths.  The replay is best-effort datapath driving — property
        checking happens in :meth:`replay`, not here — so an operation
        the hardware refuses simply ends the recording at that action.
        """
        from repro.telemetry import (
            TraceSession,
            write_chrome_trace,
            write_vcd,
        )

        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        session = TraceSession()
        buffers = self._build_traced(session)
        next_id = 0
        for step, action in enumerate(self.actions):
            session.on_cycle(step)
            try:
                next_id = self._drive(buffers, action, next_id)
            except ReproError:
                break
        events = list(session.ring.events())
        vcd_path = write_vcd(events, target / f"{basename}.vcd")
        chrome_path = write_chrome_trace(
            events, target / f"{basename}.trace.json"
        )
        return {"vcd": vcd_path, "chrome": chrome_path}

    def _build_traced(self, session: Any) -> list[SwitchBuffer]:
        """The rebuilt system's datapath, adopted by ``session``."""
        from repro.analysis.model import build_system
        from repro.instrument import observe

        return [
            observe(buffer, session, label)
            for label, buffer in build_system(self.config).datapath()
        ]

    def _drive(
        self,
        buffers: list[SwitchBuffer],
        action: tuple[Any, ...],
        next_id: int,
    ) -> int:
        system = self.config.get("system")
        name = action[0]
        if system == "switch":
            if name == "arbitrate":
                return next_id
            if name != "cycle":
                raise ConfigurationError(f"unknown action {action!r}")
            served = action[1]
            combo = action[2]
            for input_port, output_port in served:
                buffers[input_port].pop(output_port)
            for input_port, destination in enumerate(combo):
                if destination is None:
                    continue
                if buffers[input_port].can_accept(destination):
                    buffers[input_port].push(
                        Packet(
                            packet_id=next_id,
                            source=input_port,
                            destination=destination,
                        ),
                        destination,
                    )
                    next_id += 1
            return next_id
        # Single-buffer and lockstep-pair systems share an action shape.
        if name == "arrive":
            destination = int(action[1])
            packet = Packet(
                packet_id=next_id, source=0, destination=destination
            )
            for buffer in buffers:
                if buffer.can_accept(destination):
                    buffer.push(packet, destination)
            return next_id + 1
        if name == "depart":
            destination = int(action[1])
            for buffer in buffers:
                if buffer.peek(destination) is not None:
                    buffer.pop(destination)
            return next_id
        if name == "retire":
            for buffer in buffers:
                buffer.retire_slot()
            return next_id
        raise ConfigurationError(f"unknown action {action!r}")
