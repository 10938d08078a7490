"""Value Change Dump (VCD) export of queue lengths and free-list depth.

The waveform view the paper's Section 3 reasoning calls for: every
buffer's per-destination queue length and its free-slot depth over time,
loadable in GTKWave (or any IEEE 1364 VCD viewer).  Signals are
reconstructed from the trace events — each ``enqueue``/``dequeue`` event
carries the *absolute* new queue length and free depth, and each
``alloc``/``free``/``retire`` event carries the absolute free depth, so
a ring that dropped early history still produces correct values from the
first retained event onward (signals dump as ``x`` until then).

Hierarchy: the dotted component labels (``stage0.switch3.in2``) become
nested ``$scope module`` levels, so GTKWave's tree matches the
simulator's structure.  One timescale unit is one *clock*; event times
are ``cycle * cycle_clocks`` (the paper's 12-clock network cycle).

:func:`read_vcd` is the minimal structural parser the tests and the CI
smoke job use to validate exported files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.errors import ConfigurationError
from repro.network.simulator import CYCLE_CLOCKS
from repro.telemetry.events import TraceEvent

__all__ = ["read_vcd", "write_vcd"]

#: Signal width in bits (queue lengths and free depths are small ints).
_WIDTH = 16

#: Printable VCD identifier-code alphabet ('!' .. '~').
_ID_ALPHABET = [chr(code) for code in range(33, 127)]


def _id_code(index: int) -> str:
    """Compact printable identifier code for the ``index``-th signal."""
    base = len(_ID_ALPHABET)
    code = _ID_ALPHABET[index % base]
    while index >= base:
        index = index // base - 1
        code = _ID_ALPHABET[index % base] + code
    return code


def _signal_changes(
    events: Iterable[TraceEvent],
) -> dict[tuple[str, str], list[tuple[int, int]]]:
    """(component, signal) -> [(cycle, absolute value), ...] in order."""
    changes: dict[tuple[str, str], list[tuple[int, int]]] = {}

    def note(component: str, signal: str, cycle: int, value: int) -> None:
        changes.setdefault((component, signal), []).append((cycle, value))

    for event in events:
        if event.kind in ("enqueue", "dequeue"):
            note(event.component, f"q{event.port}", event.cycle, event.value)
            note(event.component, "free", event.cycle, event.extra)
        elif event.kind in ("alloc", "free", "retire"):
            note(event.component, "free", event.cycle, event.extra)
    return changes


def write_vcd(
    events: Iterable[TraceEvent],
    path: str | Path,
    cycle_clocks: int = CYCLE_CLOCKS,
) -> Path:
    """Write the queue-length/free-depth waveform of ``events`` to ``path``.

    Deterministic output: signals are declared in sorted (component,
    signal) order and identifier codes assigned in that order, so the
    same events always produce a byte-identical file.
    """
    changes = _signal_changes(events)
    keys = sorted(changes)
    codes = {key: _id_code(index) for index, key in enumerate(keys)}

    lines: list[str] = [
        "$comment repro.telemetry queue-length/free-depth waveform $end",
        "$version repro.telemetry $end",
        "$timescale 1 ns $end",
    ]
    # Nested scopes from the dotted component labels.
    open_scope: list[str] = []
    for component, signal in keys:
        scope = component.split(".")
        while open_scope and open_scope != scope[: len(open_scope)]:
            lines.append("$upscope $end")
            open_scope.pop()
        while len(open_scope) < len(scope):
            lines.append(f"$scope module {scope[len(open_scope)]} $end")
            open_scope.append(scope[len(open_scope)])
        code = codes[(component, signal)]
        lines.append(f"$var wire {_WIDTH} {code} {signal} $end")
    while open_scope:
        lines.append("$upscope $end")
        open_scope.pop()
    lines.append("$enddefinitions $end")
    # All signals unknown until their first retained event.
    lines.append("$dumpvars")
    for key in keys:
        lines.append(f"bx {codes[key]}")
    lines.append("$end")

    # Merge per-signal change lists into one time-ordered dump.  Events
    # arrive cycle-ordered already; collect per-cycle buckets, keeping
    # only each signal's last value within a cycle.
    by_time: dict[int, dict[str, int]] = {}
    for key, signal_changes in changes.items():
        code = codes[key]
        for cycle, value in signal_changes:
            by_time.setdefault(cycle * cycle_clocks, {})[code] = value
    last_value: dict[str, int] = {}
    for time in sorted(by_time):
        bucket = by_time[time]
        dump = [
            f"b{value:b} {code}"
            for code, value in sorted(bucket.items())
            if last_value.get(code) != value
        ]
        if not dump:
            continue
        lines.append(f"#{time}")
        lines.extend(dump)
        for code, value in bucket.items():
            last_value[code] = value

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines) + "\n")
    return target


def read_vcd(path: str | Path) -> dict[str, object]:
    """Structurally parse a VCD file (validation for tests/CI).

    Returns ``{"signals": {hierarchical name: id code}, "changes": N,
    "times": M}``.  Raises :class:`~repro.errors.ConfigurationError` on
    malformed structure: unbalanced scopes, a value change for an
    undeclared identifier, or a missing ``$enddefinitions``.
    """
    signals: dict[str, str] = {}
    declared: set[str] = set()
    scope: list[str] = []
    in_definitions = True
    saw_enddefinitions = False
    changes = 0
    times = 0
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_definitions:
            if line.startswith("$scope"):
                parts = line.split()
                if len(parts) < 4 or parts[-1] != "$end":
                    raise ConfigurationError(f"malformed scope line: {line}")
                scope.append(parts[2])
            elif line.startswith("$upscope"):
                if not scope:
                    raise ConfigurationError("unbalanced $upscope")
                scope.pop()
            elif line.startswith("$var"):
                parts = line.split()
                if len(parts) != 6 or parts[-1] != "$end":
                    raise ConfigurationError(f"malformed var line: {line}")
                code, name = parts[3], parts[4]
                signals[".".join(scope + [name])] = code
                declared.add(code)
            elif line.startswith("$enddefinitions"):
                if scope:
                    raise ConfigurationError(
                        f"$enddefinitions with {len(scope)} open scope(s)"
                    )
                in_definitions = False
                saw_enddefinitions = True
            continue
        if line in ("$dumpvars", "$end"):
            continue
        if line.startswith("#"):
            times += 1
            continue
        if line.startswith("b"):
            parts = line.split()
            if len(parts) != 2 or parts[1] not in declared:
                raise ConfigurationError(f"change for undeclared id: {line}")
            changes += 1
            continue
        raise ConfigurationError(f"unrecognized VCD line: {line}")
    if not saw_enddefinitions:
        raise ConfigurationError("VCD file has no $enddefinitions")
    return {"signals": signals, "changes": changes, "times": times}
