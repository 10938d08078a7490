"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.packet import Packet, PacketFactory


@pytest.fixture
def factory() -> PacketFactory:
    """A fresh packet factory per test."""
    return PacketFactory()


def make_packet(
    packet_id: int = 0,
    source: int = 0,
    destination: int = 0,
    size: int = 1,
    route: tuple[int, ...] = (),
) -> Packet:
    """Convenience constructor for buffer-level tests."""
    return Packet(
        packet_id=packet_id,
        source=source,
        destination=destination,
        route=route,
        size=size,
    )


def fill_buffer(buffer, destination: int, count: int, start_id: int = 100):
    """Push ``count`` size-1 packets for one destination; return them."""
    packets = []
    for offset in range(count):
        packet = make_packet(packet_id=start_id + offset, destination=destination)
        buffer.push(packet, destination)
        packets.append(packet)
    return packets


def run_as_experiment(body, name: str = "stub", **options):
    """Return ``body()``, run as the whole of an experiment.

    ``body`` becomes a registered experiment for the duration of one
    :func:`~repro.experiments.runner.run_experiment` call, which gets
    ``options`` (``jobs=2`` gives the run its own supervised pool;
    ``cache`` and the checkpoint options activate as for any experiment).
    """
    from unittest import mock

    from repro.experiments import runner
    from repro.experiments.report import ExperimentResult

    values = []

    def run(quick=False, seed=1988):
        values.append(body())
        return ExperimentResult(
            experiment_id=name, title=name, paper_reference="stub"
        )

    with mock.patch.dict(runner.EXPERIMENTS, {name: run}):
        runner.run_experiment(name, **options)
    return values[0]
