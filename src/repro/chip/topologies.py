"""Topology builders and path routing for ComCoBB multicomputers.

The ComCoBB chip has four network ports, so a node can have up to four
neighbours — enough for the rings and 2D meshes the multicomputer
literature of the era built.
These helpers wire such networks and open circuits along shortest paths,
so examples and tests don't hand-assign ports.

Port assignment is automatic: each ``connect`` consumes the lowest free
network port on both nodes.
"""

from __future__ import annotations

from typing import Any

from collections import deque

from repro.chip.comcobb import PROCESSOR_PORT
from repro.chip.network import ChipNetwork, Circuit
from repro.errors import ConfigurationError, RoutingError

__all__ = [
    "TopologyBuilder",
    "build_ring",
    "build_mesh",
    "shortest_path",
    "open_shortest_circuit",
]


class TopologyBuilder:
    """Incrementally wires a :class:`ChipNetwork` with automatic ports."""

    def __init__(self, network: ChipNetwork) -> None:
        self.network = network
        self._next_port: dict[str, int] = {}

    def add_node(self, name: str) -> None:
        """Create a node and start its port allocator."""
        self.network.add_node(name)
        self._next_port[name] = 0

    def connect(self, name_a: str, name_b: str) -> tuple[int, int]:
        """Join two nodes on their lowest free ports; return those ports."""
        port_a = self._claim_port(name_a)
        port_b = self._claim_port(name_b)
        self.network.connect(name_a, port_a, name_b, port_b)
        return port_a, port_b

    def _claim_port(self, name: str) -> int:
        if name not in self._next_port:
            raise ConfigurationError(f"unknown node {name!r}")
        port = self._next_port[name]
        if port >= PROCESSOR_PORT:
            raise ConfigurationError(
                f"node {name!r} has no free network port (max 4 neighbours)"
            )
        self._next_port[name] = port + 1
        return port


def build_ring(
    count: int, prefix: str = "node", **kwargs: Any
) -> tuple[ChipNetwork, list[str]]:
    """A bidirectional ring of ``count`` nodes."""
    if count < 3:
        raise ConfigurationError("a ring needs at least three nodes")
    network = ChipNetwork(**kwargs)
    builder = TopologyBuilder(network)
    names = [f"{prefix}{index}" for index in range(count)]
    for name in names:
        builder.add_node(name)
    for index in range(count):
        builder.connect(names[index], names[(index + 1) % count])
    return network, names


def build_mesh(
    rows: int, columns: int, prefix: str = "node", **kwargs: Any
) -> tuple[ChipNetwork, list[str]]:
    """A 2D mesh; interior nodes use all four ports."""
    if rows < 1 or columns < 1 or rows * columns < 2:
        raise ConfigurationError("mesh needs at least two nodes")
    network = ChipNetwork(**kwargs)
    builder = TopologyBuilder(network)
    names = [
        [f"{prefix}_{row}_{column}" for column in range(columns)]
        for row in range(rows)
    ]
    for row_names in names:
        for name in row_names:
            builder.add_node(name)
    for row in range(rows):
        for column in range(columns):
            if column + 1 < columns:
                builder.connect(names[row][column], names[row][column + 1])
            if row + 1 < rows:
                builder.connect(names[row][column], names[row + 1][column])
    return network, [name for row_names in names for name in row_names]


def shortest_path(network: ChipNetwork, source: str, destination: str) -> list[str]:
    """Breadth-first shortest node path over the wired adjacency."""
    if source not in network.nodes or destination not in network.nodes:
        raise ConfigurationError("unknown source or destination node")
    if source == destination:
        raise ConfigurationError("source and destination must differ")
    neighbours: dict[str, set[str]] = {}
    for (name, _port), (other, _other_port) in network._adjacency.items():
        neighbours.setdefault(name, set()).add(other)
    frontier = deque([source])
    parent: dict[str, str] = {source: source}
    while frontier:
        here = frontier.popleft()
        if here == destination:
            path = [here]
            while path[-1] != source:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for neighbour in sorted(neighbours.get(here, ())):
            if neighbour not in parent:
                parent[neighbour] = here
                frontier.append(neighbour)
    raise RoutingError(f"no path from {source!r} to {destination!r}")


def open_shortest_circuit(
    network: ChipNetwork, source: str, destination: str
) -> Circuit:
    """Open a virtual circuit along the BFS-shortest path."""
    return network.open_circuit(shortest_path(network, source, destination))
