"""Unit tests for the multicomputer topology builders and path routing."""

import pytest

from repro.chip import (
    ChipNetwork,
    TopologyBuilder,
    build_mesh,
    build_ring,
    open_shortest_circuit,
    shortest_path,
)
from repro.errors import ConfigurationError, RoutingError


class TestTopologyBuilder:
    def test_ports_allocated_in_order(self):
        network = ChipNetwork()
        builder = TopologyBuilder(network)
        for name in "abc":
            builder.add_node(name)
        assert builder.connect("a", "b") == (0, 0)
        assert builder.connect("a", "c") == (1, 0)

    def test_port_exhaustion(self):
        network = ChipNetwork()
        builder = TopologyBuilder(network)
        builder.add_node("hub")
        for index in range(4):
            builder.add_node(f"leaf{index}")
            builder.connect("hub", f"leaf{index}")
        builder.add_node("extra")
        with pytest.raises(ConfigurationError):
            builder.connect("hub", "extra")

    def test_unknown_node(self):
        builder = TopologyBuilder(ChipNetwork())
        with pytest.raises(ConfigurationError):
            builder.connect("x", "y")


class TestBuilders:
    def test_ring_wraps_around(self):
        network, names = build_ring(5)
        # Shortest path from node0 to node4 goes backwards (1 hop).
        assert shortest_path(network, names[0], names[4]) == [names[0], names[4]]

    def test_ring_minimum_size(self):
        with pytest.raises(ConfigurationError):
            build_ring(2)

    def test_mesh_dimensions_and_interior_degree(self):
        network, names = build_mesh(3, 3)
        assert len(names) == 9
        # Interior node of a 3x3 mesh has all four ports wired.
        wired = [key for key in network._adjacency if key[0] == "node_1_1"]
        assert len(wired) == 4

    def test_mesh_manhattan_distance(self):
        network, names = build_mesh(3, 4)
        path = shortest_path(network, "node_0_0", "node_2_3")
        assert len(path) == 6  # 5 hops = manhattan distance


class TestShortestPath:
    def test_no_path(self):
        network = ChipNetwork()
        network.add_node("a")
        network.add_node("b")
        with pytest.raises(RoutingError):
            shortest_path(network, "a", "b")

    def test_same_node_rejected(self):
        network, names = build_ring(3)
        with pytest.raises(ConfigurationError):
            shortest_path(network, names[0], names[0])

    def test_unknown_node_rejected(self):
        network, names = build_ring(3)
        with pytest.raises(ConfigurationError):
            shortest_path(network, names[0], "ghost")


class TestEndToEnd:
    def test_message_across_mesh(self):
        network, names = build_mesh(2, 2)
        circuit = open_shortest_circuit(network, names[0], names[3])
        network.send(circuit, b"mesh delivery")
        network.run_until_idle()
        received = network.nodes[names[3]].host.received_messages
        assert received[0].payload == b"mesh delivery"
