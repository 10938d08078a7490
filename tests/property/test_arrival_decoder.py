"""The numpy kernel's batch arrival decoder against the reference sources.

:func:`repro.kernel.arrivals.decode_arrivals` replays numpy's bit-level
draw rules over raw PCG64 words, one window of attempts at a time, for
every source of a batch at once.  Its claim is exactness: source by
source, the decoded ``(attempt, destination, offset)`` stream is the one
a reference :class:`~repro.network.sources.Source` (``RandomStream`` +
``BatchedBernoulli``) produces when it never stalls, for every traffic
kind, at the loads and hot-spot fractions where ``RandomStream`` skips
its draws (0.0 and 1.0) and in between.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import PacketFactory
from repro.kernel.arrivals import WINDOW, ArrivalDecoder, decode_arrivals
from repro.network import NetworkConfig
from repro.network.simulator import CYCLE_CLOCKS
from repro.network.sources import Source
from repro.network.topology import OmegaTopology
from repro.network.traffic import make_traffic
from repro.utils.rng import RandomStream

NUM_PORTS = 16

members = st.lists(
    st.fixed_dictionaries(
        {
            "traffic_kind": st.sampled_from(
                ["uniform", "hotspot", "permutation"]
            ),
            "offered_load": st.sampled_from([0.0, 0.05, 0.3, 0.8, 1.0]),
            "hot_fraction": st.sampled_from([0.0, 0.05, 0.5, 1.0]),
            "seed": st.integers(min_value=0, max_value=10_000),
        }
    ),
    min_size=1,
    max_size=3,
)


def reference_arrivals(config, port, attempts):
    """``(attempt, destination, offset)`` of a never-stalled source."""
    pattern = make_traffic(config.traffic_kind, NUM_PORTS, config.hot_fraction)
    source = Source(
        port=port,
        offered_load=config.offered_load,
        topology=OmegaTopology(NUM_PORTS, 4),
        pattern=pattern,
        factory=PacketFactory(),
        rng=RandomStream(config.seed, "omega").spawn(f"source{port}"),
        queue_capacity=0,
        cycle_clocks=CYCLE_CLOCKS,
    )
    arrivals = []
    for cycle in range(attempts):
        packet = source.maybe_generate(cycle)
        if packet is not None:
            offset = packet.created_at - cycle * CYCLE_CLOCKS
            arrivals.append((cycle + 1, packet.destination, offset))
    return arrivals


def batch(cells):
    return [NetworkConfig(num_ports=NUM_PORTS, radix=4, **cell) for cell in cells]


@settings(max_examples=15, deadline=None)
@given(cells=members, windows=st.integers(min_value=3, max_value=4))
def test_each_window_matches_never_stalled_reference_sources(cells, windows):
    configs = batch(cells)
    decoder = ArrivalDecoder(configs)
    horizon = windows * WINDOW
    expected = [
        reference_arrivals(config, port, horizon)
        for config in configs
        for port in range(NUM_PORTS)
    ]
    for window in range(windows):
        # A source that never stalls has made every decoded attempt.
        sources, attempts, dests, offsets = decode_arrivals(
            decoder, decoder.decoded.copy()
        )
        decoded = list(
            zip(sources.tolist(), attempts.tolist(), dests.tolist(), offsets.tolist())
        )
        assert decoded == sorted(decoded)
        lo, hi = window * WINDOW, (window + 1) * WINDOW
        for source, reference in enumerate(expected):
            mine = [entry[1:] for entry in decoded if entry[0] == source]
            assert mine == [a for a in reference if lo < a[0] <= hi], (
                f"source {source} ({configs[source // NUM_PORTS]}) "
                f"diverged in window {window}"
            )


@settings(max_examples=10, deadline=None)
@given(cells=members, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stalled_sources_decode_the_same_stream_and_stay_bounded(cells, seed):
    # Sources that make fewer attempts than there are cycles (stalled
    # behind a full injection queue) skip windows while they lead by a
    # window or more; their streams stay those of the reference.
    configs = batch(cells)
    decoder = ArrivalDecoder(configs)
    progress = np.random.default_rng(seed)
    made = np.zeros(len(configs) * NUM_PORTS, dtype=np.int64)
    streams = [[] for _ in made]
    for _window in range(6):
        sources, attempts, dests, offsets = decode_arrivals(decoder, made)
        for entry in zip(
            sources.tolist(), attempts.tolist(), dests.tolist(), offsets.tolist()
        ):
            streams[entry[0]].append(entry[1:])
        lead = (decoder.decoded - made)[decoder.live]
        assert ((lead >= WINDOW) & (lead < 2 * WINDOW)).all()
        # At most one attempt per cycle over the window's cycles.
        made += progress.integers(0, WINDOW + 1, size=made.size)
        np.minimum(made, decoder.decoded, out=made)
    for source, stream in enumerate(streams):
        config = configs[source // NUM_PORTS]
        reference = reference_arrivals(
            config, source % NUM_PORTS, int(decoder.decoded[source])
        )
        assert stream == reference
