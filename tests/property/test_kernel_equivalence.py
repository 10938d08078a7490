"""Property-based cross-backend equivalence for the simulation kernels.

The vectorized numpy kernel claims *byte identity* with the reference
simulator — not statistical agreement.  Hypothesis drives randomized
configurations (buffer kind, protocol, arbiter, traffic, load, seed)
through both backends and asserts the complete packed result state —
every counter and the exact Welford accumulator state — is equal, plus
the packed per-cycle state digests at the end of the run.

Batching is part of the claim too: fusing several configurations into
one struct-of-arrays kernel — any mix of buffer kinds — must leave each
configuration's results identical to running it alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.base import make_kernel
from repro.kernel.numpy_kernel import NumpyKernel, batch_group_key
from repro.network import NetworkConfig
from repro.switch.flow_control import Protocol
from repro.utils.digest import digest_json

configs = st.fixed_dictionaries(
    {
        "buffer_kind": st.sampled_from(["FIFO", "SAMQ", "SAFC", "DAMQ"]),
        "offered_load": st.sampled_from([0.1, 0.5, 0.9, 1.0]),
        "protocol": st.sampled_from([Protocol.BLOCKING, Protocol.DISCARDING]),
        "arbiter_kind": st.sampled_from(["smart", "dumb"]),
        "traffic_kind": st.sampled_from(["uniform", "hotspot", "permutation"]),
        "flow_control_fidelity": st.sampled_from(["precise", "conservative"]),
        "seed": st.integers(min_value=0, max_value=10_000),
        # SAMQ statically partitions capacity across the radix-4 output
        # ports, so slots must stay divisible by 4.
        "slots_per_buffer": st.sampled_from([4, 8]),
    }
)


def both_backends(config, warmup=30, measure=90):
    reference = make_kernel(config, "reference")
    vectorized = make_kernel(config, "numpy")
    reference_result = reference.run(warmup, measure)
    numpy_result = vectorized.run(warmup, measure)
    return reference, vectorized, reference_result, numpy_result


@settings(max_examples=20, deadline=None)
@given(config=configs)
def test_backends_agree_on_random_configs(config):
    network = NetworkConfig(num_ports=16, radix=4, **config)
    reference, vectorized, ref_result, np_result = both_backends(network)
    # Byte identity of the complete result state: every counter and the
    # exact streaming-statistics state, not just headline metrics.
    assert ref_result.to_state() == np_result.to_state()
    # And of the packed simulator state the differential harness hashes.
    assert reference.state_digest() == vectorized.state_digest()


KINDS = ["FIFO", "SAMQ", "SAFC", "DAMQ"]


@settings(max_examples=8, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.sampled_from([0.2, 0.4, 0.7, 1.0]),
        ),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    protocol=st.sampled_from([Protocol.BLOCKING, Protocol.DISCARDING]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_run_matches_individual_runs(cells, protocol, seed):
    members = [
        NetworkConfig(
            num_ports=16,
            radix=4,
            buffer_kind=kind,
            protocol=protocol,
            offered_load=load,
            seed=seed,
        )
        for kind, load in cells
    ]
    keys = {batch_group_key(config) for config in members}
    assert len(keys) == 1, "buffer kinds and loads must not split the batch"
    batched = NumpyKernel.batch(members).run_batch(20, 80)
    for config, fused in zip(members, batched):
        alone = NumpyKernel(config).run(20, 80)
        assert fused.to_state() == alone.to_state()


@pytest.mark.parametrize("per_stage", [False, True], ids=["gated", "per-stage"])
@pytest.mark.parametrize(
    "protocols",
    [
        [Protocol.BLOCKING] * 4,
        [Protocol.BLOCKING, Protocol.DISCARDING] * 2,
    ],
    ids=["blocking", "mixed-protocol"],
)
@pytest.mark.parametrize("seed", [1988, 7])
def test_mixed_kind_blocking_batch_matches_reference_every_cycle(
    seed, protocols, per_stage, monkeypatch
):
    # One fused kernel holding all four buffer kinds under hot-spot
    # traffic near saturation, so the per-stage walk and the FIFO's
    # oldest-head selection both run alongside the queue kinds.  The
    # mixed-protocol batch fuses discarding sims into a blocking walk,
    # whose blocked mask they must ignore.
    if per_stage:
        # Every cycle walks one network stage at a time, even when no
        # downstream buffer is full.
        monkeypatch.setattr(
            NumpyKernel, "_any_downstream_full", lambda self: True
        )
    members = [
        NetworkConfig(
            num_ports=16,
            radix=4,
            buffer_kind=kind,
            protocol=protocol,
            arbiter_kind=arbiter,
            traffic_kind="hotspot",
            offered_load=0.9,
            seed=seed + index,
        )
        for index, (kind, protocol, arbiter) in enumerate(
            zip(KINDS, protocols, ["smart", "dumb", "smart", "dumb"])
        )
    ]
    fused = NumpyKernel.batch(members)
    references = [make_kernel(config, "reference") for config in members]
    for cycle in range(60):
        fused.step()
        for sim, reference in enumerate(references):
            reference.step()
            assert fused.packed_state_for(sim) == reference.packed_state(), (
                f"{members[sim].buffer_kind} diverged at cycle {cycle + 1}"
            )


def test_fifo_reads_the_oldest_arrival_not_the_lowest_id():
    # Plant two packets in one last-stage FIFO: the older arrival has the
    # larger id and sits on the higher output, so ordering by packet id
    # or by output index would read the wrong one.
    config = NetworkConfig(
        num_ports=16,
        radix=4,
        buffer_kind="FIFO",
        protocol=Protocol.BLOCKING,
        offered_load=0.1,
        seed=1988,
    )
    kernel = NumpyKernel(config)
    kernel.prepare(200)
    last = kernel.S - 1
    older, newer = 5, 3
    for packet, output, arrived in ((older, 2, 0), (newer, 1, 1)):
        # Take a slot off the free-slot stack for the planted packet.
        kernel._free_top -= 1
        slot = kernel._free[kernel._free_top]
        kernel.pk_id[slot] = packet
        # Switch 0's output ``o`` of the last stage feeds sink ``o``.
        kernel.pk_dest[slot] = output
        kernel.ring[last, 0, 0, output, 0] = slot
        kernel.arrived[last, 0, 0, output, 0] = arrived
        kernel.qlen[last, 0, 0, output] = 1
    kernel.occb[last, 0, 0] = 2
    kernel.stage_slots[last] = 2
    kernel.next_idv[0] = older + 1  # fresh packets take later ids
    kernel.step()
    assert kernel.sink_recv[:4].tolist() == [0, 0, 1, 0]
    queues = kernel.packed_state()["switches"][last][0]["queues"][0]
    assert [[entry[0] for entry in queue] for queue in queues] == [[newer]]


@settings(max_examples=10, deadline=None)
@given(config=configs, cycles=st.integers(min_value=1, max_value=40))
def test_stepwise_digests_match_cycle_by_cycle(config, cycles):
    # The differential harness's core claim: the packed states agree at
    # *every* cycle boundary, not only at the end of a run.
    network = NetworkConfig(num_ports=16, radix=4, **config)
    reference = make_kernel(network, "reference")
    vectorized = make_kernel(network, "numpy")
    for cycle in range(cycles):
        reference.step()
        vectorized.step()
        assert reference.state_digest() == vectorized.state_digest(), (
            f"diverged at cycle {cycle + 1}"
        )


def test_result_state_digest_is_json_stable():
    # to_state() must stay digestible by the shared canonical encoder —
    # the differential harness pins result digests through digest_json.
    config = NetworkConfig(num_ports=16, radix=4, seed=1988)
    result = make_kernel(config, "numpy").run(20, 60)
    assert digest_json(result.to_state()) == digest_json(result.to_state())
