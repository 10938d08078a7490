"""Unit tests for the :mod:`repro.kernel` backend abstraction: backend
selection policy and the reasons a config stays off the numpy kernel.
"""

import pytest

from repro.cache.runtime import CacheContext, activate
from repro.errors import ConfigurationError
from repro.kernel import arrivals
from repro.kernel.base import (
    BACKENDS,
    DEFAULT_BACKEND,
    SimKernel,
    choose_backend,
    make_kernel,
    normalize_backend,
    numpy_unsupported_reason,
)
from repro.network import NetworkConfig
from repro.switch.flow_control import Protocol

QUICK = dict(num_ports=16, radix=4, seed=1988)


class TestNormalize:
    def test_known_backends(self):
        assert BACKENDS == ("reference", "numpy")
        assert normalize_backend(" NumPy ") == "numpy"
        assert normalize_backend("reference") == "reference"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_backend("cuda")


class TestResolveBackend:
    def test_default_is_numpy(self):
        assert DEFAULT_BACKEND == "numpy"
        assert choose_backend(NetworkConfig(**QUICK)) == ("numpy", None)

    def test_default_falls_back_to_reference_with_the_reason(self):
        config = NetworkConfig(packet_loss_rate=0.01, **QUICK)
        backend, reason = choose_backend(config)
        assert backend == "reference"
        assert "packet loss" in reason
        assert choose_backend(config, sanitize=True)[1].startswith(
            "the sanitizer"
        )
        # A reference request is not a fallback.
        assert choose_backend(config, "reference") == ("reference", None)

    def test_default_applies_softly(self):
        config = NetworkConfig(**QUICK)
        assert choose_backend(config)[0] == "numpy"
        # Instrumentation the numpy kernel cannot host: the soft
        # default yields to the reference kernel without complaint.
        assert choose_backend(config, sanitize=True)[0] == "reference"
        assert choose_backend(config, trace=True)[0] == "reference"
        assert choose_backend(config, checkpoint=True)[0] == "reference"

    @pytest.mark.parametrize(
        "flags",
        [dict(sanitize=True), dict(trace=True), dict(checkpoint=True)],
    )
    def test_forced_numpy_with_instrumentation_raises(self, flags):
        with pytest.raises(ConfigurationError):
            choose_backend(NetworkConfig(**QUICK), "numpy", **flags)

    def test_forced_numpy_on_unsupported_config_raises(self):
        config = NetworkConfig(packet_size=4, **QUICK)
        with pytest.raises(ConfigurationError):
            choose_backend(config, "numpy")

    def test_soft_preference_on_unsupported_config_falls_back(self):
        config = NetworkConfig(serialize_links=True, **QUICK)
        assert choose_backend(config)[0] == "reference"

    def test_radix_beyond_the_arbitration_key_stays_on_reference(self):
        from repro.network.simulator import simulate

        config = NetworkConfig(num_ports=32, radix=32, seed=1988)
        preferred = simulate(config, warmup_cycles=10, measure_cycles=30)
        reference = simulate(
            config, warmup_cycles=10, measure_cycles=30, backend="reference"
        )
        assert preferred.to_state() == reference.to_state()
        with pytest.raises(ConfigurationError, match="radix 32"):
            simulate(
                config, warmup_cycles=10, measure_cycles=30, backend="numpy"
            )

    def test_forced_reference_always_works(self):
        assert choose_backend(
            NetworkConfig(**QUICK), "reference", sanitize=True
        ) == ("reference", None)


class TestUnsupportedReason:
    def test_paper_grid_is_supported(self):
        for kind in ("FIFO", "SAMQ", "SAFC", "DAMQ"):
            for protocol in (Protocol.BLOCKING, Protocol.DISCARDING):
                config = NetworkConfig(
                    buffer_kind=kind, protocol=protocol, **QUICK
                )
                assert numpy_unsupported_reason(config) is None

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(packet_size=4), "packet sizes"),
            (dict(packet_size_max=8), "packet sizes"),
            (dict(serialize_links=True), "serialization"),
            (dict(packet_loss_rate=0.01), "packet loss"),
            (dict(retired_slots_per_buffer=1), "retired"),
        ],
    )
    def test_extension_features_named(self, overrides, fragment):
        reason = numpy_unsupported_reason(NetworkConfig(**overrides, **QUICK))
        assert reason is not None and fragment in reason


class TestArchZooGating:
    """The ``repro.arch`` architectures stay on the reference kernel."""

    ARCH = dict(slots_per_buffer=8, **QUICK)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(buffer_kind="CQ", arbiter_kind="lqf"), "'CQ'"),
            (dict(buffer_kind="DAMQ-RSV"), "'DAMQ-RSV'"),
            (dict(buffer_kind="DAMQ", arbiter_kind="islip2"), "'islip2'"),
        ],
    )
    def test_unsupported_reason_names_the_kind(self, overrides, fragment):
        reason = numpy_unsupported_reason(
            NetworkConfig(**overrides, **self.ARCH)
        )
        assert reason is not None and fragment in reason

    def test_forced_numpy_rejects_arch_buffers(self):
        config = NetworkConfig(buffer_kind="CQ", **self.ARCH)
        with pytest.raises(ConfigurationError, match="CQ"):
            make_kernel(config, "numpy")
        with pytest.raises(ConfigurationError, match="CQ"):
            choose_backend(config, "numpy")

    def test_soft_preference_falls_back_to_reference(self):
        arch = NetworkConfig(buffer_kind="DAMQ-RSV", **self.ARCH)
        assert choose_backend(arch)[0] == "reference"
        paper = NetworkConfig(buffer_kind="DAMQ", **self.ARCH)
        assert choose_backend(paper)[0] == "numpy"

    def test_reference_kernel_runs_arch_buffers(self):
        config = NetworkConfig(
            buffer_kind="CQ", arbiter_kind="lqf", **self.ARCH
        )
        result = make_kernel(config, "reference").run(20, 60)
        assert result.buffer_kind == "CQ"


class TestMakeKernel:
    def test_the_reference_kernel_is_the_simulator(self):
        from repro.network.simulator import OmegaNetworkSimulator

        config = NetworkConfig(**QUICK)
        assert isinstance(OmegaNetworkSimulator(config), SimKernel)
        kernel = make_kernel(config, "reference")
        assert type(kernel) is OmegaNetworkSimulator
        assert kernel.name == "reference"

    def test_reference_kernel_runs_and_matches_simulator(self):
        from repro.network.simulator import simulate

        config = NetworkConfig(**QUICK)
        result = make_kernel(config, "reference").run(20, 60)
        direct = simulate(config, warmup_cycles=20, measure_cycles=60)
        assert result.to_state() == direct.to_state()

    def test_numpy_kernel_construction_guarded(self):
        kernel = make_kernel(NetworkConfig(**QUICK), "numpy")
        assert type(kernel).__name__ == "NumpyKernel"

    def test_unsupported_config_raises_for_numpy(self):
        with pytest.raises(ConfigurationError):
            make_kernel(NetworkConfig(packet_size=2, **QUICK), "numpy")

    def test_default_backend_is_soft(self):
        assert make_kernel(NetworkConfig(**QUICK)).name == "numpy"
        unsupported = NetworkConfig(packet_size=2, **QUICK)
        assert make_kernel(unsupported).name == "reference"

    def test_state_digest_is_deterministic(self):
        config = NetworkConfig(**QUICK)
        first = make_kernel(config, "reference")
        second = make_kernel(config, "reference")
        for _ in range(30):
            first.step()
            second.step()
        assert first.state_digest() == second.state_digest()


class TestDecodeRuleProbe:
    """The numpy kernel replays numpy's private draw decoding; a cached
    probe checks those rules against the installed numpy first."""

    @pytest.fixture
    def planted(self, monkeypatch):
        # Drop Lemire rejection: a 2**31 + 1 draw that numpy rejects and
        # redraws now decodes to the rejected value instead.
        monkeypatch.setattr(arrivals, "_lemire_threshold", lambda n: 0)
        arrivals.decode_rules_mismatch.cache_clear()
        yield
        arrivals.decode_rules_mismatch.cache_clear()

    def test_installed_numpy_matches_the_rules(self):
        assert arrivals.decode_rules_mismatch() is None

    def test_mismatch_names_the_rule(self, planted):
        reason = arrivals.decode_rules_mismatch()
        assert reason is not None
        assert "integers(0, 2147483649)" in reason

    def test_forced_numpy_raises_on_mismatch(self, planted):
        config = NetworkConfig(**QUICK)
        with pytest.raises(ConfigurationError, match="decoding rules"):
            choose_backend(config, "numpy")
        with pytest.raises(ConfigurationError, match="decoding rules"):
            make_kernel(config, "numpy")
        from repro.kernel.numpy_kernel import NumpyKernel

        with pytest.raises(ConfigurationError, match="decoding rules"):
            NumpyKernel(config)

    def test_soft_default_falls_back_and_records_the_reason(self, planted):
        from repro.network.simulator import simulate
        from repro.perf.parallel import parallel_simulate

        config = NetworkConfig(**QUICK)
        backend, reason = choose_backend(config)
        assert backend == "reference"
        assert "decoding rules" in reason
        context = CacheContext(None, "probe-test")
        with activate(context):
            [result] = parallel_simulate([config], 20, 60)
        assert context.backends == {"reference": 1}
        assert list(context.fallbacks) == [reason]
        direct = simulate(config, 20, 60, backend="reference")
        assert result.to_state() == direct.to_state()


class TestMemoryBound:
    """The numpy kernel's memory follows the live network, not the run:
    arrivals are decoded one window at a time and packets live in a
    fixed pool of recycled slots."""

    @staticmethod
    def batch():
        from repro.kernel.numpy_kernel import NumpyKernel

        return NumpyKernel.batch(
            [
                NetworkConfig(
                    buffer_kind="DAMQ",
                    protocol=Protocol.BLOCKING,
                    offered_load=0.9,
                    **QUICK,
                ),
                NetworkConfig(
                    buffer_kind="SAFC",
                    protocol=Protocol.DISCARDING,
                    traffic_kind="hotspot",
                    offered_load=1.0,
                    **QUICK,
                ),
            ]
        )

    @staticmethod
    def array_bytes(kernel):
        import numpy as np

        return sum(
            value.nbytes
            for owner in (kernel, kernel._decoder)
            for value in vars(owner).values()
            if isinstance(value, np.ndarray)
        )

    def test_a_longer_run_holds_no_more_array_memory(self):
        short, long = self.batch(), self.batch()
        short.run_batch(100, 1000)
        long.run_batch(1000, 11000)
        assert long.cycle == 12000
        assert self.array_bytes(long) == self.array_bytes(short)

    def test_an_empty_free_slot_stack_raises_naming_the_simulation(self):
        from repro.errors import InvariantError

        kernel = self.batch()
        kernel.prepare(100)
        kernel._free_top = 0
        with pytest.raises(
            InvariantError, match=r"simulation 0 .*DAMQ/blocking/smart"
        ):
            for _ in range(100):
                kernel.step()
