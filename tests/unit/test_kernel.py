"""Unit tests for the :mod:`repro.kernel` backend abstraction: backend
selection policy and the reasons a config stays off the numpy kernel.
"""

import pytest

from repro.errors import ConfigurationError
from repro.kernel.base import (
    BACKEND_ENV,
    BACKENDS,
    DEFAULT_BACKEND,
    make_kernel,
    normalize_backend,
    numpy_unsupported_reason,
    requested_backend,
    resolve_backend,
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


class TestRequestedBackend:
    def test_unset_and_zero_mean_none(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert requested_backend() is None
        monkeypatch.setenv(BACKEND_ENV, "0")
        assert requested_backend() is None

    def test_env_value_is_normalized(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "NUMPY")
        assert requested_backend() == "numpy"

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "gpu")
        with pytest.raises(ConfigurationError):
            requested_backend()


class TestResolveBackend:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(NetworkConfig(**QUICK)) == DEFAULT_BACKEND

    def test_env_preference_applies_softly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        config = NetworkConfig(**QUICK)
        assert resolve_backend(config) == "numpy"
        # Instrumentation the numpy kernel cannot host: the soft
        # preference yields to the reference kernel without complaint.
        assert resolve_backend(config, sanitize=True) == "reference"
        assert resolve_backend(config, trace=True) == "reference"
        assert resolve_backend(config, checkpoint=True) == "reference"

    @pytest.mark.parametrize(
        "flags",
        [dict(sanitize=True), dict(trace=True), dict(checkpoint=True)],
    )
    def test_forced_numpy_with_instrumentation_raises(self, flags):
        with pytest.raises(ConfigurationError):
            resolve_backend(NetworkConfig(**QUICK), "numpy", **flags)

    def test_forced_numpy_on_unsupported_config_raises(self):
        config = NetworkConfig(packet_size=4, **QUICK)
        with pytest.raises(ConfigurationError):
            resolve_backend(config, "numpy")

    def test_soft_preference_on_unsupported_config_falls_back(
        self, monkeypatch
    ):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        config = NetworkConfig(serialize_links=True, **QUICK)
        assert resolve_backend(config) == "reference"

    def test_forced_reference_always_works(self):
        assert (
            resolve_backend(NetworkConfig(**QUICK), "reference", sanitize=True)
            == "reference"
        )


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
            resolve_backend(config, "numpy")

    def test_soft_preference_falls_back_to_reference(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        arch = NetworkConfig(buffer_kind="DAMQ-RSV", **self.ARCH)
        assert resolve_backend(arch) == "reference"
        paper = NetworkConfig(buffer_kind="DAMQ", **self.ARCH)
        assert resolve_backend(paper) == "numpy"

    def test_reference_kernel_runs_arch_buffers(self):
        config = NetworkConfig(
            buffer_kind="CQ", arbiter_kind="lqf", **self.ARCH
        )
        result = make_kernel(config, "reference").run(20, 60)
        assert result.buffer_kind == "CQ"


class TestMakeKernel:
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

    def test_state_digest_is_deterministic(self):
        config = NetworkConfig(**QUICK)
        first = make_kernel(config, "reference")
        second = make_kernel(config, "reference")
        for _ in range(30):
            first.step()
            second.step()
        assert first.state_digest() == second.state_digest()
