"""Tests for job specs, the degradation ladder and chaos draws."""

import pytest

from repro.errors import ConfigurationError
from repro.service.chaos import ChaosPolicy
from repro.service.jobs import (
    DEGRADATION_LADDER,
    JobRecord,
    JobSpec,
    analytic_prediction,
)


class TestJobSpec:
    def test_from_payload_roundtrip(self):
        spec = JobSpec.from_payload(
            {"experiment": "Figure3", "quick": True, "seed": 7}
        )
        assert spec == JobSpec(experiment="figure3", quick=True, seed=7)
        assert spec.payload() == {
            "experiment": "figure3",
            "quick": True,
            "seed": 7,
        }

    def test_wait_field_is_tolerated(self):
        spec = JobSpec.from_payload({"experiment": "table1", "wait": True})
        assert spec.experiment == "table1"

    @pytest.mark.parametrize(
        "payload",
        [
            "not-a-dict",
            {},
            {"experiment": "nope"},
            {"experiment": "table1", "quick": "yes"},
            {"experiment": "table1", "seed": 1.5},
            {"experiment": "table1", "seed": True},
            {"experiment": "table1", "bogus": 1},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(payload)

    def test_key_folds_in_source_fingerprint(self):
        # Same spec -> same key; the key is a cache_key, so it embeds the
        # source fingerprint (shape asserted indirectly: differs from the
        # fingerprint-free stale key).
        spec = JobSpec(experiment="table2")
        assert spec.key() == JobSpec(experiment="table2").key()
        assert spec.key() != spec.stale_key()

    def test_stale_key_is_spec_identity_only(self):
        assert (
            JobSpec(experiment="table2").stale_key()
            == JobSpec(experiment="table2").stale_key()
        )
        assert (
            JobSpec(experiment="table2").stale_key()
            != JobSpec(experiment="table2", seed=3).stale_key()
        )

    def test_backend_field_parses_and_normalizes(self):
        spec = JobSpec.from_payload(
            {"experiment": "table1", "backend": "numpy"}
        )
        assert spec.backend == "numpy"
        assert JobSpec.from_payload({"experiment": "table1"}).backend is None

    @pytest.mark.parametrize("backend", ["cuda", 7, ""])
    def test_bad_backend_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload(
                {"experiment": "table1", "backend": backend}
            )

    def test_backend_excluded_from_canonical_payload_and_key(self):
        # Backends produce byte-identical results, so jobs differing only
        # in backend must coalesce: same payload, same key, same stale key.
        plain = JobSpec.from_payload({"experiment": "table3", "quick": True})
        forced = JobSpec.from_payload(
            {"experiment": "table3", "quick": True, "backend": "numpy"}
        )
        assert forced.payload() == plain.payload()
        assert "backend" not in forced.payload()
        assert forced.key() == plain.key()
        assert forced.stale_key() == plain.stale_key()


class TestJobRecord:
    def test_describe_minimal_while_queued(self):
        record = JobRecord(spec=JobSpec(experiment="table1"), key="k")
        document = record.describe()
        assert document["status"] == "queued"
        assert "result" not in document
        assert "source" not in document

    def test_describe_terminal_fields(self):
        record = JobRecord(
            spec=JobSpec(experiment="table1"),
            key="k",
            status="done",
            source="cached",
            result={"report": "text"},
        )
        document = record.describe()
        assert document["source"] == "cached"
        assert document["result"] == {"report": "text"}

    def test_ids_are_unique(self):
        spec = JobSpec(experiment="table1")
        ids = {JobRecord(spec=spec, key="k").id for _ in range(10)}
        assert len(ids) == 10


class TestDegradation:
    def test_ladder_order(self):
        assert DEGRADATION_LADDER == ("fresh", "cached", "stale", "analytic")

    def test_analytic_prediction_shape(self):
        prediction = analytic_prediction(JobSpec(experiment="figure3"))
        assert prediction["model"] == "markov"
        assert set(prediction["steady_state_2x2"]) == {
            "FIFO",
            "DAMQ",
            "SAMQ",
            "SAFC",
        }
        for state in prediction["steady_state_2x2"].values():
            assert 0.0 <= state["discard_probability"] <= 1.0
            assert 0.0 < state["throughput"] <= 1.0
        assert "2" in prediction["hol_saturation_throughput"]


class TestChaosPolicy:
    def test_disabled_by_default(self):
        assert not ChaosPolicy().enabled
        assert ChaosPolicy().draw("t", 1) == {}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(kill_probability=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(kill_after_s=(0.4, 0.1))
        with pytest.raises(ConfigurationError):
            ChaosPolicy(max_injections_per_task=-1)

    def test_draws_are_deterministic(self):
        policy = ChaosPolicy(seed=3, kill_probability=0.5)
        again = ChaosPolicy(seed=3, kill_probability=0.5)
        for attempt in (1, 2):
            for task in ("a", "b", "c"):
                assert policy.draw(task, attempt) == again.draw(task, attempt)

    def test_certain_kill_lands_in_window(self):
        policy = ChaosPolicy(kill_probability=1.0, kill_after_s=(0.1, 0.2))
        envelope = policy.draw("task", 1)
        assert 0.1 <= envelope["kill_after_s"] <= 0.2

    def test_injections_stop_past_the_bound(self):
        policy = ChaosPolicy(
            kill_probability=1.0, max_injections_per_task=2
        )
        assert policy.draw("task", 2) != {}
        assert policy.draw("task", 3) == {}
