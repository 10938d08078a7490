"""Unit tests for the content-addressed experiment result cache."""

from __future__ import annotations

import json

import pytest

from repro.cache import keys as keys_module
from repro.cache import runtime
from repro.cache.codecs import decode_result, encode_result, known_codecs
from repro.cache.keys import cache_key, canonical_json, source_fingerprint
from repro.cache.runtime import CacheContext, activate, active
from repro.cache.store import ResultCache
from repro.cache.__main__ import main as cache_main
from repro.errors import ConfigurationError
from repro.network.simulator import NetworkConfig, simulate


def small_result():
    config = NetworkConfig(num_ports=8, radix=2, offered_load=0.5, seed=5)
    return simulate(config, warmup_cycles=20, measure_cycles=80)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def test_canonical_json_ignores_dict_order():
    assert canonical_json({"b": 1, "a": [2.5, True]}) == canonical_json(
        {"a": [2.5, True], "b": 1}
    )
    assert canonical_json({"a": 1}) != canonical_json({"a": 2})


def test_source_fingerprint_is_memoized_and_stable(monkeypatch):
    first = source_fingerprint()
    assert first == source_fingerprint()
    # The memo means an (impossible mid-process) source edit is not
    # re-read; prove the cached value is what is served.
    monkeypatch.setattr(keys_module, "_FINGERPRINT", "sentinel")
    assert source_fingerprint() == "sentinel"


def test_cache_key_depends_on_every_component():
    payload = {"config": {"seed": 1}, "warmup": 10, "measure": 20}
    base = cache_key("figure3", "simulation-result", payload)
    assert base == cache_key("figure3", "simulation-result", dict(payload))
    assert base != cache_key("figure4", "simulation-result", payload)
    assert base != cache_key("figure3", "json", payload)
    assert base != cache_key(
        "figure3", "simulation-result", {**payload, "warmup": 11}
    )


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


def test_simulation_result_codec_round_trips_bit_exact():
    result = small_result()
    blob = json.loads(json.dumps(encode_result("simulation-result", result)))
    clone = decode_result("simulation-result", blob)
    assert clone.buffer_kind == result.buffer_kind
    assert clone.meters.snapshot_state() == result.meters.snapshot_state()


def test_chip_campaign_codec_round_trips():
    from repro.faults.campaign import ChipCampaignResult

    campaign = ChipCampaignResult(
        nodes=16,
        bit_flip_rate=1e-3,
        retired_slots_per_buffer=1,
        messages_sent=96,
        messages_delivered=96,
        failed_messages=0,
        retransmissions=31,
        duplicates_dropped=2,
        undecodable_frames=29,
        misrouted_frames=0,
        bytes_seen=4096,
        flips_injected=57,
        cycles=9000,
        fault_counters={"checksum": 29},
    )
    blob = json.loads(json.dumps(encode_result("chip-campaign", campaign)))
    assert decode_result("chip-campaign", blob) == campaign


def test_json_codec_is_identity():
    value = {"fraction": 0.25, "slots": [1, 2, 3]}
    assert decode_result("json", encode_result("json", value)) == value


def test_unknown_codec_is_rejected():
    with pytest.raises(ConfigurationError):
        encode_result("nope", {})
    with pytest.raises(ConfigurationError):
        decode_result("nope", {})


def test_simulation_codec_rejects_foreign_objects():
    with pytest.raises(ConfigurationError):
        encode_result("simulation-result", {"not": "a result"})
    assert "simulation-result" in known_codecs()


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_put_get_round_trip_survives_reopen(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    result = small_result()
    cache.put("k" * 64, "figure3", "simulation-result", result)
    cache.flush()

    reopened = ResultCache(tmp_path / "cache")
    hit = reopened.get("k" * 64)
    assert hit is not None
    assert hit.meters.snapshot_state() == result.meters.snapshot_state()
    assert reopened.hits == 1 and reopened.misses == 0


def test_get_misses_on_unknown_key(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get("f" * 64) is None
    assert cache.misses == 1


def test_get_drops_entry_when_blob_is_deleted(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("a" * 64, "exp", "json", {"x": 1})
    cache._blob_path("a" * 64).unlink()
    assert cache.get("a" * 64) is None
    assert cache.stats().entries == 0


def test_lru_eviction_keeps_most_recently_used(tmp_path):
    cache = ResultCache(tmp_path / "cache", max_entries=2)
    cache.put("a" * 64, "exp", "json", 1)
    cache.put("b" * 64, "exp", "json", 2)
    assert cache.get("a" * 64) == 1  # bump a's last-use past b's
    cache.put("c" * 64, "exp", "json", 3)  # evicts b, the oldest
    assert cache.get("b" * 64) is None
    assert cache.get("a" * 64) == 1
    assert cache.get("c" * 64) == 3
    assert not cache._blob_path("b" * 64).exists()


def test_stats_counts_entries_and_bytes(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("a" * 64, "figure3", "json", {"x": 1})
    cache.put("b" * 64, "table4", "json", {"y": 2})
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.total_bytes > 0
    assert stats.experiments == {"figure3": 1, "table4": 1}
    assert "figure3" in stats.describe()


def test_clear_removes_everything(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("a" * 64, "exp", "json", 1)
    assert cache.clear() == 1
    assert cache.stats().entries == 0
    assert ResultCache(tmp_path / "cache").get("a" * 64) is None


def test_verify_detects_and_drops_corruption(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("a" * 64, "exp", "json", {"x": 1})
    cache.put("b" * 64, "exp", "json", {"y": 2})
    assert cache.verify() == []
    cache._blob_path("a" * 64).write_text("tampered")
    problems = cache.verify()
    assert len(problems) == 1 and "mismatch" in problems[0]
    assert cache.stats().entries == 1


def test_rejects_bad_max_entries(tmp_path):
    with pytest.raises(ConfigurationError):
        ResultCache(tmp_path / "cache", max_entries=0)


def test_corrupt_index_is_treated_as_empty(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "index.json").write_text("not json")
    assert ResultCache(root).stats().entries == 0


# ---------------------------------------------------------------------------
# Runtime context
# ---------------------------------------------------------------------------


def test_activate_installs_and_restores_context(tmp_path):
    assert active() is None
    cache = ResultCache(tmp_path / "cache")
    context = CacheContext(cache, "figure3")
    with activate(context) as installed:
        assert installed is context
        assert active() is context
        assert not context.checkpointing
        cache.put("a" * 64, "figure3", "json", 1)
    assert active() is None
    # activate() flushed the index on the way out.
    assert ResultCache(tmp_path / "cache").get("a" * 64) == 1


def test_activate_restores_previous_context_when_nested(tmp_path):
    outer = CacheContext(None, "outer")
    inner = CacheContext(None, "inner", checkpoint_every=500, checkpoint_dir=tmp_path)
    with activate(outer):
        with activate(inner):
            assert active() is inner
            assert inner.checkpointing
        assert active() is outer
    assert active() is None


def test_activate_restores_context_on_error(tmp_path):
    context = CacheContext(ResultCache(tmp_path / "cache"), "exp")
    with pytest.raises(RuntimeError):
        with activate(context):
            raise RuntimeError("boom")
    assert active() is None


# ---------------------------------------------------------------------------
# Maintenance CLI
# ---------------------------------------------------------------------------


def test_half_a_checkpoint_pair_is_refused(tmp_path):
    from repro.experiments.runner import run_experiment

    with pytest.raises(ConfigurationError, match="checkpoint_dir"):
        CacheContext(None, "exp", checkpoint_dir=tmp_path)
    with pytest.raises(ConfigurationError, match="checkpoint_dir"):
        run_experiment("table1", quick=True, checkpoint_every=100)


def test_cli_stats_clear_verify(tmp_path, capsys):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    cache.put("a" * 64, "figure3", "json", {"x": 1})
    cache.flush()

    assert cache_main(["--cache-dir", str(root), "stats"]) == 0
    assert "entries         1" in capsys.readouterr().out

    assert cache_main(["--cache-dir", str(root), "verify"]) == 0
    assert "sound" in capsys.readouterr().out

    cache._blob_path("a" * 64).write_text("tampered")
    assert cache_main(["--cache-dir", str(root), "verify"]) == 1
    assert "mismatch" in capsys.readouterr().out

    cache = ResultCache(root)
    cache.put("b" * 64, "figure3", "json", {"y": 2})
    cache.flush()
    assert cache_main(["--cache-dir", str(root), "clear"]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert ResultCache(root).stats().entries == 0


# ---------------------------------------------------------------------------
# parallel_map integration
# ---------------------------------------------------------------------------


def test_parallel_map_serves_hits_and_stores_misses(tmp_path):
    from repro.perf.parallel import parallel_map

    cache = ResultCache(tmp_path / "cache")
    executed: list[int] = []
    with activate(CacheContext(cache, "exp")):
        first = parallel_map(
            _double, [1, 2, 3], codec="json", on_executed=executed.append
        )
        second = parallel_map(
            _double, [1, 2, 3], codec="json", on_executed=executed.append
        )
    assert first == second == [2, 4, 6]
    assert executed == [3, 0]
    assert cache.hits == 3 and cache.misses == 3


def test_parallel_map_without_codec_bypasses_cache(tmp_path):
    from repro.perf.parallel import parallel_map

    cache = ResultCache(tmp_path / "cache")
    executed: list[int] = []
    with activate(CacheContext(cache, "exp")):
        parallel_map(_double, [1, 2], on_executed=executed.append)
        parallel_map(_double, [1, 2], on_executed=executed.append)
    assert executed == [2, 2]
    assert cache.stats().entries == 0


def test_parallel_map_validates_payload_length(tmp_path):
    from repro.perf.parallel import parallel_map

    with activate(CacheContext(ResultCache(tmp_path / "c"), "exp")):
        with pytest.raises(ConfigurationError):
            parallel_map(_double, [1, 2], codec="json", payloads=[1])


def _double(value: int) -> int:
    return value * 2
