"""Named, bit-exact encoders/decoders for cacheable result objects.

A cache blob is plain JSON; a *codec* maps a result object to that JSON
and back without losing a bit.  Codecs are looked up by name — the name
is part of the cache key, so changing an encoding can never mis-decode
an old blob (it simply misses).

The repository's cacheable results:

``simulation-result``
    :class:`~repro.network.metrics.SimulationResult` — the flat config
    echo plus the meters, whose Welford accumulators are stored as
    their exact state dicts (JSON round-trips Python floats exactly, and
    preserves the int extrema the determinism pins check).
``chip-campaign``
    :class:`~repro.faults.campaign.ChipCampaignResult` — the closed-loop
    chip fault campaign's counters (flat primitives plus one str→int
    dict).
``json``
    The identity codec for results that are already JSON values (e.g.
    the slot-size sweep's fragmentation fractions).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, fields
from typing import Any

from repro.errors import ConfigurationError
from repro.network.metrics import Meters, SimulationResult

__all__ = ["decode_result", "encode_result", "known_codecs"]


def _encode_simulation_result(result: Any) -> Any:
    if not isinstance(result, SimulationResult):
        raise ConfigurationError(
            f"simulation-result codec cannot encode {type(result).__name__}"
        )
    blob = {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if f.name != "meters"
    }
    blob["meters"] = result.meters.snapshot_state()
    return blob


def _decode_simulation_result(blob: Any) -> Any:
    state = dict(blob)
    meters_state = state.pop("meters")
    meters = Meters(num_ports=meters_state["num_ports"])
    meters.restore_state(meters_state)
    return SimulationResult(meters=meters, **state)


def _encode_chip_campaign(result: Any) -> Any:
    from repro.faults.campaign import ChipCampaignResult

    if not isinstance(result, ChipCampaignResult):
        raise ConfigurationError(
            f"chip-campaign codec cannot encode {type(result).__name__}"
        )
    return asdict(result)


def _decode_chip_campaign(blob: Any) -> Any:
    from repro.faults.campaign import ChipCampaignResult

    return ChipCampaignResult(**blob)


def _identity(value: Any) -> Any:
    return value


_CODECS: dict[str, tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {
    "simulation-result": (_encode_simulation_result, _decode_simulation_result),
    "chip-campaign": (_encode_chip_campaign, _decode_chip_campaign),
    "json": (_identity, _identity),
}


def known_codecs() -> tuple[str, ...]:
    """The registered codec names."""
    return tuple(_CODECS)


def _lookup(codec: str) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    try:
        return _CODECS[codec]
    except KeyError:
        raise ConfigurationError(
            f"unknown cache codec {codec!r}; expected one of {known_codecs()}"
        ) from None


def encode_result(codec: str, result: Any) -> Any:
    """Encode ``result`` into the JSON blob stored under ``codec``."""
    return _lookup(codec)[0](result)


def decode_result(codec: str, blob: Any) -> Any:
    """Decode a stored blob back into its result object, bit-exact."""
    return _lookup(codec)[1](blob)
