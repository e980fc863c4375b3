"""One network draw: placements, channel gains, spreading codes, receiver."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, RingGeometry, draw_channel, draw_placement
from .errors import ConfigurationError
from .spreading import SpreadingCodeSet, generate_codes

RECEIVERS = ("mf", "dec")


@dataclass(frozen=True)
class NetworkScenario:
    """Static description of one realization of the uplink."""

    placement: np.ndarray           # distances from the base station in metres
    channel: ChannelState
    codes: SpreadingCodeSet
    receiver: str

    def __post_init__(self):
        if self.receiver not in RECEIVERS:
            raise ConfigurationError(f"receiver must be one of {RECEIVERS}")


def draw_scenario(
    geometry: RingGeometry,
    user_count: int,
    processing_gain: int,
    receiver: str,
    seed: int,
    path_loss_exponent: float = 2.0,
    fading: str = "rayleigh",
) -> NetworkScenario:
    """Draw placement, fading and codes from the three substreams of ``seed``."""
    # The children SeedSequence(seed).spawn(3) gives, without building their parent.
    placement_rng, fading_rng, codes_rng = (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(3)
    )
    placement = draw_placement(geometry, user_count, placement_rng)
    channel = draw_channel(placement, path_loss_exponent, fading, fading_rng)
    codes = generate_codes(processing_gain, user_count, codes_rng)
    return NetworkScenario(placement=placement, channel=channel, codes=codes, receiver=receiver)


def scenario_checksum(scenario: NetworkScenario, users: int | None = None) -> str:
    """Short digest of the random draws of the first ``users`` users (default:
    all), used to verify paired comparisons."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(scenario.placement[:users]).tobytes())
    digest.update(np.ascontiguousarray(scenario.channel.gains[:users]).tobytes())
    digest.update(np.ascontiguousarray(scenario.codes.chips[:, :users]).tobytes())
    return digest.hexdigest()[:16]
