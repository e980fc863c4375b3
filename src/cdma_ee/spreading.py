"""Random PN spreading codes, their correlation structure, and the receiver model.

Two linear receivers are modelled: the matched filter, which treats
multiple-access interference (MAI) as noise, and the decorrelator, which
nulls MAI at the cost of a per-user noise-enhancement factor equal to the
diagonal of the inverse correlation matrix.  Both are described to the rest
of the package by each user's effective interference I_k, the quantity with
p_k = sinr_k * I_k while the other powers stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReceiverUnavailableError
from .seeding import ensure_rng

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SpreadingCodeSet:
    """Unit-norm random +-1/sqrt(N) codes, one column per user.

    ``correlation`` is the K x K matrix of code inner products; its diagonal
    is exactly 1 because the chip products are accumulated in integer
    arithmetic before the single division by N.
    """

    chips: np.ndarray        # (N, K), entries +-1/sqrt(N)
    correlation: np.ndarray  # (K, K)

    @property
    def processing_gain(self) -> int:
        return self.chips.shape[0]

    @property
    def user_count(self) -> int:
        return self.chips.shape[1]


def generate_codes(
    processing_gain: int,
    user_count: int,
    rng: int | None | np.random.Generator = None,
) -> SpreadingCodeSet:
    """Draw i.i.d. equiprobable +-1 chips scaled by 1/sqrt(N)."""
    if processing_gain < 1 or user_count < 1:
        raise ValueError("processing_gain and user_count must be >= 1")
    gen = ensure_rng(rng)
    # Drawn per user (row-major as (K, N)) so the codes of the first K users
    # do not change when more users are added under the same stream.
    signs = gen.integers(0, 2, size=(user_count, processing_gain)).T * 2 - 1
    correlation = (signs.T @ signs) / float(processing_gain)
    chips = signs / np.sqrt(float(processing_gain))
    return SpreadingCodeSet(chips=chips, correlation=correlation)


def guarded_inverse(matrix: np.ndarray, cond_limit: float = CONDITION_LIMIT) -> np.ndarray:
    """Dense inverse with a 1-norm condition estimate guard."""
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise ReceiverUnavailableError(f"correlation matrix is singular: {exc}") from exc
    cond = np.linalg.norm(matrix, 1) * np.linalg.norm(inverse, 1)
    if not np.isfinite(cond) or cond > cond_limit:
        raise ReceiverUnavailableError(
            f"correlation matrix too ill-conditioned (estimate {cond:.3e} > {cond_limit:.1e})"
        )
    return inverse


def decorrelator_load_error(user_count: int, processing_gain: int) -> str | None:
    """Why a decorrelator cannot separate this many users, or None if it can."""
    if user_count > processing_gain:
        return f"decorrelator needs K <= N, got K={user_count} > N={processing_gain}"
    return None


def _check_powers(powers: np.ndarray) -> np.ndarray:
    powers = np.asarray(powers, dtype=float)
    if np.any(powers < 0.0):
        raise ValueError("transmit powers must be non-negative")
    return powers


def _check_noise(noise_power: float) -> None:
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")


def mf_mai_weights(correlation: np.ndarray) -> np.ndarray:
    """Squared cross-correlations with a zero diagonal (MAI coupling weights).

    Works on one (K, K) matrix or on any stack of them, (..., K, K).
    """
    weights = correlation**2
    idx = np.arange(weights.shape[-1])
    weights[..., idx, idx] = 0.0
    return weights


def mf_sinr(power, gain_power, weights, noise_power: float):
    """Matched-filter SINR and effective interference of a batch of realizations.

    ``power`` and ``gain_power`` are (B, K) and ``weights`` the (B, K, K) MAI
    weights of ``mf_mai_weights``.  The SINR is the own received power over
    MAI plus noise; the effective interference is that denominator over the
    own gain.  Every row is computed on its own, so a realization's values do
    not depend on what else is in the batch.
    """
    power = _check_powers(power)
    _check_noise(noise_power)
    received = power * gain_power
    mai = np.einsum("bkj,bj->bk", weights, received)
    denominator = mai + noise_power
    return received / denominator, denominator / gain_power


def dec_eff_interference(
    gain_power, correlation, active, noise_power: float, cond_limit: float = CONDITION_LIMIT
) -> np.ndarray:
    """Decorrelator effective interference of the active users of one realization.

    The decorrelator D = S R^-1 of the active users nulls their MAI and scales
    the noise by d_k'd_k = [R^-1]_kk, so the result is
    ``noise_power * [R^-1]_kk / gain_power[..., k]`` over the active ``k``.
    ``gain_power`` may stack several draws of the same users, (..., K).  The
    SINR is ``power / eff_interference``, whatever the other users transmit.
    Raises ``ReceiverUnavailableError`` when R is singular or ill-conditioned.
    """
    _check_noise(noise_power)
    active = np.asarray(active, dtype=bool)
    inverse = guarded_inverse(correlation[np.ix_(active, active)], cond_limit)
    return noise_power * np.diagonal(inverse) / gain_power[..., active]
