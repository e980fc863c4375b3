import numpy as np
import pytest

import cdma_ee as ce
from cdma_ee.control import mf_width
from cdma_ee.spreading import (
    CONDITION_LIMIT,
    decorrelator_load_error,
    guarded_inverse,
    mf_mai_weights,
)

from conftest import codes_from_signs


def test_single_code_is_unit_norm():
    codes = ce.generate_codes(15, 1, 0)
    assert codes.correlation.shape == (1, 1)
    assert codes.correlation[0, 0] == 1.0


def test_orthogonal_pair_has_identity_correlation():
    codes = codes_from_signs([[1, 1], [1, -1]])
    assert np.array_equal(codes.correlation, np.eye(2))


def test_chip_values_and_exact_diagonal():
    codes = ce.generate_codes(63, 15, 42)
    assert set(np.unique(codes.chips)) == {-1.0 / np.sqrt(63.0), 1.0 / np.sqrt(63.0)}
    assert np.array_equal(np.diagonal(codes.correlation), np.ones(15))
    assert np.array_equal(codes.correlation, codes.correlation.T)
    assert np.all(np.abs(codes.correlation) <= 1.0)


@pytest.mark.parametrize("n", [15, 31, 63])
def test_float64_correlation_equals_integer_product(n):
    # Every partial sum of the +-1 product is an integer of magnitude <= N,
    # so the float64 (BLAS) product must match the int64 one to the byte.
    for seed in (0, 1, 2):
        for k in range(1, n + 1):
            correlation = ce.generate_codes(n, k, seed).correlation
            signs = np.random.default_rng(seed).integers(0, 2, size=(k, n)).T * 2 - 1
            assert signs.dtype == np.int64
            assert correlation.tobytes() == ((signs.T @ signs) / float(n)).tobytes()
            assert np.all(np.diagonal(correlation) == 1.0)


def test_generate_codes_determinism():
    a = ce.generate_codes(31, 8, 5)
    b = ce.generate_codes(31, 8, 5)
    assert np.array_equal(a.chips, b.chips)


def test_mean_square_cross_correlation_near_reciprocal_gain():
    # E[rho^2] = 1/N for random +-1/sqrt(N) codes
    totals = []
    for seed in range(60):
        codes = ce.generate_codes(63, 15, seed)
        off = codes.correlation[~np.eye(15, dtype=bool)]
        totals.append(np.mean(off**2))
    assert abs(np.mean(totals) - 1.0 / 63.0) / (1.0 / 63.0) < 0.2


def mf(codes, gain_power, powers, noise_power=1e-12):
    """Matched-filter (sinr, eff_interference) of one realization."""
    sinr, itf = ce.mf_sinr(
        np.asarray(powers, dtype=float)[None],
        np.asarray(gain_power, dtype=float)[None],
        mf_mai_weights(codes.correlation)[None],
        noise_power,
    )
    return sinr[0], itf[0]


def dec(codes, gain_power, noise_power=1e-12, active=None):
    """Decorrelator effective interference of the active users (default: all)."""
    if active is None:
        active = np.ones(codes.correlation.shape[0], dtype=bool)
    return ce.dec_eff_interference(
        np.asarray(gain_power, dtype=float), codes.correlation, active, noise_power
    )


def noise_enhancement(codes, active=None):
    """[R^-1]_kk of the active users: DEC effective interference at unit noise and gain."""
    return dec(codes, np.ones(codes.correlation.shape[0]), 1.0, active)


def test_decorrelator_with_orthogonal_codes_is_identity():
    codes = codes_from_signs([[1, 1], [1, -1]])
    assert np.array_equal(noise_enhancement(codes), np.ones(2))
    # identity filters: the decorrelator sees exactly the matched filter's interference
    gain = np.array([4e-4, 2.5e-5])
    assert np.array_equal(dec(codes, gain), mf(codes, gain, [1e-3, 2e-3])[1])


def test_decorrelator_two_user_correlated():
    # rho = 0.5; direct 2x2 inversion gives [R^-1]_kk = 1/(1 - rho^2) = 4/3
    codes = codes_from_signs([[1, 1], [1, 1], [1, 1], [1, -1]])
    assert codes.correlation[0, 1] == 0.5
    assert noise_enhancement(codes) == pytest.approx([4.0 / 3.0, 4.0 / 3.0], rel=1e-12)


def test_decorrelator_algebraic_identity():
    for seed in range(10):
        codes = ce.generate_codes(63, 40, seed)
        enhancement = noise_enhancement(codes)
        inverse = np.linalg.inv(codes.correlation)
        filters = codes.chips @ inverse  # decorrelating filters D = S R^-1
        assert np.max(np.abs(filters.T @ filters - inverse)) < 1e-10
        assert enhancement == pytest.approx(
            np.einsum("nk,nk->k", filters, filters), rel=1e-9
        )
        assert np.all(enhancement >= 1.0 - 1e-12)


def test_decorrelator_rank_guard():
    codes = ce.generate_codes(8, 9, 0)
    assert "K <= N" in decorrelator_load_error(9, 8)
    assert decorrelator_load_error(8, 8) is None
    with pytest.raises(ce.ReceiverUnavailableError):
        noise_enhancement(codes)


def test_decorrelator_condition_guard():
    # duplicated codes make the correlation exactly singular
    signs = np.ones((8, 2), dtype=np.int64)
    with pytest.raises(ce.ReceiverUnavailableError):
        noise_enhancement(codes_from_signs(signs))


def test_guarded_inverse_of_a_stack_checks_each_matrix():
    # N = K = 4 draws: about half are singular or ill-conditioned, the rest regular.
    stack = np.stack([ce.generate_codes(4, 4, seed).correlation for seed in range(40)])
    refusals = {}
    for i, matrix in enumerate(stack):
        try:
            single = guarded_inverse(matrix)
        except ce.ReceiverUnavailableError as exc:
            refusals[i] = str(exc)
            continue
        assert np.array_equal(guarded_inverse(matrix[None])[0], single)
        cond = np.linalg.norm(matrix, 1) * np.linalg.norm(single, 1)
        assert cond <= CONDITION_LIMIT
    assert 0 < len(refusals) < len(stack)
    assert {"correlation matrix is singular: Singular matrix"} < set(refusals.values())
    regular = [i for i in range(len(stack)) if i not in refusals]
    stacked = guarded_inverse(stack[regular])
    for row, i in enumerate(regular):
        assert np.array_equal(stacked[row], np.linalg.inv(stack[i]))
    for i, reason in refusals.items():
        with pytest.raises(ce.ReceiverUnavailableError, match="correlation matrix"):
            guarded_inverse(stack[[regular[0], i]])
        with pytest.raises(ce.ReceiverUnavailableError) as exc:
            guarded_inverse(stack[i][None])
        assert str(exc.value) == reason
        if "singular" not in reason:  # the estimate np.linalg.norm gives, to the byte
            cond = np.linalg.norm(stack[i], 1) * np.linalg.norm(np.linalg.inv(stack[i]), 1)
            limit = f"(estimate {cond:.3e} > {CONDITION_LIMIT:.1e})"
            assert reason == f"correlation matrix too ill-conditioned {limit}"


def test_stacked_dec_interference_equals_each_row_alone():
    # Rows with equal active counts, as the control loop stacks them after removals.
    rng = np.random.default_rng(17)
    gain = rng.uniform(1e-9, 1e-6, size=(30, 12))
    corr = np.stack([ce.generate_codes(31, 12, rng).correlation for _ in range(30)])
    active = np.ones((30, 12), dtype=bool)
    for b in range(30):
        active[b, rng.choice(12, size=b % 4, replace=False)] = False
    counts = active.sum(axis=1)
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        stacked = ce.dec_eff_interference(gain[rows], corr[rows], active[rows], 1e-12)
        assert stacked.shape == (rows.size, k)
        for row, b in enumerate(rows):
            alone = ce.dec_eff_interference(gain[b], corr[b], active[b], 1e-12)
            assert np.array_equal(stacked[row], alone)


def test_sinr_mf_single_user():
    codes = ce.generate_codes(15, 1, 0)
    sinr, itf = mf(codes, [4e-4], [1e-3])
    assert sinr[0] == pytest.approx(4e5, rel=1e-12)
    assert mf_mai_weights(codes.correlation)[0, 0] == 0.0  # no MAI
    assert itf[0] == pytest.approx(1e-12 / 4e-4, rel=1e-12)


def test_sinr_mf_orthogonal_codes_have_no_mai():
    codes = codes_from_signs([[1, 1], [1, -1]])
    gain = np.array([4e-4, 2.5e-5])
    sinr, itf = mf(codes, gain, [1e-3, 2e-3])
    assert sinr == pytest.approx(
        [1e-3 * 4e-4 / 1e-12, 2e-3 * 2.5e-5 / 1e-12], rel=1e-12
    )
    assert np.all(mf_mai_weights(codes.correlation) == 0.0)
    assert np.array_equal(itf, 1e-12 / gain)


def test_sinr_mf_three_users_uniform_coupling():
    # synthetic correlation with rho^2 = 0.1 between all pairs; the expected
    # value is the scalar expression evaluated independently here
    rho = np.sqrt(0.1)
    correlation = np.full((3, 3), rho)
    np.fill_diagonal(correlation, 1.0)
    codes = ce.SpreadingCodeSet(chips=np.zeros((3, 3)), correlation=correlation)
    sinr, _ = mf(codes, [1e-9, 1e-9, 1e-9], [1.0, 1.0, 1.0])
    expected = 1e-9 / (2 * 0.1 * 1e-9 + 1e-12)
    assert sinr == pytest.approx([expected] * 3, rel=1e-12)


def test_sinr_dec_orthogonal_matches_single_user_mf():
    codes = codes_from_signs([[1, 1], [1, -1]])
    gain = np.array([4e-4, 4e-4])
    assert np.array_equal(mf(codes, gain, [1e-3, 5e-3])[1], dec(codes, gain))


def test_sinr_dec_correlated_pair():
    codes = codes_from_signs([[1, 1], [1, 1], [1, 1], [1, -1]])
    sinr = np.array([1e-3, 1e-3]) / dec(codes, [4e-4, 4e-4])
    assert sinr == pytest.approx([3e5, 3e5], rel=1e-12)


def test_dec_sinr_invariant_to_interferer_power():
    codes = ce.generate_codes(31, 6, 3)
    rng = np.random.default_rng(0)
    gain = rng.uniform(1e-6, 1e-3, size=6)
    base = 1e-3 / dec(codes, gain)[0]
    for _ in range(10):
        # scaling an interferer's gain scales its received power p_j * h_j
        received = gain.copy()
        received[1:] *= rng.uniform(0.0, 1e-2, size=5) / 1e-3
        assert 1e-3 / dec(codes, received)[0] == base  # bit identical


def test_mf_mai_monotonicity():
    codes = ce.generate_codes(31, 4, 8)
    rng = np.random.default_rng(1)
    gain = rng.uniform(1e-6, 1e-3, size=4)
    powers = np.full(4, 1e-3)
    previous = mf(codes, gain, powers)[0][0]
    for bump in (2.0, 4.0, 8.0):
        powers2 = powers.copy()
        powers2[2] *= bump
        current = mf(codes, gain, powers2)[0][0]
        assert current < previous
        previous = current


def test_orthogonal_codes_make_receivers_agree():
    signs = np.array([[1, 1], [1, -1], [1, 1], [1, -1]])
    codes = codes_from_signs(signs)
    gain = np.array([4e-4, 2.5e-5])
    powers = np.array([1e-3, 4e-3])
    assert np.array_equal(mf(codes, gain, powers)[1], dec(codes, gain))


@pytest.mark.parametrize("receiver", ["mf", "dec"])
def test_effective_interference_relation_is_exact(receiver):
    # p_k = sinr * eff_interference reproduces the SINR with others fixed
    codes = ce.generate_codes(31, 5, 2)
    rng = np.random.default_rng(5)
    gain = rng.uniform(1e-6, 1e-3, size=5)
    powers = rng.uniform(1e-4, 1e-2, size=5)
    if receiver == "mf":
        itf = mf(codes, gain, powers)[1]
    else:
        itf = dec(codes, gain)
    target = 3.7
    probe = powers.copy()
    probe[2] = target * itf[2]
    if receiver == "mf":
        again = mf(codes, gain, probe)[0]
    else:
        again = probe / dec(codes, gain)
    assert again[2] == pytest.approx(target, rel=1e-12)


def test_power_validation():
    codes = ce.generate_codes(15, 2, 0)
    gain = [4e-4, 4e-4]
    with pytest.raises(ValueError):
        mf(codes, gain, [-1e-3, 1e-3])
    with pytest.raises(ValueError):
        mf(codes, gain, [1e-3, 1e-3], 0.0)
    with pytest.raises(ValueError):
        dec(codes, gain, 0.0)


def test_mai_weights_zero_diagonal():
    codes = ce.generate_codes(31, 5, 1)
    weights = mf_mai_weights(codes.correlation)
    assert np.all(np.diagonal(weights) == 0.0)
    off = ~np.eye(5, dtype=bool)
    assert np.array_equal(weights[off], (codes.correlation**2)[off])
    # a stack of correlation matrices gets each matrix's weights
    stack = np.stack([ce.generate_codes(31, 5, seed).correlation for seed in range(4)])
    for b, stacked in enumerate(mf_mai_weights(stack)):
        assert np.array_equal(stacked, mf_mai_weights(stack[b]))



@pytest.mark.parametrize("k", range(2, 64))
def test_mf_values_of_a_row_do_not_depend_on_the_padded_width(k):
    # The control loop sums each matched-filter row's MAI over mf_width (8, 16, ...)
    # users, the weights past the batch's users zero.  NumPy's sum then gives a row of
    # K users the same bytes at every width from mf_width(K) up, in a batch of K
    # users or of more, and for K <= 4 or K mod 8 in {0, 1, 2} at the unpadded width K.
    rng = np.random.default_rng(k)
    rows = 6
    correlation = np.stack([ce.generate_codes(63, k, rng).correlation for _ in range(rows)])
    weights = mf_mai_weights(correlation)
    gain = rng.exponential(size=(rows, k)) * 1e-8
    power = rng.uniform(1e-6, 1e-2, size=(rows, k))

    def at(width, users=k):
        """The row values with ``users`` columns (the first k live) summed over ``width``."""
        padded_weights = np.zeros((rows, users, width))
        padded_weights[:, :k, :k] = weights
        padded_gain, padded_power = np.ones((rows, users)), np.zeros((rows, users))
        padded_gain[:, :k], padded_power[:, :k] = gain, power
        sinr, itf = ce.mf_sinr(padded_power, padded_gain, padded_weights, 1e-12)
        return np.concatenate([sinr[:, :k], itf[:, :k]]).tobytes()

    step = mf_width(k)
    # Widths from mf_width(K) up, each with the K live user columns alone and with more.
    values = {
        at(width, users)
        for width in (step, step + 8, step + 16, 64, 72)
        for users in (k, k + 1, 15, 17, width - 1)
        if k <= users <= width
    }
    if k <= 4 or k % 8 in (0, 1, 2):
        values.add(at(k))
    assert values == {at(step)}
