import numpy as np
import pytest

import cdma_ee as ce


@pytest.fixture
def fig_params():
    """Parameter table of the trade-off study (powers given in dBm there)."""
    return ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=ce.dbm_to_watt(7.0),
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=ce.dbm_to_watt(-90.0),
        ber=1e-3,
        min_rate=5e5,
    )


@pytest.fixture
def no_circuit_params():
    """Same constants with the circuit power zeroed (target SINR ~7.29)."""
    return ce.EEParams(
        packet_bits=80,
        info_bits=50,
        circuit_power=0.0,
        bandwidth=1e6,
        max_power=ce.dbm_to_watt(10.0),
        noise_power=ce.dbm_to_watt(-90.0),
        ber=1e-3,
        min_rate=5e5,
    )


def codes_from_signs(signs) -> ce.SpreadingCodeSet:
    """Code set from an explicit +-1 chip matrix (N, K)."""
    signs = np.asarray(signs, dtype=np.int64)
    n = signs.shape[0]
    return ce.SpreadingCodeSet(
        chips=signs / np.sqrt(float(n)),
        correlation=(signs.T @ signs) / float(n),
    )


def run_single(scenario, params, algorithm="alg1", **kwargs) -> ce.BatchControlResult:
    """One realization through ``run_control_batch``, as a batch of one."""
    return ce.run_control_batch(
        scenario.channel.gain_power[None],
        scenario.codes.correlation[None],
        scenario.receiver,
        algorithm,
        params,
        **kwargs,
    )
