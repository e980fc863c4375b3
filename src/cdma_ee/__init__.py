"""Energy-efficient power control and EE-SE trade-off studies for DS/CDMA uplinks."""

__version__ = "0.1.0"

from .channel import (
    ChannelState,
    FixedGeometry,
    Placement,
    RingGeometry,
    coupling_parameter,
    draw_channel,
    draw_placement,
)
from .control import (
    ALGORITHMS,
    BatchControlResult,
    NashReport,
    run_control_batch,
    verhulst_step,
    verify_nash,
)
from .errors import (
    ConfigurationError,
    NoInteriorMaximumError,
    NotConvergedError,
    ReceiverUnavailableError,
)
from .metrics import (
    EEParams,
    dbm_to_watt,
    global_ee,
    min_sinr,
    packet_success,
    rate,
    sinr_gap,
    spectral_efficiency,
    utility,
)
from .optimize import (
    BestResponse,
    OptimalSinr,
    QuasiconcavityReport,
    best_response_power,
    check_quasiconcavity,
    optimal_sinr,
    solve_optimal_sinr_batch,
    utility_vs_sinr,
)
from .scenario import RECEIVERS, NetworkScenario, draw_scenario, scenario_checksum
from .spreading import (
    SpreadingCodeSet,
    dec_eff_interference,
    generate_codes,
    mf_mai_weights,
    mf_sinr,
)
from .tradeoff import TradeoffCurve, default_sweep_grid, gap_lambda, sweep_tradeoff

__all__ = [name for name in dir() if not name.startswith("_")]
