"""Energy-efficient power control and EE-SE trade-off studies for DS/CDMA uplinks."""

__version__ = "0.1.0"

from .channel import (
    ChannelState,
    RingGeometry,
    draw_channel,
    draw_placement,
)
from .control import (
    ALGORITHMS,
    BatchControlResult,
    run_control_batch,
    verhulst_step,
)
from .errors import ConfigurationError, ReceiverUnavailableError
from .metrics import (
    EEParams,
    dbm_to_watt,
    global_ee,
    packet_success,
    rate,
    sinr_gap,
    utility,
)
from .optimize import solve_optimal_sinr_batch
from .scenario import RECEIVERS, NetworkScenario, draw_scenario, scenario_checksum
from .spreading import (
    SpreadingCodeSet,
    dec_eff_interference,
    generate_codes,
    mf_mai_weights,
    mf_sinr,
)
from .tradeoff import TradeoffCurve, default_sweep_grid, sweep_tradeoff

__all__ = [name for name in dir() if not name.startswith("_")]
