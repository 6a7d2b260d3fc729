"""Load-aware partitioning of a UAV-served area.

Two planning problems over a common air-to-ground channel model on a
discretized service area:

* maximize delivered data under per-UAV hover budgets, with the region of
  each UAV shaped by a concave dual ascent so load shares are met exactly;
* minimize total hover time for fixed per-user demands, with a closed-form
  bandwidth split inside regions and the same dual ascent between them.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    RadioField,
    UavNode,
    compute_radio_field,
    db_to_linear,
    dbm_to_watts,
    los_probability,
    mean_path_loss,
    received_power,
)
from .config import ExperimentConfig, load_config, place_uavs_grid
from .errors import ConfigError, ConvergenceError, InfeasibleError
from .grid import (
    AreaGrid,
    density_to_csv,
    integrate_weighted,
    measure,
    truncated_gaussian,
    uniform_density,
)
from .metrics import (
    UserSample,
    jain_continuous,
    jain_index,
    sample_users,
    service_per_user,
    total_data_service,
    users_per_cell,
)
from .partition import (
    INFEASIBLE,
    Partition,
    assign_by_min_cost,
    partition_to_csv,
    weighted_voronoi,
)
from .runner import run_experiment
from .scenario1 import (
    ControlTimeModel,
    DualPotentials,
    FairnessSolution,
    Scenario1Result,
    build_cost_field,
    dual_gradient,
    dual_value,
    service_field_for_partition,
    solve_fairness_system,
    solve_scenario1,
)
from .scenario2 import (
    HoverReport,
    LoadField,
    Scenario2Result,
    brute_force_min_hover,
    hover_time,
    hover_time_equal_split,
    marginal_hover_cost,
    optimal_bandwidth_split,
    region_hover_report,
    solve_scenario2,
)
