"""Power control for downlink multi-cell NOMA.

Two problems over the same system model: minimizing total transmit power
subject to per-user rate demands, and maximizing the sum rate subject to
the same demands and per-BS budgets.  Both exploit one closed-form
per-group power split (``power_min.group_split``: weak users at their
demands, the strongest user at its minimum power, plus alpha times the
surplus over the required power for rate maximization); the network
coupling is handled by a standard interference-function fixed point
(power minimization, solved exactly by ``Problem.fixed_point`` or by
the distributed sweep ``dpc_spm``) and a distributed loop of exact per-BS
steps, each the single-cell closed form water-filled under the budget
(rate maximization).  A ``Problem`` holds one drop, its channels and
demands, and every solver takes one.
"""

from .network import NetworkTopology, PowerAllocation, RateDemands
from .power_min import FixedPointReport, Problem, dpc_spm
from .rate_max_network import (InfeasibleInitialPointError, SrmReport, dpc_srm,
                               random_feasible_start)
from .scenario import (RunArtifacts, ScenarioConfig, build_demands,
                       generate_channels, load_config, run_scenario,
                       write_outputs)

__all__ = [
    "NetworkTopology", "PowerAllocation", "RateDemands",
    "FixedPointReport", "Problem", "dpc_spm",
    "InfeasibleInitialPointError", "SrmReport", "dpc_srm",
    "random_feasible_start",
    "RunArtifacts", "ScenarioConfig", "build_demands", "generate_channels",
    "load_config", "run_scenario", "write_outputs",
]

__version__ = "0.1.0"
