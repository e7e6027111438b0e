"""Power control for downlink multi-cell NOMA.

Two problems over the same system model: minimizing total transmit power
subject to per-user rate demands, and maximizing the sum rate subject to
the same demands and per-BS budgets.  Both exploit the closed-form
per-group power splits; the network coupling is handled by a standard
interference-function fixed point (power minimization, solved exactly by
``solve_spm`` or by the distributed sweep ``dpc_spm``) and a distributed
difference-of-convex loop (rate maximization).
"""

from .network import NetworkTopology, PowerAllocation, RateDemands
from .power_min import (FixedPointReport, assemble_full_solution, dpc_spm,
                        solve_spm)
from .rate_max_network import (InfeasibleInitialPointError, SrmReport, dpc_srm,
                               random_feasible_start)
from .scenario import (RunArtifacts, ScenarioConfig, build_demands,
                       generate_channels, load_config, run_scenario,
                       write_outputs)

__all__ = [
    "NetworkTopology", "PowerAllocation", "RateDemands",
    "FixedPointReport", "assemble_full_solution", "dpc_spm", "solve_spm",
    "InfeasibleInitialPointError", "SrmReport", "dpc_srm",
    "random_feasible_start",
    "RunArtifacts", "ScenarioConfig", "build_demands", "generate_channels",
    "load_config", "run_scenario", "write_outputs",
]

__version__ = "0.1.0"
