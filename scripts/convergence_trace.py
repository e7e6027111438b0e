#!/usr/bin/env python3
"""Dump iteration traces of both solvers on one random drop.

Prints the sum-power trace of the fixed-point iteration and the
objective trace of the rate-maximization loop; optionally writes both as
CSV for plotting elsewhere.

Usage: python scripts/convergence_trace.py [--seed N] [--out DIR]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nomapower import (Problem, ScenarioConfig, build_demands, dpc_spm, dpc_srm,
                       generate_channels)
from nomapower.scenario import dbm_to_watts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cells", type=int, default=3)
    parser.add_argument("--budget-dbm", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    config = ScenarioConfig(seed=args.seed, algorithm="power-min",
                            num_cells=args.cells, users_per_cell=4,
                            users_per_subchannel=2, num_subchannels=2,
                            pairing="SW", budget_dbm_sweep=[args.budget_dbm],
                            rate_demand_bps=0.3e6)
    topology = generate_channels(config, args.seed)
    problem = Problem(topology, build_demands(config, topology))
    budgets = np.full(topology.num_cells, dbm_to_watts(args.budget_dbm))

    spm = dpc_spm(problem, budgets)
    print(f"sum-power minimization: converged={spm.converged} "
          f"iterations={spm.iterations}")
    for k, value in enumerate(spm.trace, start=1):
        print(f"  iteration {k:3d}: {value:.6e} W")

    if not spm.fits(budgets):
        print("demands infeasible for this drop; no rate run")
        return

    srm = dpc_srm(problem, budgets)
    print(f"sum-rate maximization: converged={srm.converged} "
          f"outer sweeps={srm.outer_iterations} "
          f"subproblem solves={srm.subproblem_solves}")
    for k, value in enumerate(srm.trace):
        print(f"  sweep {k:3d}: objective {value:.6e} bit/s "
              f"(sum rate {-value / 1e6:.3f} Mbit/s)")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        power = args.out / f"power_trace_{args.seed}.csv"
        power.write_text("iteration,objective (W)\n" + "".join(
            f"{k},{v}\n" for k, v in enumerate(spm.trace, start=1)))
        rate = args.out / f"rate_trace_{args.seed}.csv"
        rate.write_text("iteration,objective (bit/s)\n" + "".join(
            f"{k},{v}\n" for k, v in enumerate(srm.trace)))
        print(f"wrote {power} and {rate}")


if __name__ == "__main__":
    main()
