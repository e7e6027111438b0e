#!/usr/bin/env python3
"""Compare SS / SW / SM user pairing over many random drops.

Runs both solvers through ``run_scenario`` at a fixed budget (rate-max
only where power-min finds a feasible point) and prints per-pairing
averages of the minimum sum power and the maximum sum rate, plus how
often each pairing admits a feasible solution at all.

Usage: python scripts/pairing_sweep.py [--seeds N] [--cells I] [--out CSV]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nomapower import ScenarioConfig, run_scenario

PAIRINGS = ("SS", "SW", "SM")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--cells", type=int, default=3)
    parser.add_argument("--users-per-cell", type=int, default=4)
    parser.add_argument("--budget-dbm", type=float, default=30.0)
    parser.add_argument("--rate-mbps", type=float, default=0.3)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    rows = []
    stats = {p: {"power": [], "rate": [], "feasible": 0} for p in PAIRINGS}
    for seed in range(args.seeds):
        for pairing in PAIRINGS:
            config = ScenarioConfig(
                seed=seed, algorithm="power-min", num_cells=args.cells,
                users_per_cell=args.users_per_cell, users_per_subchannel=2,
                num_subchannels=args.users_per_cell // 2, pairing=pairing,
                budget_dbm_sweep=[args.budget_dbm],
                rate_demand_bps=args.rate_mbps * 1e6)
            (spm,) = run_scenario(config).summary
            if not spm.converged:
                rows.append((seed, pairing, float("nan"), float("nan"), False))
                continue
            rate = run_scenario(dataclasses.replace(
                config, algorithm="rate-max")).summary[0].sum_rate_bps
            stats[pairing]["feasible"] += 1
            stats[pairing]["power"].append(spm.sum_power_w)
            stats[pairing]["rate"].append(rate)
            rows.append((seed, pairing, spm.sum_power_w, rate, True))

    print(f"{args.seeds} seeds, {args.cells} cells, "
          f"{args.users_per_cell} users/cell, Q={args.budget_dbm} dBm, "
          f"R={args.rate_mbps} Mbit/s")
    print(f"{'pairing':8} {'feasible':>8} {'mean power (mW)':>16} "
          f"{'mean rate (Mbit/s)':>19}")
    for pairing in PAIRINGS:
        s = stats[pairing]
        power = 1e3 * np.mean(s["power"]) if s["power"] else float("nan")
        rate = 1e-6 * np.mean(s["rate"]) if s["rate"] else float("nan")
        print(f"{pairing:8} {s['feasible']:>8} {power:>16.4f} {rate:>19.3f}")

    if args.out:
        header = "seed,pairing,sum_power (W),sum_rate (bit/s),feasible\n"
        body = "".join(f"{s},{p},{pw},{r},{f}\n" for s, p, pw, r, f in rows)
        args.out.write_text(header + body)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
