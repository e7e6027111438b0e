"""Drop-level benchmark for the two nomapower solvers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload srm_paper --seed 0 --seconds 55 --trace 0

One process, one thread, closed loop: a single caller solves one drop (one
(channel seed, budget) point of the workload's scenario YAML) at a time
through ``run_scenario`` and ``write_outputs``, checks the outputs and moves
on to the next drop, until ``--seconds`` have passed and the checked batch
(the YAML's ``num_seeds`` channel seeds) is complete.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` solves each drop twice, once plain
and once with every layer's public functions wrapped (see ``tracing.py``),
and prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# before numpy is first imported, here and in the set-up children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from reference import REFERENCE_MS, time_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = BENCH_DIR / "workloads"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 7
WINDOW_DROPS = 3
SEED_STRIDE = 100_000       # channel seeds per --seed value; runs share no drop
FIXED_POINT_TOL = 1e-6      # the residual assemble_full_solution accepts

# one fresh interpreter per sample: import the package and load the
# workload, then time the reference kernel in the same interpreter
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nomapower
nomapower.load_config(sys.argv[2])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from reference import median_reference
print(seconds, median_reference(), nomapower.__file__)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="name of a YAML file under perfbench/workloads")
    parser.add_argument("--seed", type=int, required=True,
                        help=f"drops use channel seeds from seed*{SEED_STRIDE} on")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import ``nomapower`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "nomapower" / "__init__.py").is_file():
        raise SystemExit(f"error: no nomapower sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nomapower
    if Path(nomapower.__file__).resolve().parent != SRC / "nomapower":
        raise SystemExit(f"error: imported nomapower from {nomapower.__file__}")
    return nomapower


def measure_setup(config_path: Path) -> float:
    """Median seconds to import nomapower and load the config in a fresh
    interpreter, scaled to the reference speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path),
             str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, reference, origin = done.stdout.split()
        if Path(origin).resolve().parent != SRC / "nomapower":
            raise SystemExit(f"error: set-up imported nomapower from {origin}")
        samples.append(float(seconds) / float(reference) * REFERENCE_MS / 1e3)
    return statistics.median(samples)


class Drops:
    """The workload's drops, solved and checked one at a time.

    Drop ``index`` is channel seed ``base + index // B`` at the
    ``index % B``-th budget of the sweep, for the sweep's B budgets.  The
    first ``num_seeds * B`` drops form the checked batch, which every run
    solves in full.
    """

    def __init__(self, nomapower, name: str, config, seed: int, out_dir: Path):
        from nomapower.power_min import interference_map
        from nomapower.scenario import build_demands, generate_channels
        self.name = name
        self.scenario = nomapower.scenario
        self.check_fns = (generate_channels, build_demands, interference_map)
        self.config = config
        self.base = seed * SEED_STRIDE
        self.batch = config.num_seeds * len(config.budget_dbm_sweep)
        self.out_dir = out_dir
        self.digests = {}

    def point(self, index: int):
        budgets = self.config.budget_dbm_sweep
        return self.base + index // len(budgets), budgets[index % len(budgets)]

    def point_config(self, index: int):
        seed, budget = self.point(index)
        return dataclasses.replace(self.config, seed=seed, num_seeds=1,
                                   budget_dbm_sweep=[budget])

    def solve(self, index: int):
        """Timed part of a drop: solve the point and write its artifacts.

        Goes through the module attributes, so an installed tracer sees it.
        """
        artifacts = self.scenario.run_scenario(self.point_config(index))
        paths = self.scenario.write_outputs(artifacts, self.out_dir)
        return artifacts, paths

    def check(self, index: int, artifacts, paths) -> list:
        """Problems with one drop's outputs; empty when the drop is correct."""
        problems = list(artifacts.validation_failures)
        config = self.point_config(index)
        row = artifacts.summary[0]
        if bool(artifacts.allocations) == math.isnan(row.sum_power_w):
            problems.append("summary row disagrees with the allocations")
        if artifacts.allocations and config.algorithm == "power-min":
            generate_channels, build_demands, interference_map = self.check_fns
            topology = generate_channels(config, config.seed)
            demands = build_demands(config, topology)
            (allocation,) = artifacts.allocations.values()
            q = allocation.cell_powers()
            residual = float(abs(q - interference_map(topology, demands, q)).max())
            if not residual <= FIXED_POINT_TOL:
                problems.append(f"fixed-point residual {residual:.3e}")
        digest = hashlib.sha256()
        for path in paths:
            digest.update(Path(path).relative_to(self.out_dir).as_posix().encode())
            digest.update(Path(path).read_bytes())
        first = self.digests.setdefault(index, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append("artifacts differ from an earlier solve of this drop")
        return problems

    def run(self, index: int):
        """Solve and check one drop.

        Returns (seconds, reference seconds, artifacts, problems); the
        reference time is the mean of the kernel's time before and after.
        """
        try:
            before = time_reference()
            start = perf_counter()
            artifacts, paths = self.solve(index)
            seconds = perf_counter() - start
            reference = 0.5 * (before + time_reference())
        except Exception:
            return None, None, None, [traceback.format_exc(limit=3)]
        return seconds, reference, artifacts, self.check(index, artifacts, paths)

    def batch_sha256(self) -> str:
        digest = hashlib.sha256()
        for index in range(self.batch):
            digest.update(self.digests.get(index, "missing").encode())
        return digest.hexdigest()


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(drops: Drops, seconds: float, setup_s: float):
    """Closed loop over fresh drops until ``seconds`` pass and the batch is done."""
    drops.run(0)        # warm-up, untimed: the first solve runs slower
    solves, problems, rows = [], [], []
    deadline = perf_counter() + seconds
    index = 0
    while index < drops.batch or perf_counter() < deadline:
        elapsed, reference, artifacts, found = drops.run(index)
        if elapsed is not None:
            solves.append((drops.point(index), elapsed, reference))
            if index < drops.batch:
                rows.append(artifacts.summary[0])
        if found:
            problems.append((drops.point(index), found))
        index += 1

    feasible = [r for r in rows if not math.isnan(r.sum_power_w)]
    wall = [t * 1e3 for _, t, _ in solves]
    scaled = [t / ref * REFERENCE_MS for _, t, ref in solves]
    windows = [WINDOW_DROPS * 1e3 / sum(scaled[k:k + WINDOW_DROPS])
               for k in range(0, len(scaled) - WINDOW_DROPS + 1, WINDOW_DROPS)]
    cuts = statistics.quantiles(scaled, n=20, method="inclusive")
    wall_cuts = statistics.quantiles(wall, n=20, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_SAMPLES} fresh interpreters"),
        "drops_per_s": (statistics.median(windows), "1/s",
                        f"median over {len(windows)} windows of {WINDOW_DROPS} drops"),
        "drop_ms_p50": (cuts[9], "ms", f"n={len(scaled)}"),
        "drop_ms_p75": (cuts[14], "ms", f"n={len(scaled)}"),
        "feasible_frac": (len(feasible) / drops.batch, "ratio",
                          f"{len(feasible)} of the batch's {drops.batch}"),
        "sum_rate_mbps_mean": (mean(r.sum_rate_bps / 1e6 for r in feasible),
                               "Mbit/s", f"n={len(feasible)} feasible batch drops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "this process"),
    }
    info = {
        "drop_ms_p90": f"{cuts[17]:.6g} (ms; n={len(scaled)}, "
                       f"{sum(t > cuts[17] for t in scaled)} beyond)",
        "wall_ms_p50_p75_p90": " ".join(f"{wall_cuts[k]:.6g}" for k in (9, 14, 17))
                               + " (ms; unscaled)",
        "drops_per_s_mean": f"{len(wall) * 1e3 / sum(wall):.6g} (1/s; unscaled, "
                            f"all {len(wall)} drops)",
        "reference_ms_p50": f"{statistics.median(r for _, _, r in solves) * 1e3:.6g} "
                            f"(ms; reference {REFERENCE_MS} ms)",
        "failed_frac": f"{len(problems) / index:.6g} (ratio; {len(problems)} of {index} "
                       "drops; the result's 'failed' field)",
        "sum_power_mw_mean": f"{mean(r.sum_power_w * 1e3 for r in feasible):.6g} "
                             f"(mW; n={len(feasible)} feasible batch drops)",
        "artifacts_sha256": f"{drops.batch_sha256()} (the batch's {drops.batch} drops)",
    }
    log = OUT / f"drops-{drops.name}.csv"
    log.write_text("seed,budget_dbm,wall_ms,reference_ms\n" + "".join(
        f"{seed},{budget:g},{t * 1e3:.4f},{ref * 1e3:.4f}\n"
        for (seed, budget), t, ref in solves))
    info["drop_times"] = f"written to {log.relative_to(ROOT)}"
    return index, problems, metrics, info


def per_layer(drops: Drops, seconds: float):
    """Each drop solved plain and traced, in alternating order."""
    from tracing import Tracer
    tracer = Tracer()
    drops.run(0)
    plain = traced = 0.0
    problems, index = [], 0
    deadline = perf_counter() + seconds
    while index == 0 or perf_counter() < deadline:
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(drop=index)
            try:
                elapsed, reference, _, found = drops.run(index)
            finally:
                tracer.uninstall()
            if found:
                problems.append((drops.point(index), found))
            if elapsed is not None:
                if with_trace:
                    traced += elapsed / reference
                else:
                    plain += elapsed / reference
        index += 1
    metrics = {name: (value, unit, "")
               for name, (value, unit) in tracer.metrics(index).items()}
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio",
                                      f"over {index} drops, each solved both ways")
    spans = OUT / f"spans-{drops.name}.npz"
    tracer.write_spans(spans)
    info = {"absent": ", ".join(tracer.absent) or "none",
            "spans": f"{len(tracer.span_name)} written to {spans.relative_to(ROOT)}"}
    return 2 * index, problems, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    config_path = WORKLOADS / f"{args.workload}.yaml"
    if not config_path.is_file():
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    nomapower = import_package()
    config = nomapower.load_config(config_path)
    setup_s = measure_setup(config_path) if args.trace == 0 else None

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="artifacts-") as tmp:
        drops = Drops(nomapower, args.workload, config, args.seed, Path(tmp))
        if args.trace == 0:
            attempted, problems, metrics, info = end_to_end(
                drops, args.seconds, setup_s)
        else:
            attempted, problems, metrics, info = per_layer(
                drops, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"batch {drops.batch} drops from channel seed {drops.base}  "
          f"trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit:7s} {note}")
    for name, text in info.items():
        print(f"  {name:58s} {text}")
    for point, found in problems[:10]:
        print(f"  FAILED drop seed {point[0]} budget {point[1]} dBm: "
              f"{'; '.join(found).strip()}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
