"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_pairing_sweep():
    lines = run_script("pairing_sweep.py", "--seeds", "2")
    assert lines[0].startswith("2 seeds, 3 cells")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert set(rows) == {"SS", "SW", "SM"}
    for feasible, power, rate in rows.values():
        assert 0 <= int(feasible) <= 2
        assert float(power) > 0 and float(rate) > 0


def test_convergence_trace_writes_both_traces(tmp_path):
    lines = run_script("convergence_trace.py", "--seed", "1", "--out", str(tmp_path))
    assert lines[0].startswith("sum-power minimization: converged=True")
    iterations = int(lines[0].split("iterations=")[1])
    power = (tmp_path / "power_trace_1.csv").read_text().splitlines()
    rate = (tmp_path / "rate_trace_1.csv").read_text().splitlines()
    assert power[0] == "iteration,objective (W)"
    assert len(power) == 1 + iterations
    assert rate[0] == "iteration,objective (bit/s)"
    assert len(rate) >= 3       # the start, at least one sweep, the settled proxies
