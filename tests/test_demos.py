"""Smoke test: every README demo runs to completion and prints its key line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One line per demo that only a complete, correct run prints.
EXPECTED_LINES = {
    "correlation_comparison.py": "scenario: K=10, Gamma=0.5, f_D*T_s=0.01, N=8, M=200",
    "crossing_rates.py": "Rayleigh, N=64: normalized crossing rate vs closed form",
    "envelope_density.py": "K=0, Gamma=0  (20000 picks)",
    "squared_envelope_gap.py": "zero-lag deficit at N=1024: 0.000977",
    "trace_files.py": "read back trial 2: samples identical: True, digest match: True",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(EXPECTED_LINES)


@pytest.mark.parametrize("demo", sorted(EXPECTED_LINES))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED_LINES[demo] in proc.stdout.splitlines()
