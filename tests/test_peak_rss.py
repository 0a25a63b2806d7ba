import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"


def run(max_mb, code):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--max-mb", str(max_mb), "--", sys.executable, "-c", code],
        capture_output=True,
        text=True,
    )


def test_reports_wall_time_and_peak_under_the_ceiling():
    result = run(10_000, "pass")
    assert result.returncode == 0
    assert "wall " in result.stderr and "peak RSS " in result.stderr


def test_peak_over_the_ceiling_exits_1():
    # 40 MB of written memory is over a 20 MB ceiling on any interpreter.
    result = run(20, "b = b'x' * (40 << 20)")
    assert result.returncode == 1
    assert "over the 20 MB ceiling" in result.stderr


def test_peak_over_the_ceiling_exits_1_when_the_command_fails_too():
    result = run(20, "b = b'x' * (40 << 20); raise SystemExit(2)")
    assert result.returncode == 1
    assert "over the 20 MB ceiling" in result.stderr


@pytest.mark.parametrize("status", [2, 3])
def test_command_failure_passes_through(status):
    assert run(10_000, f"raise SystemExit({status})").returncode == status
