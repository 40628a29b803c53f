"""Smoke tests: the shipped examples must run end to end.

Each example is executed as a subprocess the way a user would run it,
with its smallest work setting.  These are the slowest tests in the
suite (seconds each) but guard the repository's front door.
"""

import json
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
CHECK_TRACE = os.path.join(
    os.path.dirname(__file__), "..", "..", "tools", "check_trace.py"
)


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name), *args],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "translation error" in output
        assert "KD-tree search share" in output

    def test_odometry(self):
        output = run_example("odometry.py", "--frames", "3")
        assert "KITTI-style sequence errors" in output
        assert "translational:" in output

    def test_odometry_trace_validates(self, tmp_path):
        """The exported trace passes ``tools/check_trace.py``, including
        its stage totals against the profiler's."""
        trace = tmp_path / "odometry_trace.json"
        run_example("odometry.py", "--frames", "3", "--trace", str(trace))
        assert json.loads(trace.read_text())["profilerTotals"]
        check = subprocess.run(
            [sys.executable, CHECK_TRACE, str(trace)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert check.returncode == 0, check.stdout + check.stderr

    def test_accelerator_sim(self):
        output = run_example("accelerator_sim.py")
        assert "Acc-2SKD vs Base-2SKD speedup" in output
        assert "energy breakdown" in output

    def test_mapping(self, tmp_path):
        out_file = tmp_path / "map.pcd"
        output = run_example(
            "mapping.py", "--out", str(out_file),
            "--frames", "24", "--laps", "1",
        )
        assert "global map" in output
        assert "loop-closed mapping" in output
        assert "keyframes" in output
        assert out_file.exists()
        from repro.io import read_pcd

        cloud = read_pcd(out_file)
        assert len(cloud) > 1000

    def test_design_space_exploration(self):
        output = run_example(
            "design_space_exploration.py", "--points", "DP1"
        )
        assert "Fig. 4b" in output
        assert "DP1" in output


class TestCLI:
    def test_info_command(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "Tigris" in result.stdout
        assert "repro.core" in result.stdout
        # The printed command runs the collected claims suite.
        assert "python -m pytest tests/paper" in result.stdout

    def test_demo_command(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "demo"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        assert "speedup" in result.stdout
