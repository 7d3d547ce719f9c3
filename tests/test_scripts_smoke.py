"""Smoke test of the scripts/ experiments: each runs in a subprocess with
small arguments against the checkout's src/ and must exit cleanly."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_boost_round_trip_mismatch_below_tolerance():
    out = _run("boost_round_trip.py", "--dt", "0.02")
    ratio = [ln for ln in out.splitlines() if ln.startswith("mismatch / tolerance:")]
    assert len(ratio) == 1, out
    assert float(ratio[0].split(":")[1]) < 1.0


@pytest.mark.parametrize("script, args", [
    ("flow_divergence_experiment.py", ["--t-end", "0.5", "--amps", "0.1"]),
    ("self_force_radius_sweep.py", ["--halvings", "2", "--times", "0.5"]),
])
def test_script_runs(script, args):
    _run(script, *args)


def test_ring_scaling_prints_one_row_per_size():
    out = _run("ring_scaling.py", "--sizes", "1", "6", "--steps", "2")
    rows = [ln.split() for ln in out.splitlines()[1:]]
    assert [r[:2] for r in rows] == [["1", "2"], ["6", "2"]], out
    assert out.splitlines()[0].split()[-2:] == ["first", "ms"], out
    assert all(len(r) == 5 for r in rows), out
    # median, min and the first step's ms: the min covers the first step too
    assert all(float(r[2]) > 0.0 and float(r[4]) >= float(r[3]) > 0.0 for r in rows)


def test_ring_scaling_runs_asymptotic_rings():
    out = _run("ring_scaling.py", "--mode", "asymptotic", "--sizes", "2", "--steps", "2")
    rows = [ln.split() for ln in out.splitlines()[1:]]
    assert [r[:2] for r in rows] == [["2", "2"]], out
    assert len(rows[0]) == 5 and float(rows[0][4]) >= float(rows[0][3]) > 0.0
