"""Smoke test of the benchmark entry point: one short run per workload
that goes through the step and root hooks and the shipped configs."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("workload", ["pair_restart", "ring6", "certify"])
def test_bench_run_reports_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout


@pytest.mark.parametrize("workload", ["pair_restart", "ring6", "certify"])
def test_traced_run_reports_correct(workload):
    # the traced run wraps every public function of the package at every
    # import site; each traced solution's end state must repeat the
    # untraced one's
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
