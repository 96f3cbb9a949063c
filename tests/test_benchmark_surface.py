"""What the benchmark in perfbench/ uses of the program: every workload's
configuration parses, and the tracer finds every name it wraps. A change
that removes a config key or a traced name fails here, not only in a
benchmark run. These tests read perfbench/ and change nothing in it."""

import json
import os
import runpy
import subprocess
import sys

import pytest

from apalm.config import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))[
    "WORKLOADS"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses(name):
    parse_config(json.dumps(WORKLOADS[name]["config"]))


def test_tracer_installs(tmp_path):
    # a fresh interpreter: install() replaces module attributes for good
    code = "import sys, gate, tracing; tracing.install(sys.argv[1])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [PERFBENCH, os.path.join(ROOT, "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "spool")], env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
