"""What the benchmark in perfbench/ uses of the program: every workload's
configuration parses, and the tracer finds every name it wraps. A change
that removes a config key or a traced name fails here, not only in a
benchmark run. The work of one chain-serial run is pinned as exact counts.
These tests read perfbench/ and change nothing in it."""

import json
import os
import runpy
import subprocess
import sys

import pytest

from apalm import alm, tridiagonal
from apalm.config import parse_config
from apalm.engine import aalm
from apalm.problems import make_builtin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
_workloads = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))
WORKLOADS, seeded_config = _workloads["WORKLOADS"], _workloads["seeded_config"]


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


def test_chain_serial_work_counts(monkeypatch):
    """The work of chain-serial seed 1, as exact counts that, unlike its
    timings, do not depend on the host: Newton iterations, jobs, and the
    factors and solves of springchain's tridiagonal K (one factor per
    iteration and for the one tangent at the trivial point; two solves per
    iteration, one for the tangent). The serial steps and the jobs' steps
    that the batch does not take run through alm.step, the others through
    alm.batch_step, whose results count the same iterations."""
    cfg = parse_config(json.dumps(
        seeded_config("chain-serial", 1)))
    counts = {"iterations": 0, "factor": 0, "solve": 0}
    step, batch_step = alm.step, alm.batch_step

    def counted_step(*args):
        result = step(*args)
        counts["iterations"] += result.iterations
        return result

    def counted_batch_step(*args):
        results = batch_step(*args)
        counts["iterations"] += sum(r.iterations for r in results if r)
        return results

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(alm, "step", counted_step)
    monkeypatch.setattr(alm, "batch_step", counted_batch_step)
    for name in ("factor", "solve"):
        monkeypatch.setattr(tridiagonal, name,
                            counted(name, getattr(tridiagonal, name)))
    state = aalm(make_builtin(cfg.problem_name, **cfg.problem_params),
                 cfg.alm, cfg.engine)
    assert (counts["iterations"], state.stats.jobs_done, counts["factor"],
            counts["solve"]) == (660, 140, 661, 1321)


def test_chain_serial_builds_buffers_once_per_step(monkeypatch):
    """Of chain-serial seed 1's 661 factors of springchain's tridiagonal
    K, 16 are given no earlier factor and build buffers: the arrays,
    their rows b and, on the LAPACK path, the ctypes arguments, one per
    row of the thread's alm.workspace (swapping tridiagonal.factor for the
    count gives the thread a new one), which has WAVE_VALUES // 256 = 16.
    The serial branch solves its tangent and all its steps in row 0, and
    run_manager's waves solve in the same workspace: a wave of 16 jobs
    reaches every row, and builds the other 15. The other 645 refill an
    earlier factor of the workspace. (17 and 645 while the serial branch
    built a workspace of its own.)"""
    cfg = parse_config(json.dumps(seeded_config("chain-serial", 1)))
    counts = {"new": 0, "refill": 0}
    factor = tridiagonal.factor

    def counted(sub, diag, sup, lu=None, b=None):
        counts["new" if lu is None else "refill"] += 1
        return factor(sub, diag, sup, lu, b)

    monkeypatch.setattr(tridiagonal, "factor", counted)
    aalm(make_builtin(cfg.problem_name, **cfg.problem_params), cfg.alm,
         cfg.engine)
    assert (counts["new"], counts["refill"]) == (16, 645)


def test_chain_serial_counts_stability_in_one_stacked_pass(monkeypatch):
    """chain-serial seed 1 counts the stability of its one branch's 128
    serial points and of its start, the trivial point, 129 in all (so a
    sign change within the first serial step is seen), in one
    alm.detect_singulars call, which hands all of them to
    tridiagonal.ldl_inertias at once, and calls the one-point
    alm.detect_singular not at all, as it locates no bifurcation."""
    cfg = parse_config(json.dumps(seeded_config("chain-serial", 1)))
    passes, stacks, single = [], [], []
    detect_singulars, ldl_inertias = (alm.detect_singulars,
                                      tridiagonal.ldl_inertias)

    def logged_pass(problem, ws):
        passes.append(len(ws))
        return detect_singulars(problem, ws)

    def logged_stack(off, diag):
        stacks.append(diag.shape)
        return ldl_inertias(off, diag)

    monkeypatch.setattr(alm, "detect_singulars", logged_pass)
    monkeypatch.setattr(tridiagonal, "ldl_inertias", logged_stack)
    monkeypatch.setattr(alm, "detect_singular",
                        lambda *args: single.append(args))
    state = aalm(make_builtin(cfg.problem_name, **cfg.problem_params),
                 cfg.alm, cfg.engine)
    assert sorted(state.maps) == [0]
    assert (passes, stacks, single) == ([129], [(129, 256)], [])
