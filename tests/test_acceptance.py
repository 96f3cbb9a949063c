"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All benchmark runs are built once per module and shared between criteria.
"""

import math
import time

import numpy as np
import pytest

from apalm import alm
from apalm.alm import AlmConfig
from apalm.engine import (ACCEPTED, OUTCOMES, REFINED, EngineConfig,
                          QueueEngine, aalm, compute_errors, serial_solve)
from apalm.problems import make_builtin
from apalm.runtime import apalm


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def cfg(psi, **kw):
    kw.setdefault("newton_tol", 1e-10)
    return AlmConfig(constraint="crisfield", psi=psi, **kw)


@pytest.fixture(scope="module")
def runs():
    """All benchmark runs, timed."""
    data = {}
    cubic = make_builtin("cubic1d")
    eng_cubic = EngineConfig(delta_L=0.4, steps=15, subintervals=2,
                             tol_lower=1e-2, tol_upper=1e-2)

    t0 = time.perf_counter()
    data["cubic_psi0"] = aalm(cubic, cfg(0.0), eng_cubic)
    data["cubic_psi0_time"] = time.perf_counter() - t0

    data["cubic_psi1"] = aalm(cubic, cfg(1.0), eng_cubic)
    data["cubic_psi1_tight"] = aalm(
        cubic, cfg(1.0),
        EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-4, tol_upper=1e-4))

    for psi in (0.0, 1.0):
        data[f"linear_psi{int(psi)}"] = aalm(
            make_builtin("linear1d"), cfg(psi),
            EngineConfig(delta_L=1.0, steps=5))

    # dense serial reference for the adaptivity-localization criterion
    data["cubic_dense"] = serial_solve(
        cubic, cfg(1.0), EngineConfig(delta_L=0.01, steps=600))[0]

    t0 = time.perf_counter()
    data["cubic_parallel"] = {
        n: apalm(cubic, cfg(1.0), eng_cubic, worker_count=n,
                 transport="thread")
        for n in (1, 2, 4, 8)
    }
    data["parallel_time"] = time.perf_counter() - t0

    pitch = make_builtin("pitchfork")
    data["pitchfork"] = aalm(
        pitch, cfg(1.0, newton_tol=1e-12),
        EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True))

    # scaling study: 64 initial intervals with 5 ms of synthetic work per
    # fine step, each alm.step call and each job that an alm.batch_step
    # call steps, serial phase included, timed as the whole run (serial
    # plus queue time), since workers solve jobs during the serial phase;
    # 1 and 4 workers are forked processes, which overlap the sleep without
    # taking the GIL from the manager's serial steps, and 64 and 96 are
    # threads; the wrapped pop counts the jobs outstanding at once
    chain = make_builtin("springchain", n=64)
    chain_cfg = cfg(1.0)
    chain_eng = EngineConfig(delta_L=0.4, steps=64, tol_lower=1e-2,
                             tol_upper=1e-2, max_level=3)
    peak = {}
    pop = QueueEngine.pop
    real_step, real_batch_step = alm.step, alm.batch_step

    def loaded_step(*args, **kwargs):
        # the sleep releases the GIL, so thread workers overlap it; engine
        # calls alm.step and locate_bifurcation the module's step, so both
        # see this wrapper, and workers forked inside the context inherit it
        time.sleep(0.005)
        return real_step(*args, **kwargs)

    def loaded_batch_step(*args, **kwargs):
        # a worker's wave steps its jobs here in lockstep; a job the batch
        # does not take is stepped, and slept for, by alm.step instead
        results = real_batch_step(*args, **kwargs)
        time.sleep(0.005 * sum(r is not None for r in results))
        return results

    def counting_pop(self):
        job = pop(self)
        peak[count] = max(peak.get(count, 0), len(self._outstanding))
        return job

    t0 = time.perf_counter()
    scaling = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QueueEngine, "pop", counting_pop)
        mp.setattr(alm, "step", loaded_step)
        mp.setattr(alm, "batch_step", loaded_batch_step)
        for count, transport in ((1, "process"), (4, "process"),
                                 (64, "thread"), (96, "thread")):
            times = []
            for _ in range(3):
                state = apalm(chain, chain_cfg, chain_eng,
                              worker_count=count, transport=transport)
                times.append(state.stats.serial_time
                             + state.stats.queue_time)
                data.setdefault("scaling_states", []).append(state)
            scaling[count] = sum(times) / len(times)
    data["scaling"] = scaling
    data["scaling_peak"] = peak
    data["scaling_time"] = time.perf_counter() - t0

    data["all_states"] = ([data["cubic_psi0"], data["cubic_psi1"],
                           data["cubic_psi1_tight"], data["linear_psi0"],
                           data["linear_psi1"], data["pitchfork"]]
                          + list(data["cubic_parallel"].values())
                          + data["scaling_states"])
    return data


def kept_records(state):
    """Records of the jobs whose fine points went into the map."""
    return [r for r in state.stats.records
            if r.outcome in (ACCEPTED, REFINED)]


def path_violation(state):
    worst = 0.0
    for _, _, _, _, w in state.collect():
        worst = max(worst, abs(w.lam - (w.u[0] ** 3 - 3 * w.u[0])))
    return worst


def test_criterion_1_analytic_path_fidelity(runs):
    worst = path_violation(runs["cubic_psi0"])
    elapsed = runs["cubic_psi0_time"]
    report(1, "analytic-path fidelity",
           worst <= 1e-8 and elapsed < 1.0,
           f"max path residual {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_adaptivity_localization(runs):
    # dense reference: curvature of the (u, lambda) curve concentrates at
    # the limit points u = +-1
    pts = np.array([[w.u[0], w.lam]
                    for _, _, _, _, w in runs["cubic_dense"].collect()])
    chords = np.diff(pts, axis=0)
    unit = chords / np.linalg.norm(chords, axis=1, keepdims=True)
    turn = np.arccos(np.clip(np.sum(unit[1:] * unit[:-1], axis=1), -1, 1))
    hot = pts[1:-1][turn > 0.5 * turn.max()]
    dense_ok = bool(np.all(np.minimum(np.abs(hot[:, 0] - 1.0),
                                      np.abs(hot[:, 0] + 1.0)) <= 0.5))

    violations = 0
    deep_total = 0
    for state in (runs["cubic_psi0"], runs["cubic_psi1"]):
        for _, _, _, level, w in state.collect():
            if level >= 2:
                deep_total += 1
                if min(abs(w.u[0] - 1.0), abs(w.u[0] + 1.0)) > 0.5:
                    violations += 1
    report(2, "adaptivity localization",
           dense_ok and violations == 0 and deep_total > 0,
           f"{deep_total} level>=2 points, {violations} violations")


def test_criterion_3_zero_refinement_control(runs):
    worst = 0.0
    children = 0
    for key in ("linear_psi0", "linear_psi1"):
        state = runs[key]
        children += state.stats.children_spawned
        for r in kept_records(state):
            e = compute_errors(r.job.delta_L0, r.measured)
            worst = max(worst, abs(e.total), abs(e.lower), abs(e.upper))
    report(3, "zero-refinement control", worst <= 1e-12 and children == 0,
           f"max |error| {worst:.2e}, {children} children")


def test_criterion_4_triangle_inequality_suite(runs):
    measured = [r.measured for state in runs["all_states"]
                for r in kept_records(state)]
    bad = sum(1 for sum_d, lower, closing in measured
              if closing < 0.0 or lower > sum_d + 1e-12)
    report(4, "triangle-inequality suite", len(measured) >= 500 and bad == 0,
           f"{len(measured)} jobs checked, {bad} violations")


def test_criterion_5_worker_count_independence(runs):
    ref = runs["cubic_psi1"].collect()
    ref_keys = [(b, xi) for b, xi, _, _, _ in ref]
    ref_by_key = {(b, xi): w for b, xi, _, _, w in ref}
    worst = 0.0
    keys_ok = True
    for state in runs["cubic_parallel"].values():
        rows = state.collect()
        if [(b, xi) for b, xi, _, _, _ in rows] != ref_keys:
            keys_ok = False
            continue
        for b, xi, _, _, w in rows:
            r = ref_by_key[(b, xi)]
            worst = max(worst, float(np.max(np.abs(w.u - r.u))),
                        abs(w.lam - r.lam))
    elapsed = runs["parallel_time"]
    report(5, "worker-count independence",
           keys_ok and worst <= 1e-9 and elapsed < 10.0,
           f"max deviation {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_6_bifurcation_handling(runs):
    state = runs["pitchfork"]
    two_branches = sorted(state.maps) == [0, 1]
    origin = state.maps[1].lookup(0.0).w if two_branches else None
    located = (two_branches and abs(origin.lam - 1.0) <= 1e-4
               and abs(origin.u[0]) <= 1e-4)
    worst = 0.0
    if two_branches:
        # the shared branch origin IS the located singular point; every
        # point beyond it must sit on the secondary path u^2 = lambda - 1
        for _, xi, _, _, w in state.maps[1].collect():
            if xi > 0.0:
                worst = max(worst, abs(w.u[0] ** 2 - (w.lam - 1.0)))
    report(6, "bifurcation handling",
           two_branches and located and worst <= 1e-8,
           f"origin lambda {origin.lam:.6f}, max branch residual {worst:.2e}"
           if two_branches else "no secondary branch")


def test_criterion_7_tolerance_monotonicity(runs):
    loose = runs["cubic_psi1"].collect()
    tight = runs["cubic_psi1_tight"].collect()
    count_ok = len(tight) >= len(loose)
    fine = np.array([[w.u[0], w.lam] for _, _, _, _, w in tight])
    lost = 0
    for _, _, _, _, w in loose:
        dev = np.max(np.abs(fine - [w.u[0], w.lam]), axis=1).min()
        if dev > 1e-9:
            lost += 1
    report(7, "tolerance monotonicity", count_ok and lost == 0,
           f"{len(loose)} -> {len(tight)} points, {lost} coarse points lost")


def test_criterion_8_scaling_property(runs):
    s = runs["scaling"]
    # saturation, counted rather than timed: the 64 level-1 intervals and
    # their few children never keep more than 64 of the 96 workers busy
    peak = runs["scaling_peak"][96]
    elapsed = runs["scaling_time"]
    checks = {"speedup": s[4] <= 0.6 * s[1], "saturation": peak <= 64,
              "time": elapsed < 120.0}
    failed = [name for name, ok in checks.items() if not ok]
    report(8, "scaling property", not failed,
           (f"{'+'.join(failed)} failed; " if failed else "")
           + f"mean total time 1w={s[1]:.2f}s 4w={s[4]:.2f}s (processes) "
           f"64w={s[64]:.2f}s 96w={s[96]:.2f}s (threads), at most {peak} "
           f"of 96 workers busy, study {elapsed:.1f}s")


def test_criterion_9_monotone_parameterization(runs):
    # every submit checks the span it inserts into before it writes, and
    # each driver walks every map once after the queue drains, raising on a
    # violation; here we confirm every run actually inserted work, that
    # every settled job has one of the five outcomes, and that the final
    # maps are strictly increasing in both coordinates
    ok = True
    submits = 0
    for state in runs["all_states"]:
        submits += len(kept_records(state))
        if any(r.outcome not in OUTCOMES for r in state.stats.records):
            ok = False
        for m in state.maps.values():
            rows = m.collect()
            xis = [r[1] for r in rows]
            ss = [r[2] for r in rows]
            if not all(a < b for a, b in zip(xis, xis[1:])):
                ok = False
            if not all(a < b for a, b in zip(ss, ss[1:])):
                ok = False
    report(9, "monotone parameterization", ok and submits > 0,
           f"{submits} validated submits across {len(runs['all_states'])} runs")
