import math
import random
import threading

import numpy as np
import pytest

from apalm import alm, engine, tridiagonal
from apalm.alm import AlmConfig
from apalm.curvemap import CurveMap, CurveStructureError
from apalm.engine import (ACCEPTED, FAILED, MIN_BATCH, OUTCOMES, REFINED,
                          REJECTED, BranchEnd, BranchStart, EngineConfig,
                          IntervalResult, Job, QueueEngine,
                          QueueInvariantError, SerialSolveError, SerialStep,
                          aalm, compute_errors, serial_solve, solve_interval)
from apalm.problems import SolutionPoint, make_builtin
from apalm.runtime import apalm
from bits import (NOISE_FLOOR_CONFIGS, record_bits, row_bits,
                  summary_without_timings, twin_problem)


def crisfield(psi, tol=1e-12, **kw):
    return AlmConfig(constraint="crisfield", psi=psi, newton_tol=tol, **kw)


def same_bits(a, b):
    """The arrays a and b equal bit for bit, the sign of a zero aside
    (-0.0 + 0.0 is 0.0)."""
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


# a start of linear1d's one unknown, one unit of u past its predecessor
START = BranchStart(SolutionPoint(np.zeros(1), 0.0),
                    SolutionPoint(-np.ones(1), 0.0))


class TestComputeErrors:
    def test_straight_interval(self):
        e = compute_errors(1.0, (1.0, 1.0, 0.0))
        assert (e.total, e.lower, e.upper) == (0.0, 0.0, 0.0)

    def test_curved_interval(self):
        e = compute_errors(1.0, (1.0, 0.9, 0.05))
        assert e.total == pytest.approx(0.05)
        assert e.lower == pytest.approx(0.1)
        assert e.upper == pytest.approx(-0.05)

    def test_scaled_interval(self):
        e = compute_errors(2.0, (2.0, 1.8, 0.4))
        assert e.total == pytest.approx(0.2)
        assert e.lower == pytest.approx(0.1)
        assert e.upper == pytest.approx(0.05)


class TestSerialSolve:
    def test_linear1d_straight_path(self):
        p = make_builtin("linear1d")
        branches = serial_solve(p, crisfield(1.0),
                                EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        assert len(branches) == 1
        rows = branches[0].collect()
        for i, (_, _, _, _, w) in enumerate(rows):
            assert w.u[0] == pytest.approx(i, abs=1e-9)
            assert w.lam == pytest.approx(i, abs=1e-9)
        assert [s for _, _, s, _, _ in rows] == pytest.approx(
            [i * math.sqrt(2.0) for i in range(5)])

    def test_cubic1d_on_analytic_path(self):
        p = make_builtin("cubic1d")
        branches = serial_solve(p, crisfield(0.0),
                                EngineConfig(delta_L=0.4, steps=15))
        sols = [w for _, _, _, _, w in branches[0].collect()]
        assert len(sols) == 16
        for w_prev, w in zip(sols, sols[1:]):
            assert abs(w.u[0] - w_prev.u[0]) == pytest.approx(0.4, abs=1e-9)
            assert w.lam == pytest.approx(w.u[0] ** 3 - 3 * w.u[0], abs=1e-9)

    def test_pitchfork_spawns_branch(self):
        p = make_builtin("pitchfork")
        cfg = crisfield(1.0)
        eng = EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True)
        branches = serial_solve(p, cfg, eng)
        assert len(branches) == 2
        # every branch starts from a point and a direction: the primary
        # one along the tangent at the trivial point, the spawned one
        # along its branch-switch seed
        start, spawned = (m.lookup(0.0) for m in branches)
        assert same_bits(alm.increment_between(start.w, start.w_prev),
                         alm.tangent(p, start.w))
        direction = alm.increment_between(spawned.w, spawned.w_prev)
        assert direction[-1] == 0.0 and np.linalg.norm(
            direction) == pytest.approx(alm.BRANCH_PERTURBATION)
        assert spawned.w.lam == pytest.approx(1.0, abs=1e-4)

    def test_bifurcation_within_the_first_serial_step_spawns_branch(
            self, monkeypatch):
        # two steps of 1.5: the first passes lambda* = 1 from the trivial
        # point, so only counting that start shows the sign change; a
        # spawned branch starts at its located singular point, which is
        # not counted
        passes, detect_singulars = [], alm.detect_singulars

        def logged_pass(problem, ws):
            passes.append([w.lam for w in ws])
            return detect_singulars(problem, ws)

        monkeypatch.setattr(alm, "detect_singulars", logged_pass)
        branches = serial_solve(
            make_builtin("pitchfork"), crisfield(1.0),
            EngineConfig(delta_L=1.5, steps=2, bifurcation_enabled=True))
        assert len(branches) == 2
        w_star = branches[1].lookup(0.0).w
        assert w_star.lam == pytest.approx(1.0, abs=1e-4)
        # the bisection counts one point at a time
        stacked = [lams for lams in passes if len(lams) > 1]
        assert [len(lams) for lams in stacked] == [3, 2]
        assert stacked[0][0] == 0.0 and w_star.lam not in stacked[1]

    def test_one_null_vector_pass_per_spawned_branch(self, monkeypatch):
        # criterion 6's config: classifying the located point and seeding
        # its branch share one eigendecomposition of K(w*)
        calls = []
        null_vector = alm.null_vector

        def counted(problem, w):
            calls.append(w.lam)
            return null_vector(problem, w)

        monkeypatch.setattr(alm, "null_vector", counted)
        state = aalm(make_builtin("pitchfork"),
                     crisfield(1.0),
                     EngineConfig(delta_L=0.3, steps=6,
                                  bifurcation_enabled=True))
        assert sorted(state.maps) == [0, 1]
        assert len(calls) == len(state.maps) - 1

    def test_singular_start_raises_after_one_solve(self, monkeypatch):
        # K = 0 at the trivial point: the tangent's bordered system is
        # singular, and the primary branch fails on its one solve
        solves = []
        solve = np.linalg.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        with pytest.raises(SerialSolveError,
                           match="branch 0 at s=0: singular tangent"):
            aalm(make_builtin("linear1d", k=0.0), crisfield(1.0),
                 EngineConfig(delta_L=1.0, steps=3))
        assert len(solves) == 1

    def test_failed_primary_branch_raises(self, monkeypatch):
        def fail(*args):
            raise alm.StepError("forced")

        monkeypatch.setattr(alm, "step", fail)
        with pytest.raises(SerialSolveError, match="branch 0 at s=0: forced"):
            serial_solve(make_builtin("linear1d"), crisfield(1.0),
                         EngineConfig(delta_L=1.0, steps=3))

    def test_spawned_branch_without_a_step_is_dropped(self, monkeypatch,
                                                      caplog):
        step = alm.step

        def fail_from_seed(problem, config, w, dw, delta_L):
            # only a spawned branch's first step starts from its seed,
            # whose lambda entry is 0
            if dw[-1] == 0.0:
                raise alm.StepError("forced")
            return step(problem, config, w, dw, delta_L)

        monkeypatch.setattr(alm, "step", fail_from_seed)
        branches = serial_solve(
            make_builtin("pitchfork"), crisfield(1.0),
            EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True))
        assert len(branches) == 1
        assert "branch 1 at s=0: forced; branch dropped" in caplog.text

    def test_bifurcation_located_once_after_the_branch_steps(self,
                                                            monkeypatch):
        """acc-pitchfork's one bifurcation, bracketed by branch 0's steps 3
        and 4, is located after that branch's last step and before its
        map, and branch 1 starts from it: w* has the bits it had when each
        step was checked as it was taken. Step i queues the level-1 job of
        serial interval [i - 1, i], numbered across both branches."""
        from bits import configs
        events, jobs = [], []
        locate = alm.locate_bifurcation

        def logged(problem, config, w_a, w_b):
            w_star = locate(problem, config, w_a, w_b)
            events.append(("locate", w_a.lam, w_b.lam, w_star))
            return w_star

        monkeypatch.setattr(alm, "locate_bifurcation", logged)
        problem, config, eng = configs()["acc-pitchfork"]
        state = QueueEngine(problem, config, eng)
        for _ in state.serial_phase:  # after each step and each close
            if len(jobs) < len(state.queue):
                job = state.queue[-1]
                jobs.append(job)
                events.append(("step", job.branch, int(job.xi_hi)))
            else:
                events.append(("map", max(state.maps)))
        assert [(job.id, job.xi_lo, job.xi_hi, job.level, job.N)
                for job in jobs] == [(k, i - 1.0, float(i), 1, eng.subintervals)
                                     for k, i in enumerate([*range(1, 7)] * 2)]
        kinds = [e if e[0] != "locate" else "locate" for e in events]
        assert kinds == [*(("step", 0, i) for i in range(1, 7)), "locate",
                         ("map", 0), *(("step", 1, i) for i in range(1, 7)),
                         ("map", 1)]
        _, lam_a, lam_b, w_star = events[6]
        assert (lam_a, lam_b) == (0.8999999999999999, 1.2)
        assert (w_star.u.tobytes(), w_star.lam.hex()) == (
            bytes(8), "0x1.fffcccccccccbp-1")
        state = aalm(*configs()["acc-pitchfork"])
        start = state.maps[1].lookup(0.0).w
        assert (start.u.tobytes(), start.lam.hex()) == (
            bytes(8), "0x1.fffcccccccccbp-1")

    def test_cubic1d_limit_point_spawns_nothing(self):
        p = make_builtin("cubic1d")
        cfg = crisfield(1.0)
        eng = EngineConfig(delta_L=0.4, steps=8, bifurcation_enabled=True)
        branches = serial_solve(p, cfg, eng)
        assert len(branches) == 1


def points_of(maps):
    """A serial_points stand-in that yields each map's start, the point of
    each later entry with its s, formed from the entries' ds, and the
    branch's end."""
    def points(problem, config, eng):
        for m in maps:
            entries = [m.lookup(xi) for xi in m.xi_keys()]
            yield BranchStart(entries[0].w, entries[0].w_prev)
            s = 0.0
            for e in entries[1:]:
                s += e.ds
                yield SerialStep(e.w, s)
            yield BranchEnd()
    return points


class TestTake:
    """QueueEngine.take makes the level-1 jobs and level-0 maps of
    serial_points' items, which may come from another process: an item
    that does not fit is refused with nothing taken and no id drawn."""

    @staticmethod
    def w(u, n=1):
        return SolutionPoint(np.full(n, float(u)), 0.0)

    @staticmethod
    def state():
        return QueueEngine(make_builtin("linear1d"), crisfield(1.0),
                           EngineConfig(delta_L=1.0, steps=1, subintervals=4))

    def test_jobs_and_map_of_a_spawned_branch(self):
        state = self.state()
        w_prev0 = self.w(-1)
        state.take(BranchStart(self.w(0), w_prev0))
        assert not state.queue
        state.take(SerialStep(self.w(1), 0.5))
        state.take(SerialStep(self.w(2), 1.5))
        first, second = state.queue
        assert [(j.id, j.branch, j.xi_lo, j.xi_hi, j.delta_L0, j.level, j.N)
                for j in (first, second)] == [(0, 0, 0.0, 1.0, 0.5, 1, 4),
                                              (1, 0, 1.0, 2.0, 1.0, 1, 4)]
        assert first.w_prev is w_prev0 and second.w_prev is first.w_start
        state.take(BranchEnd())
        m = state.maps[0]
        assert m.xi_keys() == [0.0, 0.5 / 1.5, 1.0]
        assert m.lookup(0.0).w_prev is w_prev0
        assert [(j.id, j.xi_lo, j.xi_hi) for j in state.queue] == [
            (0, 0.0, 0.5 / 1.5), (1, 0.5 / 1.5, 1.0)]
        state.take(BranchStart(self.w(0), self.w(-1)))
        state.take(SerialStep(self.w(1), 1.0))
        assert (state.queue[-1].id, state.queue[-1].branch) == (2, 1)

    @pytest.mark.parametrize("items,needle", [
        ([SerialStep(SolutionPoint(np.ones(1), 0.0), 1.0)], "no branch open"),
        ([BranchEnd()], "no branch open"),
        ([START] * 2, "is open"),
        ([BranchStart(SolutionPoint(np.zeros(2), 0.0), START.w_prev0)],
         "another size"),
        ([BranchStart(START.w, SolutionPoint(np.zeros(2), 0.0))],
         "another size"),
        ([START, SerialStep(SolutionPoint(np.ones(2), 0.0), 1.0)],
         "another size"),
        ([START, SerialStep(SolutionPoint(np.ones(1), 0.0), 0.0)], "s=0.0"),
        ([START, SerialStep(SolutionPoint(np.ones(1), 0.0), math.nan)],
         "s=nan"),
        ([BranchStart(START.w, SolutionPoint(np.zeros(1), math.nan))],
         "not finite"),
        ([START, SerialStep(SolutionPoint(np.array([math.nan]), 1.0), 1.0)],
         "not finite"),
        ([START, SerialStep(SolutionPoint(np.ones(1), math.inf), 1.0)],
         "not finite"),
    ], ids=["step-first", "end-first", "two-starts", "size", "w-prev0-size",
            "step-size", "s-repeats", "s-nan", "w-prev0-nan", "step-u-nan",
            "step-lam-inf"])
    def test_item_that_does_not_fit_refused(self, items, needle):
        state = self.state()
        *fitting, last = items
        for item in fitting:
            state.take(item)

        def taken():
            return (list(state._ws), list(state._ss), state._w_prev0,
                    list(state.queue), dict(state.maps), state._taken)

        before = taken()
        with pytest.raises(CurveStructureError, match=needle):
            state.take(last)
        assert taken() == before
        assert next(state._ids) == 0


class TestInitializeMap:
    """QueueEngine.initialize queues one level-1 job per serial interval."""

    def _initialize(self, monkeypatch, counts):
        maps = []
        for b, n in enumerate(counts):
            sols = [SolutionPoint(np.array([float(i)]), 0.0) for i in range(n)]
            maps.append(CurveMap.from_serial(
                b, sols, [float(i) for i in range(n)],
                SolutionPoint(-np.ones(1), 0.0)))
        monkeypatch.setattr(engine, "serial_points", points_of(maps))
        state = QueueEngine(make_builtin("linear1d"), crisfield(1.0),
                            EngineConfig(delta_L=1.0, steps=1))
        state.initialize()
        return state.maps, state.queue

    def test_five_points_four_intervals(self, monkeypatch):
        maps, queue = self._initialize(monkeypatch, [5])
        assert len(queue) == 4
        assert all(d.level == 1 for d in queue)

    def test_two_branches(self, monkeypatch):
        maps, queue = self._initialize(monkeypatch, [5, 3])
        assert len(queue) == 6
        assert sorted({d.branch for d in queue}) == [0, 1]

    def test_degenerate_single_point_branch(self, monkeypatch):
        maps, queue = self._initialize(monkeypatch, [1])
        assert len(queue) == 0
        assert len(maps[0]) == 1

    def test_ids_and_payload_from_the_map(self, monkeypatch):
        maps, queue = self._initialize(monkeypatch, [3, 2])
        assert [job.id for job in queue] == [0, 1, 2]
        for job in queue:
            m = maps[job.branch]
            assert job.w_start is m.lookup(job.xi_lo).w
            assert job.w_prev is m.lookup(job.xi_lo).w_prev
            assert job.w_end is m.lookup(job.xi_hi).w
            assert job.delta_L0 == m.lookup(job.xi_hi).ds

    def test_queued_jobs_are_keyed_by_their_maps_xi(self, monkeypatch):
        # queued by serial indices while a branch steps, every job names
        # adjacent keys of its map once initialize() returns
        maps, queue = self._initialize(monkeypatch, [5, 3])
        for job in queue:
            keys = maps[job.branch].xi_keys()
            assert job.xi_lo in keys and job.xi_hi in keys
            assert keys.index(job.xi_hi) == keys.index(job.xi_lo) + 1
        assert [(job.xi_lo, job.xi_hi) for job in queue if job.branch == 1] \
            == [(0.0, 0.5), (0.5, 1.0)]


@pytest.mark.parametrize("workers,transport", [
    (0, None), (3, "thread"), (3, "process")],
    ids=["aalm", "3-threads", "3-processes"])
@pytest.mark.parametrize("name,branches,children", [
    ("acc-pitchfork", 2, 0), ("twin", 3, 12)])
def test_serial_and_child_jobs_share_one_counter(name, branches, children,
                                                  workers, transport):
    """The level-1 jobs that the serial phase yields on every branch, which
    worker 0 steps when there are workers, and the children that submit
    queues, in twin's case while later branches still step, draw their ids
    from the manager's one counter: the records carry each id from 0 to
    jobs_done - 1 once."""
    from bits import configs
    args = configs()[name]
    state = (apalm(*args, worker_count=workers, transport=transport)
             if workers else aalm(*args))
    assert len(state.maps) == branches
    assert state.stats.children_spawned == children
    assert sorted(r.job.id for r in state.stats.records) == list(
        range(state.stats.jobs_done))


def make_job(problem, w_start, w_prev, w_end, delta_L0, N=2, level=1):
    return Job(id=0, branch=0, xi_lo=0.0, xi_hi=1.0, delta_L0=delta_L0,
               w_start=w_start, w_prev=w_prev, w_end=w_end, level=level, N=N)


def step_lengths(w_start, sols, psi, ptp):
    """The length of each fine step, from w_start through sols."""
    return [alm.point_distance(w, w_from, psi, ptp)
            for w, w_from in zip(sols, [w_start, *sols])]


class TestSolveInterval:
    def test_linear1d_straight(self):
        p = make_builtin("linear1d")
        cfg = crisfield(1.0)
        sq2 = math.sqrt(2.0)
        w0 = SolutionPoint(np.zeros(1), 0.0)
        w1 = SolutionPoint(np.ones(1), 1.0)
        job = make_job(p, w0, SolutionPoint(-np.ones(1), -1.0), w1, sq2)
        res = solve_interval(p, cfg, job)
        assert res.error == ""
        assert step_lengths(w0, res.solutions, 1.0, 1.0) == pytest.approx(
            [sq2 / 2, sq2 / 2])
        # solutions[k] ends step k; the start point is not sent back
        assert [w.u[0] for w in res.solutions] == pytest.approx([0.5, 1.0])
        w_end = res.solutions[-1]
        assert alm.point_distance(w_end, w0, 1.0, 1.0) == pytest.approx(sq2)
        assert alm.point_distance(w1, w_end, 1.0, 1.0) == pytest.approx(
            0.0, abs=1e-10)

    def test_cubic1d_curved_across_limit_point(self):
        # With psi = 1 the metric sees the load turning at u = -1, so the
        # fine path overshoots the chord and the closing distance is > 0.
        p = make_builtin("cubic1d")
        cfg = crisfield(1.0)
        path = lambda u: u**3 - 3 * u
        w_a = SolutionPoint(np.array([-0.6]), path(-0.6))
        w_b = SolutionPoint(np.array([-1.4]), path(-1.4))
        dl0 = alm.point_distance(w_b, w_a, 1.0, p.load_norm_sq)
        w_prev = SolutionPoint(np.array([-0.3]), path(-0.3))
        res = solve_interval(p, cfg, make_job(p, w_a, w_prev, w_b, dl0))
        assert res.error == ""
        w_end = res.solutions[-1]
        assert alm.point_distance(w_b, w_end, 1.0, p.load_norm_sq) > 1e-3
        assert alm.point_distance(w_end, w_a, 1.0, p.load_norm_sq) <= (
            sum(step_lengths(w_a, res.solutions, 1.0, p.load_norm_sq))
            + 1e-12)

    def test_cold_start_matches_warm_on_linear(self):
        # a cold start, w_prev one tangent behind w0 as at the primary
        # branch's start, and a warm one, w_prev a point of the path half
        # a unit behind: the predictor rescales w0 - w_prev to the step
        p = make_builtin("linear1d")
        cfg = crisfield(1.0)
        sq2 = math.sqrt(2.0)
        w0 = SolutionPoint(np.zeros(1), 0.0)
        w1 = SolutionPoint(np.ones(1), 1.0)
        t = alm.tangent(p, w0)
        cold = solve_interval(p, cfg, make_job(
            p, w0, SolutionPoint(-t[:-1], -t[-1]), w1, sq2))
        warm = solve_interval(p, cfg, make_job(
            p, w0, SolutionPoint(np.full(1, -0.5), -0.5), w1, sq2))
        for a, b in zip(cold.solutions, warm.solutions):
            assert a.u[0] == pytest.approx(b.u[0], abs=1e-10)
            assert a.lam == pytest.approx(b.lam, abs=1e-10)
        assert cold.solutions[-1].u[0] == pytest.approx(w1.u[0], abs=1e-10)

    def test_last_step_aims_at_the_end_point(self, monkeypatch):
        # each of a job's N fine steps predicts along the increment of the
        # step before it, the first along w_start - w_prev, but the N-th
        # along the chord from its start to w_end, which here lies off the
        # curve, so that no secant could give it
        p = make_builtin("cubic1d")
        path = lambda u: u**3 - 3 * u  # noqa: E731
        w_prev, w_start = (SolutionPoint(np.array([u]), path(u))
                           for u in (0.1, 0.2))
        w_end = SolutionPoint(np.array([0.35]), path(0.5))
        calls, step = [], alm.step

        def logged(problem, config, w_i, dw, length):
            calls.append((w_i, dw))
            return step(problem, config, w_i, dw, length)

        monkeypatch.setattr(alm, "step", logged)
        res = solve_interval(p, crisfield(1.0), make_job(
            p, w_start, w_prev, w_end, 0.9, N=3))
        assert res.error == "" and len(calls) == 3
        expected = [alm.increment_between(w_start, w_prev),
                    alm.increment_between(res.solutions[0], w_start),
                    alm.increment_between(w_end, res.solutions[1])]
        for (w_i, dw), want in zip(calls, expected):
            assert dw.tobytes() == want.tobytes()

    def test_batched_last_steps_aim_at_their_end_points(self, monkeypatch):
        # the same in a wave: the round of the jobs' second and last steps
        # hands alm.batch_step each job's chord to its end point
        p, cfg, eng = STREAMED_RUNS["twin"]
        jobs = level_one_jobs(p, cfg, eng)[:8]
        rounds, batch_step = [], alm.batch_step

        def logged(problem, config, w_i, dws, *args):
            rounds.append(list(zip(w_i, dws)))
            return batch_step(problem, config, w_i, dws, *args)

        monkeypatch.setattr(alm, "batch_step", logged)
        engine.solve_intervals(tridiagonal_form(p), cfg, jobs)
        assert len(rounds) == 2 and len(rounds[1]) == len(jobs)
        for job, (w_i, dw) in zip(jobs, rounds[1]):
            assert w_i is not job.w_start
            assert dw.tobytes() == alm.increment_between(job.w_end,
                                                         w_i).tobytes()

    def test_failed_step_returns_only_its_error(self, monkeypatch):
        # the second step fails: the first step's point is not sent back
        step, calls = alm.step, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise alm.StepError("forced")
            return step(*args)

        monkeypatch.setattr(alm, "step", fail_second)
        p = make_builtin("linear1d")
        res = solve_interval(p, crisfield(1.0), make_job(
            p, SolutionPoint(np.zeros(1), 0.0),
            SolutionPoint(-np.ones(1), -1.0),
            SolutionPoint(np.ones(1), 1.0), math.sqrt(2.0)))
        assert len(calls) == 2
        assert (res.solutions, res.error) == ([], "forced")


class TestQueueEngine:
    def test_pop_is_fifo_and_assembles_payload(self):
        p = make_builtin("linear1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        state.initialize()
        assert len(state.queue) == 4
        job = state.pop()
        assert job.xi_lo == 0.0
        # the branch start, one tangent past its virtual predecessor
        assert same_bits(alm.increment_between(job.w_start, job.w_prev),
                         alm.tangent(p, job.w_start))
        assert job.w_start.u[0] == pytest.approx(0.0)
        assert state.maps[0].lookup(job.xi_hi).w.u[0] == pytest.approx(
            1.0, abs=1e-9)
        job2 = state.pop()
        assert job2.xi_lo == job.xi_hi
        assert job2.w_prev is job.w_start

    def test_pop_empty_queue(self):
        p = make_builtin("linear1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=1.0, steps=1))
        state.initialize()
        state.pop()
        with pytest.raises(QueueInvariantError):
            state.pop()

    def test_straight_interval_interior_no_children(self):
        p = make_builtin("linear1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        state.initialize()
        job = state.pop()
        res = solve_interval(p, state.config, job)
        n_before = len(state.queue)
        state.submit(job, res)
        assert len(state.queue) == n_before
        assert state.stats.children_spawned == 0

    def test_failed_job_keeps_coarse_data_and_warns(self, caplog):
        p = make_builtin("linear1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        state.initialize()
        n_points = sum(len(m) for m in state.maps.values())
        job = state.pop()
        res = IntervalResult(job_id=job.id, solutions=[],
                             error="synthetic failure")
        state.submit(job, res)
        assert state.stats.jobs_failed == 1
        [record] = state.stats.records
        assert record.outcome == FAILED and record.measured is None
        assert record.message == (
            f"branch 0 [0.0, {job.xi_hi!r}] failed: synthetic failure")
        assert caplog.messages == [record.message]
        assert sum(len(m) for m in state.maps.values()) == n_points
        assert len(state.queue) == 3

    @pytest.mark.parametrize("reason", [
        "fine xi not strictly inside", "arc length at or below ds_floor inside"])
    def test_rejected_result_leaves_the_map_as_it_was(self, reason, caplog):
        p = make_builtin("linear1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        state.initialize()
        rows = row_bits(state.collect())
        job = state.pop()
        dl0 = job.delta_L0
        w_hi = state.maps[0].lookup(job.xi_hi).w
        if reason.startswith("fine xi"):
            # errors within tolerance, but the first fine step is the serial
            # step itself and covers the whole interval, so its xi rounds
            # onto xi_hi
            sols, dists = [w_hi, w_hi], [dl0, 0.0]
        else:
            # a stretch that would queue its closing interval, half of the
            # interval, after a fine step to the midpoint and one of exactly
            # ds_floor in lambda
            floor = state.maps[0].ds_floor
            w_mid = SolutionPoint((job.w_start.u + w_hi.u) / 2,
                                  (job.w_start.lam + w_hi.lam) / 2)
            sols = [w_mid, SolutionPoint(w_mid.u, w_mid.lam + floor)]
            dists = [alm.point_distance(w_mid, job.w_start, 1.0, 1.0), floor]
        w_end = sols[-1]
        state.submit(job, IntervalResult(job_id=job.id, solutions=sols))
        assert state.stats.jobs_failed == 1
        [record] = state.stats.records
        assert record.outcome == REJECTED and record.children == 0
        assert record.measured == (
            sum(dists), alm.point_distance(w_end, job.w_start, 1.0, 1.0),
            alm.point_distance(w_hi, w_end, 1.0, 1.0))
        interval = f"[{job.xi_lo!r}, {job.xi_hi!r}]"
        assert record.message == (
            f"branch 0 {interval} rejected: {reason} {interval}")
        assert caplog.messages == [record.message]
        assert len(state.queue) == 3
        assert row_bits(state.collect()) == rows

    def test_submit_twice_raises(self):
        p = make_builtin("linear1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        state.initialize()
        job = state.pop()
        res = solve_interval(p, state.config, job)
        state.submit(job, res)
        with pytest.raises(QueueInvariantError):
            state.submit(job, res)
        with pytest.raises(QueueInvariantError):
            state.submit(state.queue[0], res)  # queued, never popped
        assert state.stats.jobs_done == 1

    def test_children_one_level_down_with_map_payload(self):
        p = make_builtin("cubic1d")
        state = QueueEngine(p, crisfield(1.0),
                            EngineConfig(delta_L=0.4, steps=15,
                                         tol_lower=1e-6, tol_upper=1e-6))
        state.initialize()
        n_level1 = len(state.queue)
        while state.stats.children_spawned == 0:
            job = state.pop()
            state.submit(job, solve_interval(p, state.config, job))
        children = list(state.queue)[n_level1 - state.stats.jobs_done:]
        assert len(children) == state.stats.children_spawned
        m = state.maps[job.branch]
        for i, child in enumerate(children):
            assert child.level == job.level + 1
            assert child.id == n_level1 + i
            assert job.xi_lo <= child.xi_lo < child.xi_hi <= job.xi_hi
            assert child.w_start is m.lookup(child.xi_lo).w
            assert child.w_prev is m.lookup(child.xi_lo).w_prev
            assert child.xi_hi in m.xi_keys()
            assert child.w_end is m.lookup(child.xi_hi).w

    def test_max_level_cap(self):
        p = make_builtin("cubic1d")
        eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-6,
                           tol_upper=1e-6, max_level=2)
        state = aalm(p, crisfield(1.0), eng)
        levels = {level for m in state.maps.values()
                  for _, _, _, level, _ in m.collect()}
        assert max(levels) <= 2


class TestSubmitChildren:
    """submit alone picks a refined job's children, one level down: the
    fine subintervals if the lower error exceeds its tolerance, the closing
    one if the upper error does and the fine end-point was stored, and
    none at max_level."""

    W_END = SolutionPoint(np.array([1.0]), 0.3)  # 0.3 off the map's w(0.2)
    # the fine path detours through lambda = 2: its first step is 2 long
    MID = SolutionPoint(np.array([0.0]), 2.0)

    def _submit(self, monkeypatch, w_end=W_END, **eng):
        # linear1d at lambda = 0, with each stored point 1 apart but 2
        # along the map: the first job runs from u = 0 to u = 1, dL0 = 2
        sols = [SolutionPoint(np.array([float(i)]), 0.0) for i in range(6)]
        m = CurveMap.from_serial(0, sols, [2.0 * i for i in range(6)],
                                 SolutionPoint(-np.ones(1), 0.0))
        monkeypatch.setattr(engine, "serial_points", points_of([m]))
        state = QueueEngine(make_builtin("linear1d"), crisfield(1.0),
                            EngineConfig(delta_L=1.0, steps=1, **eng))
        state.initialize()
        job = state.pop()
        assert (job.xi_lo, job.xi_hi, job.delta_L0) == (0.0, 0.2, 2.0)
        n_queued = len(state.queue)
        state.submit(job, IntervalResult(job.id, [self.MID, w_end]))
        [record] = state.stats.records
        children = list(state.queue)[n_queued:]
        assert record.outcome == REFINED
        assert record.children == len(children)
        assert all(c.level == 2 for c in children)
        return (state.maps[0], record,
                [(c.xi_lo, c.xi_hi, c.delta_L0) for c in children])

    D1 = math.hypot(1.0, 1.7)  # the second step, from MID to W_END

    def test_fine_and_closing_children(self, monkeypatch):
        # measured (2 + |(1, -1.7)|, |(1, 0.3)|, 0.3): lower error 0.48,
        # upper 0.33
        m, record, children = self._submit(monkeypatch)
        closing = record.measured[2]
        assert closing == pytest.approx(0.3)
        assert record.measured[0] == pytest.approx(2.0 + self.D1)
        lo, k1, k2, hi = m.xi_keys()[:4]
        assert k1 == pytest.approx(0.2 * 2.0 / (2.3 + self.D1))
        assert children == [(lo, k1, 2.0), (k1, k2, pytest.approx(self.D1)),
                            (k2, hi, closing)]

    def test_zero_closing_distance_suppresses_closing_child(self,
                                                            monkeypatch):
        # w_end is the map's point at 0.2: both errors refine, but the fine
        # end-point is not stored, so only the fine subintervals are queued
        m, record, children = self._submit(
            monkeypatch, w_end=SolutionPoint(np.array([1.0]), 0.0))
        d1 = math.sqrt(5.0)  # from MID to the map's point
        assert record.measured == (pytest.approx(2.0 + d1), 1.0, 0.0)
        lo, k1, hi = m.xi_keys()[:3]
        assert (lo, hi) == (0.0, 0.2)
        assert k1 == pytest.approx(0.2 * 2.0 / (2.0 + d1))
        assert children == [(0.0, k1, 2.0), (k1, 0.2, pytest.approx(d1))]

    def test_lower_only_children(self, monkeypatch):
        m, record, children = self._submit(monkeypatch, tol_upper=1e9)
        lo, k1, k2 = m.xi_keys()[:3]
        assert children == [(lo, k1, 2.0), (k1, k2, pytest.approx(self.D1))]

    def test_upper_only_children(self, monkeypatch):
        m, record, children = self._submit(monkeypatch, tol_lower=1e9)
        assert children == [(m.xi_keys()[2], 0.2, record.measured[2])]
        assert children[0][2] == pytest.approx(0.3)

    def test_no_children_at_max_level(self, monkeypatch):
        # the stretch is still stored, both fine points with it
        m, record, children = self._submit(monkeypatch, max_level=1)
        assert children == [] and record.children == 0
        assert len(m) == 8


class TestAalm:
    def test_linear1d_point_count(self):
        # 5 serial points + one interior point per initial interval.
        p = make_builtin("linear1d")
        state = aalm(p, crisfield(1.0),
                     EngineConfig(delta_L=math.sqrt(2.0), steps=4))
        assert sum(len(m) for m in state.maps.values()) == 9
        assert max(lvl for _, _, _, lvl, _ in state.collect()) == 1

    def test_linear1d_zero_errors_any_psi(self):
        for psi in (0.0, 1.0):
            p = make_builtin("linear1d")
            state = aalm(p, crisfield(psi),
                         EngineConfig(delta_L=1.0, steps=5))
            for r in state.stats.records:
                e = compute_errors(r.job.delta_L0, r.measured)
                assert abs(e.total) <= 1e-12
                assert abs(e.lower) <= 1e-12
                assert abs(e.upper) <= 1e-12
            assert state.stats.children_spawned == 0

    def test_cubic1d_refines_near_limit_points(self):
        p = make_builtin("cubic1d")
        state = aalm(p, crisfield(1.0),
                     EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-2,
                                  tol_upper=1e-2))
        rows = state.collect()
        deep = [w for _, _, _, lvl, w in rows if lvl >= 2]
        assert deep  # refinement happened
        for w in deep:
            assert min(abs(w.u[0] - 1.0), abs(w.u[0] + 1.0)) <= 0.5

    def test_tighter_tolerance_at_least_as_many_points(self):
        p = make_builtin("cubic1d")
        eng = dict(delta_L=0.4, steps=15)
        loose = aalm(p, crisfield(1.0),
                     EngineConfig(tol_lower=1e-2, tol_upper=1e-2, **eng))
        tight = aalm(p, crisfield(1.0),
                     EngineConfig(tol_lower=1e-4, tol_upper=1e-4, **eng))
        n_loose = sum(len(m) for m in loose.maps.values())
        n_tight = sum(len(m) for m in tight.maps.values())
        assert n_tight >= n_loose

    def test_pitchfork_branch_outputs_ordered(self):
        p = make_builtin("pitchfork")
        cfg = crisfield(1.0)
        eng = EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True)
        state = aalm(p, cfg, eng)
        assert sorted(state.maps) == [0, 1]
        for m in state.maps.values():
            xis = [r[1] for r in m.collect()]
            assert xis == sorted(xis)

    def test_triangle_inequality_on_all_jobs(self):
        p = make_builtin("cubic1d")
        state = aalm(p, crisfield(1.0),
                     EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-3,
                                  tol_upper=1e-3))
        solved = [r.measured for r in state.stats.records if r.measured]
        assert solved
        for sum_d, lower, closing in solved:
            assert closing >= 0.0
            assert lower <= sum_d + 1e-12


class TestEngineConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"delta_L": 0.0, "steps": 1},
        {"delta_L": 1.0, "steps": 0},
        {"delta_L": 1.0, "steps": 1, "subintervals": 1},
        {"delta_L": 1.0, "steps": 1, "tol_lower": 0.0},
        {"delta_L": 1.0, "steps": 1, "max_level": 0},
        # a comparison with NaN is false, so each check must fail on it
        *({"delta_L": 1.0, "steps": 1, field: value}
          for field in ("delta_L", "tol_lower", "tol_upper")
          for value in (math.nan, math.inf)),
    ])
    def test_rejects_bad_values(self, kw):
        # NaN and inf fail the type check that a config file's "engine"
        # gets, as a TypeError, before any range check
        finite = all(map(math.isfinite, kw.values()))
        with pytest.raises(ValueError if finite else TypeError):
            EngineConfig(**kw)

    @pytest.mark.parametrize("field,value,message", [
        ("steps", 3.0, "'engine.steps' must be an integer"),
        ("subintervals", 2.5, "'engine.subintervals' must be an integer"),
        ("bifurcation_enabled", "no",
         "'engine.bifurcation_enabled' must be true or false"),
    ])
    def test_rejects_what_a_config_file_may_not_hold(self, field, value,
                                                     message):
        # built in code, as a config file's section is checked: steps=3.0
        # once failed later in the serial phase, subintervals=2.5 ran under
        # aalm but broke the wire's integer N, and "no" turned detection on
        with pytest.raises(TypeError, match=message):
            EngineConfig(**{"delta_L": 1.0, "steps": 3, field: value})


class TestJob:
    @pytest.mark.parametrize("xi_lo,xi_hi,delta_L0,N", [
        (0.5, 0.5, 1.0, 2), (0.6, 0.5, 1.0, 2), (0.0, 1.0, 0.0, 2),
        (0.0, 1.0, -1.0, 2), (0.0, 1.0, 1.0, 0), (0.0, 1.0, math.nan, 2),
        (0.0, 1.0, math.inf, 2),
    ], ids=["0.5-0.5-1.0", "0.6-0.5-1.0", "0.0-1.0-0.0", "0.0-1.0--1.0",
            "N-0", "0.0-1.0-nan", "0.0-1.0-inf"])
    def test_rejects_bad_interval(self, xi_lo, xi_hi, delta_L0, N):
        w = SolutionPoint(np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            Job(id=0, branch=0, xi_lo=xi_lo, xi_hi=xi_hi, delta_L0=delta_L0,
                w_start=w, w_prev=w, w_end=w, level=1, N=N)


@pytest.mark.parametrize("points,error", [(1, "forced"), (0, "")],
                         ids=["both", "neither"])
def test_interval_result_carries_points_or_an_error(points, error):
    w = SolutionPoint(np.zeros(1), 0.0)
    with pytest.raises(ValueError, match="solutions or an error"):
        IntervalResult(job_id=0, solutions=[w] * points, error=error)


@pytest.mark.parametrize("workers", [None, 2])
def test_one_map_walk_at_the_end(monkeypatch, workers):
    """validate_monotone runs twice per map: in from_serial and once after
    the queue drains, however many jobs are submitted."""
    calls = []
    walk = CurveMap.validate_monotone

    def counted(self):
        calls.append(self.branch)
        walk(self)

    monkeypatch.setattr(CurveMap, "validate_monotone", counted)
    p = make_builtin("pitchfork")
    cfg = crisfield(1.0)
    eng = EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True)
    if workers is None:
        state = aalm(p, cfg, eng)
    else:
        state = apalm(p, cfg, eng, worker_count=workers, transport="thread")
    kept = [r for r in state.stats.records
            if r.outcome in (ACCEPTED, REFINED)]
    assert len(kept) > len(state.maps) == 2
    assert sorted(calls) == [0, 0, 1, 1]


def noise_floor_engine(steps, delta_L, tol, max_level):
    return EngineConfig(delta_L=delta_L, steps=steps, tol_lower=tol,
                        tol_upper=tol, max_level=max_level)


@pytest.mark.parametrize("steps,delta_L,tol,max_level", NOISE_FLOOR_CONFIGS)
def test_rejected_insertion_costs_one_job(steps, delta_L, tol, max_level):
    """At the Newton noise floor no job is lost: with at most N steps per
    job, the last aimed at the job's end point, no fine path runs past its
    parent, also on config 3, whose intervals reach dL0 below newton_tol.
    What a rejection that does happen costs is checked with forced ones
    in test_records_and_summary_match_aalm_bitwise."""
    state = aalm(make_builtin("cubic1d"), crisfield(1.0, tol=1e-10),
                 noise_floor_engine(steps, delta_L, tol, max_level))
    for m in state.maps.values():
        m.validate_monotone()
        ss = [s for _, _, s, _, _ in m.collect()]
        assert all(a < b for a, b in zip(ss, ss[1:]))
    stats = state.stats
    assert all(r.outcome in OUTCOMES for r in stats.records)
    assert stats.jobs_failed == 0


def steps_by_job(monkeypatch) -> dict:
    """{job id: its fine steps in order} for the jobs that
    engine.solve_intervals solves from here on: each step once, as the
    StepResult of alm.batch_step or alm.step, or None for an alm.step that
    raised. A step belongs to the job whose last point it starts from."""
    steps = {}
    owner = {}  # id of a job's last point -> (the point, the job's id)
    solve, batch_step, step = (engine.solve_intervals, alm.batch_step,
                               alm.step)

    def logged_solve(problem, config, jobs):
        for job in jobs:
            owner[id(job.w_start)] = (job.w_start, job.id)
            steps[job.id] = []
        return solve(problem, config, jobs)

    def note(w, result):
        if id(w) in owner:
            job_id = owner.pop(id(w))[1]
            steps[job_id].append(result)
            if result is not None:
                owner[id(result.w_new)] = (result.w_new, job_id)

    def logged_batch_step(problem, config, w_i, *args):
        results = batch_step(problem, config, w_i, *args)
        for w, result in zip(w_i, results):
            if result is not None:  # a None member steps through alm.step
                note(w, result)
        return results

    def logged_step(problem, config, w_i, *args):
        try:
            result = step(problem, config, w_i, *args)
        except alm.StepError:
            note(w_i, None)
            raise
        note(w_i, result)
        return result

    monkeypatch.setattr(engine, "solve_intervals", logged_solve)
    monkeypatch.setattr(alm, "batch_step", logged_batch_step)
    monkeypatch.setattr(alm, "step", logged_step)
    return steps


@pytest.mark.parametrize("run", ["noise-floor", "riks-chain"])
def test_a_job_makes_at_most_n_steps(run, monkeypatch):
    """Neither a noise-floor run nor a Riks run, whose steps come out
    slightly short, adds steps past N to use up a job's length."""
    p, cfg, eng = {
        "noise-floor": (make_builtin("cubic1d"), crisfield(1.0, tol=1e-10),
                        noise_floor_engine(*NOISE_FLOOR_CONFIGS[1])),
        "riks-chain": PARITY_RUNS["riks-chain"]}[run]
    steps = steps_by_job(monkeypatch)
    state = aalm(p, cfg, eng)
    assert len(steps) == state.stats.jobs_done > 0
    assert sum(map(len, steps.values())) > state.stats.jobs_done
    assert max(map(len, steps.values())) <= eng.subintervals


@pytest.mark.parametrize("seed", range(5))
def test_shuffled_arrival_matches_aalm_bitwise(seed):
    """Submitting results in any order gives aalm's cloud, bit for bit."""
    p = make_builtin("cubic1d")
    cfg = crisfield(1.0, tol=1e-10)
    eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-4, tol_upper=1e-4)
    state = QueueEngine(p, cfg, eng)
    state.initialize()
    rng = random.Random(seed)
    pending = []
    while state.queue or pending:
        while state.queue and len(pending) < 4:
            job = state.pop()
            pending.append((job, solve_interval(p, cfg, job)))
        state.submit(*pending.pop(rng.randrange(len(pending))))
    ref = aalm(p, cfg, eng)
    assert row_bits(state.collect()) == row_bits(ref.collect())
    assert record_bits(state) == record_bits(ref)


# runs whose serial phase spawns branches: pitchfork 2, twin 3
STREAMED_RUNS = {
    "pitchfork": (make_builtin("pitchfork"), crisfield(1.0),
                  EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True)),
    "twin": (twin_problem(), crisfield(1.0, tol=1e-10),
             EngineConfig(delta_L=0.03, steps=70, bifurcation_enabled=True,
                          tol_lower=1e-2, tol_upper=1e-2, max_level=3)),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("run", sorted(STREAMED_RUNS))
def test_streamed_shuffled_arrival_matches_aalm_bitwise(run, seed, tmp_path):
    """Jobs solved while the serial phase steps and submitted in a random
    order, some while their branch is open (parked) and some of an earlier
    branch while a later one steps, give aalm's rows, records and summary,
    bit for bit."""
    p, cfg, eng = STREAMED_RUNS[run]
    state = QueueEngine(p, cfg, eng)
    rng = random.Random(seed)
    pending = []
    parked = crossed = 0

    def exchange(stream_open):
        nonlocal parked, crossed
        while state.queue and len(pending) < 4:
            job = state.pop()
            pending.append((job, solve_interval(p, cfg, job)))
        if pending and (not stream_open or rng.random() < 0.5):
            job, result = pending.pop(rng.randrange(len(pending)))
            if job.branch not in state.maps:
                parked += 1
            elif stream_open:
                crossed += 1
            state.submit(job, result)

    for _ in state.serial_phase:
        exchange(stream_open=True)
    assert not state._parked
    while state.queue or pending:
        exchange(stream_open=False)
    assert parked > 0 and crossed > 0
    ref = aalm(p, cfg, eng)
    assert len(state.maps) == len(ref.maps) >= 2
    assert row_bits(state.collect()) == row_bits(ref.collect())
    assert record_bits(state) == record_bits(ref)
    assert summary_without_timings(state, tmp_path / "streamed.json") == \
        summary_without_timings(ref, tmp_path / "aalm.json")


# cubic1d at the Newton noise floor (1447 jobs, none rejected unless
# forced) and a Riks chain that loses none of its 86 jobs
PARITY_RUNS = {
    "noise-floor": (make_builtin("cubic1d"), crisfield(1.0, tol=1e-10),
                    noise_floor_engine(*NOISE_FLOOR_CONFIGS[3])),
    "riks-chain": (make_builtin("springchain", n=16),
                   AlmConfig(constraint="riks", psi=1.0, newton_tol=1e-10),
                   EngineConfig(delta_L=0.4, steps=32, max_level=3)),
}


def refuse_level_3_stretches(monkeypatch):
    """Make the map refuse every refined job's insertion at level 3, as it
    refuses a fine path that does not fit its parent: insert_stretch raises
    CurveStructureError before it changes the map. The manager inserts, so
    the refusals are the same under every transport."""
    insert = CurveMap.insert_stretch

    def refusing(self, xi_lo, xi_hi, level, *args):
        if level == 3:
            raise CurveStructureError("refused at level 3")
        return insert(self, xi_lo, xi_hi, level, *args)

    monkeypatch.setattr(CurveMap, "insert_stretch", refusing)


@pytest.mark.parametrize("run", sorted(PARITY_RUNS))
def test_records_and_summary_match_aalm_bitwise(run, tmp_path, monkeypatch):
    """Records and .summary.json (timings aside) are a function of the
    config: 3 thread or process workers give aalm's, bit for bit. On the
    noise-floor run the map refuses the refined jobs of level 3, so
    rejected jobs, each of which keeps its measurement, queues no child
    and warns with its interval, match too."""
    p, cfg, eng = PARITY_RUNS[run]
    if run == "noise-floor":
        refuse_level_3_stretches(monkeypatch)
    ref = aalm(p, cfg, eng)
    if run == "noise-floor":
        rejected = [r for r in ref.stats.records if r.outcome == REJECTED]
        assert len(rejected) == ref.stats.jobs_failed >= 1
        for r in rejected:
            assert r.job.level == 3
            assert r.measured is not None and r.children == 0
            assert r.message == (f"branch 0 [{r.job.xi_lo!r}, "
                                 f"{r.job.xi_hi!r}] rejected: refused at "
                                 f"level 3")
    ref_summary = summary_without_timings(ref, tmp_path / "aalm.json")
    for transport in ("thread", "process"):
        state = apalm(p, cfg, eng, worker_count=3, transport=transport)
        assert row_bits(state.collect()) == row_bits(ref.collect())
        assert record_bits(state) == record_bits(ref)
        assert summary_without_timings(
            state, tmp_path / f"{transport}.json") == ref_summary


KERNEL_RUNS = {
    # the acceptance suite's scaling chain, without its synthetic delay
    "chain-n64": (make_builtin("springchain", n=64), crisfield(1.0, tol=1e-10),
                  EngineConfig(delta_L=0.4, steps=64, tol_lower=1e-2,
                               tol_upper=1e-2, max_level=3)),
    "riks-chain": PARITY_RUNS["riks-chain"],
}


@pytest.mark.skipif(tridiagonal.factor is tridiagonal.reference_factor,
                    reason="numpy's LAPACK exports no dgttrf/dgttrs")
@pytest.mark.parametrize("run", sorted(KERNEL_RUNS))
def test_tridiagonal_kernels_move_no_bit(run, monkeypatch):
    """A run through LAPACK's dgttrf/dgttrs and one through the Python
    reference elimination give the same rows and records, bit for bit, so
    which path a platform's numpy allows never moves an output bit."""
    p, cfg, eng = KERNEL_RUNS[run]
    state = aalm(p, cfg, eng)
    monkeypatch.setattr(tridiagonal, "factor", tridiagonal.reference_factor)
    monkeypatch.setattr(tridiagonal, "solve", tridiagonal.reference_solve)
    ref = aalm(p, cfg, eng)
    assert state.stats.jobs_done == ref.stats.jobs_done > 0
    assert row_bits(state.collect()) == row_bits(ref.collect())
    assert record_bits(state) == record_bits(ref)


def test_stacked_callbacks_move_no_bit():
    """springchain's stacked callbacks, which a wave's batch calls once
    per Newton iteration, and the row loop over its per-point callbacks,
    which a problem without them takes, give the same rows and records,
    bit for bit."""
    from dataclasses import replace
    p, cfg, eng = KERNEL_RUNS["chain-n64"]
    assert p.residuals_fn is not None
    state = aalm(p, cfg, eng)
    rows = aalm(replace(p, residuals_fn=None, tridiagonals_fn=None,
                        jacobians_lambda_fn=None), cfg, eng)
    assert state.stats.jobs_done == rows.stats.jobs_done >= 4 * MIN_BATCH
    assert row_bits(state.collect()) == row_bits(rows.collect())
    assert record_bits(state) == record_bits(rows)


def counted_factors(monkeypatch):
    """Counts of tridiagonal.factor calls from here on: "new" for those
    given no earlier factor, which build buffers, "refill" for the rest."""
    counts = {"new": 0, "refill": 0}
    factor = tridiagonal.factor

    def counted(sub, diag, sup, lu=None, b=None):
        counts["new" if lu is None else "refill"] += 1
        return factor(sub, diag, sup, lu, b)

    monkeypatch.setattr(tridiagonal, "factor", counted)
    return counts


def on_new_thread(fn, *args):
    """fn(*args), run on a thread of its own, whose alm.workspace is new."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn(*args)))
    t.start()
    t.join(timeout=60)
    assert out, "the thread raised or is still running"
    return out[0]


def test_steps_taken_alone_share_one_workspace(monkeypatch):
    """Fewer than MIN_BATCH springchain jobs take every step alone through
    alm.step, in row 0 of the thread's alm.workspace. A workspace new to
    the thread (a swapped tridiagonal.factor gets one) builds one factor
    for all their steps, and each later iteration refills it; after a wave
    on the same thread has built its rows, they build no factor at all,
    and keep their bits."""
    p, cfg, eng = KERNEL_RUNS["chain-n64"]
    jobs = level_one_jobs(p, cfg, eng)
    alone = jobs[1:MIN_BATCH]
    counts = counted_factors(monkeypatch)
    results = engine.solve_intervals(p, cfg, alone)
    assert all(len(r.solutions) == job.N for r, job in zip(results, alone))
    factors = counts["new"] + counts["refill"]
    assert counts["new"] == 1 and factors >= len(alone)
    wave = jobs[MIN_BATCH:4 * MIN_BATCH]
    engine.solve_intervals(p, cfg, wave)
    assert all(alm.workspace(p.n_dof).factors[:len(wave)])
    counts.update(new=0, refill=0)
    again = engine.solve_intervals(p, cfg, alone)
    assert result_bits(again) == result_bits(results)
    assert (counts["new"], counts["refill"]) == (0, factors)


def test_a_wave_calls_no_per_point_callback_outside_its_lone_steps(
        monkeypatch):
    """A wave of 16 springchain jobs of 256 unknowns calls the per-point
    residual, tridiagonal and dG/dlambda only inside alm.step, for the
    steps taken alone, of which these 16, job 0 at the trivial point
    among them, take none; its batches call the stacked forms, once per
    Newton iteration. It builds a factor for each row of its thread's
    alm.workspace that a batch reaches (the counting tridiagonal.factor
    gives the thread a new one)."""
    from dataclasses import replace

    from bits import configs
    p, cfg, eng = configs()["chain-serial-s1"]
    jobs = level_one_jobs(p, cfg, eng)[:16]
    calls = {"alone": 0, "outside": 0, "stacked": 0}
    depth = [0]  # alm.step calls open

    def per_point(fn):
        def counted(u, lam):
            calls["alone" if depth[0] else "outside"] += 1
            return fn(u, lam)
        return counted

    def stacked(u, lam):
        calls["stacked"] += 1
        return p.residuals_fn(u, lam)

    step = alm.step

    def in_step(*args):
        depth[0] += 1
        try:
            return step(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(alm, "step", in_step)
    counted = replace(p, residual_fn=per_point(p.residual_fn),
                      tridiagonal_fn=per_point(p.tridiagonal_fn),
                      jacobian_lambda_fn=per_point(p.jacobian_lambda_fn),
                      residuals_fn=stacked)
    factors = counted_factors(monkeypatch)
    results = engine.solve_intervals(counted, cfg, jobs)
    # one factor per row of the first batch, of all 16 jobs; the second
    # batch, whose members aim at their end points, solves for no more
    # members than that
    assert factors["new"] == len(jobs)
    assert result_bits(results) == result_bits(
        engine.solve_intervals(p, cfg, jobs))
    assert calls["outside"] == calls["alone"] == 0
    assert calls["stacked"] > 0


@pytest.mark.parametrize("run", ["cubic1d", "riks-chain"])
def test_submit_measures_against_the_map(run, monkeypatch):
    """submit measures each solved job from its fine points: measured is
    (sum d_k, |w_end - w_start|, |map[xi_hi].w - w_end|), and each d_k,
    measured from the step's start point, is the achieved length that
    alm.batch_step or alm.step returned for that step, bit for bit, in
    measured and in the map."""
    p, cfg, eng = {
        "cubic1d": (make_builtin("cubic1d"), crisfield(1.0, tol=1e-10),
                    EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-4,
                                 tol_upper=1e-4)),
        "riks-chain": PARITY_RUNS["riks-chain"]}[run]
    results, inserted = {}, {}
    submit = QueueEngine.submit
    steps = steps_by_job(monkeypatch)

    def kept(self, job, result):
        results[job.id] = result
        submit(self, job, result)

    def logged_insert(name):
        insert = getattr(CurveMap, name)

        def wrapper(self, *args):
            # (xi_lo, xi_hi, level, sols, dists[, dl_close]); a job's
            # interval is unique among the jobs of a run
            inserted[self.branch, args[0], args[1]] = list(args[4])
            return insert(self, *args)
        return wrapper

    monkeypatch.setattr(QueueEngine, "submit", kept)
    for name in ("insert_interior", "insert_stretch"):
        monkeypatch.setattr(CurveMap, name, logged_insert(name))
    state = aalm(p, cfg, eng)
    solved = [r for r in state.stats.records if r.measured is not None]
    assert any(r.outcome == REFINED for r in solved)
    assert len(inserted) == len(solved)
    psi, ptp = cfg.psi, p.load_norm_sq
    hexes = lambda xs: [float(x).hex() for x in xs]  # noqa: E731
    for r in solved:
        res = results[r.job.id]
        lengths = [step.achieved_length for step in steps[r.job.id]]
        assert len(lengths) == len(res.solutions)
        assert hexes(inserted[r.job.branch, r.job.xi_lo, r.job.xi_hi]) == (
            hexes(lengths))
        w_end = res.solutions[-1]
        w_hi = state.maps[r.job.branch].lookup(r.job.xi_hi).w
        expected = (sum(lengths),
                    alm.point_distance(w_end, r.job.w_start, psi, ptp),
                    alm.point_distance(w_hi, w_end, psi, ptp))
        assert hexes(r.measured) == hexes(expected)


def test_failed_spawned_branch_costs_that_branch(caplog):
    """Both spawned loop branches fail a serial step at s = 0.076875; each
    keeps its points and the run completes, in aalm and in apalm alike."""
    p, cfg = twin_problem(), crisfield(1.0, tol=1e-10)
    eng = EngineConfig(delta_L=0.03, steps=70, bifurcation_enabled=True,
                       tol_lower=1e-2, tol_upper=1e-2, max_level=3)
    ref = aalm(p, cfg, eng)
    assert "failed on branch 1 at s=0.076875" in caplog.text
    assert "branch kept" in caplog.text
    assert sorted(ref.maps) == [0, 1, 2]
    for m in ref.maps.values():
        ss = [s for _, _, s, _, _ in m.collect()]
        assert len(ss) >= 2
        assert all(a < b for a, b in zip(ss, ss[1:]))
    state = apalm(p, cfg, eng, worker_count=3, transport="thread")
    assert row_bits(state.collect()) == row_bits(ref.collect())
    assert record_bits(state) == record_bits(ref)


@pytest.mark.parametrize("workers", [0, 1], ids=["aalm", "process1"])
@pytest.mark.parametrize("name", ["chain-serial-s1", "acc-pitchfork", "twin",
                                  "riks-chain-n16"])
def test_no_step_starts_cold(name, workers):
    """Every branch starts from a point and a direction, so every job
    carries its start's predecessor, and level-1 job 0, which starts at
    the trivial point, first steps along the tangent there, bit for bit
    (the sign of a zero aside)."""
    from bits import configs
    p, cfg, eng = configs()[name]
    state = (apalm(p, cfg, eng, worker_count=1, transport="process")
             if workers else aalm(p, cfg, eng))
    jobs = [r.job for r in state.stats.records]
    assert jobs and all(isinstance(job.w_prev, SolutionPoint)
                        for job in jobs)
    [first] = [job for job in jobs if job.id == 0]
    assert (first.branch, first.level, first.xi_lo) == (0, 1, 0.0)
    assert not first.w_start.u.any() and first.w_start.lam == 0.0
    assert same_bits(alm.increment_between(first.w_start, first.w_prev),
                     alm.tangent(p, first.w_start))


def kinked_problem(n, bad):
    """G_i = u_i^3 + u_i - lam with a tridiagonal K, whose path has every
    u_i at the real root of u^3 + u = lam; but where lam >= 1.5 the
    callbacks make the bordered matrix exactly singular: K = 0 for bad
    "pivot", and dG/dlam = 0 for bad "schur", which with psi = 0 zeroes
    the Schur complement."""
    from apalm.problems import ProblemDef

    def diagonal(u, lam):
        if bad == "pivot" and lam >= 1.5:
            return np.zeros(n)
        return 3.0 * u * u + 1.0

    def load(u, lam):
        if bad == "schur" and lam >= 1.5:
            return np.zeros(n)
        return np.full(n, -1.0)

    return ProblemDef(
        n_dof=n, residual_fn=lambda u, lam: u * u * u + u - lam,
        jacobian_u_fn=None,
        tridiagonal_fn=lambda u, lam: (np.zeros(n - 1), diagonal(u, lam),
                                       np.zeros(n - 1)),
        jacobian_lambda_fn=load, load_norm_sq=float(n), name="kinked")


def tridiagonal_form(p):
    """p, a problem of one unknown with a dense K, with K given as the
    diagonal of a tridiagonal one, which the batch takes."""
    from apalm.problems import ProblemDef
    return ProblemDef(
        n_dof=1, residual_fn=p.residual_fn, jacobian_u_fn=None,
        tridiagonal_fn=lambda u, lam: (
            np.empty(0), p.jacobian_u_fn(u, lam)[0], np.empty(0)),
        jacobian_lambda_fn=p.jacobian_lambda_fn,
        load_norm_sq=p.load_norm_sq, name=p.name)


def kinked_jobs(p, lams):
    """One job per start lam, warm-started along the path from lam - 0.1,
    0.5 long and ending at the path's point at lam + 0.2."""
    def point(lam):
        u = np.roots([1.0, 0.0, 1.0, -lam])
        return SolutionPoint(np.full(p.n_dof, u[np.isreal(u)].real[0]), lam)

    return [Job(id=k, branch=0, xi_lo=float(k), xi_hi=k + 1.0,
                delta_L0=0.5, w_start=point(lam), w_prev=point(lam - 0.1),
                w_end=point(lam + 0.2), level=1, N=2)
            for k, lam in enumerate(lams)]


def level_one_jobs(p, cfg, eng):
    state = QueueEngine(p, cfg, eng)
    state.initialize()
    return list(state.queue)


def equivalence_case(name):
    """(problem, AlmConfig, jobs, what the batch must meet): "dense" for a
    dense K, which the batch takes no step of, "cuts" for step cuts and
    failed steps, "singular" for a member that fails in the batch beside
    healthy ones. A name ending in "-tridiagonal" gives the problem of
    one unknown its K as a tridiagonal one."""
    from dataclasses import replace

    from bits import configs
    if name.startswith("kinked"):
        bad = name.split("-")[1]
        p = kinked_problem(4, bad)
        cfg = crisfield(0.0 if bad == "schur" else 1.0, tol=1e-10)
        return p, cfg, kinked_jobs(p, [0.2, 0.5, 0.8, 1.1, 1.4]), "singular"
    base = name.removesuffix("-tridiagonal")
    p, cfg, eng = configs()[base]
    jobs = level_one_jobs(p, cfg, eng)
    meets = "dense" if p.tridiagonal_fn is None else ""
    if base != name:
        p, meets = tridiagonal_form(p), ""
    if base == "twin":
        # 16 times longer than the serial steps: cuts, and failed steps
        jobs, meets = [replace(j, delta_L0=16 * j.delta_L0)
                       for j in jobs], "cuts"
    return p, cfg, jobs, meets


def result_bits(results):
    return [(r.job_id, r.error,
             [(w.u.tobytes(), float(w.lam).hex()) for w in r.solutions])
            for r in results]


@pytest.mark.parametrize("name", [
    "chain-serial-s1", "riks-chain-n16", "acc-cubic-psi0", "acc-cubic-psi1",
    "acc-cubic-psi0-tridiagonal", "acc-cubic-psi1-tridiagonal",
    "twin-tridiagonal", "kinked-pivot", "kinked-schur"])
def test_solve_intervals_matches_solve_interval(name, monkeypatch):
    """A wave through solve_intervals gives each job the results of
    solving it alone with solve_interval, whose one job steps through
    alm.step, bit for bit: the points' u bytes and lambda, and the error
    text. A member the batch does not take or that fails in it moves no
    bit of the others."""
    p, cfg, jobs, meets = equivalence_case(name)
    expected = [solve_interval(p, cfg, job) for job in jobs]
    seen = {"batched": 0, "alone": 0, "cuts": 0, "failed": 0}
    alone_from = []  # the lambda of each step taken alone
    batch_step, step = alm.batch_step, alm.step

    def noted_batch_step(*args):
        results = batch_step(*args)
        seen["batched"] += sum(r is not None for r in results)
        return results

    def noted_step(problem, config, w_i, *args):
        seen["alone"] += 1
        alone_from.append(w_i.lam)
        try:
            result = step(problem, config, w_i, *args)
        except alm.StepError:
            seen["failed"] += 1
            raise
        seen["cuts"] += result.cuts_used
        return result

    monkeypatch.setattr(alm, "batch_step", noted_batch_step)
    monkeypatch.setattr(alm, "step", noted_step)
    assert result_bits(engine.solve_intervals(p, cfg, jobs)) == \
        result_bits(expected)
    assert len(jobs) >= engine.MIN_BATCH
    assert (seen["batched"] == 0) == (meets == "dense")
    if meets == "cuts":
        assert seen["cuts"] > 0 and seen["failed"] > 0
        assert any(r.error for r in expected)
    if meets == "singular":
        # the job that starts at 1.4 steps past 1.5 and fails there, and
        # takes its steps alone; the three jobs from 0.2 to 0.8 take every
        # step in the batch, beside it
        assert seen["alone"] > 0 and min(alone_from) >= 1.1
        assert not any(r.error for r in expected[:3])
