import logging
import math
import multiprocessing
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from apalm import alm, engine, runtime, tridiagonal
from apalm import transport as tp
from apalm.alm import AlmConfig, point_distance
from apalm.engine import (ACCEPTED, LOST, REFINED, BranchEnd, BranchStart,
                          EngineConfig, IntervalResult, Job, QueueEngine,
                          SerialSolveError, SerialStep, aalm)
from apalm.problems import SolutionPoint, make_builtin
from apalm.runtime import _worker_main, apalm, run_manager, run_worker
from apalm.transport import ProtocolError, SocketEndpoint
from bits import configs, record_bits, row_bits, summary_without_timings


def crisfield(psi=1.0):
    return AlmConfig(constraint="crisfield", psi=psi, newton_tol=1e-12)


def endpoint_pair():
    s1, s2 = socket.socketpair()
    return SocketEndpoint(s1), SocketEndpoint(s2)


def fresh_send_buffer() -> int:
    """The send buffer (SO_SNDBUF) of a fresh socket pair, as apalm makes
    for each worker."""
    a, b = socket.socketpair()
    with a, b:
        return a.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


@pytest.fixture
def pair():
    manager, worker = endpoint_pair()
    yield manager, worker
    manager.close()
    worker.close()


def scripted_worker(reply=None, endpoint=SocketEndpoint):
    """Manager end (of class endpoint) of a pair whose worker thread takes
    one job frame, sends reply(its jobs) if a reply is given and returns a
    wave, and hangs up."""
    s1, s2 = socket.socketpair()
    s2.settimeout(10.0)  # a frame that never comes ends in a hang-up
    m_ep, w_ep = endpoint(s1), SocketEndpoint(s2)

    def serve():
        try:
            jobs = w_ep.recv()
            if reply is not None and (wave := reply(jobs)):
                w_ep.send(wave)
        finally:
            w_ep.close()  # an error in reply must not leave the manager waiting

    threading.Thread(target=serve, daemon=True).start()
    return m_ep


def gone_worker():
    """Manager end of a pair whose worker end is closed before any job."""
    m_ep, w_ep = endpoint_pair()
    w_ep.close()
    return m_ep


class SendsOnce(SocketEndpoint):
    """A manager endpoint whose every send after the first fails."""

    def __init__(self, sock):
        super().__init__(sock)
        self.sends = 0

    def send(self, msg):
        self.sends += 1
        if self.sends > 1:
            raise tp.EndpointClosed("synthetic send failure")
        super().send(msg)


def run_and_stop(state, endpoints):
    """run_manager, then each endpoint's stop, as apalm sends it: the
    manager sends only job frames, and whoever started the workers stops
    them."""
    try:
        run_manager(state, endpoints)
    finally:
        for ep in endpoints:
            try:
                ep.send(None)
            except tp.EndpointClosed:
                pass


def run_bounded(state, endpoints, timeout=20.0, drive=None):
    """run_and_stop in a thread joined with a timeout, so that a manager
    left waiting with no reply to come fails the test instead of hanging
    it; drive(), if given, runs meanwhile in the calling thread, and the
    manager's own error is raised here."""
    errors = []

    def target():
        try:
            run_and_stop(state, endpoints)
        except BaseException as exc:  # re-raised below, in the test
            errors.append(exc)

    t = threading.Thread(target=target, daemon=True, name="manager")
    t.start()
    if drive is not None:
        drive()
    t.join(timeout=timeout)
    assert not t.is_alive(), "run_manager did not return"
    if errors:
        raise errors[0]


def streaming_threads(monkeypatch):
    """The (pid, thread id) of each worker 0 that has begun to stream the
    serial phase, added as it begins. A forked worker 0 adds itself to its
    own copy."""
    streamers = set()
    stream = runtime._stream_serial

    def marked(*args):
        streamers.add((os.getpid(), threading.get_ident()))
        return stream(*args)

    monkeypatch.setattr(runtime, "_stream_serial", marked)
    return streamers


def is_job_frame(msg) -> bool:
    """Whether msg, being sent, is a job frame: only the manager sends
    them, as worker 0 streams points."""
    return isinstance(msg, list) and isinstance(msg[0], Job)


def manager_solves(monkeypatch):
    """The jobs that the manager solves itself, listed as
    engine.solve_intervals is called with them in the main thread or in
    run_bounded's manager thread. A worker thread's calls are not listed,
    and a forked worker lists its own in its own copy."""
    solve, mine = engine.solve_intervals, []

    def counted(problem, config, jobs):
        thread = threading.current_thread()
        if thread is threading.main_thread() or thread.name == "manager":
            mine.extend(jobs)
        return solve(problem, config, jobs)

    monkeypatch.setattr(engine, "solve_intervals", counted)
    return mine


def record_sends(monkeypatch):
    """Patch SocketEndpoint so that each job frame sent is logged as
    (endpoint, the frames every endpoint held just before the send, the
    frame's job count), where an endpoint holds the frames sent to it that
    it has not answered. Only the manager sends jobs and receives replies,
    so only its thread writes here."""
    held, log = {}, []
    send, recv = SocketEndpoint.send, SocketEndpoint.recv

    def logging_send(self, msg):
        if is_job_frame(msg):
            before = dict(held)
            send(self, msg)
            log.append((self, before, len(msg)))
            held[self] = held.get(self, 0) + 1
        else:
            send(self, msg)

    def logging_recv(self):
        msg = recv(self)
        if isinstance(msg, list) and isinstance(msg[0], IntervalResult):
            held[self] -= 1
        return msg

    monkeypatch.setattr(SocketEndpoint, "send", logging_send)
    monkeypatch.setattr(SocketEndpoint, "recv", logging_recv)
    return log


def linear_job(job_id=0, n=1):
    return Job(id=job_id, branch=0, xi_lo=0.0, xi_hi=1.0,
               delta_L0=math.sqrt(2.0),
               w_start=SolutionPoint(np.zeros(n), 0.0),
               w_prev=SolutionPoint(-np.ones(n), -1.0),
               w_end=SolutionPoint(np.ones(n), 1.0), level=1, N=2)


class TestRunWorker:
    def test_immediate_stop(self, pair):
        manager, worker = pair
        manager.send(None)
        assert run_worker(make_builtin("linear1d"), crisfield(), worker) == 0

    def test_single_job(self, pair):
        manager, worker = pair
        manager.send([linear_job(job_id=5)])
        manager.send(None)
        done = run_worker(make_builtin("linear1d"), crisfield(), worker)
        assert done == 1
        data, = manager.recv()
        assert isinstance(data, IntervalResult)
        assert data.job_id == 5
        assert data.error == ""
        # the fine path ends on the interval's end, (1, 1), in two steps
        # of half its length
        assert point_distance(SolutionPoint(np.ones(1), 1.0),
                              data.solutions[-1], 1.0, 1.0) <= 1e-10
        start, (mid, end) = SolutionPoint(np.zeros(1), 0.0), data.solutions
        steps = [point_distance(mid, start, 1.0, 1.0),
                 point_distance(end, mid, 1.0, 1.0)]
        assert steps == pytest.approx([math.sqrt(2) / 2] * 2)

    def test_two_jobs_ids_match(self, pair):
        # one reply frame per job frame, its replies in the order of the
        # frame's jobs
        manager, worker = pair
        manager.send([linear_job(job_id=3)])
        manager.send([linear_job(job_id=jid) for jid in (4, 5)])
        manager.send(None)
        done = run_worker(make_builtin("linear1d"), crisfield(), worker)
        assert done == 3
        assert [[r.job_id for r in manager.recv()] for _ in range(2)] == \
            [[3], [4, 5]]

    def test_wave_answered_with_the_bits_of_each_job_alone(self, pair):
        # a frame of 12 level-1 springchain jobs, solved in one
        # solve_intervals call: the first is cold, the rest step in batches
        manager, worker = pair
        p = make_builtin("springchain", n=16)
        state = QueueEngine(p, crisfield(), EngineConfig(
            delta_L=0.4, steps=12, subintervals=3))
        state.initialize()
        jobs = list(state.queue)
        manager.send(jobs)
        manager.send(None)
        assert run_worker(p, state.config, worker) == len(jobs) == 12
        replies = manager.recv()
        assert [r.job_id for r in replies] == [job.id for job in jobs]
        for job, reply in zip(jobs, replies):
            alone = engine.solve_interval(p, state.config, job)
            assert reply.error == alone.error == ""
            assert [(w.u.tobytes(), w.lam.hex()) for w in reply.solutions] \
                == [(w.u.tobytes(), w.lam.hex()) for w in alone.solutions]

    def test_thread_worker_builds_each_factor_row_once(self, pair,
                                                       monkeypatch):
        # three frames of warm-started springchain jobs, of 4, 6 and 5
        # jobs, to one thread worker: its thread's alm.workspace builds the
        # factors
        # of rows 0-3 on the first frame and of rows 4 and 5 on the
        # second, and refills them on every other iteration, the third
        # frame's included; every reply has the bits of its job alone
        manager, worker = pair
        p = make_builtin("springchain", n=16)
        state = QueueEngine(p, crisfield(), EngineConfig(
            delta_L=0.4, steps=16, subintervals=3))
        state.initialize()
        jobs = list(state.queue)[1:]  # job 0 starts cold
        frames = [jobs[:4], jobs[4:10], jobs[10:]]
        assert [len(f) for f in frames] == [4, 6, 5]
        counts = {"new": 0, "refill": 0}
        factor = tridiagonal.factor

        def counted(sub, diag, sup, lu=None, b=None):
            counts["new" if lu is None else "refill"] += 1
            return factor(sub, diag, sup, lu, b)

        monkeypatch.setattr(tridiagonal, "factor", counted)
        t = threading.Thread(target=run_worker,
                             args=(p, state.config, worker), daemon=True)
        t.start()
        built, replies = [], []
        for frame in frames:
            manager.send(frame)
            replies.extend(manager.recv())
            built.append(counts["new"])
        manager.send(None)
        t.join(timeout=10)
        assert not t.is_alive()
        assert built == [4, 6, 6] and counts["refill"] > 0
        for job, reply in zip(jobs, replies):
            alone = engine.solve_interval(p, state.config, job)
            assert reply.job_id == job.id and reply.error == ""
            assert [(w.u.tobytes(), w.lam.hex()) for w in reply.solutions] \
                == [(w.u.tobytes(), w.lam.hex()) for w in alone.solutions]

    def test_job_without_handshake_rejected(self, pair):
        # the version byte of each frame header is the only handshake left:
        # a job framed by a version-1 manager is not solved
        manager, worker = pair
        manager._sock.sendall(
            bytes([1]) + tp.frame(tp.encode([linear_job()]))[1:])
        with pytest.raises(ProtocolError):
            run_worker(make_builtin("linear1d"), crisfield(), worker)

    def test_double_stop_header_rejected(self, pair):
        # a stop payload is one byte; a doubled one is not taken as a stop
        manager, worker = pair
        manager._sock.sendall(tp.frame(bytes([tp.MSG_STOP] * 2)))
        with pytest.raises(ProtocolError):
            run_worker(make_builtin("linear1d"), crisfield(), worker)

    def test_non_job_frame_rejected(self, pair):
        manager, worker = pair
        manager.send([IntervalResult(job_id=0, solutions=[],
                                     error="not a job")])
        with pytest.raises(ProtocolError):
            run_worker(make_builtin("linear1d"), crisfield(), worker)

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_worker_main_on_closed_peer(self, transport):
        # a forked worker reports the lost manager in its exit code; a
        # thread worker has no exit code and just returns
        manager, worker = socket.socketpair()
        manager.close()
        args = (make_builtin("linear1d"), crisfield(), worker)
        if transport == "thread":
            outcome = []

            def target():
                try:
                    outcome.append(_worker_main(*args))
                except SystemExit as exc:
                    outcome.append(exc)

            t = threading.Thread(target=target)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            assert outcome == [None]
        else:
            proc = multiprocessing.get_context("fork").Process(
                target=_worker_main, args=args)
            proc.start()
            worker.close()
            proc.join(timeout=10)
            assert proc.exitcode == 1

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_worker_main_refuses_a_job_of_another_size(self, transport,
                                                        caplog, capfd):
        # a 3-DOF job for a 1-DOF problem is refused as the manager refuses
        # a reply of the wrong size: the worker logs it and ends with no
        # traceback, and a forked one exits 1
        m_sock, worker = socket.socketpair()
        manager = SocketEndpoint(m_sock)
        manager.send([linear_job(n=3)])
        args = (make_builtin("linear1d"), crisfield(), worker)
        if transport == "thread":
            t = threading.Thread(target=_worker_main, args=args)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            assert [r.getMessage() for r in caplog.records
                    if r.name == "apalm.runtime"] == [
                "worker exiting on protocol error: "
                "job points of 3 DOF for 1"]
        else:
            proc = multiprocessing.get_context("fork").Process(
                target=_worker_main, args=args)
            proc.start()
            worker.close()
            proc.join(timeout=10)
            assert proc.exitcode == 1
        assert "Traceback" not in capfd.readouterr().err
        manager.close()


def fresh_state(problem_name="linear1d", streams=False, **eng):
    """A problem and its engine with the serial phase run, or, if streams,
    left to run_manager, which then sends each level-1 job in a frame of
    its own as its serial step lands."""
    p = make_builtin(problem_name)
    eng.setdefault("delta_L", math.sqrt(2.0))
    eng.setdefault("steps", 4)
    state = QueueEngine(p, crisfield(), EngineConfig(**eng))
    if not streams:
        state.initialize()
    return p, state


class TestRunManager:
    def _with_workers(self, state, problem, n):
        pairs = [endpoint_pair() for _ in range(n)]
        threads = []
        for _, w_ep in pairs:
            t = threading.Thread(target=run_worker,
                                 args=(problem, state.config, w_ep),
                                 daemon=True)
            t.start()
            threads.append(t)
        run_and_stop(state, [m_ep for m_ep, _ in pairs])
        for t in threads:
            t.join(timeout=10)
        for m_ep, w_ep in pairs:
            w_ep.close()
            m_ep.close()
        return state

    def test_empty_queue_stops_workers(self):
        p, state = fresh_state(steps=1)
        state.queue.clear()
        self._with_workers(state, p, 2)
        assert state.stats.jobs_done == 0

    def test_drains_queue(self):
        p, state = fresh_state()
        self._with_workers(state, p, 3)
        assert not state.queue
        assert state.stats.jobs_done == 4
        assert state.stats.jobs_failed == 0

    def test_sends_no_stop(self):
        # whoever started the workers stops them: the worker still waits
        # for a frame when run_manager returns, and ends on the caller's
        # stop. The manager counts as a solver: of the 4 jobs, the worker
        # is sent ceil(4 / 2) and the manager solves the other 2.
        p, state = fresh_state()
        m_ep, w_ep = endpoint_pair()
        done = []
        t = threading.Thread(target=lambda: done.append(
            run_worker(p, state.config, w_ep)), daemon=True)
        t.start()
        run_manager(state, [m_ep])
        assert state.stats.jobs_done == 4 and not state.queue
        t.join(timeout=0.2)
        assert t.is_alive()
        m_ep.send(None)
        t.join(timeout=10)
        assert not t.is_alive()
        assert done == [2]
        w_ep.close()
        m_ep.close()

    def test_worker_disconnect_marks_job_failed(self):
        p, state = fresh_state()
        m_ep, w_ep = endpoint_pair()
        t = threading.Thread(target=run_worker, args=(p, state.config, w_ep),
                             daemon=True)
        t.start()
        hangup = scripted_worker()
        run_and_stop(state, [hangup, m_ep])
        t.join(timeout=10)
        for ep in (hangup, w_ep, m_ep):
            ep.close()
        assert state.stats.jobs_failed >= 1
        assert state.stats.jobs_done == 4
        lost = [r for r in state.stats.records if r.outcome == LOST]
        assert len(lost) == state.stats.jobs_failed
        assert all("worker 0 lost" in r.message for r in lost)

    def test_all_workers_lost_finishes_on_manager(self):
        # the only worker hangs up holding the frame of job 0: it is lost,
        # with its own record, and the manager solves the rest
        p, state = fresh_state(streams=True)
        hangup = scripted_worker()
        run_manager(state, [hangup])
        hangup.close()
        assert state.stats.jobs_done == 4
        lost = [r for r in state.stats.records if r.outcome == LOST]
        assert [r.job.id for r in lost] == [0]
        assert all("worker 0 lost" in r.message for r in lost)
        assert sorted(r.job.id for r in state.stats.records
                      if r.outcome in (ACCEPTED, REFINED)) == [1, 2, 3]
        assert not state.queue and not state._outstanding

    def test_reply_for_other_job_rejected(self):
        # a reply for another job, here job 1, which is still queued, costs
        # its worker and the job of its frame, not the run
        p, state = fresh_state(streams=True)
        liar = scripted_worker(lambda jobs: [IntervalResult(
            job_id=jobs[0].id + 1, solutions=[], error="liar")])
        run_manager(state, [liar])
        liar.close()
        assert state.stats.jobs_done == 4
        lost = [r for r in state.stats.records if r.outcome == LOST]
        assert [r.job.id for r in lost] == [0]
        assert all("job id mismatch: sent 0, got 1" in r.message
                   for r in lost)
        assert all(r.outcome in (ACCEPTED, REFINED)
                   for r in state.stats.records if r.job.id > 0)
        assert not state.queue and not state._outstanding

    @pytest.mark.parametrize("reply,needle", [
        # one 3-DOF point for a 1-DOF problem
        (lambda jobs: [IntervalResult(
            job_id=jobs[0].id, solutions=[SolutionPoint(np.ones(3), 1.0)])],
         "points of [3] DOF for 1"),
        # N + 3 steps for a job of N = 2
        (lambda jobs: [IntervalResult(
            job_id=jobs[0].id,
            solutions=[SolutionPoint(np.full(1, 0.1 * k), 0.1 * k)
                       for k in range(1, jobs[0].N + 4)])],
         "5 steps for N = 2"),
    ], ids=["wrong-dof", "too-many-steps"])
    def test_reply_that_does_not_fit_its_job_rejected(self, reply, needle):
        # a reply of the wrong shape costs its worker and the job of its
        # frame, not the run
        p, state = fresh_state(streams=True)
        bad = scripted_worker(reply)
        run_manager(state, [bad])
        bad.close()
        assert state.stats.jobs_done == 4
        lost = [r for r in state.stats.records if r.outcome == LOST]
        assert [r.job.id for r in lost] == [0]
        for r in lost:
            assert "reply does not fit job 0" in r.message
            assert needle in r.message
        assert all(r.outcome in (ACCEPTED, REFINED)
                   for r in state.stats.records if r.job.id > 0)
        assert not state.queue and not state._outstanding

    @pytest.mark.parametrize("reply,needle", [
        (lambda jobs: [IntervalResult(job_id=job.id, solutions=[], error="x")
                       for job in jobs[:-1]],
         "15 replies to a frame of 16 jobs"),
        (lambda jobs: [IntervalResult(job_id=job.id + (k == 2), solutions=[],
                                      error="x")
                       for k, job in enumerate(jobs)],
         "job id mismatch: sent 2, got 3"),
    ], ids=["wrong-length", "third-names-another"])
    def test_bad_reply_wave_costs_its_whole_frame(self, reply, needle):
        # With 48 springchain jobs of n = 256 queued, 2 workers and the
        # manager, the first dispatch sends A the frame [0, 16) and B
        # [16, 32), and the manager solves [32, 48), a full wave each. A's
        # reply is one reply short, or its third reply names another job:
        # every job of A's frame is lost, each with its own record, and the
        # rest are solved.
        assert runtime.WAVE_VALUES // 256 == 16
        p = make_builtin("springchain", n=256)
        state = QueueEngine(p, AlmConfig(constraint="crisfield", psi=1.0,
                                         newton_tol=1e-10),
                            EngineConfig(delta_L=0.4, steps=48))
        state.initialize()
        bad = scripted_worker(reply)
        b_m, b_w = endpoint_pair()
        t = threading.Thread(target=run_worker, args=(p, state.config, b_w),
                             daemon=True)
        t.start()
        run_bounded(state, [bad, b_m])
        t.join(timeout=10)
        assert not t.is_alive()
        for ep in (bad, b_m, b_w):
            ep.close()
        lost = [r for r in state.stats.records if r.outcome == LOST]
        assert sorted(r.job.id for r in lost) == list(range(16))
        assert all(r.message.endswith(f"worker 0 lost: {needle}")
                   for r in lost)
        assert sorted(r.job.id for r in state.stats.records
                      if r.outcome != LOST) == list(range(16, 48))
        assert not state.queue and not state._outstanding

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_full_frames_pass_a_small_send_buffer(self, transport,
                                                  monkeypatch):
        # Both ends of the worker's socket pair buffer 8 KiB, as a macOS
        # one does. A job frame of 16 springchain jobs of n = 256 (about
        # 99 KB) and a reply of one job with N = 8 (about 16 KB) are each
        # far larger, yet a frame goes only to a worker waiting in recv,
        # which reads it as it is sent, and the manager reads each reply
        # as it is sent: the run completes and matches aalm bit for bit.
        # The manager solves a share too.
        log = record_sends(monkeypatch)
        mine = manager_solves(monkeypatch)
        p = make_builtin("springchain", n=256)
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-10)
        eng = EngineConfig(delta_L=0.4, steps=64, subintervals=8,
                           tol_lower=1e-2, tol_upper=1e-2, max_level=3)
        state = QueueEngine(p, cfg, eng)
        state.initialize()
        m_sock, w_sock = socket.socketpair()
        for sock in (m_sock, w_sock):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        buffer = m_sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        assert buffer == 8192
        args = (p, cfg, w_sock)
        if transport == "thread":
            worker = threading.Thread(target=_worker_main, args=args,
                                      daemon=True)
        else:
            worker = multiprocessing.get_context("fork").Process(
                target=_worker_main, args=args, daemon=True)
        worker.start()
        if transport == "process":
            w_sock.close()  # the child holds its own copy
        m_ep = SocketEndpoint(m_sock)
        t0 = time.monotonic()
        run_bounded(state, [m_ep], timeout=10.0)
        worker.join(timeout=10)
        assert time.monotonic() - t0 < 10.0
        assert not worker.is_alive()
        m_ep.close()
        if transport == "thread":
            assert w_sock.fileno() == -1  # closed by the worker
        else:
            assert worker.exitcode == 0
        sizes = [k for _, _, k in log]
        assert sizes[0] == max(sizes) == runtime.WAVE_VALUES // 256 == 16
        first = [r.job for r in state.stats.records if r.job.id < 16]
        assert len(tp.frame(tp.encode(first))) > 10 * buffer
        assert sum(sizes) + len(mine) == state.stats.jobs_done
        ref = aalm(p, cfg, eng)
        assert row_bits(state.collect()) == row_bits(ref.collect())
        assert record_bits(state) == record_bits(ref)

    def test_worker_gone_before_dispatch_costs_no_job(self):
        p, state = fresh_state()
        m_ep, w_ep = endpoint_pair()
        t = threading.Thread(target=run_worker, args=(p, state.config, w_ep),
                             daemon=True)
        t.start()
        gone = gone_worker()
        run_and_stop(state, [gone, m_ep])
        t.join(timeout=10)
        for ep in (gone, w_ep, m_ep):
            ep.close()
        assert state.stats.jobs_failed == 0
        assert state.stats.jobs_done == 4
        assert not state.queue

    def test_only_worker_gone_before_dispatch_finishes_on_manager(self):
        # the send fails, so no job is lost, and the manager's own drain is
        # aalm's, bit for bit
        p, state = fresh_state()
        gone = gone_worker()
        run_manager(state, [gone])
        gone.close()
        assert state.stats.jobs_failed == 0
        assert state.stats.jobs_done == 4
        assert not state.queue and not state._outstanding
        ref = aalm(p, state.config, state.engine)
        assert row_bits(state.collect()) == row_bits(ref.collect())
        assert record_bits(state) == record_bits(ref)

    def test_idle_worker_served_before_any_second_job(self, monkeypatch):
        # with 4 idle workers and 80 springchain jobs of n = 256 queued,
        # the first dispatch sends each worker one frame, a full wave of
        # min(16, ceil(80 / 5)) jobs, the manager counted as a fifth
        # solver, before any worker gets a second, and no worker is sent a
        # frame while it holds one
        log = record_sends(monkeypatch)
        mine = manager_solves(monkeypatch)
        p = make_builtin("springchain", n=256)
        state = QueueEngine(p, AlmConfig(constraint="crisfield", psi=1.0,
                                         newton_tol=1e-10),
                            EngineConfig(delta_L=0.4, steps=80))
        state.initialize()
        pairs = [endpoint_pair() for _ in range(4)]
        threads = [threading.Thread(target=run_worker,
                                    args=(p, state.config, w_ep), daemon=True)
                   for _, w_ep in pairs]
        for t in threads:
            t.start()
        run_bounded(state, [m_ep for m_ep, _ in pairs])
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        for m_ep, w_ep in pairs:
            w_ep.close()
            m_ep.close()
        assert state.stats.jobs_done >= 80 and not state.queue
        assert sum(k for _, _, k in log) + len(mine) == \
            state.stats.jobs_done
        assert [(ep, k) for ep, _, k in log[:4]] == [
            (m_ep, 16) for m_ep, _ in pairs]
        assert all(before.get(ep, 0) == 0 for ep, before, _ in log)

    def test_worker_gone_idle_served_before_a_second_job(self, monkeypatch):
        # A holds the frame [0, 1], B [2, 3], the manager has solved job 4,
        # and the queue is empty. B answers, then A, and jobs 5-9 are
        # queued on A's last reply: A and B each get a frame before either
        # gets a second, though B went idle first, and each, and the
        # manager, takes the same share of the 5 jobs queued when the round
        # began, rounded up, so none is left for a second
        log = record_sends(monkeypatch)
        p, state = fresh_state(steps=10)
        later = [state.queue.pop() for _ in range(5)][::-1]
        submit = state.submit

        def queue_later_jobs(job, result):
            submit(job, result)
            if job.id == 1:
                state.queue.extend(later)

        monkeypatch.setattr(state, "submit", queue_later_jobs)
        (a_m, a_w), (b_m, b_w) = endpoint_pair(), endpoint_pair()
        for w_ep in (a_w, b_w):
            w_ep._sock.settimeout(10.0)  # a job that never comes fails
        rest = [threading.Thread(target=run_worker, daemon=True,
                                 args=(p, state.config, w_ep))
                for w_ep in (a_w, b_w)]  # real workers take the rest

        def drive():
            def answer(w_ep, jobs):
                settled = len(state.stats.records)
                w_ep.send(engine.solve_intervals(p, state.config, jobs))
                deadline = time.monotonic() + 10.0
                while len(state.stats.records) < settled + len(jobs):
                    assert time.monotonic() < deadline
                    time.sleep(0.001)

            a_jobs, b_jobs = a_w.recv(), b_w.recv()
            assert [[j.id for j in a_jobs], [j.id for j in b_jobs]] == \
                [[0, 1], [2, 3]]
            deadline = time.monotonic() + 10.0
            while [r.job.id for r in state.stats.records] != [4]:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            answer(b_w, b_jobs)
            answer(a_w, a_jobs)
            for t in rest:
                t.start()

        run_bounded(state, [a_m, b_m], drive=drive)
        for t in rest:
            t.join(timeout=10)
            assert not t.is_alive()
        for ep in (a_m, a_w, b_m, b_w):
            ep.close()
        assert state.stats.jobs_done == 10 and state.stats.jobs_failed == 0
        assert [(ep, before.get(ep, 0), k) for ep, before, k in log] == \
            [(a_m, 0, 2), (b_m, 0, 2), (a_m, 0, 2), (b_m, 0, 2)]

    @pytest.mark.parametrize("replies", [True, False],
                             ids=["replies", "hangs-up"])
    def test_failed_send_settles_the_job_held(self, replies, monkeypatch):
        # The only worker holds the frame of job 0. It answers it, and the
        # manager's next send to it, of the jobs queued since, fails, and
        # so would every send after it: those jobs stay queued, and job 0
        # is settled by the reply. Or it hangs up without answering: job 0
        # is lost and nothing more is sent to it. Either way the manager
        # finishes the queue itself. The manager's second serial step waits
        # until the worker has answered or hung up, so that this settles
        # while the serial phase steps.
        p, state = fresh_state(streams=True)
        worker = scripted_worker(
            (lambda jobs: engine.solve_intervals(p, state.config, jobs))
            if replies else None, endpoint=SendsOnce)
        take, steps = state.take, []

        def waits_for_the_worker(item):
            if isinstance(item, SerialStep):
                steps.append(item)
                if len(steps) == 2:
                    assert select.select([worker], [], [], 10.0)[0]
            take(item)

        monkeypatch.setattr(state, "take", waits_for_the_worker)
        run_bounded(state, [worker])
        worker.close()
        # the frames tried, and the stop
        assert worker.sends == (3 if replies else 2)
        assert state.stats.jobs_done == 4
        assert not state.queue and not state._outstanding
        outcomes = {r.job.id: r.outcome for r in state.stats.records}
        assert outcomes.pop(0) in ((ACCEPTED, REFINED) if replies
                                   else (LOST,))
        assert set(outcomes.values()) <= {ACCEPTED, REFINED}
        if replies:
            ref = aalm(p, state.config, state.engine)
            assert row_bits(state.collect()) == row_bits(ref.collect())
            assert record_bits(state) == record_bits(ref)

    def test_failed_send_to_a_worker_ready_to_read(self, monkeypatch,
                                                    caplog):
        # Y, X and A hold the frames [0], [1] and [2]. A answers and, while
        # the manager submits job 2, Y and X answer and A hangs up, so one
        # select finds all three ready, in that order. Y's job 0 queues
        # jobs 3-5 when submitted, so settling X sends Y [3], X [4] and A
        # [5]; that send fails, and A, dropped at once, is still in the
        # ready list being walked: it is skipped, and every job settles.
        p, state = fresh_state(steps=6)
        later = [state.queue.pop() for _ in range(3)][::-1]
        submit, staging, staged = state.submit, threading.Event(), \
            threading.Event()

        def staged_submit(job, result):
            if job.id == 2:
                staging.set()
                assert staged.wait(10.0)
            submit(job, result)
            if job.id == 0:
                state.queue.extend(later)

        class InRegistrationOrder(selectors.DefaultSelector):
            def select(self, timeout=None):
                return sorted(super().select(timeout),
                              key=lambda ready: eps.index(ready[0].fileobj))

        monkeypatch.setattr(state, "submit", staged_submit)
        monkeypatch.setattr(selectors, "DefaultSelector", InRegistrationOrder)
        (y_m, y_w), (x_m, x_w), (a_m, a_w) = pairs = [
            endpoint_pair() for _ in range(3)]
        eps = [y_m, x_m, a_m]
        rest = [threading.Thread(target=run_worker, daemon=True,
                                 args=(p, state.config, w_ep))
                for w_ep in (y_w, x_w)]

        def drive():
            frames = [w_ep.recv() for w_ep in (y_w, x_w, a_w)]
            assert [[j.id for j in jobs] for jobs in frames] == [[0], [1],
                                                                 [2]]
            a_w.send(engine.solve_intervals(p, state.config, frames[2]))
            assert staging.wait(10.0)
            for w_ep, jobs in zip((y_w, x_w), frames):
                w_ep.send(engine.solve_intervals(p, state.config, jobs))
            a_w.close()
            staged.set()
            for t in rest:
                t.start()

        run_bounded(state, eps, drive=drive)
        for t in rest:
            t.join(timeout=10)
            assert not t.is_alive()
        for pair in pairs:
            for ep in pair:
                ep.close()
        assert "worker 2 send failed, jobs 5-5 stay queued" in caplog.text
        assert state.stats.jobs_done == 6 and state.stats.jobs_failed == 0
        assert not state.queue and not state._outstanding


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
class TestWorker0Cpu:
    """A forked worker 0 steps the serial phase on a CPU the manager may
    run on other than its own, and then on the manager's CPUs again."""

    @staticmethod
    def other_cpu(monkeypatch, allowed, own, pid=7):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(allowed))
        monkeypatch.setattr(runtime, "_current_cpu", lambda: own)
        monkeypatch.setattr(os, "getpid", lambda: pid)
        return runtime._other_cpu()

    def test_current_cpu_is_one_allowed(self):
        assert runtime._current_cpu() in os.sched_getaffinity(0)

    def test_one_cpu_allowed_gives_none(self, monkeypatch):
        assert self.other_cpu(monkeypatch, {3}, 3) is None

    @pytest.mark.parametrize("own,other", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("pid", [6, 7])
    def test_two_cpus_give_the_other_one(self, monkeypatch, own, other,
                                         pid):
        assert self.other_cpu(monkeypatch, {0, 1}, own, pid) == other

    def test_the_pid_spreads_runs_over_the_others(self, monkeypatch):
        # runs side by side do not all pin their worker 0 to one CPU
        picks = [self.other_cpu(monkeypatch, {0, 1, 2, 3}, 2, pid)
                 for pid in range(6)]
        assert picks == [0, 1, 3, 0, 1, 3]

    def test_pinned_restores_the_cpus_allowed(self):
        allowed = os.sched_getaffinity(0)
        with runtime._pinned(max(allowed)):
            assert os.sched_getaffinity(0) == {max(allowed)}
        assert os.sched_getaffinity(0) == allowed
        with runtime._pinned(None):
            assert os.sched_getaffinity(0) == allowed

    def test_forked_worker_0_pinned_for_its_serial_phase_only(
            self, monkeypatch, tmp_path):
        # worker 0 notes the CPUs it may run on as its serial phase begins
        # and as it solves each job frame after it
        allowed = sorted(os.sched_getaffinity(0))
        manager_pid, notes = os.getpid(), tmp_path / "cpus"
        stream, solve = runtime._stream_serial, engine.solve_intervals

        def note(phase):
            with open(notes, "a") as f:
                f.write(f"{phase} {sorted(os.sched_getaffinity(0))}\n")

        def noted_stream(*args):
            note("serial")
            return stream(*args)

        def noted_solve(problem, config, jobs):
            if os.getpid() != manager_pid:
                note("jobs")
            return solve(problem, config, jobs)

        monkeypatch.setattr(runtime, "_stream_serial", noted_stream)
        monkeypatch.setattr(engine, "solve_intervals", noted_solve)
        apalm(*configs()["chain-proc-s1"], worker_count=1,
              transport="process")
        serial, *frames = notes.read_text().splitlines()
        assert serial in ({f"serial {[cpu]}" for cpu in allowed}
                          if len(allowed) > 1 else {f"serial {allowed}"})
        assert frames and set(frames) == {f"jobs {allowed}"}


def test_aalm_is_the_manager_with_no_workers(monkeypatch):
    calls = []
    manager = runtime.run_manager

    def counting_manager(state, endpoints):
        calls.append(list(endpoints))
        manager(state, endpoints)

    monkeypatch.setattr(runtime, "run_manager", counting_manager)
    state = aalm(make_builtin("cubic1d"), crisfield(),
                 EngineConfig(delta_L=0.4, steps=15))
    assert calls == [[]]
    assert state.stats.jobs_done > 15 and not state.queue
    assert not hasattr(QueueEngine, "run_serial_queue")


# apalm with 2 forked workers whose manager stops at its first submit, once
# it has printed the workers' pids
KILLED_MANAGER = """
import multiprocessing, time
from apalm.alm import AlmConfig
from apalm.engine import EngineConfig, QueueEngine
from apalm.problems import make_builtin
from apalm.runtime import apalm

def wait_at_first_submit(*args):
    print(*[w.pid for w in multiprocessing.active_children()], flush=True)
    time.sleep(60)

QueueEngine.submit = wait_at_first_submit
apalm(make_builtin("cubic1d"),
      AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-12),
      EngineConfig(delta_L=0.4, steps=15), worker_count=2,
      transport="process")
"""


def exited(pid: int) -> bool:
    """Whether process pid has ended: reaped, or a zombie not yet reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def rows_equal(a, b):
    if len(a) != len(b):
        return False
    for (ba, xa, sa, la, wa), (bb, xb, sb, lb, wb) in zip(a, b):
        if (ba, xa, la) != (bb, xb, lb):
            return False
        if sa != sb or wa.lam != wb.lam or not np.array_equal(wa.u, wb.u):
            return False
    return True


class TestApalm:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_thread_matches_serial_bitwise(self, workers):
        p = make_builtin("cubic1d")
        cfg = crisfield()
        eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-2,
                           tol_upper=1e-2)
        serial = aalm(p, cfg, eng)
        parallel = apalm(p, cfg, eng, worker_count=workers,
                         transport="thread")
        assert rows_equal(serial.collect(), parallel.collect())
        assert parallel.stats.jobs_done == serial.stats.jobs_done

    @pytest.mark.parametrize("tol", [1e-2, 1e-4])
    def test_process_matches_serial_bitwise(self, tol):
        p = make_builtin("cubic1d")
        cfg = crisfield()
        eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=tol,
                           tol_upper=tol)
        serial = aalm(p, cfg, eng)
        parallel = apalm(p, cfg, eng, worker_count=3, transport="process")
        assert rows_equal(serial.collect(), parallel.collect())

    def test_multibranch_parallel(self):
        p = make_builtin("pitchfork")
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-12)
        eng = EngineConfig(delta_L=0.3, steps=6, bifurcation_enabled=True)
        serial = aalm(p, cfg, eng)
        parallel = apalm(p, cfg, eng, worker_count=4, transport="thread")
        assert sorted(parallel.maps) == [0, 1]
        assert rows_equal(serial.collect(), parallel.collect())

    def test_one_selector_registration_per_worker(self, monkeypatch):
        # the manager keeps one selector for the run: each endpoint is
        # registered once, not once per wait
        registered = []

        class CountingSelector(selectors.DefaultSelector):
            def register(self, fileobj, events, data=None):
                registered.append(fileobj)
                return super().register(fileobj, events, data)

        monkeypatch.setattr(selectors, "DefaultSelector", CountingSelector)
        eng = EngineConfig(delta_L=0.12, steps=50, tol_lower=1e-4,
                           tol_upper=1e-4, max_level=3)
        state = apalm(make_builtin("cubic1d"), crisfield(), eng,
                      worker_count=3, transport="thread")
        assert state.stats.jobs_done > 50
        assert len(registered) == len(set(registered)) == 3

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_manager_error_propagates_at_once(self, transport, monkeypatch):
        # workers blocked in recv must not hold the error back until the
        # join timeout
        submit = QueueEngine.submit
        calls = []

        def failing_submit(self, job, result):
            calls.append(job.id)
            if len(calls) == 2:
                raise RuntimeError("synthetic manager error")
            submit(self, job, result)

        monkeypatch.setattr(QueueEngine, "submit", failing_submit)
        p = make_builtin("cubic1d")
        eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-2,
                           tol_upper=1e-2)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="synthetic manager error"):
            apalm(p, crisfield(), eng, worker_count=2, transport=transport)
        assert time.perf_counter() - t0 < 5.0

    def test_failed_worker_start_closes_every_socket(self, monkeypatch,
                                                     caplog):
        # a worker that cannot start (thread limit, fork EAGAIN) must not
        # leave the sockets or threads of the workers before it behind,
        # and the one started reads its stop, not a lost manager
        socks = []
        started = []
        socketpair = socket.socketpair

        def recording_socketpair(*args):
            pair = socketpair(*args)
            socks.extend(pair)
            return pair

        class SecondStartFails(threading.Thread):
            def start(self):
                if len(started) == 1:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(socket, "socketpair", recording_socketpair)
        monkeypatch.setattr(threading, "Thread", SecondStartFails)
        eng = EngineConfig(delta_L=1.0, steps=2)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            apalm(make_builtin("linear1d"), crisfield(), eng,
                  worker_count=3, transport="thread")
        assert len(socks) == 4 and len(started) == 1
        assert all(s.fileno() == -1 for s in socks)
        assert not started[0].is_alive()
        assert not [r for r in caplog.records if r.name == "apalm.runtime"]

    def test_failed_process_start_stops_the_started_worker(self,
                                                           monkeypatch):
        # the second of three forked workers cannot start: the first is
        # sent its stop and exits 0, as it reports no lost manager
        fork = multiprocessing.get_context("fork")
        started = []

        class SecondStartFails(fork.Process):
            def start(self):
                if len(started) == 1:
                    raise OSError("fork failed")
                started.append(self)
                super().start()

        monkeypatch.setattr(fork, "Process", SecondStartFails)
        eng = EngineConfig(delta_L=1.0, steps=2)
        with pytest.raises(OSError, match="fork failed"):
            apalm(make_builtin("linear1d"), crisfield(), eng,
                  worker_count=3, transport="process")
        assert len(started) == 1
        assert started[0].exitcode == 0
        assert not multiprocessing.active_children()

    def test_lost_process_worker_finishes_on_manager(self, monkeypatch):
        # The only worker streams the serial phase, whose jobs the manager
        # solves as they come, and then exits on its second frame, after
        # replying to its first: every job of the frame it holds then is
        # lost, each with its own record, and the manager solves every job
        # after them, in waves through engine.solve_intervals. The jobs it
        # answered were all queued before the lost ones.
        manager_pid = os.getpid()
        solve_waves = engine.solve_intervals
        worker_frames, manager_jobs = [], []

        def exits_on_second_frame(problem, config, jobs):
            if os.getpid() != manager_pid:
                worker_frames.append([job.id for job in jobs])
                if len(worker_frames) == 2:
                    os._exit(1)
            else:
                manager_jobs.extend(job.id for job in jobs)
            return solve_waves(problem, config, jobs)

        monkeypatch.setattr(engine, "solve_intervals", exits_on_second_frame)
        eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-4,
                           tol_upper=1e-4)
        state = apalm(make_builtin("cubic1d"), crisfield(), eng,
                      worker_count=1, transport="process")
        lost = [r.job.id for r in state.stats.records if r.outcome == LOST]
        assert lost and lost == list(range(lost[0], lost[-1] + 1))
        assert all("worker 0 lost" in r.message
                   for r in state.stats.records if r.outcome == LOST)
        assert state.stats.jobs_failed == len(lost)
        assert not set(lost) & set(manager_jobs)
        assert set(range(lost[-1] + 1, state.stats.jobs_done)) <= set(
            manager_jobs)
        answered = (set(range(state.stats.jobs_done)) - set(manager_jobs)
                    - set(lost))
        assert answered and max(answered) < lost[0]
        assert not state.queue and not state._outstanding
        for m in state.maps.values():
            m.validate_monotone()

    def test_first_job_sent_before_the_last_serial_step(self, monkeypatch):
        # the serial phase streams: worker 0 steps it and sends its steps
        # as the manager asks, and the manager sends the other worker its
        # first frame before worker 0's last serial step, not after it.
        # Worker 0's serial steps, those of the full delta_L, sleep 2 ms,
        # which releases the GIL that the two share with the manager.
        events, eng = [], EngineConfig(delta_L=0.4, steps=15)
        step, send = alm.step, SocketEndpoint.send

        def logged_step(*args):
            if args[4] == eng.delta_L:
                time.sleep(0.002)
                events.append("step")
            return step(*args)

        def logged_send(self, msg):
            if is_job_frame(msg):
                events.append(len(msg))  # a job frame, by its job count
            send(self, msg)

        monkeypatch.setattr(alm, "step", logged_step)
        monkeypatch.setattr(SocketEndpoint, "send", logged_send)
        mine = manager_solves(monkeypatch)
        state = apalm(make_builtin("cubic1d"), crisfield(), eng,
                      worker_count=2, transport="thread")
        serial = [i for i, e in enumerate(events) if e == "step"]
        assert len(serial) == 15
        frames = [i for i, e in enumerate(events) if e != "step"]
        assert frames[0] < serial[-1]
        assert sum(events[i] for i in frames) + len(mine) == \
            state.stats.jobs_done

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_worker_lost_during_the_serial_phase(self, transport,
                                                 monkeypatch):
        # Of 2 workers, worker 1 hangs up on its first frame, and worker 0,
        # once it has sent its first steps, waits until that loss is
        # recorded. The jobs of the frame worker 1 held, the first level-1
        # jobs, are lost while branch 0 is still open, so their losses are
        # parked; each is recorded with the closed map's xi, and the
        # manager and worker 0 solve the rest.
        manager_pid, main = os.getpid(), threading.main_thread()
        baseline = set(threading.enumerate())
        streamers = streaming_threads(monkeypatch)
        loss_seen = multiprocessing.get_context("fork").Event()
        solve, send, submit = (engine.solve_intervals, SocketEndpoint.send,
                               QueueEngine.submit)
        open_at_loss = []

        def this_thread():
            return os.getpid(), threading.get_ident()

        def in_manager():
            return (os.getpid() == manager_pid
                    and threading.current_thread() is main)

        def hangs_up(problem, config, jobs):
            if not in_manager() and this_thread() not in streamers:
                raise tp.EndpointClosed("synthetic hang-up")
            return solve(problem, config, jobs)

        def waits_for_the_loss(self, msg):
            send(self, msg)
            if (this_thread() in streamers and isinstance(msg, list)
                    and isinstance(msg[0], SerialStep)):
                assert loss_seen.wait(10.0), "no loss recorded"

        def noted_loss(self, job, result):
            lost = isinstance(result, str)  # a loss message
            if lost:
                open_at_loss.append(job.branch not in self.maps)
            submit(self, job, result)
            if lost:
                loss_seen.set()

        monkeypatch.setattr(engine, "solve_intervals", hangs_up)
        monkeypatch.setattr(SocketEndpoint, "send", waits_for_the_loss)
        monkeypatch.setattr(QueueEngine, "submit", noted_loss)
        eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-4,
                           tol_upper=1e-4)
        state = apalm(make_builtin("cubic1d"), crisfield(), eng,
                      worker_count=2, transport=transport)
        lost = [r for r in state.stats.records if r.outcome == LOST]
        assert lost and [r.job.id for r in lost] == list(range(len(lost)))
        assert open_at_loss == [True] * len(lost)
        keys = state.maps[0].xi_keys()
        for r in lost:
            i = r.job.id  # level-1 job i covers serial interval i + 1
            assert (r.job.xi_lo, r.job.xi_hi) == (keys[i], keys[i + 1])
            assert r.message.startswith(
                f"branch 0 [{keys[i]!r}, {keys[i + 1]!r}] lost: "
                f"worker 1 lost")
        assert state.stats.jobs_failed == len(lost)
        assert all(r.outcome in (ACCEPTED, REFINED)
                   for r in state.stats.records if r.outcome != LOST)
        assert not state.queue and not state._outstanding
        assert not state._parked
        assert set(threading.enumerate()) == baseline
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_primary_serial_failure_joins_every_worker(self, transport,
                                                       monkeypatch, caplog):
        # The primary branch fails its first serial step after worker 0
        # has sent steps, once the manager has sent the other worker a
        # frame of their jobs: apalm raises SerialSolveError, and no worker
        # thread or process is left behind; each worker answers its jobs
        # and reads its stop, so a thread worker logs no lost manager.
        # Worker 0's serial steps sleep 5 ms, so that the manager's ask
        # reaches it before its last.
        log = record_sends(monkeypatch)
        baseline = set(threading.enumerate())
        step, send, sent = alm.step, SocketEndpoint.send, []
        dispatched = multiprocessing.get_context("fork").Event()
        eng = EngineConfig(delta_L=0.4, steps=15)

        def fails_once_jobs_are_out(*args):
            if args[4] == eng.delta_L:  # a serial step, in worker 0
                time.sleep(0.005)
                if sent:
                    assert dispatched.wait(10.0), "no frame dispatched"
                    raise alm.StepError("forced")
            return step(*args)

        def noted_send(self, msg):
            send(self, msg)
            if is_job_frame(msg):
                dispatched.set()
            elif isinstance(msg, list) and isinstance(msg[0], SerialStep):
                sent.append(msg)

        monkeypatch.setattr(alm, "step", fails_once_jobs_are_out)
        monkeypatch.setattr(SocketEndpoint, "send", noted_send)
        with pytest.raises(SerialSolveError, match="branch 0 at s=.*forced"):
            apalm(make_builtin("cubic1d"), crisfield(), eng, worker_count=2,
                  transport=transport)
        assert len(log) >= 1
        assert set(threading.enumerate()) == baseline
        assert not multiprocessing.active_children()
        assert not [r for r in caplog.records if r.name == "apalm.runtime"]

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_manager_error_with_large_replies_joins_every_worker(
            self, transport, monkeypatch, caplog):
        # The manager fails on a submit while the one worker holds a
        # springchain frame of n = 256 with N = 12 whose reply is larger
        # than a socket pair buffers (more than `need` jobs). The manager's
        # own waves sleep 50 ms while worker 0 streams, so most level-1 jobs
        # are still queued when its serial phase ends, and the first frame
        # it is sent then is a full wave. apalm raises at once, the
        # worker's send of that reply completes as the manager drains it,
        # and the worker reads its stop: no worker is left behind, and a
        # thread worker logs no lost manager.
        buffer = fresh_send_buffer()
        need = buffer // (12 * 257 * 8)
        frames, send = [], SocketEndpoint.send
        submit, solve = QueueEngine.submit, engine.solve_intervals
        manager_pid, main = os.getpid(), threading.main_thread()

        def logged_send(self, msg):
            if is_job_frame(msg):
                frames.append(msg)
            send(self, msg)

        def fails_while_a_large_frame_is_held(self, job, result):
            # the one worker holds the last frame sent
            if (frames and len(frames[-1]) > need and job not in frames[-1]
                    and frames[-1][0].id in self._outstanding):
                raise RuntimeError("synthetic manager error")
            submit(self, job, result)

        def slow_while_streaming(problem, config, jobs):
            if (os.getpid() == manager_pid
                    and threading.current_thread() is main and not frames):
                time.sleep(0.05)
            return solve(problem, config, jobs)

        monkeypatch.setattr(engine, "solve_intervals", slow_while_streaming)
        monkeypatch.setattr(SocketEndpoint, "send", logged_send)
        monkeypatch.setattr(QueueEngine, "submit",
                            fails_while_a_large_frame_is_held)
        baseline = set(threading.enumerate())
        p = make_builtin("springchain", n=256)
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-10)
        eng = EngineConfig(delta_L=0.4, steps=64, subintervals=12,
                           tol_lower=1e-2, tol_upper=1e-2, max_level=3)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="synthetic manager error"):
            apalm(p, cfg, eng, worker_count=1, transport=transport)
        assert time.monotonic() - t0 < 10.0
        assert len(frames[-1]) > need
        assert len(tp.encode(solve(p, cfg, frames[-1]))) > buffer
        assert set(threading.enumerate()) == baseline
        assert not multiprocessing.active_children()
        assert not [r for r in caplog.records if r.name == "apalm.runtime"]

    def test_one_process_worker_with_large_replies_matches_aalm(
            self, monkeypatch):
        # 12 fine steps per job: a reply frame of 16 springchain jobs of
        # n = 256 is about 395 KB, more than a socket pair buffers, and the
        # worker's send of it completes as the manager reads. The manager's
        # own waves sleep 50 ms until the first reply, so most level-1 jobs
        # are still queued when worker 0's serial phase ends, and the first
        # frame it is sent then is a full wave.
        sizes, decode = [], tp.decode
        solve, manager_pid = engine.solve_intervals, os.getpid()

        def sized_decode(payload):
            msg = decode(payload)
            if isinstance(msg, list) and isinstance(msg[0], IntervalResult):
                sizes.append(len(payload))
            return msg

        def slow_until_a_reply(problem, config, jobs):
            if os.getpid() == manager_pid and not sizes:
                time.sleep(0.05)
            return solve(problem, config, jobs)

        p = make_builtin("springchain", n=256)
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-10)
        eng = EngineConfig(delta_L=0.4, steps=64, subintervals=12,
                           tol_lower=1e-2, tol_upper=1e-2, max_level=3)
        ref = aalm(p, cfg, eng)
        monkeypatch.setattr(tp, "decode", sized_decode)
        monkeypatch.setattr(engine, "solve_intervals", slow_until_a_reply)
        out = []
        t = threading.Thread(target=lambda: out.append(apalm(
            p, cfg, eng, worker_count=1, transport="process")), daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "apalm did not return"
        state, = out
        assert max(sizes) > fresh_send_buffer()
        assert row_bits(state.collect()) == row_bits(ref.collect())
        assert record_bits(state) == record_bits(ref)

    def test_worker_0_killed_after_its_first_frame_costs_no_step(
            self, monkeypatch, caplog, tmp_path):
        # springchain n = 256 over 1 process worker, which the manager
        # SIGKILLs as it reads worker 0's first wave of serial steps: the
        # manager steps the serial phase itself from the start, skips the
        # items it holds, and gives aalm's rows, records without ids and
        # summary; only worker 0 is started, and it is reaped
        p, cfg, eng = configs()["chain-proc-s1"]
        manager_pid, recv = os.getpid(), SocketEndpoint.recv
        step, frames, serial_steps = alm.step, [], []

        def kills_worker_0(self):
            msg = recv(self)
            if (os.getpid() == manager_pid and isinstance(msg, list)
                    and isinstance(msg[0], SerialStep)):
                if not frames:
                    child, = multiprocessing.active_children()
                    os.kill(child.pid, signal.SIGKILL)
                frames.append(len(msg))
            return msg

        def counted_step(*args):
            if os.getpid() == manager_pid and args[4] == eng.delta_L:
                serial_steps.append(args)
            return step(*args)

        monkeypatch.setattr(SocketEndpoint, "recv", kills_worker_0)
        monkeypatch.setattr(alm, "step", counted_step)
        state = apalm(p, cfg, eng, worker_count=1, transport="process")
        assert len(frames) == 1 and frames[0] >= engine.MIN_BATCH
        assert len(serial_steps) == eng.steps
        assert "worker 0 lost in the serial phase" in caplog.text
        assert not multiprocessing.active_children()
        ref = aalm(p, cfg, eng)
        assert state.stats.jobs_done == ref.stats.jobs_done
        assert row_bits(state.collect()) == row_bits(ref.collect())
        assert record_bits(state) == record_bits(ref)
        assert summary_without_timings(state, tmp_path / "a.json") == \
            summary_without_timings(ref, tmp_path / "b.json")

    @pytest.mark.parametrize("garbage", [
        lambda steps: bytes([99]),
        lambda steps: tp.encode([IntervalResult(0, [steps[0].w])]),
        lambda steps: tp.encode([Job(
            id=0, branch=0, xi_lo=0.0, xi_hi=1.0, delta_L0=1.0,
            w_start=steps[0].w, w_prev=steps[0].w, w_end=steps[-1].w,
            level=1, N=2)]),
        lambda steps: tp.encode(engine.MIN_BATCH),
        lambda steps: tp.encode([SerialStep(steps[-1].w, steps[-1].s)]),
        lambda steps: tp.encode([SerialStep(SolutionPoint(
            np.full(steps[-1].w.n_dof, math.nan), steps[-1].w.lam),
            steps[-1].s + 1.0)]),
        lambda steps: tp.encode(BranchStart(steps[-1].w, steps[0].w)),
    ], ids=["unknown-kind", "reply-wave", "job-wave", "ask", "s-repeats",
            "nan-step", "second-start"])
    def test_malformed_frame_from_worker_0_costs_no_step(
            self, garbage, monkeypatch, caplog, tmp_path):
        # a thread worker 0 sends its first wave of steps, then a frame
        # that is not its stream, and hangs up: a frame of an unknown kind,
        # one that decodes but is not the serial phase's, or one whose
        # items do not fit the branch open, a NaN point among them. The
        # manager loses worker 0
        # once, keeps the jobs it made of the steps, steps the serial phase
        # again and gives aalm's bits
        p, cfg, eng = configs()["acc-chain-n64"]
        stream = runtime._stream_serial

        def malformed_after_first_jobs(problem, config, engine_, endpoint):
            send = endpoint.send

            def then_garbage(msg):
                send(msg)
                if isinstance(msg, list):
                    endpoint._sock.sendall(tp.frame(garbage(msg)))
                    raise tp.EndpointClosed("synthetic hang-up")

            endpoint.send = then_garbage
            return stream(problem, config, engine_, endpoint)

        monkeypatch.setattr(runtime, "_stream_serial",
                            malformed_after_first_jobs)
        state = apalm(p, cfg, eng, worker_count=1, transport="thread")
        assert caplog.text.count("worker 0 lost in the serial phase") == 1
        ref = aalm(p, cfg, eng)
        assert row_bits(state.collect()) == row_bits(ref.collect())
        assert record_bits(state) == record_bits(ref)
        assert summary_without_timings(state, tmp_path / "a.json") == \
            summary_without_timings(ref, tmp_path / "b.json")

    @pytest.mark.parametrize("workers,transport", [
        (0, None), (1, "thread"), (1, "process")])
    def test_serial_and_queue_time_split_the_call(self, workers, transport):
        # aalm and apalm each time their serial phase and their drain,
        # which together take no longer than the call
        p, cfg = make_builtin("cubic1d"), crisfield()
        eng = EngineConfig(delta_L=0.4, steps=15)
        t0 = time.perf_counter()
        state = (apalm(p, cfg, eng, worker_count=workers,
                       transport=transport) if workers
                 else aalm(p, cfg, eng))
        wall = time.perf_counter() - t0
        stats = state.stats
        assert stats.serial_time > 0 and stats.queue_time > 0
        assert stats.serial_time + stats.queue_time <= wall

    def test_manager_submits_a_wave_before_worker_0_closes(
            self, monkeypatch, tmp_path):
        # springchain n = 256 over 1 process worker: the manager solves a
        # wave of the level-1 jobs of the steps worker 0 streams and
        # submits it while branch 0 is open, before worker 0 sends the
        # branch's end (the clock is CLOCK_MONOTONIC, one for both
        # processes)
        p, cfg, eng = configs()["chain-proc-s1"]
        manager_pid, closes = os.getpid(), tmp_path / "closes"
        send, submit, submits = SocketEndpoint.send, QueueEngine.submit, []

        def timed_send(self, msg):
            if os.getpid() != manager_pid and isinstance(msg, BranchEnd):
                with open(closes, "a") as f:
                    f.write(f"{time.monotonic()!r}\n")
            send(self, msg)

        def timed_submit(self, job, result):
            submits.append((time.monotonic(), job.level,
                            job.branch in self.maps))
            submit(self, job, result)

        monkeypatch.setattr(SocketEndpoint, "send", timed_send)
        monkeypatch.setattr(QueueEngine, "submit", timed_submit)
        apalm(p, cfg, eng, worker_count=1, transport="process")
        close, = [float(t) for t in closes.read_text().split()]
        first, level, closed = submits[0]
        assert level == 1 and not closed
        assert first < close

    @pytest.mark.parametrize("transport,workers", [
        ("process", 1), ("thread", 3), ("process", 3)])
    def test_serial_lines_logged_once_in_step_order(self, transport,
                                                    workers, caplog):
        # twin's serial phase locates two bifurcations and fails a step on
        # each spawned branch: worker 0 steps it, and each line is logged
        # once, by the manager, in step order, as aalm logs them
        caplog.set_level(logging.INFO, logger="apalm.engine")
        p, cfg, eng = configs()["twin"]

        def serial_lines():
            lines = [r.getMessage() for r in caplog.records
                     if r.name == "apalm.engine"
                     and not r.getMessage().startswith("branch ")]
            caplog.clear()
            return lines

        aalm(p, cfg, eng)
        ref = serial_lines()
        assert sum("bifurcation at" in line for line in ref) == 2
        assert sum("serial solve failed" in line for line in ref) == 2
        apalm(p, cfg, eng, worker_count=workers, transport=transport)
        assert serial_lines() == ref

    def test_no_worker_holds_two_frames(self, monkeypatch):
        # a frame goes only to a worker that has answered every frame it
        # was sent, while the serial phase streams and after it; the
        # manager solves its own share of the rest
        log = record_sends(monkeypatch)
        mine = manager_solves(monkeypatch)
        eng = EngineConfig(delta_L=0.12, steps=50, tol_lower=1e-4,
                           tol_upper=1e-4, max_level=3)
        state = apalm(make_builtin("cubic1d"), crisfield(), eng,
                      worker_count=3, transport="thread")
        assert sum(k for _, _, k in log) + len(mine) == \
            state.stats.jobs_done > 50
        assert all(before.get(ep, 0) == 0 for ep, before, _ in log)
        assert len({ep for ep, _, _ in log}) == 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states under /proc")
    def test_forked_workers_end_with_a_killed_manager(self, tmp_path):
        # Each forked worker closes the manager's ends of the socket pairs
        # it inherits, so when the manager is killed mid-run, at its first
        # submit, both workers read EOF and exit: worker 0 as it streams the
        # serial phase or waits for a frame, the other as it waits or sends.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        pids = []
        with open(tmp_path / "stderr", "w+") as err, subprocess.Popen(
                [sys.executable, "-c", KILLED_MANAGER],
                env=dict(os.environ, PYTHONPATH=src),
                stdout=subprocess.PIPE, stderr=err, text=True) as manager:
            try:
                ready = selectors.DefaultSelector()
                with ready:
                    ready.register(manager.stdout, selectors.EVENT_READ)
                    assert ready.select(30.0), "no pids printed"
                pids = [int(pid) for pid in manager.stdout.readline().split()]
                err.seek(0)
                assert len(pids) == 2, err.read()
                manager.send_signal(signal.SIGKILL)
                manager.wait()
                deadline = time.monotonic() + 5.0
                while not all(map(exited, pids)):
                    assert time.monotonic() < deadline, [
                        pid for pid in pids if not exited(pid)]
                    time.sleep(0.01)
            finally:
                manager.kill()
                for pid in pids:
                    if not exited(pid):
                        os.kill(pid, signal.SIGKILL)

    def test_bad_arguments(self):
        p = make_builtin("linear1d")
        eng = EngineConfig(delta_L=1.0, steps=2)
        # as a config file's "workers", worker_count is a positive int
        for count in (0, True, 2.5, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                apalm(p, crisfield(), eng, worker_count=count)
        with pytest.raises(ValueError):
            apalm(p, crisfield(), eng, transport="carrier-pigeon")
