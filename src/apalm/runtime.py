"""Manager-worker execution of the job queue over a message transport.

The manager owns maps and queue and is the only process that mutates them;
workers are stateless between jobs. The observable output is a pure
function of the problem, the configs and the serial output, independent of
worker count and message arrival order.
"""

from __future__ import annotations

import logging
import multiprocessing
import selectors
import socket
import threading
import time
from itertools import islice

from . import engine as eng
from . import transport as tp
from .alm import WAVE_VALUES, AlmConfig
from .engine import EngineConfig, IntervalResult, Job, QueueEngine
from .problems import ProblemDef, is_int

log = logging.getLogger(__name__)

THREAD = "thread"
PROCESS = "process"
# The transport of `apalm` and of a run config that name none: forked
# processes where the platform has fork. A thread worker takes the GIL
# between the manager's serial steps. On a 2-vCPU host, `apalm run` on the
# 256-unknown springchain took 19-27 % less wall time and 11-14 % less CPU
# time with 1 and 2 process workers than with threads, for about 25 MiB of
# summed peak RSS per worker, and with 4 and 64 thread workers the serial
# phase ran 49-63 % longer than aalm's.
DEFAULT_TRANSPORT = (
    PROCESS if "fork" in multiprocessing.get_all_start_methods() else THREAD)
# how long, in seconds, apalm waits in all for its workers to hang up after
# their stops, and then for each worker to end
STOP_TIMEOUT = 30.0


def run_worker(problem: ProblemDef, config: AlmConfig, endpoint) -> int:
    """Worker loop: receive a wave of jobs, solve it with one
    `engine.solve_intervals` call, send its replies as one wave, in the
    order of its jobs; exit on stop. Every wave solves in the thread's
    `alm.workspace`, so each factor row is built once for all the frames
    the worker answers. A frame that is not a job wave, or whose points
    are not of the problem's size, raises ProtocolError.

    Returns the number of jobs executed.
    """
    done = 0
    while (jobs := endpoint.recv()) is not None:
        if not isinstance(jobs[0], Job):
            raise tp.ProtocolError(
                f"expected job message, got {type(jobs[0]).__name__}")
        if jobs[0].w_start.n_dof != problem.n_dof:  # one n_dof a wave
            raise tp.ProtocolError(
                f"job points of {jobs[0].w_start.n_dof} DOF for "
                f"{problem.n_dof}")
        endpoint.send(eng.solve_intervals(problem, config, jobs))
        done += len(jobs)
    return done


def run_manager(state: QueueEngine, endpoints: list) -> None:
    """Dispatch loop: keep every worker fed until the queue drains.

    The manager waits on all worker sockets at once, through one selector
    that holds exactly the live endpoints, and takes replies in whatever
    order they arrive. A worker holds at most one frame: a wave of jobs
    from the head of the queue, min(WAVE_VALUES // n_dof, ceil(Q / W)) of
    them and at least one, where Q is the queue's length when the frame is
    sent (when several idle workers are served at once, its length before
    the first) and W the number of live workers. A worker
    answers its frame with one reply frame, a wave of one reply per job
    in the order of its jobs, so the k-th member must carry the id of the
    frame's k-th job. The manager sends a worker its next frame as soon as
    it has read and checked that worker's reply, and only then submits the
    replies, so the worker solves while the manager settles. Two rules
    keep this safe:

    - A job leaves the queue only once a worker has it, and never comes
      back: a worker lost mid-frame, or one whose reply frame does not fit
      its frame (a member count other than its jobs', or a member that does
      not fit its job: type, id, step count, point size), costs every job
      of its frame, each recorded as `lost`; one found gone at dispatch
      costs none.
    - A failed send costs no job, as the frame's jobs stay at the head of
      the queue, and drops its worker at once, as a failed read does: it
      held no frame, so nothing is left to read from it.

    `sendall` cannot deadlock. The manager sends only job frames, and a
    job frame goes only to a worker that has answered everything it was
    sent and so is blocked in `recv`, which takes a frame of any size. So
    the manager always comes back to its selector and reads, and a reply
    frame may be of any size, as the manager reads while the worker
    writes it (about 395 KB for 16 springchain jobs of n = 256 with
    N = 12). The manager sends no stop: whoever started the workers stops
    them, also when this loop raises, as `apalm` does.

    The serial phase runs here, in `apalm` and `aalm` alike, unless
    `state.initialize()` has run it: after each serial step the manager
    settles the replies that have arrived, without waiting for any, and
    dispatches, so workers solve level-1 jobs while the serial steps go
    on. With no job in flight after the serial phase, the manager solves
    jobs itself: with no endpoints
    this is `aalm`, and a run that loses every worker finishes its queue.
    It pops the whole queue, up to WAVE_VALUES // n_dof jobs, solves them
    as one wave with `engine.solve_intervals`, and submits the results in
    pop order; the jobs that they queue come after the wave, as they would
    one job at a time, so job ids, records and rows are those of solving
    the head job alone. The
    serial phase is timed as serial_time, and queue_time runs from its end
    to the end of this loop, validating the maps included.
    """
    n_dof = state.problem.n_dof
    wave = max(1, WAVE_VALUES // n_dof)
    held = dict.fromkeys(endpoints)  # live ones, to their frame's jobs
    # Workers holding no frame are watched too: a worker lost between
    # frames is dropped before a frame is sent to it.
    live = selectors.DefaultSelector()  # the keys of held, each once
    for ep in endpoints:
        live.register(ep, selectors.EVENT_READ)

    def dispatch() -> None:
        # each worker holding no frame takes the same share of the queue as
        # it stands before the first
        share = -(-len(state.queue) // max(1, len(held)))
        for ep in [ep for ep in held if held[ep] is None]:
            if not state.queue:
                return
            jobs = list(islice(state.queue, min(wave, share)))
            try:
                ep.send(jobs)
            except tp.EndpointClosed as exc:
                log.warning("worker %d send failed, jobs %d-%d stay "
                            "queued: %s", endpoints.index(ep),
                            jobs[0].id, jobs[-1].id, exc)
                live.unregister(ep)
                del held[ep]
                continue
            held[ep] = [state.pop() for _ in jobs]

    def settle(ready) -> None:
        for key, _ in ready:
            ep = key.fileobj
            if ep not in held:  # dropped by a failed send since the select
                continue
            jobs = held[ep] or []
            try:
                replies = ep.recv()
                if replies is None or not jobs:
                    raise tp.ProtocolError(
                        "manager expected data for a job, got "
                        + ("a stop" if replies is None else "a frame"))
                if len(replies) != len(jobs):
                    raise tp.ProtocolError(
                        f"{len(replies)} replies to a frame of "
                        f"{len(jobs)} jobs")
                for job, reply in zip(jobs, replies):
                    if not isinstance(reply, IntervalResult):
                        raise tp.ProtocolError(
                            f"manager expected data for job {job.id}, got "
                            f"{type(reply).__name__}")
                    if reply.job_id != job.id:
                        raise tp.ProtocolError(
                            f"job id mismatch: sent {job.id}, "
                            f"got {reply.job_id}")
                    sizes = {w.n_dof for w in reply.solutions}
                    if len(reply.solutions) > job.N or sizes - {n_dof}:
                        raise tp.ProtocolError(
                            f"reply does not fit job {job.id}: "
                            f"{len(reply.solutions)} steps for N = {job.N}, "
                            f"points of {sorted(sizes)} DOF for {n_dof}")
            except (tp.EndpointClosed, tp.ProtocolError) as exc:
                live.unregister(ep)
                del held[ep]
                for lost in jobs:
                    state.submit_failure(
                        lost, f"worker {endpoints.index(ep)} lost: {exc}")
                continue
            held[ep] = None
            dispatch()  # the worker solves while its replies settle
            for job, reply in zip(jobs, replies):
                state.submit(job, reply)

    with live:
        for _ in state.serial_phase:  # the serial phase, unless it has run
            settle(live.select(0))
            dispatch()
        t0 = time.perf_counter()
        dispatch()
        while state.outstanding or state.queue:
            if not state.outstanding:  # no live worker is left
                jobs = [state.pop() for _ in range(min(len(state.queue),
                                                       wave))]
                for job, result in zip(jobs, eng.solve_intervals(
                        state.problem, state.config, jobs)):
                    state.submit(job, result)
                continue
            settle(live.select())
            dispatch()
    state.validate_maps()
    state.stats.queue_time = time.perf_counter() - t0


def _worker_main(problem, config, sock, inherited=()):
    """run_worker over sock, once a forked worker has closed `inherited`,
    its copies of the manager's ends of the socket pairs made so far, so
    that it reads EOF when the manager dies (not shut down: that would cut
    the manager's connection)."""
    for manager_end in inherited:
        manager_end.close()
    ep = tp.SocketEndpoint(sock)
    try:
        run_worker(problem, config, ep)
    except (tp.EndpointClosed, tp.ProtocolError) as exc:
        log.error("worker exiting on protocol error: %s", exc)
        if multiprocessing.parent_process() is not None:
            raise SystemExit(1)  # the exit code of a forked worker
    finally:
        ep.close()


def apalm(problem: ProblemDef, config: AlmConfig, engine: EngineConfig,
          worker_count: int = 1, transport: str = DEFAULT_TRANSPORT
          ) -> QueueEngine:
    """Adaptive parallel arc-length method.

    worker_count workers, threads or forked processes, each over its own
    socket pair, are started first; the manager then runs the serial phase
    and sends them the level-1 jobs as their serial steps land, and then
    the rest of the queue, a wave of jobs per frame. Result contract
    matches the serial aalm run.

    apalm alone ends its workers' lives. When the run ends, also by an
    error, every worker is sent its stop, the only thing sent besides job
    frames: it finds room, as a worker reads its frame whole before it
    sends a reply, and a worker whose stop cannot be sent is already gone.
    Each endpoint is then read and its bytes dropped until its worker
    hangs up, at most STOP_TIMEOUT in all, so that a worker still sending
    the reply to a frame it holds is never left blocked in a send, and it
    answers its jobs and reads its stop, not a lost manager. Last, the
    workers are joined and their sockets closed.
    """
    if not is_int(worker_count) or worker_count < 1:
        raise ValueError("worker_count must be a positive integer")
    if transport not in (THREAD, PROCESS):
        raise ValueError(f"unknown transport {transport!r}")
    state = QueueEngine(problem, config, engine)
    worker_cls = (threading.Thread if transport == THREAD
                  else multiprocessing.get_context("fork").Process)
    endpoints = []
    workers = []
    manager_ends = []  # a forked worker closes its copies of these
    try:
        for _ in range(worker_count):
            parent_sock, child_sock = socket.socketpair()
            endpoints.append(tp.SocketEndpoint(parent_sock))
            manager_ends.append(parent_sock)
            w = worker_cls(target=_worker_main, daemon=True, args=(
                problem, config, child_sock,
                list(manager_ends) if transport == PROCESS else ()))
            try:
                w.start()
            except BaseException:
                child_sock.close()  # no worker took it
                raise
            if transport == PROCESS:
                # Only the raw fd: the child shares this socket, and
                # SocketEndpoint.close() would shut it down under the child.
                child_sock.close()
            workers.append(w)
        run_manager(state, endpoints)
    finally:
        for ep in endpoints:
            try:
                ep.send(None)
            except tp.EndpointClosed:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT
        for ep in endpoints:
            ep.drain(deadline - time.monotonic())
        for w in workers:
            w.join(timeout=STOP_TIMEOUT)
        for ep in endpoints:
            ep.close()
    return state
