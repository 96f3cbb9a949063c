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
from collections import deque

from . import engine as eng
from . import transport as tp
from .alm import AlmConfig
from .engine import EngineConfig, IntervalResult, Job, QueueEngine
from .problems import ProblemDef

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
# the most jobs sent to one worker and not yet answered
DEPTH = 2
# the most jobs times unknowns in a wave that the manager solves itself:
# 16 jobs of springchain n = 256. A wave holds each job's factor, points
# and (jobs, n) arrays at once: on chain-serial, a run on its own peaked
# 1.1 MiB above one-job-at-a-time solving with waves of 16, 2.2 MiB with
# waves of 32 at the same speed, and ran 5 % slower with waves of 8
WAVE_VALUES = 1 << 12


def run_worker(problem: ProblemDef, config: AlmConfig, endpoint) -> int:
    """Worker loop: receive a job, solve it, send its result; exit on stop.

    Returns the number of jobs executed.
    """
    done = 0
    while (job := endpoint.recv()) is not None:
        if not isinstance(job, Job):
            raise tp.ProtocolError(
                f"expected job message, got {type(job).__name__}")
        endpoint.send(eng.solve_interval(problem, config, job))
        done += 1
    return done


def run_manager(state: QueueEngine, endpoints: list) -> None:
    """Dispatch loop: keep every worker fed until the queue drains.

    The manager waits on all worker sockets at once, through one selector
    that holds exactly the live endpoints, and takes replies in whatever
    order they arrive. It keeps up to `DEPTH` jobs sent to each worker, so
    a worker has its next job in its socket while the manager settles its
    last reply. The worker loop is unchanged: it reads one job at a time,
    and a stream socket returns its replies in the order of its jobs, so a
    reply belongs to the oldest job its worker holds and must carry that
    job's id. Three rules keep this safe:

    - Fill order: `dispatch` gives a job to every worker holding none
      before it gives any worker a second one.
    - A job leaves the queue only once a worker has it, and never comes
      back: a worker lost mid-job, or one whose reply does not fit its
      job (type, id, step count, point size), costs every job it holds,
      each recorded as `lost`; one found gone at dispatch costs none.
    - A failed send costs no job, as the job stays at the head of the
      queue. It ends the sends to that worker, not the reads: the endpoint
      stays in the selector until the worker hangs up, so each job it
      holds is settled, by a reply it already sent or as `lost`.

    `sendall` cannot deadlock at this depth. The manager blocks in it,
    sending a second job while the worker is still on its first, only if
    that frame does not fit the socket's buffer, and the worker blocks in
    its reply only if the reply does not fit the manager's. A socket pair
    buffers about 200 KB each way, while a job or reply frame carries two
    or N points: about 4 KB for springchain n = 256 with N = 2.

    The serial phase runs here unless `state.initialize()` has run it:
    after each serial step the manager settles the replies that have
    arrived, without waiting for any, and dispatches, so workers solve
    level-1 jobs while the serial steps go on. With no job in flight after
    the serial phase, the manager solves jobs itself: with no endpoints
    this is `aalm`, and a run that loses every worker finishes its queue.
    It pops the whole queue, up to WAVE_VALUES // n_dof jobs, solves them
    as one wave with `engine.solve_intervals` and submits the results in
    pop order; the jobs that they queue come after the wave, as they would
    one job at a time, so job ids, records and rows are those of solving
    the head job alone. The serial phase is timed as serial_time, and
    queue_time runs from its end to the end of this loop, stopping the
    workers and validating the maps included.
    """
    n_dof = state.problem.n_dof
    wave = max(1, WAVE_VALUES // n_dof)
    # the endpoints that are still sent jobs, each with the jobs it holds,
    # oldest first; the same deque is the data of its selector key
    sendable = {ep: deque() for ep in endpoints}
    # Workers holding no job are watched too: a worker lost between jobs
    # is dropped before a job is sent to it.
    live = selectors.DefaultSelector()  # the live endpoints, each once
    for ep, held in sendable.items():
        live.register(ep, selectors.EVENT_READ, held)

    def dispatch() -> None:
        for depth in range(DEPTH):  # every first job before any second
            for ep, held in list(sendable.items()):
                if not state.queue:
                    return
                if len(held) != depth:
                    continue
                try:
                    ep.send(state.queue[0])
                except tp.EndpointClosed as exc:
                    log.warning("worker %d send failed, job %d stays "
                                "queued: %s", endpoints.index(ep),
                                state.queue[0].id, exc)
                    del sendable[ep]  # its replies are still read
                    continue
                held.append(state.pop())

    def settle(ready) -> None:
        for key, _ in ready:
            ep, held = key.fileobj, key.data
            job = held[0] if held else None
            try:
                payload = ep.recv()
                if not isinstance(payload, IntervalResult) or job is None:
                    raise tp.ProtocolError(
                        f"manager expected data for a job, got "
                        f"{type(payload).__name__}")
                if payload.job_id != job.id:
                    raise tp.ProtocolError(
                        f"job id mismatch: sent {job.id}, "
                        f"got {payload.job_id}")
                sizes = {w.n_dof for w in payload.solutions}
                if len(payload.solutions) > job.N or sizes - {n_dof}:
                    raise tp.ProtocolError(
                        f"reply does not fit job {job.id}: "
                        f"{len(payload.solutions)} steps for N = {job.N}, "
                        f"points of {sorted(sizes)} DOF for {n_dof}")
            except (tp.EndpointClosed, tp.ProtocolError) as exc:
                live.unregister(ep)
                sendable.pop(ep, None)
                for lost in held:
                    state.submit_failure(
                        lost, f"worker {endpoints.index(ep)} lost: {exc}")
                continue
            held.popleft()
            state.submit(job, payload)

    try:
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
    finally:
        # also when the loop raises: a worker reads its stop after
        # answering the jobs it holds
        live.close()
        for ep in sendable:
            try:
                ep.send(None)
            except tp.EndpointClosed:
                pass
    state.validate_maps()
    state.stats.queue_time = time.perf_counter() - t0


def _worker_main(problem, config, sock):
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
    and feeds them each level-1 job as its serial step lands, and then the
    rest of the queue. Result contract matches the serial aalm run.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if transport not in (THREAD, PROCESS):
        raise ValueError(f"unknown transport {transport!r}")
    state = QueueEngine(problem, config, engine)
    worker_cls = (threading.Thread if transport == THREAD
                  else multiprocessing.get_context("fork").Process)
    endpoints = []
    workers = []
    try:
        for _ in range(worker_count):
            parent_sock, child_sock = socket.socketpair()
            endpoints.append(tp.SocketEndpoint(parent_sock))
            w = worker_cls(target=_worker_main,
                           args=(problem, config, child_sock), daemon=True)
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
        # Ending the sends wakes a worker sent no stop; closing after the
        # join lets a worker still on its jobs send its replies.
        for ep in endpoints:
            ep.end_sends()
        for w in workers:
            w.join(timeout=30)
        for ep in endpoints:
            ep.close()
    return state
