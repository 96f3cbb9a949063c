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

from . import engine as eng
from . import transport as tp
from .alm import AlmConfig
from .engine import EngineConfig, IntervalResult, Job, QueueEngine
from .problems import ProblemDef

log = logging.getLogger(__name__)

THREAD = "thread"
PROCESS = "process"


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
    """Dispatch loop: keep idle workers fed until the queue drains.

    The manager waits on all worker sockets at once, through one selector
    that holds exactly the live endpoints, and takes replies in whatever
    order they arrive. A job leaves the queue only once a worker has it: a
    worker lost mid-job, or one whose reply does not fit its job (type, id,
    step count, point size), costs that job, one found gone at dispatch
    none. With no job in flight the manager solves the head job itself: with
    no endpoints this is `aalm`, and a run that loses every worker finishes
    its queue. Stopping the workers and validating the maps is queue_time too.
    """
    t0 = time.perf_counter()
    n_dof = state.problem.n_dof
    idle = list(endpoints)
    inflight: dict = {}  # endpoint -> its job
    # Idle endpoints are watched too: a worker lost between jobs is
    # dropped before a job is sent to it.
    live = selectors.DefaultSelector()  # the live endpoints, each once
    for ep in endpoints:
        live.register(ep, selectors.EVENT_READ)

    def dispatch() -> None:
        while state.queue and idle:
            ep = idle.pop(0)
            try:
                ep.send(state.queue[0])
            except tp.EndpointClosed as exc:
                live.unregister(ep)
                log.warning("worker %d send failed, job %d stays queued: %s",
                            endpoints.index(ep), state.queue[0].id, exc)
                continue
            inflight[ep] = state.pop()

    with live:
        dispatch()
        while inflight or state.queue:
            if not inflight:  # no live worker is left
                job = state.pop()
                state.submit(job, eng.solve_interval(
                    state.problem, state.config, job))
                continue
            for key, _ in live.select():
                ep = key.fileobj
                job = inflight.pop(ep, None)
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
                    if len(payload.distances) > job.N or sizes - {n_dof}:
                        raise tp.ProtocolError(
                            f"reply does not fit job {job.id}: "
                            f"{len(payload.distances)} steps for N = {job.N}, "
                            f"points of {sorted(sizes)} DOF for {n_dof}")
                except (tp.EndpointClosed, tp.ProtocolError) as exc:
                    live.unregister(ep)
                    if ep in idle:
                        idle.remove(ep)
                    if job is not None:
                        state.submit_failure(
                            job, f"worker {endpoints.index(ep)} lost: {exc}")
                    continue
                state.submit(job, payload)
                idle.append(ep)
            dispatch()

    for ep in idle:
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
          worker_count: int = 1, transport: str = THREAD) -> QueueEngine:
    """Adaptive parallel arc-length method.

    Serial solve and map initialization run on the manager; queued intervals
    are executed by worker_count workers, threads or forked processes, each
    over its own socket pair. Result contract matches the serial aalm run.
    """
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")
    if transport not in (THREAD, PROCESS):
        raise ValueError(f"unknown transport {transport!r}")
    state = QueueEngine(problem, config, engine)
    state.initialize()
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
        # Closing first wakes any worker still blocked in recv, so an error
        # in the manager does not wait out the join timeout.
        for ep in endpoints:
            ep.close()
        for w in workers:
            w.join(timeout=30)
    return state
