"""Manager-worker execution of the job queue over a message transport.

The manager owns maps and queue and is the only process that mutates them;
workers are stateless between jobs. The observable output is a pure
function of the problem, the configs and the serial output, independent of
worker count and message arrival order.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue
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

    Each endpoint gets a reader thread funnelling its results into one
    result queue, so arrival order does not matter. A worker disconnect
    marks its in-flight job as failed and the run continues without it.
    """
    results: queue.Queue = queue.Queue()

    def reader(idx: int, ep) -> None:
        while True:
            try:
                msg = ep.recv()
            except (tp.EndpointClosed, tp.ProtocolError) as exc:
                results.put((idx, exc))
                return
            results.put((idx, msg))

    threads = []
    for i, ep in enumerate(endpoints):
        t = threading.Thread(target=reader, args=(i, ep), daemon=True)
        t.start()
        threads.append(t)

    idle = list(range(len(endpoints)))
    live = set(range(len(endpoints)))
    inflight: dict[int, Job] = {}

    def dispatch() -> None:
        while state.queue and idle:
            widx = idle.pop(0)
            job = state.pop()
            try:
                endpoints[widx].send(job)
            except tp.EndpointClosed as exc:
                live.discard(widx)
                state.submit_failure(job, f"worker {widx} send failed: {exc}")
                continue
            inflight[widx] = job

    dispatch()
    while inflight:
        widx, payload = results.get()
        if isinstance(payload, Exception):
            live.discard(widx)
            job = inflight.pop(widx, None)
            if job is not None:
                state.submit_failure(job, f"worker {widx} lost: {payload}")
            if not live and state.queue:
                raise tp.EndpointClosed("all workers lost with queue pending")
            dispatch()
            continue
        if not isinstance(payload, IntervalResult):
            raise tp.ProtocolError(
                f"manager expected data, got {type(payload).__name__}")
        job = inflight.pop(widx)
        if payload.job_id != job.id:
            raise tp.ProtocolError(
                f"job id mismatch: sent {job.id}, got {payload.job_id}")
        state.submit(job, payload)
        idle.append(widx)
        dispatch()

    for widx in sorted(live):
        try:
            endpoints[widx].send(None)
        except tp.EndpointClosed:
            pass


def _worker_main(problem, config, sock):
    ep = tp.SocketEndpoint(sock)
    try:
        run_worker(problem, config, ep)
    except (tp.EndpointClosed, tp.ProtocolError) as exc:
        log.error("worker exiting on protocol error: %s", exc)
        raise SystemExit(1)
    finally:
        # unblock the manager-side reader so it can exit
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
    for _ in range(worker_count):
        parent_sock, child_sock = socket.socketpair()
        w = worker_cls(target=_worker_main,
                       args=(problem, config, child_sock), daemon=True)
        w.start()
        if transport == PROCESS:
            # Only the raw fd: the child shares this socket, and
            # SocketEndpoint.close() would shut it down under the child.
            child_sock.close()
        endpoints.append(tp.SocketEndpoint(parent_sock))
        workers.append(w)
    t0 = time.perf_counter()
    try:
        run_manager(state, endpoints)
    finally:
        state.stats.queue_time = time.perf_counter() - t0
        for w in workers:
            w.join(timeout=30)
        for ep in endpoints:
            ep.close()
    return state
