"""Manager-worker execution of the job queue over a message transport.

The manager owns maps and queue and is the only process that mutates them;
workers are stateless between jobs. The observable output is a pure
function of the problem, the configs and the serial output, independent of
worker count and message arrival order.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import select
import selectors
import socket
import threading
import time
from itertools import islice

from . import engine as eng
from . import transport as tp
from .alm import WAVE_VALUES, AlmConfig
from .curvemap import CurveStructureError
from .engine import EngineConfig, IntervalResult, Job, QueueEngine
from .problems import ProblemDef, is_int

log = logging.getLogger(__name__)

THREAD = "thread"
PROCESS = "process"
# The transport of `apalm` and of a run config that name none: forked
# processes where the platform has fork. A thread worker 0 takes the GIL
# from the manager's waves while it steps the serial phase. On a 2-vCPU
# host, the 256-unknown springchain of `perfbench`'s chain config took 45
# and 49 ms in-process with 1 and 2 process workers against 54 and 66 ms
# with threads (medians of 30 runs in 10 alternating interpreters).
DEFAULT_TRANSPORT = (
    PROCESS if "fork" in multiprocessing.get_all_start_methods() else THREAD)
# how long, in seconds, apalm waits in all for its workers to hang up after
# their stops, and then for each worker to end
STOP_TIMEOUT = 30.0


def run_worker(problem: ProblemDef, config: AlmConfig, endpoint,
               engine: EngineConfig | None = None,
               cpu: int | None = None) -> int:
    """Worker loop: receive a wave of jobs, solve it with one
    `engine.solve_intervals` call, send its replies as one wave, in the
    order of its jobs; exit on stop. Every wave solves in the thread's
    `alm.workspace`, so each factor row is built once for all the frames
    the worker answers. A frame that is not a job wave, or whose points
    are not of the problem's size, raises ProtocolError; an ask for steps
    is skipped, as one may cross the end of worker 0's serial phase.

    Given the run's EngineConfig, this is worker 0: it first steps the
    serial phase and streams it to the manager (`_stream_serial`), on cpu
    alone if one is given (`_pinned`), and then answers job frames like
    any other worker, on the CPUs it was allowed before.

    Returns the number of jobs executed.
    """
    if engine is not None:
        with _pinned(cpu):
            if not _stream_serial(problem, config, engine, endpoint):
                return 0
    done = 0
    while (jobs := endpoint.recv()) is not None:
        if is_int(jobs):
            continue
        if not isinstance(jobs, list) or not isinstance(jobs[0], Job):
            raise tp.ProtocolError("expected job message, got " + type(
                jobs[0] if isinstance(jobs, list) else jobs).__name__)
        if jobs[0].w_start.n_dof != problem.n_dof:  # one n_dof a wave
            raise tp.ProtocolError(
                f"job points of {jobs[0].w_start.n_dof} DOF for "
                f"{problem.n_dof}")
        endpoint.send(eng.solve_intervals(problem, config, jobs))
        done += len(jobs)
    return done


def _stream_serial(problem: ProblemDef, config: AlmConfig,
                   engine: EngineConfig, endpoint) -> bool:
    """Worker 0's serial phase: step it (`engine.serial_points`) and send
    its items to the manager in step order. The accepted steps wait until
    the manager has asked for steps and as many are taken as it asked for,
    and then go as one wave; a branch's end goes at once, with everything
    before it, and so does the rest when the phase ends, followed by a
    stop. A failed primary step is sent as its SerialSolveError. The
    manager's asks are read between steps, without waiting, and each
    replaces the one before. Returns False if the manager sent the stop
    instead, True once the phase has been sent.
    """
    outbox: list = []  # items taken and not yet sent, in step order
    stepped = wanted = 0  # steps in outbox; steps asked for, 0 once sent

    def flush() -> None:
        nonlocal stepped, wanted
        steps: list[eng.SerialStep] = []
        for item in outbox:
            if isinstance(item, eng.SerialStep):
                steps.append(item)
                continue
            if steps:
                endpoint.send(steps)
                steps = []
            endpoint.send(item)
        if steps:
            endpoint.send(steps)
        if stepped:
            stepped = wanted = 0
        outbox.clear()

    try:
        for item in eng.serial_points(problem, config, engine):
            outbox.append(item)
            stepped += isinstance(item, eng.SerialStep)
            while select.select([endpoint], [], [], 0)[0]:
                wanted = endpoint.recv()
                if wanted is None:
                    return False
                if not is_int(wanted):
                    raise tp.ProtocolError(
                        "worker 0 expected an ask for steps, got "
                        f"{type(wanted).__name__}")
            if isinstance(item, eng.BranchEnd) or stepped >= wanted > 0:
                flush()
    except eng.SerialSolveError as exc:
        endpoint.send(exc)
        return True
    flush()
    endpoint.send(None)
    return True


def run_manager(state: QueueEngine, endpoints: list,
                streamer=None) -> None:
    """Dispatch loop: keep every worker fed until the queue drains.

    The manager waits on all worker sockets at once, through one selector
    that holds exactly the live endpoints, and takes replies in whatever
    order they arrive. It counts as a solver itself: the F workers that
    hold no frame and the manager share the queue, each taking
    min(WAVE_VALUES // n_dof, ceil(Q / (F + 1))) jobs from its head, and
    at least one, where Q is the queue's length before the first of them
    takes its share. A worker holds at most one frame, a wave of its
    jobs, and answers it with one reply frame, a wave of one reply per job
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

    The manager solves its own share as one wave with
    `engine.solve_intervals` and submits the results in pop order; the
    jobs that they queue come after the wave, as they would one job at a
    time, so job ids, records and rows are those of solving the head job
    alone. With no endpoints this is `aalm`, and a run that loses every
    worker finishes its queue.

    `sendall` cannot deadlock. The manager sends only job frames and, to
    worker 0 while it streams, asks of a few bytes, and a job frame goes
    only to a worker that has answered everything it was sent and so is
    blocked in `recv`, which takes a frame of any size. So the manager
    always comes back to its selector and reads, and a reply frame may be
    of any size, as the manager reads while the worker writes it (about
    395 KB for 16 springchain jobs of n = 256 with N = 12). The manager
    sends no stop: whoever started the workers stops them, also when this
    loop raises, as `apalm` does.

    streamer, if given, is one of the endpoints, worker 0, started with
    the run's EngineConfig on a fresh state: it steps the serial phase and
    streams its items, which the manager takes as they come
    (`QueueEngine.take`), making the level-1 jobs and the maps, and it
    raises the SerialSolveError of a failed primary step. The manager asks
    worker 0 for as many steps as the free workers and the manager can
    start at once, and asks again when that number changes: one while
    another worker is free, and otherwise, with the manager the only free
    solver, MIN_BATCH at first, doubled at each wave of steps worker 0
    sends, up to a wave. Once worker 0's stop ends its serial phase, it
    answers job frames like any other worker. If worker 0 hangs up or
    sends anything else before then, the manager steps the serial phase
    itself from the start and skips the items it already holds.

    Otherwise, or once worker 0 is lost, the serial phase runs here
    (`state.serial_phase`), as in `aalm`, unless `state.initialize()` has
    run it: after each serial step the manager settles the replies that
    have arrived, without waiting for any, and serves the free workers,
    so they solve level-1 jobs while the serial steps go on; the
    manager's own share waits for the end of the phase. serial_time runs
    from the start of this loop to the end of the serial phase, whoever
    steps it, and queue_time from there to the end of this loop,
    validating the maps included.
    """
    n_dof = state.problem.n_dof
    wave = max(1, WAVE_VALUES // n_dof)
    held = dict.fromkeys(endpoints)  # live ones, to their frame's jobs
    # Workers holding no frame are watched too: a worker lost between
    # frames is dropped before a frame is sent to it.
    live = selectors.DefaultSelector()  # the keys of held, each once
    for ep in endpoints:
        live.register(ep, selectors.EVENT_READ)
    asked = 0  # the steps last asked of worker 0, 0 once it has sent steps
    # what the manager asks for as the only free solver: MIN_BATCH, the
    # fewest jobs that step in lockstep, doubled at each wave worker 0
    # sends, up to a wave, so that it does not wait idle for a first wave
    ramp = eng.MIN_BATCH

    def drop(ep) -> None:
        live.unregister(ep)
        del held[ep]

    def free() -> list:
        return [ep for ep in held if held[ep] is None and ep is not streamer]

    def dispatch(keep: bool = False) -> list[Job]:
        # each worker holding no frame, and the manager, take the same
        # share of the queue as it stands before the first; with keep, the
        # manager's share is popped and returned
        idle = free()
        share = -(-len(state.queue) // (len(idle) + 1))
        for ep in idle:
            if not state.queue:
                break
            jobs = list(islice(state.queue, min(wave, share)))
            try:
                ep.send(jobs)
            except tp.EndpointClosed as exc:
                log.warning("worker %d send failed, jobs %d-%d stay "
                            "queued: %s", endpoints.index(ep),
                            jobs[0].id, jobs[-1].id, exc)
                drop(ep)
                continue
            held[ep] = [state.pop() for _ in jobs]
        if not keep:
            return []
        return [state.pop() for _ in range(min(wave, share,
                                               len(state.queue)))]

    def lose_streamer(exc: Exception) -> None:
        nonlocal streamer
        log.warning("worker 0 lost in the serial phase, which the manager "
                    "steps again: %s", exc)
        drop(streamer)
        streamer = None

    def ask() -> None:
        nonlocal asked
        want = 1 if free() else min(ramp, wave)
        if want == asked:
            return
        try:
            streamer.send(want)
        except tp.EndpointClosed as exc:
            lose_streamer(exc)
            return
        asked = want

    def take(msg) -> None:
        nonlocal streamer, asked, ramp
        if msg is None:  # the whole serial phase came from worker 0
            streamer = None
            state.serial_phase.close()
        elif isinstance(msg, eng.SerialSolveError):
            raise msg
        elif isinstance(msg, list) and all(isinstance(m, eng.SerialStep)
                                           for m in msg):
            for step in msg:
                state.take(step)
            asked, ramp = 0, 2 * ramp
        elif isinstance(msg, (eng.BranchStart, eng.BranchEnd,
                              logging.LogRecord)):
            state.take(msg)
        else:
            raise tp.ProtocolError("manager expected the serial phase, got "
                                   + type(msg).__name__)

    def settle(ready) -> None:
        for key, _ in ready:
            ep = key.fileobj
            if ep not in held:  # dropped by a failed send since the select
                continue
            if ep is streamer:
                try:
                    take(ep.recv())
                except (tp.EndpointClosed, tp.ProtocolError,
                        CurveStructureError) as exc:
                    lose_streamer(exc)
                continue
            jobs = held[ep] or []
            try:
                replies = ep.recv()
                if not isinstance(replies, list) or not jobs:
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
                drop(ep)
                for lost in jobs:
                    state.submit(
                        lost, f"worker {endpoints.index(ep)} lost: {exc}")
                continue
            held[ep] = None
            dispatch()  # the worker solves while its replies settle
            for job, reply in zip(jobs, replies):
                state.submit(job, reply)

    def turn() -> None:
        mine = dispatch(keep=True)
        if streamer is not None:
            ask()
        if mine:
            for job, result in zip(mine, eng.solve_intervals(
                    state.problem, state.config, mine)):
                state.submit(job, result)
        if streamer is not None or state.outstanding:
            settle(live.select(0 if state.queue or mine else None))

    with live:
        t0 = time.perf_counter()
        while streamer is not None:  # worker 0 steps the serial phase
            turn()
        for _ in state.serial_phase:  # stepped here, unless it has run
            settle(live.select(0))
            dispatch()
        state.stats.serial_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        while state.outstanding or state.queue:
            turn()
    state.validate_maps()
    state.stats.queue_time = time.perf_counter() - t0


def _current_cpu() -> int | None:
    """The CPU this thread runs on now (field 39 of /proc/thread-self/stat),
    or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as stat:
            return int(stat.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _other_cpu() -> int | None:
    """A CPU this process may run on other than the one it runs on now, or
    None where no affinity can be set or only one CPU is allowed. The
    process id picks one of several, so that the workers 0 of runs side by
    side spread over them."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    others = sorted(allowed - {_current_cpu()})
    return others[os.getpid() % len(others)]


@contextlib.contextmanager
def _pinned(cpu: int | None):
    """Run the block on cpu alone, if one is given and the pin takes, and
    then on the CPUs allowed before."""
    allowed = None
    if cpu is not None:
        try:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {cpu})
        except OSError:
            allowed = None  # the scheduler's placement, then
    try:
        yield
    finally:
        if allowed is not None:
            try:
                os.sched_setaffinity(0, allowed)
            except OSError:
                pass  # the block's CPU, then


def _worker_main(problem, config, sock, inherited=(), engine=None,
                 cpu=None):
    """run_worker over sock, given engine and cpu if it is worker 0, once
    a forked worker has closed `inherited`, its copies of the manager's
    ends of the socket pairs made so far, so that it reads EOF when the
    manager dies (not shut down: that would cut the manager's
    connection)."""
    for manager_end in inherited:
        manager_end.close()
    ep = tp.SocketEndpoint(sock)
    try:
        run_worker(problem, config, ep, engine, cpu)
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
    socket pair, are started first. Worker 0 steps the serial phase and
    streams its points, branch ends and log lines to the manager, which
    makes the level-1 jobs of them and solves them with the other workers
    as they come (`run_manager` with worker 0 as its streamer); then
    worker 0 joins the others, and the rest of the queue goes to them, a
    wave of jobs per frame, and to the manager. A forked worker 0 steps on
    a CPU the manager may run on other than its own, where there is one
    (`_other_cpu`), since a forked process otherwise stays on its parent's
    CPU where the scheduler does not balance the load, and is allowed its
    parent's CPUs again once its serial phase ends; the other workers, and
    a thread worker 0, which shares the GIL, keep the scheduler's
    placement. Result contract matches the serial aalm run.

    apalm alone ends its workers' lives. When the run ends, also by an
    error, every worker is sent its stop, the only thing sent besides job
    frames and asks: it finds room, as a worker reads its frame whole
    before it sends a reply, and a worker whose stop cannot be sent is
    already gone. Worker 0 reads it between serial steps.
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
    cpu = _other_cpu() if transport == PROCESS else None
    try:
        for k in range(worker_count):
            parent_sock, child_sock = socket.socketpair()
            endpoints.append(tp.SocketEndpoint(parent_sock))
            manager_ends.append(parent_sock)
            w = worker_cls(target=_worker_main, daemon=True, args=(
                problem, config, child_sock,
                list(manager_ends) if transport == PROCESS else (),
                engine if k == 0 else None, cpu if k == 0 else None))
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
        run_manager(state, endpoints, streamer=endpoints[0])
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
