"""Serial initialization, interval solving, error marking, and the queue
bookkeeping for adaptive arc-length continuation.

The manager owns all maps and the queue; solve_intervals is pure and is
the only part executed concurrently by the parallel runtime: a worker
solves each wave of jobs it is sent with it, and the manager each wave it
solves itself. solve_interval is the wave of one job, with the same bits.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import alm
from .alm import AlmConfig
from .curvemap import CurveMap, CurveStructureError
from .problems import ProblemDef, SolutionPoint, check_numbers

log = logging.getLogger(__name__)

MAX_BRANCHES = 8  # branches per run, the primary one included
# the fewest jobs whose steps solve_intervals takes in one alm.batch_step;
# fewer take alm.step one by one. Per job and Newton iteration on the first
# fine step of warm springchain jobs (timeit, stacked callbacks), against
# alm.step's 74 us at 256 unknowns and 59 at 64: a batch of 2 cost 86 and
# 73 us, of 3 69 and 56, of 4 62 and 48, of 5 55 and 41. A batch of 3
# beats alm.step by 6-7 %, of 4 by 17-20 %, and one of 2 loses by 17-23 %
MIN_BATCH = 3


class SerialSolveError(RuntimeError):
    """A step failed during the serial phase (no fallback exists there)."""


class QueueInvariantError(RuntimeError):
    """Internal invariant violation in the queue/map bookkeeping."""


@dataclass(frozen=True)
class EngineConfig:
    delta_L: float
    steps: int  # serial step count per branch
    subintervals: int = 2  # fine steps per job
    tol_lower: float = 1e-2
    tol_upper: float = 1e-2
    max_level: int = 5
    bifurcation_enabled: bool = False

    def __post_init__(self):
        check_numbers(vars(self), {f.name: f.type for f in fields(self)},
                      "engine")
        # every check is written so that NaN fails it
        if not 0 < self.delta_L < math.inf:
            raise ValueError("delta_L must be positive and finite")
        if not self.steps >= 1:
            raise ValueError("steps must be >= 1")
        if not self.subintervals >= 2:
            raise ValueError("subintervals must be >= 2")
        if not (0 < self.tol_lower < math.inf
                and 0 < self.tol_upper < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not self.max_level >= 1:
            raise ValueError("max_level must be >= 1")


@dataclass(frozen=True)
class Job:
    """One queued interval of a branch, with the map data to solve it:
    its start point, that point's predecessor, and its end point, the
    map's point at xi_hi."""

    id: int
    branch: int
    xi_lo: float
    xi_hi: float
    delta_L0: float
    w_start: SolutionPoint
    w_prev: SolutionPoint
    w_end: SolutionPoint
    level: int
    N: int

    def __post_init__(self):
        if not self.xi_lo < self.xi_hi:
            raise ValueError("xi_lo must be < xi_hi")
        if not 0 < self.delta_L0 < math.inf:
            raise ValueError("delta_L0 must be positive and finite")
        if not self.N >= 1:
            raise ValueError("N must be >= 1")


@dataclass(frozen=True)
class IntervalResult:
    """solutions[k] ends fine step k; a failed solve carries only its
    error. The manager measures each step's length from these points."""

    job_id: int
    solutions: list[SolutionPoint]
    error: str = ""

    def __post_init__(self):
        if bool(self.solutions) == bool(self.error):
            raise ValueError("a result carries solutions or an error")


@dataclass(frozen=True)
class ErrorTriple:
    total: float  # (dL' - dL0) / dL0
    lower: float  # (dL0 - dL_bar) / dL0
    upper: float  # (total - lower) / dL0, with the extra division as printed


def compute_errors(delta_L0: float, measured: tuple[float, float, float]
                   ) -> ErrorTriple:
    """Refinement-marking errors of a computed interval, from its measured
    (sum d_k, lower distance, closing distance)."""
    sum_d, lower_distance, closing_distance = measured
    total = (sum_d + closing_distance - delta_L0) / delta_L0
    lower = (delta_L0 - lower_distance) / delta_L0
    return ErrorTriple(total=total, lower=lower,
                       upper=(total - lower) / delta_L0)


def solve_interval(problem: ProblemDef, config: AlmConfig, job: Job
                   ) -> IntervalResult:
    """Re-solve one interval with at most N fine steps of nominal length
    dL0/N.

    The first step predicts along w_start - w_prev, and each later step
    along the step before it, but the N-th step aims at the interval's
    known end point: its predictor rescales w_end - w, w the point the
    step starts from. The last step takes what remains of dL0, and a step
    that overshoots ends the job early. A step cut shortens the fine path;
    the closing segment to the interval's end covers the rest. The manager
    measures the steps and that segment from the points. A failed step
    fails the job, and its points are dropped.

    Workers and the manager solve waves of jobs at once, with
    `solve_intervals`; this is `solve_intervals` of the one job.
    """
    return solve_intervals(problem, config, [job])[0]


def solve_intervals(problem: ProblemDef, config: AlmConfig, jobs: list[Job]
                    ) -> list[IntervalResult]:
    """Re-solve each job's interval as `solve_interval` describes, the
    jobs one fine step at a time, in lockstep while at least MIN_BATCH
    jobs step on: each round is one alm.batch_step over them. A job whose
    step the batch does not take or that fails in it takes that step
    alone, through alm.step and its step cuts, and so do the steps of the
    fewer than MIN_BATCH jobs left, job by job; so each job's result has
    the bits of solving it alone. Both solve in the
    thread's `alm.workspace`, whose factors earlier waves built."""
    intervals = [_Interval(job) for job in jobs]
    live = [s for s in intervals if s.stepping()]
    while len(live) >= MIN_BATCH:
        for s, res in zip(live, alm.batch_step(
                problem, config, [s.w for s in live],
                [s.aim() for s in live], [s.length() for s in live])):
            s.take(problem, config, res)
        live = [s for s in live if s.stepping()]
    for s in live:
        while s.stepping():
            s.take(problem, config, None)
    return [IntervalResult(job.id, [], error=s.error) if s.error
            else IntervalResult(job.id, s.sols)
            for job, s in zip(jobs, intervals)]


class _Interval:
    """A job being solved: its last point w and the increment dw that
    reached it, w_start - w_prev before its first step, its points so far,
    the length it has left and the error that ended it. The next step
    predicts along `aim()`."""

    __slots__ = ("job", "w", "dw", "sols", "remaining", "error")

    def __init__(self, job: Job):
        self.job, self.w = job, job.w_start
        self.dw = alm.increment_between(job.w_start, job.w_prev)
        self.sols: list[SolutionPoint] = []
        self.remaining = job.delta_L0
        self.error = ""

    def stepping(self) -> bool:
        job = self.job
        return (not self.error and len(self.sols) < job.N
                and self.remaining > 1e-12 * job.delta_L0)

    def length(self) -> float:
        return min(self.job.delta_L0 / self.job.N, self.remaining)

    def aim(self) -> np.ndarray:
        """The increment the next step's predictor rescales: the chord to
        the job's end point for its N-th step, the increment of the step
        before for any other."""
        if len(self.sols) == self.job.N - 1:
            return alm.increment_between(self.job.w_end, self.w)
        return self.dw

    def take(self, problem: ProblemDef, config: AlmConfig,
             res: alm.StepResult | None) -> None:
        """The next step: res, or, where the batch gave none, one taken
        alone."""
        if res is None:
            try:
                res = alm.step(problem, config, self.w, self.aim(),
                               self.length())
            except alm.StepError as exc:
                self.error = str(exc)
                return
        self.w, self.dw = res.w_new, res.dw
        self.sols.append(self.w)
        self.remaining -= res.achieved_length


@dataclass(frozen=True)
class BranchStart:
    """The point a branch starts at, and its virtual predecessor w_prev0:
    w - w_prev0 is the direction of the branch's first step."""

    w: SolutionPoint
    w_prev0: SolutionPoint


@dataclass(frozen=True)
class SerialStep:
    """The point an accepted serial step reached, s along its branch."""

    w: SolutionPoint
    s: float


@dataclass(frozen=True)
class BranchEnd:
    """The end of a branch's serial steps: the branch closes."""


SerialItem = BranchStart | SerialStep | BranchEnd | logging.LogRecord


def serial_points(problem: ProblemDef, config: AlmConfig,
                  engine: EngineConfig) -> Iterator[SerialItem]:
    """Coarse serial continuation, one accepted step at a time, as the
    points it reaches: a branch's start (BranchStart), yielded with its
    first accepted step, the point each accepted step reaches (SerialStep)
    and the branch's end (BranchEnd). Each line it has to log is yielded as
    a LogRecord in its place, for whoever takes the items to log: the
    manager, whether it steps the phase itself or takes the items from the
    worker that steps it. `QueueEngine.take` makes the jobs and maps of
    them.

    Every branch starts from a point along a direction, and its start's
    virtual predecessor is the point minus that direction. The primary
    branch starts from the trivial point (u = 0, lambda = 0) along its
    tangent (alm.tangent), and raises SerialSolveError where that is
    singular. With bifurcation detection enabled, once a branch's steps
    end (at its last step or a failed one), the stability of every point
    its steps reached, and of the primary branch's start, is counted in
    one pass (alm.detect_singulars), and each sign change between
    consecutive points, in step order, triggers bisection; located
    bifurcation points spawn new branches along an eigenvector
    perturbation (alm.branch_switch), each serially solved in turn with
    the run's delta_L and steps. A failed step raises on the primary
    branch; a spawned branch keeps the points it has, with a warning, and
    one left with fewer than 2 points is dropped and never started, so
    every branch started ends.
    """
    w0 = SolutionPoint(np.zeros(problem.n_dof), 0.0)
    try:
        t = alm.tangent(problem, w0)
    except alm.PredictorError as exc:
        raise SerialSolveError(
            f"serial solve failed on branch 0 at s=0: {exc}")
    # (start, direction) per branch
    pending: deque[tuple] = deque([(w0, t)])
    closed = 0  # branches closed so far, so the id of the open one
    while pending:
        start, dw = pending.popleft()
        primary = not closed  # a dropped branch is never the primary one
        w_prev0 = SolutionPoint(start.u - dw[:-1], start.lam - dw[-1])
        ws = [start]
        s = 0.0
        for _ in range(engine.steps):
            try:
                res = alm.step(problem, config, ws[-1], dw, engine.delta_L)
            except alm.StepError as exc:
                message = (f"serial solve failed on branch {closed} "
                           f"at s={s:.6g}: {exc}")
                if primary:
                    raise SerialSolveError(message)
                yield _note(logging.WARNING, "%s; %s", message,
                            "branch kept" if len(ws) > 1
                            else "branch dropped")
                break
            if len(ws) == 1:
                yield BranchStart(start, w_prev0)
            s += res.achieved_length
            dw = res.dw
            ws.append(res.w_new)
            yield SerialStep(res.w_new, s)
        if len(ws) < 2:
            continue
        # the points the steps reached, and the primary branch's start, the
        # trivial point, counted in one pass; a spawned branch starts at its
        # located singular point, which is not counted
        first = 0 if primary else 1
        if engine.bifurcation_enabled and len(ws) - first > 1:
            # each sign change between consecutive points, in step order
            signs = [info.det_sign
                     for info in alm.detect_singulars(problem, ws[first:])]
            for k, (a, b) in enumerate(zip(signs, signs[1:]), first + 1):
                if a * b < 0 and closed + len(pending) + 1 < MAX_BRANCHES:
                    yield _maybe_spawn_branch(problem, config, ws[k - 1],
                                              ws[k], pending)
        yield BranchEnd()
        closed += 1


def _note(level: int, msg: str, *args) -> logging.LogRecord:
    """A line of the serial phase, as a record of this module's logger."""
    return log.makeRecord(log.name, level, __file__, 0, msg, args, None)


def _log(record: logging.LogRecord) -> None:
    if log.isEnabledFor(record.levelno):
        log.handle(record)


def _maybe_spawn_branch(problem, config, w_a, w_b, pending
                        ) -> logging.LogRecord:
    """Locate the singular point between w_a and w_b and queue the branch
    it spawns, if any, in pending; the line that says which."""
    try:
        w_star = alm.locate_bifurcation(problem, config, w_a, w_b)
        seed = alm.branch_switch(problem, w_star)
    except (alm.BifurcationNotFoundError, alm.BranchSwitchError) as exc:
        return _note(logging.WARNING, "singular point unlocatable: %s", exc)
    if seed is None:
        return _note(logging.INFO, "singular point at lambda=%.6g "
                     "classified as limit point", w_star.lam)
    pending.append((w_star, seed))
    return _note(logging.INFO, "bifurcation at lambda=%.6g: spawning branch",
                 w_star.lam)


OUTCOMES = ("accepted", "refined", "failed", "rejected", "lost")
ACCEPTED, REFINED, FAILED, REJECTED, LOST = OUTCOMES


@dataclass(frozen=True)
class JobRecord:
    """One settled job; measured is (sum d_k, lower distance, closing
    distance) for a solved one."""

    job: Job
    outcome: str
    measured: tuple[float, float, float] | None = None
    children: int = 0  # jobs queued from this one
    message: str = ""  # the warning for a job whose data was not kept


@dataclass
class EngineStats:
    records: list[JobRecord] = field(default_factory=list)  # one per job
    serial_time: float = 0.0
    queue_time: float = 0.0

    @property
    def jobs_done(self) -> int:
        return len(self.records)

    @property
    def jobs_failed(self) -> int:
        return sum(r.outcome not in (ACCEPTED, REFINED) for r in self.records)

    @property
    def children_spawned(self) -> int:
        return sum(r.children for r in self.records)


class QueueEngine:
    """Single-owner state: curve maps, job queue, and bookkeeping."""

    def __init__(self, problem: ProblemDef, config: AlmConfig,
                 engine: EngineConfig):
        self.problem = problem
        self.config = config
        self.engine = engine
        self.maps: dict[int, CurveMap] = {}
        self.queue: deque[Job] = deque()
        self.stats = EngineStats()
        # popped and not yet answered, by id; a job named by serial indices
        # takes its map's xi here too when its branch closes
        self._outstanding: dict[int, Job] = {}
        # answered while their branch was open: (job, result or loss message)
        self._parked: list[tuple[Job, IntervalResult | str]] = []
        self._ids = itertools.count()  # every job's id, in queue order
        # the open branch's points, their s and its start's predecessor
        self._ws: list[SolutionPoint] = []
        self._ss: list[float] = []
        self._w_prev0: SolutionPoint | None = None
        self._taken = 0  # the serial phase's items taken so far, in order
        self.serial_phase = self._serial_steps()

    def _serial_steps(self) -> Iterator[None]:
        """The serial phase stepped here (`serial_points`), each item taken
        (`take`), yielding after each step and each branch close. Created
        once, so the phase runs only once: by `initialize`, or interleaved
        with the drain by `run_manager`.

        The items that worker 0 streamed before it was lost are stepped
        again and not taken twice: serial_points is deterministic, so its
        first items are the ones taken.
        """
        taken = self._taken
        for k, item in enumerate(serial_points(self.problem, self.config,
                                               self.engine)):
            if k >= taken:
                self.take(item)
            if isinstance(item, (SerialStep, BranchEnd)):
                yield

    def take(self, item: SerialItem) -> None:
        """The next item of the serial phase. A branch's start opens the
        branch. Step i's level-1 job joins the queue: it runs from the
        point step i - 1 reached, with that point's predecessor, to the
        point step i reached, delta_L0 = s_i - s_(i-1) along, and is named
        [i - 1, i] by serial indices until its branch closes, as
        xi = s / s_total waits for the branch's end; its id is drawn from
        the counter that numbers every job, so ids follow the order jobs
        are queued. A branch's end stores its map (`_close`), whose id is
        the number of branches closed before it. A line is logged here.

        The items may come from worker 0, another process, so an item out
        of order, with a point of another size or not finite, or whose s
        does not increase raises CurveStructureError, and so does a map
        that from_serial refuses, with nothing taken and no id drawn.
        """
        n = self.problem.n_dof
        points = ([item.w, item.w_prev0] if isinstance(item, BranchStart)
                  else [item.w] if isinstance(item, SerialStep) else [])
        if any(w.n_dof != n for w in points):
            raise CurveStructureError(
                f"serial points of another size than {n}")
        if not all(math.isfinite(w.lam) and np.isfinite(w.u).all()
                   for w in points):
            raise CurveStructureError("a serial point that is not finite")
        if isinstance(item, logging.LogRecord):
            _log(item)
        elif isinstance(item, BranchEnd):
            if not self._ws:
                raise CurveStructureError("a branch end with no branch open")
            m = CurveMap.from_serial(len(self.maps), self._ws, self._ss,
                                     w_prev0=self._w_prev0)
            self._ws, self._ss, self._w_prev0 = [], [], None
            self._close(m)
        elif isinstance(item, BranchStart):
            if self._ws:
                raise CurveStructureError(
                    f"a branch start while branch {len(self.maps)} is open")
            self._ws, self._ss, self._w_prev0 = [item.w], [0.0], item.w_prev0
        elif not self._ws:
            raise CurveStructureError("a serial step with no branch open")
        elif not self._ss[-1] < item.s < math.inf:
            raise CurveStructureError(
                f"serial step to s={item.s!r} after s={self._ss[-1]!r}")
        else:
            i = len(self._ws)
            self.queue.append(Job(
                id=next(self._ids), branch=len(self.maps), xi_lo=i - 1.0,
                xi_hi=float(i), delta_L0=item.s - self._ss[-1],
                w_start=self._ws[-1],
                w_prev=self._ws[-2] if i > 1 else self._w_prev0,
                w_end=item.w, level=1, N=self.engine.subintervals))
            self._ws.append(item.w)
            self._ss.append(item.s)
        self._taken += 1

    def initialize(self) -> None:
        """The serial phase run to its end: every level-0 interval queued
        as a level-1 job, keyed by its map's xi."""
        for _ in self.serial_phase:
            pass

    def _close(self, m: CurveMap) -> None:
        """Store the branch's map, rename its jobs to the map's xi and
        submit their parked answers."""
        self.maps[m.branch] = m
        keys = m.xi_keys()

        def named(job: Job) -> Job:
            if job.branch != m.branch:
                return job
            return replace(job, xi_lo=keys[int(job.xi_lo)],
                           xi_hi=keys[int(job.xi_hi)])

        queued = [named(job) for job in self.queue]
        self.queue.clear()
        self.queue.extend(queued)
        for job_id, job in self._outstanding.items():
            self._outstanding[job_id] = named(job)
        parked, self._parked = self._parked, []
        for job, answer in parked:
            self._answer(named(job), answer)

    @property
    def outstanding(self) -> int:
        """How many jobs are popped and not yet answered."""
        return len(self._outstanding)

    def pop(self) -> Job:
        """FIFO removal; the job is outstanding until it is answered."""
        if not self.queue:
            raise QueueInvariantError("pop on empty queue")
        job = self.queue.popleft()
        self._outstanding[job.id] = job
        return job

    def submit(self, job: Job, result: IntervalResult | str) -> None:
        """Settle a popped job. A result's fine path is measured against
        the map, its solutions inserted and, below max_level, children
        queued where errors demand: the fine subintervals if the lower
        error exceeds its tolerance, the closing one if the upper error
        does and the fine end-point was stored. A str is the message of a
        job lost to a worker failure, whose coarse data is retained.

        The job is matched by id, so it may be the one popped while its
        branch was open; while it is, the answer is parked until the close.
        """
        try:
            job = self._outstanding.pop(job.id)
        except KeyError:
            raise QueueInvariantError(
                f"job id {job.id} is not outstanding") from None
        self._answer(job, result)

    def _answer(self, job: Job, answer: IntervalResult | str) -> None:
        if job.branch not in self.maps:  # its branch is still open
            self._parked.append((job, answer))
        elif isinstance(answer, str):
            self._record(job, LOST, message=answer)
        else:
            self._apply(job, answer)

    def _apply(self, job: Job, result: IntervalResult) -> None:
        m = self.maps[job.branch]
        if result.error:
            # Retain the coarse data; warn, do not requeue.
            self._record(job, FAILED, message=result.error)
            return
        sols = result.solutions
        # job.w_end is the map's point at xi_hi: an entry's w never changes
        dists, lower, closing = _measure(job, sols, self.config.psi,
                                         self.problem.load_norm_sq)
        measured = (sum(dists), lower, closing)
        errors = compute_errors(job.delta_L0, measured)
        refine_lower = errors.lower > self.engine.tol_lower
        refine_upper = errors.upper > self.engine.tol_upper
        try:
            if refine_lower or refine_upper:
                keys = m.insert_stretch(job.xi_lo, job.xi_hi, job.level,
                                        sols, dists, closing)
            else:
                m.insert_interior(job.xi_lo, job.xi_hi, job.level, sols, dists)
        except CurveStructureError as exc:
            # The map is unchanged: keep the coarse data, as for a failed
            # solve.
            self._record(job, REJECTED, measured, message=str(exc))
            return
        children = []
        if job.level < self.engine.max_level:
            if refine_lower:
                children = list(zip(keys, keys[1:], dists))
            if refine_upper and len(keys) == len(dists) + 2:
                children.append((keys[-2], keys[-1], closing))
        for lo, hi, dl0 in children:
            # later insertions never change an entry's w or w_prev, only the
            # ds of an interval's end, so the child's w_end stays the map's
            # point at hi
            entry = m.lookup(lo)
            self.queue.append(Job(
                id=next(self._ids), branch=m.branch, xi_lo=lo, xi_hi=hi,
                delta_L0=dl0, w_start=entry.w, w_prev=entry.w_prev,
                w_end=m.lookup(hi).w, level=job.level + 1,
                N=self.engine.subintervals))
        self._record(job, REFINED if refine_lower or refine_upper
                     else ACCEPTED, measured, len(children))

    def _record(self, job: Job, outcome: str, measured=None, children=0,
                message="") -> None:
        """The one write per settled job; warnings name the job's interval."""
        if outcome not in (ACCEPTED, REFINED):
            message = (f"branch {job.branch} [{job.xi_lo!r}, {job.xi_hi!r}]"
                       f" {outcome}: {message}")
            log.warning(message)
        self.stats.records.append(
            JobRecord(job, outcome, measured, children, message))

    def validate_maps(self) -> None:
        """The one full walk of every map, once the queue has drained."""
        for m in self.maps.values():
            m.validate_monotone()

    def collect(self) -> list[tuple[int, float, float, int, SolutionPoint]]:
        rows = []
        for branch in sorted(self.maps):
            rows.extend(self.maps[branch].collect())
        return rows


def _measure(job: Job, sols: list[SolutionPoint], psi: float,
             load_norm_sq: float) -> tuple[list[float], float, float]:
    """The lengths of a solved job's fine steps, from job.w_start through
    each point of sols, and its lower and closing distances, from w_start
    to sols[-1] and from sols[-1] to job.w_end: one alm._lengths pass over
    the stacked increments, each row written as alm.increment_between
    writes it, so each length has the bits of alm.point_distance and so of
    the length alm.step measured."""
    ends = [*sols, job.w_end, sols[-1]]
    starts = [job.w_start, *sols, job.w_start]
    n = job.w_start.n_dof
    dw = np.empty((len(ends), n + 1))
    for du, w_to, w_from in zip(dw[:, :n], ends, starts):
        np.subtract(w_to.u, w_from.u, out=du)
    dw[:, n] = [w_to.lam - w_from.lam for w_to, w_from in zip(ends, starts)]
    *dists, closing, lower = alm._lengths(dw, psi, load_norm_sq)
    return dists, lower, closing


def aalm(problem: ProblemDef, config: AlmConfig, engine: EngineConfig
         ) -> QueueEngine:
    """Serial adaptive arc-length method: run_manager with no workers."""
    # Imported here: runtime imports engine, and perfbench calls engine.aalm.
    from .runtime import run_manager
    state = QueueEngine(problem, config, engine)
    run_manager(state, [])
    return state


def serial_solve(problem: ProblemDef, config: AlmConfig,
                 engine: EngineConfig) -> list[CurveMap]:
    """The level-0 map of every branch, in branch order: the serial phase
    run to its end (`QueueEngine.initialize`)."""
    state = QueueEngine(problem, config, engine)
    state.initialize()
    return [state.maps[b] for b in sorted(state.maps)]
