"""Serial initialization, interval solving, error marking, and the queue
driver for adaptive arc-length continuation.

The manager owns all maps and the queue; solve_interval is pure and is the
only part executed concurrently by the parallel runtime.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import alm
from .alm import AlmConfig
from .curvemap import CurveMap, CurveStructureError, IntervalDescriptor
from .problems import ProblemDef, SolutionPoint

log = logging.getLogger(__name__)


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
    branch_delta_L: float | None = None  # step length on spawned branches
    branch_steps: int | None = None  # serial step count on spawned branches
    max_branches: int = 8

    def __post_init__(self):
        if self.delta_L <= 0:
            raise ValueError("delta_L must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.subintervals < 2:
            raise ValueError("subintervals must be >= 2")
        if self.tol_lower <= 0 or self.tol_upper <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")


@dataclass(frozen=True)
class Job:
    id: int
    branch: int
    xi_lo: float
    xi_hi: float
    delta_L0: float
    w_start: SolutionPoint
    w_prev: SolutionPoint | None
    w_ref: SolutionPoint
    level: int
    N: int


@dataclass(frozen=True)
class IntervalResult:
    job_id: int
    distances: list[float]
    solutions: list[SolutionPoint]
    lower_distance: float
    closing_distance: float
    success: bool = True
    message: str = ""


@dataclass(frozen=True)
class ErrorTriple:
    total: float  # (dL' - dL0) / dL0
    lower: float  # (dL0 - dL_bar) / dL0
    upper: float  # (total - lower) / dL0, with the extra division as printed
    upper_raw: float  # total - lower, without the extra division


@dataclass
class BranchData:
    branch: int
    solutions: list[SolutionPoint]
    s_coords: list[float]
    # Virtual predecessor of the branch start (start minus the branch-switch
    # seed); gives warm predictors on the first interval the branch
    # direction instead of a cold start along the parent branch.
    w_prev0: SolutionPoint | None = None


def compute_errors(delta_L0: float, distances: list[float],
                   lower_distance: float, closing_distance: float
                   ) -> ErrorTriple:
    """Refinement-marking errors of a computed interval."""
    dl_fine = sum(distances) + closing_distance
    total = (dl_fine - delta_L0) / delta_L0
    lower = (delta_L0 - lower_distance) / delta_L0
    raw = total - lower
    return ErrorTriple(total=total, lower=lower, upper=raw / delta_L0,
                       upper_raw=raw)


def solve_interval(problem: ProblemDef, config: AlmConfig, job: Job
                   ) -> IntervalResult:
    """Re-solve one interval with N fine steps of nominal length dL0/N.

    Warm-started from w_start - w_prev when a predecessor is known. Step
    cuts shorten individual steps; extra steps are then appended until the
    nominal length budget is used, so more than N points may result.
    """
    dl_nominal = job.delta_L0 / job.N
    psi, ptp = config.psi, problem.load_norm_sq
    dw = None
    if job.w_prev is not None:
        dw = alm.increment_between(job.w_start, job.w_prev)
    sols = [job.w_start]
    dists: list[float] = []
    remaining = job.delta_L0
    budget = 10 * job.N + 20  # safety against pathological step cutting
    failure: str | None = None
    try:
        while remaining > 1e-12 * job.delta_L0 and len(dists) < budget:
            res = alm.step(problem, config, sols[-1], dw,
                           min(dl_nominal, remaining))
            dists.append(res.achieved_length)
            dw = alm.increment_between(res.w_new, sols[-1])
            sols.append(res.w_new)
            remaining -= res.achieved_length
    except alm.StepError as exc:
        failure = str(exc)
    return IntervalResult(
        job_id=job.id, distances=dists, solutions=sols,
        lower_distance=alm.point_distance(sols[-1], sols[0], psi, ptp),
        closing_distance=alm.point_distance(job.w_ref, sols[-1], psi, ptp),
        success=failure is None, message=failure or "")


def serial_solve(problem: ProblemDef, config: AlmConfig,
                 engine: EngineConfig) -> list[BranchData]:
    """Coarse serial continuation; level-0 data for every branch.

    Starts from the trivial point (u = 0, lambda = 0). With bifurcation
    detection enabled, a stability sign change between consecutive points
    triggers bisection; located bifurcation points spawn new branches via an
    eigenvector perturbation, each serially solved in turn.
    """
    w0 = SolutionPoint(np.zeros(problem.n_dof), 0.0)
    # (start, branch-switch seed, step length, step count) per branch
    pending: deque[tuple] = deque([(w0, None, engine.delta_L, engine.steps)])
    branches: list[BranchData] = []
    while pending:
        start, seed, dl, n_steps = pending.popleft()
        ws = [start]
        ss = [0.0]
        dw = seed
        stab_prev: alm.StabilityInfo | None = None
        for _ in range(n_steps):
            try:
                res = alm.step(problem, config, ws[-1], dw, dl)
            except alm.StepError as exc:
                raise SerialSolveError(
                    f"serial solve failed on branch {len(branches)} at "
                    f"s={ss[-1]:.6g}: {exc}")
            w_new = res.w_new
            ss.append(ss[-1] + res.achieved_length)
            dw = alm.increment_between(w_new, ws[-1])
            ws.append(w_new)
            if engine.bifurcation_enabled:
                stab = alm.detect_singular(problem, w_new)
                if (stab_prev is not None
                        and stab_prev.det_sign * stab.det_sign < 0
                        and len(branches) + len(pending) + 1
                        < engine.max_branches):
                    _maybe_spawn_branch(problem, config, engine,
                                        ws[-2], w_new, pending)
                stab_prev = stab
        w_prev0 = None
        if seed is not None:
            du, dlam = seed
            w_prev0 = SolutionPoint(start.u - du, start.lam - dlam)
        branches.append(BranchData(branch=len(branches), solutions=ws,
                                   s_coords=ss, w_prev0=w_prev0))
    return branches


def _maybe_spawn_branch(problem, config, engine, w_a, w_b, pending) -> None:
    try:
        w_star = alm.locate_bifurcation(problem, config, w_a, w_b)
        kind = alm.classify_singular(problem, w_star)
    except (alm.BifurcationNotFoundError, alm.BranchSwitchError) as exc:
        log.warning("singular point unlocatable: %s", exc)
        return
    if kind != "bifurcation":
        log.info("singular point at lambda=%.6g classified as limit point",
                 w_star.lam)
        return
    try:
        seed = alm.branch_switch(problem, w_star, config.branch_perturbation)
    except alm.BranchSwitchError as exc:
        log.warning("branch switch refused: %s", exc)
        return
    dl = engine.branch_delta_L or engine.delta_L
    n_steps = engine.branch_steps or engine.steps
    pending.append((w_star, seed, dl, n_steps))
    log.info("bifurcation at lambda=%.6g: spawning branch", w_star.lam)


def initialize_map(branches: list[BranchData]
                   ) -> tuple[dict[int, CurveMap], deque[IntervalDescriptor]]:
    """Per-branch maps plus the initial queue of level-1 intervals."""
    maps: dict[int, CurveMap] = {}
    queue: deque[IntervalDescriptor] = deque()
    for b in branches:
        m = CurveMap.from_serial(b.branch, b.solutions, b.s_coords,
                                 w_prev0=b.w_prev0)
        maps[b.branch] = m
        keys = m.xi_keys()
        for lo, hi in zip(keys, keys[1:]):
            queue.append(IntervalDescriptor(
                branch=b.branch, xi_lo=lo, xi_hi=hi,
                delta_L0=m.lookup(hi).ds, level=1))
    return maps, queue


@dataclass
class EngineStats:
    jobs_done: int = 0
    jobs_failed: int = 0
    submits: int = 0
    level_counts: dict[int, int] = field(default_factory=dict)
    # (delta_L0, sum d_k, lower_distance, closing_distance) per job
    interval_log: list[tuple[float, float, float, float]] = field(
        default_factory=list)
    error_log: list[ErrorTriple] = field(default_factory=list)
    children_spawned: int = 0
    serial_time: float = 0.0
    queue_time: float = 0.0
    warnings: list[str] = field(default_factory=list)


class QueueEngine:
    """Single-owner state: curve maps, job queue, and bookkeeping."""

    def __init__(self, problem: ProblemDef, config: AlmConfig,
                 engine: EngineConfig):
        self.problem = problem
        self.config = config
        self.engine = engine
        self.maps: dict[int, CurveMap] = {}
        self.queue: deque[IntervalDescriptor] = deque()
        self.stats = EngineStats()
        self._descriptors: dict[int, IntervalDescriptor] = {}
        self._next_id = 0

    def initialize(self) -> None:
        t0 = time.perf_counter()
        self.maps, self.queue = initialize_map(
            serial_solve(self.problem, self.config, self.engine))
        self.stats.serial_time = time.perf_counter() - t0

    def pop(self) -> Job:
        """FIFO removal; payload assembled from the branch map."""
        if not self.queue:
            raise QueueInvariantError("pop on empty queue")
        desc = self.queue.popleft()
        m = self.maps[desc.branch]
        lo = m.lookup(desc.xi_lo)
        hi = m.lookup(desc.xi_hi)
        job = Job(id=self._next_id, branch=desc.branch, xi_lo=desc.xi_lo,
                  xi_hi=desc.xi_hi, delta_L0=desc.delta_L0, w_start=lo.w,
                  w_prev=lo.w_prev, w_ref=hi.w, level=desc.level,
                  N=self.engine.subintervals)
        self._descriptors[job.id] = desc
        self._next_id += 1
        return job

    def requeue(self, job: Job) -> None:
        """Undo pop: put the job's interval back at the front of the queue."""
        self.queue.appendleft(self._descriptors.pop(job.id))

    def submit(self, job: Job, result: IntervalResult) -> None:
        """Insert a job's solutions and queue children where errors demand."""
        desc = self._descriptors.pop(job.id, None)
        if desc is None:
            raise QueueInvariantError(f"submit for unknown job id {job.id}")
        m = self.maps[desc.branch]
        self.stats.jobs_done += 1
        if not result.success:
            # Retain the coarse data; warn, do not requeue.
            self._fail(f"job {job.id} on branch {desc.branch} failed: "
                       f"{result.message}")
            return
        errors = compute_errors(desc.delta_L0, result.distances,
                                result.lower_distance,
                                result.closing_distance)
        refine_lower = errors.lower > self.engine.tol_lower
        refine_upper = errors.upper > self.engine.tol_upper
        children = []
        try:
            if not refine_lower and not refine_upper:
                m.insert_interior(desc, result)
            else:
                children = m.insert_stretch(desc, result, refine_lower,
                                            refine_upper)
        except CurveStructureError as exc:
            # The map is unchanged: keep the coarse data, as for a failed
            # solve.
            self._fail(f"job {job.id} on branch {desc.branch} rejected: "
                       f"{exc}")
            return
        self.stats.error_log.append(errors)
        self.stats.interval_log.append(
            (desc.delta_L0, sum(result.distances), result.lower_distance,
             result.closing_distance))
        for child in children:
            if child.level <= self.engine.max_level:
                self.queue.append(child)
                self.stats.children_spawned += 1
        lvl = desc.level
        self.stats.level_counts[lvl] = self.stats.level_counts.get(lvl, 0) + 1
        self.stats.submits += 1
        m.validate_monotone()

    def submit_failure(self, job: Job, message: str) -> None:
        """Record a job lost to a worker failure; coarse data is retained."""
        self._descriptors.pop(job.id, None)
        self.stats.jobs_done += 1
        self._fail(f"job {job.id} lost: {message}")

    def _fail(self, warning: str) -> None:
        self.stats.jobs_failed += 1
        self.stats.warnings.append(warning)
        log.warning(warning)

    def run_serial_queue(self) -> None:
        t0 = time.perf_counter()
        while self.queue:
            job = self.pop()
            result = solve_interval(self.problem, self.config, job)
            self.submit(job, result)
        self.stats.queue_time = time.perf_counter() - t0

    def collect(self) -> list[tuple[int, float, float, int, SolutionPoint]]:
        rows = []
        for branch in sorted(self.maps):
            rows.extend(self.maps[branch].collect())
        return rows


def aalm(problem: ProblemDef, config: AlmConfig, engine: EngineConfig
         ) -> QueueEngine:
    """Serial adaptive arc-length method: serial solve, then queue draining."""
    state = QueueEngine(problem, config, engine)
    state.initialize()
    state.run_serial_queue()
    return state
