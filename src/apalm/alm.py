"""One arc-length step: predictor, Riks/Crisfield corrector, step cutting,
and singular-point tooling for the serial phase.

All routines are pure functions of their inputs and may run concurrently
on disjoint data: the buffers that their tridiagonal solves write are the
calling thread's own (`workspace`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from . import tridiagonal
from .problems import ProblemDef, SolutionPoint, check_numbers

RIKS = "riks"
CRISFIELD = "crisfield"
MAX_NEWTON_ITERS = 25  # corrector iterations before a step is cut
MAX_STEP_CUTS = 5  # halvings of a step before it fails
BIF_TOL = 1e-4  # metric length of the final bisection bracket
BRANCH_PERTURBATION = 1e-4  # tau of the branch-switch seed (tau phi, 0)
# the most jobs times unknowns in a wave, solved by the manager itself or
# sent to a worker in one frame: 16 jobs of springchain n = 256, and the
# rows of a thread's `workspace`. A wave holds each job's factor, points and
# (jobs, n) arrays at once: on chain-serial, a run on its own peaked
# 1.1 MiB above one-job-at-a-time solving with waves of 16, 2.2 MiB with
# waves of 32 at the same speed, and ran 5 % slower with waves of 8
WAVE_VALUES = 1 << 12


class StepError(RuntimeError):
    """An arc-length step failed after exhausting all step cuts."""


class PredictorError(RuntimeError):
    """No predictor direction: a singular tangent system (`tangent`), or a
    direction of zero or non-finite length (`predictor`)."""


class ComplexRootsError(RuntimeError):
    """The Crisfield quadratic has no real roots; caller must cut the step."""


class BranchSwitchError(RuntimeError):
    """Branch switching refused (null space of K is not one-dimensional)."""


class BifurcationNotFoundError(RuntimeError):
    """Bisection could not maintain a stability sign change."""


@dataclass(frozen=True)
class AlmConfig:
    constraint: str = CRISFIELD
    psi: float = 1.0
    newton_tol: float = 1e-10

    def __post_init__(self):
        check_numbers(vars(self), {f.name: f.type for f in fields(self)},
                      "alm")
        if self.constraint not in (RIKS, CRISFIELD):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        # every check is written so that NaN fails it
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if not 0 <= self.psi < math.inf:
            raise ValueError("psi must be >= 0 and finite")


@dataclass(frozen=True)
class StepResult:
    w_new: SolutionPoint
    iterations: int
    cuts_used: int
    achieved_length: float
    dw: np.ndarray  # w_new - w_i, the warm start of the next step


@dataclass(frozen=True)
class StabilityInfo:
    det_sign: int  # sign of det K; 0 if (numerically) singular
    n_nonpositive: int  # non-positive pivots / eigenvalues of K


def distance(dw: np.ndarray, psi: float, load_norm_sq: float) -> float:
    """Metric length sqrt(du.du + psi^2 dlam^2 P.P) of an increment
    dw = (du, dlam), one array of n + 1 entries.

    The square root makes this a weighted Euclidean norm; the Newton
    constraints internally use the squared form.
    """
    if load_norm_sq < 0:
        raise ValueError("load_norm_sq must be non-negative")
    dw = np.asarray(dw, dtype=float)
    du = dw[:-1]
    # math.sqrt is the IEEE square root that np.sqrt takes of a scalar
    return math.sqrt(du @ du + psi**2 * dw.item(-1)**2 * load_norm_sq)


def increment_between(w_to: SolutionPoint, w_from: SolutionPoint
                      ) -> np.ndarray:
    """The increment (Delta u, Delta lambda) from w_from to w_to."""
    dw = np.empty(w_to.u.shape[0] + 1)
    np.subtract(w_to.u, w_from.u, out=dw[:-1])
    dw[-1] = w_to.lam - w_from.lam
    return dw


def point_distance(w_a: SolutionPoint, w_b: SolutionPoint, psi: float,
                   load_norm_sq: float) -> float:
    return distance(increment_between(w_a, w_b), psi, load_norm_sq)


def tangent(problem: ProblemDef, w: SolutionPoint) -> np.ndarray:
    """The tangent t = (-K^{-1} dG/dlam, 1) at w, the solution of the
    bordered system [[K, dG/dlam], [0, 1]] t = e_{n+1}: the direction, with
    Delta lambda > 0, that a branch starting at w first steps along.
    Raises PredictorError where the system is singular."""
    try:
        return _bordered_solve(problem, w, None, 1.0,
                               np.zeros(problem.n_dof), 1.0, False)
    except np.linalg.LinAlgError as exc:
        raise PredictorError(f"singular tangent stiffness: {exc}")


def predictor(problem: ProblemDef, config: AlmConfig,
              delta_w_prev: np.ndarray, delta_L: float) -> np.ndarray:
    """Initial increment (Delta u, Delta lambda) of metric length delta_L:
    the direction delta_w_prev rescaled. Raises PredictorError where that
    direction has zero or non-finite length."""
    if delta_L <= 0:
        raise ValueError("delta_L must be positive")
    length = distance(delta_w_prev, config.psi, problem.load_norm_sq)
    if not 0 < length < math.inf:
        raise PredictorError(f"predictor direction of length {length!r}")
    return (delta_L / length) * delta_w_prev


def select_root(roots: tuple[float, float], dot0: float, dot1: float
                ) -> int:
    """Pick the Crisfield root that keeps moving forward, from the dot
    products dot_i = delta_u_old . delta_u_candidate_i, as floats.

    Maximizes dot_i; on a tie (e.g. where delta_u_old is 0) the root with
    larger delta lambda wins.
    """
    scale = max(1.0, abs(dot0), abs(dot1))
    if abs(dot0 - dot1) <= 1e-12 * scale:
        return 0 if roots[0] >= roots[1] else 1
    return 0 if dot0 > dot1 else 1


class _NoConvergence(RuntimeError):
    pass


class Batch:
    """The buffers that tridiagonal solves write: for each row k, a factor
    of K, factors[k], built the first time a solve stands at row k and
    refilled by every later one, which solves in place in rows[k]. The
    member at row k of a batch's arrays (`batch_step`) stands at row k, and
    a step taken alone (`step`) at row 0. A factor keeps nothing between
    iterations that its refill does not write anew, so whichever member or
    lone step stands at row k may take it, and each thread keeps one Batch
    for all its solves (`workspace`): a serial branch, a bisection, and the
    waves of the manager or of a worker. Two conditions make that safe:

    - No other thread sees a thread's Batch.
    - No problem callback runs while a row holds a live factor: a bordered
      solve calls every callback it needs before it factors, so a callback
      that runs steps of its own on the thread may refill any row.

    kernel is the tridiagonal.factor that fills factors; each kernel path
    refills only factors of its own form."""

    __slots__ = ("rows", "factors", "kernel")

    def __init__(self, size: int, n: int):
        self.rows = np.empty((size, 2, n))
        self.factors: list = [None] * size
        self.kernel = tridiagonal.factor


_thread = threading.local()


def workspace(n: int, rows: int = 1) -> Batch:
    """The calling thread's Batch, for a K of n unknowns and at least rows
    members. A new one, of max(rows, WAVE_VALUES // n) rows, replaces the
    thread's where that one is for another n or kernel path
    (tridiagonal.factor) or has fewer rows."""
    ws = getattr(_thread, "batch", None)
    if (ws is None or ws.rows.shape[2] != n or len(ws.factors) < rows
            or ws.kernel is not tridiagonal.factor):
        ws = _thread.batch = Batch(max(rows, WAVE_VALUES // n), n)
    return ws


def _bordered_solve(problem: ProblemDef, w: SolutionPoint, b, beta: float,
                    row: np.ndarray, corner: float, two: bool) -> np.ndarray:
    """The solution of the bordered system [[K, dG/dlam], [row, corner]]
    x = [b; beta], with K and dG/dlam at w and b None for zero, and, where
    two is true, of the same system for [0; 1] in a second column.
    Raises np.linalg.LinAlgError where the system is singular.

    A dense K goes through np.linalg.solve, on the columns packed into one
    array. A tridiagonal K is factored once, in O(n), and the border row is
    eliminated (Keller 1977): with K [y, y_g] = [b, dG/dlam] and the Schur
    complement s = corner - row.y_g, [b; beta] has the solution
    (y - xi y_g, xi), xi = (beta - row.y) / s. Where K is nearly singular,
    y and xi y_g are large and nearly cancel, which costs that difference
    digits in proportion to K's condition number; one refinement step with
    the same factor wins them back (Govaerts 2000). With b = 0, as in
    [0; 1] and `tangent`'s [0; beta], y = 0 and nothing cancels,
    so that column needs neither its K-solve nor the refinement. A Newton
    iteration makes one factor and two K-solves: dG/dlam with b, then the
    refinement residual. Once K and dG/dlam are read, K is factored into
    row 0 of the thread's `workspace` and solved in place there, and the
    solution is a new array of shape (n + 1,) or (n + 1, 2), so the
    columns of a two-column x keep the stride of 2 that their dot products
    were always taken with: OpenBLAS's ddot sums a strided and a
    contiguous operand in different orders.
    """
    n = problem.n_dof
    shape = (n + 1, 2) if two else (n + 1,)
    tri = problem.tridiagonal(w)
    if tri is None:
        K = problem.jacobian_u(w)
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = K
        M[:n, n] = problem.jacobian_lambda(w)
        M[n, :n] = row
        M[n, n] = corner
        rhs = np.zeros(shape)
        col = rhs[:, 0] if two else rhs
        if b is not None:
            col[:n] = b
        col[n] = beta
        if two:
            rhs[n, 1] = 1.0
        return np.linalg.solve(M, rhs)
    g = problem.jacobian_lambda(w)
    ws = workspace(n)
    lu = ws.factors[0] = tridiagonal.factor(*tri, ws.factors[0], ws.rows[0])
    rows = lu.b
    x = np.empty(shape)
    xc = x[:, 0] if two else x
    if b is None:
        rows[0] = g
        [y_g] = tridiagonal.solve(lu, 1)
    else:
        rows[0], rows[1] = b, g
        y, y_g = tridiagonal.solve(lu, 2)
    s = corner - float(row @ y_g)
    if s == 0.0:
        raise np.linalg.LinAlgError("zero Schur complement")
    if two:
        xi = 1.0 / s
        np.subtract(0.0, xi * y_g, out=x[:-1, 1])
        x[-1, 1] = xi
    if b is None:
        xi = beta / s
        np.subtract(0.0, xi * y_g, out=xc[:-1])
        xc[-1] = xi
        return x
    xi = (beta - float(row @ y)) / s
    np.subtract(y, xi * y_g, out=xc[:-1])
    xc[-1] = xi
    # [b; beta] - [[K, dG/dlam], [row, corner]] x, and its correction,
    # written and solved in y's row, which is read no more
    r = rows[0]
    np.subtract(b, tridiagonal.matvec(*tri, xc[:-1]), out=r)
    r -= g * xc.item(-1)
    r_beta = beta - float(row @ xc[:-1]) - corner * xc.item(-1)
    [z] = tridiagonal.solve(lu, 1)
    xi = (r_beta - float(row @ z)) / s
    xc[:-1] += z - xi * y_g
    xc[-1] += xi
    return x


def _sphere_roots(xx: float, ax: float, aa: float, a_lam: float,
                  xt_lam: float, c: float, delta_L: float
                  ) -> tuple[float, float]:
    """The two t that put a + t xt on the sphere of radius delta_L, from
    the dot products xx = xt_u.xt_u, ax = a_u.xt_u and aa = a_u.a_u, the
    lambda entries and c = psi^2 P.P; raises where there is no real t."""
    A = xx + c * xt_lam * xt_lam
    B = 2.0 * (ax + c * a_lam * xt_lam)
    C = aa + c * a_lam * a_lam - delta_L**2
    if A == 0.0:
        if B == 0.0:
            raise _NoConvergence("degenerate constraint quadratic")
        return -C / B, -C / B
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        raise ComplexRootsError("complex Crisfield roots")
    sq = math.sqrt(disc)
    return (-B + sq) / (2.0 * A), (-B - sq) / (2.0 * A)


def _corrector(problem: ProblemDef, config: AlmConfig, w_i: SolutionPoint,
               delta_w_prev: np.ndarray, delta_L: float
               ) -> tuple[SolutionPoint, int]:
    psi, ptp = config.psi, problem.load_norm_sq
    c = psi**2 * ptp
    n = problem.n_dof
    riks = config.constraint == RIKS

    dw = predictor(problem, config, delta_w_prev, delta_L)
    dw0 = dw  # first-iteration increment (Riks plane)

    for it in range(MAX_NEWTON_ITERS + 1):
        du = dw[:n]
        w = SolutionPoint(w_i.u + du, w_i.lam + dw.item(n))
        G = problem.residual(w)
        # the bits of np.linalg.norm(G), which is sqrt(G @ G) for a 1-D
        # float64 G, without its conversions
        if math.sqrt(G @ G) <= config.newton_tol:
            return w, it
        if it == MAX_NEWTON_ITERS:
            break
        if riks:
            # The (verbatim) plane constraint
            # du0.Du + psi^2 dlam0^2 P.P - dL^2 = 0; constant in dlam.
            row, corner = dw0[:n], 0.0
            f = float(dw0[:n] @ du) + c * dw0[n] * dw0[n] - delta_L**2
            beta = -f
        else:
            # Crisfield: the linearized-sphere row keeps the bordered
            # matrix regular at limit points. The columns [-G; 0] and
            # [0; 1] give the one-parameter family of Newton updates of G;
            # intersect it with the sphere to get the per-iteration
            # quadratic.
            row, corner = 2.0 * du, 2.0 * c * dw.item(n)
            beta = 0.0
        try:
            sol = _bordered_solve(problem, w, -G, beta, row, corner, not riks)
        except np.linalg.LinAlgError:
            raise _NoConvergence("singular bordered system")
        if riks:
            dw = dw + sol
            continue
        # a + t xt on the sphere of radius dL (a = dw + x, sol = [x, xt]),
        # with the metric inner product a_u.b_u + psi^2 P.P a_lam b_lam;
        # item() reads scalars as Python floats: cheaper at small n, same
        # bits. xt stays sol's column, with its stride, in its products.
        a, xt = dw + sol[:, 0], sol[:, 1]
        au, xtu = a[:n], xt[:n]
        ts = _sphere_roots(float(xtu @ xtu), float(au @ xtu), float(au @ au),
                           a.item(n), xt.item(n), c, delta_L)
        cands = (a + ts[0] * xt, a + ts[1] * xt)
        lam = dw.item(n)
        roots = (cands[0].item(n) - lam, cands[1].item(n) - lam)
        dw = cands[select_root(roots, float(du @ cands[0][:n]),
                               float(du @ cands[1][:n]))]
    raise _NoConvergence("no convergence within max_newton_iters")


def step(problem: ProblemDef, config: AlmConfig, w_i: SolutionPoint,
         delta_w_prev: np.ndarray, delta_L: float) -> StepResult:
    """One arc-length step of nominal length delta_L along the direction
    delta_w_prev (`predictor`), with step cutting.

    On non-convergence (or complex Crisfield roots) the length is halved and
    the step retried, up to MAX_STEP_CUTS times; the result reports the
    achieved (possibly shorter) length.

    The bordered solves of every Newton iteration of every try run in
    row 0 of the thread's `workspace`; the result holds none of its
    buffers.
    """
    if delta_L <= 0:
        raise ValueError("delta_L must be positive")
    last_err: Exception | None = None
    for cut in range(MAX_STEP_CUTS + 1):
        dl = delta_L / 2.0**cut
        try:
            w_new, iters = _corrector(problem, config, w_i, delta_w_prev, dl)
        except (_NoConvergence, ComplexRootsError, PredictorError) as exc:
            last_err = exc
            continue
        dw = increment_between(w_new, w_i)
        achieved = distance(dw, config.psi, problem.load_norm_sq)
        return StepResult(w_new, iters, cut, achieved, dw)
    raise StepError(f"step failed after {MAX_STEP_CUTS} cuts: {last_err}")


def _lengths(dw: np.ndarray, psi: float, load_norm_sq: float
             ) -> list[float]:
    """`distance` of each row of dw, with the same bits: np.vecdot takes
    each row's du.du as 1-D `du @ du` does, and the rest is Python-float
    arithmetic, as in `distance`."""
    dd = np.vecdot(dw[:, :-1], dw[:, :-1]).tolist()
    return [math.sqrt(d + psi**2 * lam**2 * load_norm_sq)
            for d, lam in zip(dd, dw[:, -1].tolist())]


def _rows(idx, *values) -> list:
    """Each value at the batch members idx: an array's rows, a list's
    entries, and a float, which all members share, as it is."""
    return [v[idx] if isinstance(v, np.ndarray)
            else [v[k] for k in idx] if isinstance(v, list) else v
            for v in values]


def _bordered_solves(problem: ProblemDef, u: np.ndarray, lam: np.ndarray,
                     b: np.ndarray, beta, row: np.ndarray, corner,
                     two: bool) -> tuple[np.ndarray, list[int]]:
    """`_bordered_solve` for each member k of a batch: the system at
    (u[k], lam[k]) with right-hand side [b[k]; beta], border row row[k]
    and corner corner (beta and corner a float or one per member), and,
    where two is true, the [0; 1] column as well, in x[k, :, 1]. Returns
    the solutions of the members whose systems are regular and the indices
    k of those members. Once the problem's callbacks are read, member k
    solves in row k of the thread's `workspace`. The arithmetic is
    `_bordered_solve`'s for a tridiagonal K, operation for operation."""
    m, n = b.shape
    subs, diags, sups = problem.tridiagonals(u, lam)
    g = problem.jacobians_lambda(u, lam)
    ws = workspace(n, m)
    factors = ws.factors
    rows = ws.rows[:m]
    rows[:, 0] = b
    rows[:, 1] = g
    live = []
    for k, (sub, diag, sup) in enumerate(zip(subs, diags, sups)):
        try:
            factors[k] = tridiagonal.factor(sub, diag, sup, factors[k],
                                            rows[k])
        except np.linalg.LinAlgError:
            continue
        tridiagonal.solve(factors[k], 2)
        live.append(k)
    # at: the rows of the members still solving, as a slice, whose rows
    # are views, while all m are
    at = slice(None)
    if len(live) < m:
        b, beta, row, corner, subs, diags, sups, g = _rows(
            live, b, beta, row, corner, subs, diags, sups, g)
        at = live
        if not live:
            return b, live
    y, y_g = rows[at].transpose(1, 0, 2)
    s = corner - np.vecdot(row, y_g)
    if not s.all():  # a zero Schur complement: that system is singular
        regular = np.flatnonzero(s).tolist()
        at = live = [live[k] for k in regular]
        b, beta, row, corner, subs, diags, sups, g, y, y_g, s = _rows(
            regular, b, beta, row, corner, subs, diags, sups, g, y, y_g, s)
        if not live:
            return b, live
    x = np.empty((len(live), n + 1, 2) if two else (len(live), n + 1))
    xc = x[:, :, 0] if two else x
    if two:
        xi = 1.0 / s
        np.subtract(0.0, xi[:, None] * y_g, out=x[:, :n, 1])
        x[:, n, 1] = xi
    xi = (beta - np.vecdot(row, y)) / s
    np.subtract(y, xi[:, None] * y_g, out=xc[:, :n])
    xc[:, n] = xi
    # the refinement of `_bordered_solve`, its residual in y's row
    r = tridiagonal.matvec(subs, diags, sups, xc[:, :n])
    np.subtract(b, r, out=r)
    r -= g * xc[:, n:]
    r_beta = beta - np.vecdot(row, xc[:, :n]) - corner * xc[:, n]
    rows[at, 0] = r
    for k in live:
        tridiagonal.solve(factors[k], 1)
    z = rows[at, 0]
    xi = (r_beta - np.vecdot(row, z)) / s
    xc[:, :n] += z - xi[:, None] * y_g
    xc[:, n] += xi
    return x, live


def batch_step(problem: ProblemDef, config: AlmConfig,
               w_i: list[SolutionPoint], delta_w_prev: list[np.ndarray],
               delta_L: list[float]) -> list:
    """`step` for each member j, (w_i[j], delta_w_prev[j], delta_L[j]), all
    in lockstep and without step cuts: the StepResult of each member, or
    None for one that the batch does not take (a direction of zero or
    non-finite length, whose `predictor` raises, or any member of a problem
    with a dense K) or that fails in it; a caller solves those alone with
    `step`, whose cuts then run as ever.

    Each Newton iteration is one numpy call per elementwise operation or
    row-wise dot product over all members that have not converged, and the
    same bits as `step`'s: np.vecdot rounds each row as 1-D `a @ b` does,
    also on the stride-2 second column, and the Crisfield and Riks
    scalars are Python floats, as in `_corrector`. The problem's
    callbacks take all members at once where the problem gives their
    stacked forms (`ProblemDef`). Per member stay the tridiagonal factor
    and its solves, in the member's row of the thread's `workspace`.
    """
    psi, ptp = config.psi, problem.load_norm_sq
    c = psi**2 * ptp
    n = problem.n_dof
    riks = config.constraint == RIKS
    tol = config.newton_tol
    results: list = [None] * len(w_i)
    if not w_i or problem.tridiagonal_fn is None:
        return results
    prev = np.array(delta_w_prev)
    lengths = _lengths(prev, psi, ptp)
    ids = [j for j, length in enumerate(lengths) if 0 < length < math.inf]
    if not ids:
        return results
    # the predictor, (delta_L / length) * delta_w_prev
    scale = np.array([delta_L[j] / lengths[j] for j in ids])
    dw = scale[:, None] * prev[ids]
    u0 = np.array([w_i[j].u for j in ids])
    lam0 = np.array([w_i[j].lam for j in ids])
    dw0 = dw if riks else None  # first-iteration increments (planes)
    for it in range(MAX_NEWTON_ITERS + 1):
        u = u0 + dw[:, :n]
        lam = lam0 + dw[:, n]
        G = problem.residuals(u, lam)
        # np.sqrt and math.sqrt are both the IEEE square root; a NaN
        # norm is not done
        done = np.sqrt(np.vecdot(G, G)) <= tol
        sel = np.flatnonzero(done)
        if sel.size:
            # the result as `step` makes it, from the converged point
            u_new, lam_new = u[sel], lam[sel]
            dws = np.empty((sel.size, n + 1))
            np.subtract(u_new, u0[sel], out=dws[:, :n])
            np.subtract(lam_new, lam0[sel], out=dws[:, n])
            for k, uk, lk, d, dwk in zip(
                    sel.tolist(), u_new, lam_new.tolist(),
                    _lengths(dws, psi, ptp), dws):
                results[ids[k]] = StepResult(SolutionPoint(uk, lk), it, 0,
                                             d, dwk)
        if it == MAX_NEWTON_ITERS or sel.size == len(ids):
            break
        if sel.size:
            ids, u, lam, u0, lam0, dw, dw0, G = _rows(
                np.flatnonzero(~done).tolist(), ids, u, lam, u0, lam0, dw,
                dw0, G)
        du = dw[:, :n]
        if riks:
            # the (verbatim) plane constraint of `_corrector`
            row, corner = dw0[:, :n], 0.0
            beta = np.array([
                -(f + c * d * d - delta_L[j]**2) for f, d, j in zip(
                    np.vecdot(dw0[:, :n], du).tolist(), dw0[:, n].tolist(),
                    ids)])
        else:
            row, corner, beta = 2.0 * du, 2.0 * c * dw[:, n], 0.0
        x, live = _bordered_solves(problem, u, lam, np.negative(G), beta,
                                   row, corner, not riks)
        if not live:
            break
        if len(live) < len(ids):
            ids, u0, lam0, dw, dw0 = _rows(live, ids, u0, lam0, dw, dw0)
        if riks:
            dw = dw + x
            continue
        # a + t xt on the sphere of radius dL, as in `_corrector`
        a, xt = dw + x[:, :, 0], x[:, :, 1]
        au, xtu = a[:, :n], xt[:, :n]
        ts, live = [], []
        for k, scalars in enumerate(zip(
                np.vecdot(xtu, xtu).tolist(), np.vecdot(au, xtu).tolist(),
                np.vecdot(au, au).tolist(), a[:, n].tolist(),
                xt[:, n].tolist())):
            try:
                ts.append(_sphere_roots(*scalars, c, delta_L[ids[k]]))
            except (_NoConvergence, ComplexRootsError):
                continue
            live.append(k)
        if not live:
            break
        if len(live) < len(ids):
            ids, u0, lam0, dw, dw0, a, xt = _rows(live, ids, u0, lam0, dw,
                                                  dw0, a, xt)
        t0, t1 = (np.array(t) for t in zip(*ts))
        cand0 = a + t0[:, None] * xt
        cand1 = a + t1[:, None] * xt
        du = dw[:, :n]
        pick = [select_root((r0 - lam_k, r1 - lam_k), d0, d1)
                for r0, r1, lam_k, d0, d1 in zip(
                    cand0[:, n].tolist(), cand1[:, n].tolist(),
                    dw[:, n].tolist(),
                    np.vecdot(du, cand0[:, :n]).tolist(),
                    np.vecdot(du, cand1[:, :n]).tolist())]
        pick = np.array(pick, dtype=bool)
        cand0[pick] = cand1[pick]
        dw = cand0
    return results


def detect_singular(problem: ProblemDef, w: SolutionPoint) -> StabilityInfo:
    """Sign of det K and count of non-positive eigenvalues of K at w:
    `detect_singulars` of the one point."""
    return detect_singulars(problem, [w])[0]


def detect_singulars(problem: ProblemDef, ws: list[SolutionPoint]
                     ) -> list[StabilityInfo]:
    """Sign of det K and count of non-positive eigenvalues of K at each
    point of ws, in one pass.

    A tridiagonal K's diagonals come stacked, from problem.tridiagonals,
    and the symmetric ones are counted from their LDL^T pivots in O(n)
    each (tridiagonal.ldl_inertias, column by column over the stack from
    tridiagonal.MIN_STACK points on): by Sylvester's law of inertia the
    pivots have the signs of the eigenvalues, and a pivot within
    1e-14 * max(1, g) of zero, g the Gershgorin bound on the eigenvalues,
    reports singular.

    Any other K takes one eigenvalue pass per point, which gives both: det K
    is the product of the eigenvalues, so its sign is (-1)^(number of
    negative ones). Symmetric K uses eigvalsh; otherwise the real parts of
    eigvals are counted, where a complex pair counts twice and contributes
    +1, as its |lambda|^2 does. An eigenvalue within 1e-14 * max(1, max|eig|)
    of zero, or a failed factorization, reports singular.
    """
    if problem.tridiagonal_fn is None:
        return [_eigen_stability(problem, w) for w in ws]
    subs, diags, sups = problem.tridiagonals(np.array([w.u for w in ws]),
                                             [w.lam for w in ws])
    symmetric = np.all(subs == sups, axis=1)
    if not symmetric.all():
        subs, diags = subs[symmetric], diags[symmetric]
    counted = iter(tridiagonal.ldl_inertias(subs, diags))
    return [StabilityInfo(*next(counted)) if sym
            else _eigen_stability(problem, w)
            for w, sym in zip(ws, symmetric.tolist())]


def _eigen_stability(problem: ProblemDef, w: SolutionPoint) -> StabilityInfo:
    """`detect_singulars` at w from the eigenvalues of the dense K."""
    K = problem.jacobian_u(w)
    try:
        if np.allclose(K, K.T, rtol=1e-10, atol=1e-12):
            eigs = np.linalg.eigvalsh(K)
        else:
            eigs = np.real(np.linalg.eigvals(K))
    except np.linalg.LinAlgError:
        return StabilityInfo(det_sign=0, n_nonpositive=problem.n_dof)
    tol = 1e-14 * max(1.0, float(np.max(np.abs(eigs))))
    n_nonpos = int(np.sum(eigs <= tol))
    det_sign = 0 if np.any(np.abs(eigs) <= tol) else (-1) ** n_nonpos
    return StabilityInfo(det_sign=det_sign, n_nonpositive=n_nonpos)


def locate_bifurcation(problem: ProblemDef, config: AlmConfig,
                       w_a: SolutionPoint, w_b: SolutionPoint) -> SolutionPoint:
    """Bisect on arc-length between two points with opposite stability signs.

    Re-steps from the stable-side endpoint with shrinking length until the
    bracketing interval's metric length is below BIF_TOL.
    """
    psi, ptp = config.psi, problem.load_norm_sq
    sign_a = detect_singular(problem, w_a).det_sign
    if sign_a == 0:
        return w_a  # degenerate bracket: already singular
    direction = increment_between(w_b, w_a)
    total = distance(direction, psi, ptp)
    if total <= BIF_TOL:
        return w_b
    lo, hi = 0.0, total
    w_lo = w_a
    w_mid = w_b
    while hi - lo > BIF_TOL:
        target = (lo + hi) / 2.0 - lo
        try:
            res = step(problem, config, w_lo, direction, target)
        except StepError as exc:
            raise BifurcationNotFoundError(f"bisection step failed: {exc}")
        w_mid = res.w_new
        mid = lo + res.achieved_length
        if mid <= lo or mid >= hi:
            raise BifurcationNotFoundError("bisection bracket collapsed")
        s = detect_singular(problem, w_mid).det_sign
        if s == 0:
            return w_mid
        if s == sign_a:
            lo, w_lo = mid, w_mid
        elif s == -sign_a:
            hi = mid
        else:
            raise BifurcationNotFoundError("stability sign lost in bracket")
    return w_mid


def null_vector(problem: ProblemDef, w: SolutionPoint) -> np.ndarray:
    """Unit null eigenvector of K(w); raises unless the null space is 1D.

    An eigenvalue of sym(K) counts as null within 1e-3 * max(1, max|eig|).
    The sign is fixed by a rule, not left to LAPACK: the first component
    with |phi_i| > 1e-8 is positive, so a rounding change in K cannot
    mirror the branch that phi seeds.
    """
    K = problem.jacobian_u(w)
    K_sym = 0.5 * (K + K.T)
    eigs, vecs = np.linalg.eigh(K_sym)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    small = np.abs(eigs) <= 1e-3 * scale
    if int(np.sum(small)) != 1:
        raise BranchSwitchError(
            f"null space dimension {int(np.sum(small))} != 1"
        )
    phi = vecs[:, int(np.argmax(small))]
    phi = phi / np.linalg.norm(phi)
    return -phi if phi[np.argmax(np.abs(phi) > 1e-8)] < 0.0 else phi


def branch_switch(problem: ProblemDef, w_star: SolutionPoint
                  ) -> np.ndarray | None:
    """Branch seed (tau * phi, 0), tau = BRANCH_PERTURBATION, along the unit
    null eigenvector phi, or None if w_star is a limit point.

    At a limit point the load direction has a component along phi (the
    path tangent's lambda-component changes sign there); at a bifurcation
    it is orthogonal to it.
    """
    phi = null_vector(problem, w_star)
    Gl = problem.jacobian_lambda(w_star)
    if abs(float(phi @ Gl)) <= 1e-6 * (float(np.linalg.norm(Gl)) + 1.0):
        return np.append(BRANCH_PERTURBATION * phi, 0.0)
    return None
