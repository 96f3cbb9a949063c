"""Curve-quality check of the program's output, for changes that move its
bits on purpose.

    python tests/curve.py [CONFIG ...] [--base REV]

Runs each named config of tests/bits.py (all of them by default) under
`aalm` and compares each branch's point cloud with a fine serial
reference: the same branch, from the same start point and direction, at
delta_L / 32 with no refinement, run to 1.25 times the branch's serial
length. Both are clipped to the arc they both cover. Distances are in the
method's metric, in which lambda counts psi * sqrt(P.P) times as much as
a unit of u. For each branch it prints:

- miss: the max and the 99th percentile of the distances from the
  reference's points to the cloud's polyline, which is what the cloud
  misses of the curve;
- off: the max distance from the cloud's points to the reference's
  polyline, which is how far a point of the cloud lies off the curve;
- the branch's jobs by outcome (accepted/refined/failed/rejected/lost)
  and its points.

With `--base REV` the same configs also run at REV, exported as
tests/bits.py does, and each branch is matched to one of REV's by its
start point. A branch reads `equal` where every number is, `no worse`
where no distance grew by more than 0.1 % plus 1e-9, and `WORSE` where
one did: the points are converged only to newton_tol, so a distance
moves by about that much whenever their bits move. Exits 1 if a branch
reads WORSE or has no match at REV, and 0 otherwise. Each revision
computes its own reference, with its own `alm.step`.

The tests import `polyline_distance` and `clip` from here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

import bits

REFINE = 32  # the reference's steps per serial step
REACH = 1.25  # the reference's length, in serial lengths
COLUMNS = ("accepted", "refined", "failed", "rejected", "lost")
DISTANCES = ("miss_max", "miss_p99", "off_max")
# a distance is worse where it grew by more than this share of itself plus
# this length
SAME_REL, SAME_ABS = 1e-3, 1e-9
# _feet's segments per bounding box, and the most points of one run
BOX, RUN = 32, 64


def _pairs(points: np.ndarray, a: np.ndarray, d: np.ndarray,
           dd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, t) of each row of points against each segment a[s] -> a[s] +
    d[s] with dd[s] = d[s].d[s]: the squared distance to the segment and
    the parameter in [0, 1] of the foot, as (points, segments) arrays. A
    pair's numbers do not depend on which other rows and segments are
    given."""
    p = points[:, None, :] - a  # (points, segments, dim)
    t = np.einsum("csj,sj->cs", p, d)
    t = np.divide(t, dd, out=np.zeros_like(t), where=dd > 0)
    np.clip(t, 0.0, 1.0, out=t)
    p -= t[..., None] * d
    return np.einsum("csj,csj->cs", p, p), t


def _feet(points: np.ndarray, path: np.ndarray, first: int = 0,
          chunk_values: int = 1 << 21):
    """For each row of points, its distance to the polyline through the
    rows path[first:], the index k of the nearest segment
    path[k] -> path[k + 1] and the parameter t in [0, 1] of the foot on
    it; of several nearest segments, the first. A path of one row is a
    point (k = first, t = 0).

    The result is that of scanning every segment, but only the segments
    that can be nearest are scanned. The points go in runs of consecutive
    rows, each run spanning about BOX segments where points and path follow
    one arc. The squared distances from a run's points to the path's
    vertices near where the run before it ended bound, from above, those to
    their nearest segments. The path's segments go in boxes of BOX
    consecutive ones, and a box whose bounding box lies farther than that
    bound from the run's bounding box holds no nearest segment: the run
    scans the segments of every other box, in index order. The bound is
    widened by 1e-10 of the largest squared norm of a row, far more than
    the rounding of any of these distances. chunk_values caps the values
    of one scan's (points, segments, dim) array."""
    path = path[first:]
    if len(path) == 1:
        path = np.vstack([path, path])
    a, d = path[:-1], np.diff(path, axis=0)
    dd = np.einsum("ij,ij->i", d, d)
    n_seg, dim = a.shape
    starts = np.arange(0, n_seg, BOX)
    box_lo = np.minimum.reduceat(np.minimum(path[:-1], path[1:]), starts)
    box_hi = np.maximum.reduceat(np.maximum(path[:-1], path[1:]), starts)
    scale = max(float(np.max(np.einsum("ij,ij->i", rows, rows)))
                for rows in (path, points) if len(rows))
    run = max(1, min(RUN, BOX * len(points) // n_seg))
    ahead = -(-run * n_seg // max(1, len(points)))  # segments a run spans
    dist = np.empty(len(points))
    seg = np.empty(len(points), dtype=int)
    feet = np.empty(len(points))
    k = 0  # the nearest segment of the last point of the run before
    for i in range(0, len(points), run):
        x = points[i:i + run]
        v = path[max(0, k - BOX):k + ahead + BOX + 1]
        diff = x[:, None, :] - v
        bound = float(np.einsum("cvj,cvj->cv", diff, diff).min(axis=1).max())
        gap = np.maximum(box_lo - x.max(axis=0), x.min(axis=0) - box_hi)
        np.maximum(gap, 0.0, out=gap)
        near = np.einsum("bj,bj->b", gap, gap) <= bound + 1e-10 * (scale
                                                                  + bound)
        segs = (starts[near, None] + np.arange(BOX)).ravel()
        segs = segs[segs < n_seg]
        step = max(1, chunk_values // (len(segs) * dim))
        for j in range(0, len(x), step):
            r, t = _pairs(x[j:j + step], a[segs], d[segs], dd[segs])
            best = r.argmin(axis=1)
            rows = np.arange(len(best))
            out = slice(i + j, i + j + len(best))
            dist[out] = np.sqrt(r[rows, best])
            seg[out] = segs[best]
            feet[out] = t[rows, best]
        k = int(seg[i + len(x) - 1])
    return dist, seg + first, feet


def polyline_distance(points, path) -> np.ndarray:
    """The Euclidean distance from each row of points to the polyline
    through the rows of path, in order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _feet(points, np.atleast_2d(np.asarray(path, dtype=float)))[0]


def clip(path: np.ndarray, point: np.ndarray, first: int = 0
         ) -> np.ndarray:
    """path up to the foot of point on it, the nearest point of the
    polyline through path[first:]: the rows before that segment's end,
    then the foot."""
    _, (k,), (t,) = _feet(point[None], path, first)
    if k + 1 == len(path):  # a path of one row
        return path
    return np.vstack([path[:k + 1], path[k] + t * (path[k + 1] - path[k])])


def metric_rows(points, psi: float, load_norm_sq: float) -> np.ndarray:
    """One row (u, c lambda) per point, c = psi sqrt(P.P): the method's
    metric is the Euclidean distance between rows."""
    c = psi * math.sqrt(load_norm_sq)
    return np.array([np.append(w.u, c * w.lam) for w in points])


def reference(problem, config, start, w_prev, delta_L: float,
              length: float) -> tuple[list, list[float]]:
    """The points and arc lengths of a serial run from start along
    start - w_prev, in steps of delta_L until its arc length reaches
    length, a step fails, or it has taken twice the steps that length
    needs. A map of a revision before protocol 9 (`--base`) gives its
    primary branch's start no w_prev, and that revision's alm.step starts
    cold where it is given None."""
    from apalm import alm
    points, ss = [start], [0.0]
    dw = None if w_prev is None else alm.increment_between(start, w_prev)
    for _ in range(2 * math.ceil(length / delta_L)):
        if ss[-1] >= length:
            break
        try:
            res = alm.step(problem, config, points[-1], dw, delta_L)
        except alm.StepError:
            break
        points.append(res.w_new)
        ss.append(ss[-1] + res.achieved_length)
        dw = res.dw
    return points, ss


def branch_quality(problem, config, engine, m) -> dict:
    """The distances of one branch's map m to its reference, over the arc
    both cover, and its start point."""
    from apalm import alm
    psi, ptp = config.psi, problem.load_norm_sq
    entries = [m.lookup(xi) for xi in m.xi_keys()]
    serial = [e.w for e in entries if e.level == 0]
    # the serial length, less the little by which chords fall short of it
    chords = sum(alm.point_distance(b, a, psi, ptp)
                 for a, b in zip(serial, serial[1:]))
    ref_points, ss = reference(problem, config, entries[0].w,
                               entries[0].w_prev, engine.delta_L / REFINE,
                               REACH * chords)
    cloud = metric_rows([e.w for e in entries], psi, ptp)
    ref = metric_rows(ref_points, psi, ptp)
    if ss[-1] < REACH * chords:  # the reference stopped short
        cloud = clip(cloud, ref[-1])
    # the cloud ends at its last serial point, about `chords` along the
    # reference: its foot is sought past half of that, so that a curve
    # that comes back near its end does not cut the reference short
    half = min(int(np.searchsorted(ss, chords / 2)), len(ref) - 1)
    ref = clip(ref, cloud[-1], first=half)
    miss = polyline_distance(ref, cloud)
    return {"start": [*map(float, entries[0].w.u), float(entries[0].w.lam)],
            "miss_max": float(miss.max()),
            "miss_p99": float(np.percentile(miss, 99)),
            "off_max": float(polyline_distance(cloud, ref).max())}


def quality(runs: dict) -> dict:
    """{name: [one dict per branch]} of each (problem, AlmConfig,
    EngineConfig) in runs, by name: branch_quality's numbers, the
    branch's jobs by outcome and its points."""
    from apalm.engine import aalm
    out = {}
    for name, (p, cfg, eng) in runs.items():
        state = aalm(p, cfg, eng)
        out[name] = []
        for b in sorted(state.maps):
            jobs = Counter(r.outcome for r in state.stats.records
                           if r.job.branch == b)
            row = branch_quality(p, cfg, eng, state.maps[b])
            row.update(branch=b, points=len(state.maps[b]),
                       jobs=[jobs[c] for c in COLUMNS])
            out[name].append(row)
    return out


def same_start(a: list, b: list) -> bool:
    return len(a) == len(b) and np.allclose(a, b, rtol=1e-9, atol=1e-12)


def verdict(row: dict, base: dict | None) -> str:
    if base is None:
        return "NO MATCH"
    if all(row[k] == base[k] for k in (*DISTANCES, "points", "jobs")):
        return "equal"
    if all(row[k] <= base[k] * (1 + SAME_REL) + SAME_ABS for k in DISTANCES):
        return "no worse"
    return "WORSE"


def line(label: str, name: str, row: dict) -> str:
    return (f"{label:<8} {name:<22} b{row['branch']} lam0 "
            f"{row['start'][-1]:<+9.4g} jobs "
            + "/".join(map(str, row["jobs"]))
            + f"  points {row['points']:>5}  miss {row['miss_max']:.3e} "
            f"p99 {row['miss_p99']:.3e}  off {row['off_max']:.3e}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="CONFIG",
                        help="configs to run (default: all)")
    parser.add_argument("--base", metavar="REV",
                        help="also run at this git revision and compare")
    parser.add_argument("--json", action="store_true",
                        help="print the numbers as one JSON object")
    parser.add_argument("--src", default=str(bits.ROOT / "src"),
                        help="the source tree to run (default: this "
                        "checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    runs = bits.configs()
    unknown = sorted(set(args.names) - set(runs))
    if unknown:
        parser.error(f"unknown config {', '.join(unknown)}; the configs are "
                     f"{', '.join(runs)}")
    names = args.names or list(runs)
    here = quality({name: runs[name] for name in names})
    if args.json:
        print(json.dumps(here))
        return 0
    base = bits.run_at(args.base, __file__, names) if args.base else None
    ok = True
    print("jobs: " + "/".join(COLUMNS) + "; distances in the method's metric")
    for name in names:
        for row in here[name]:
            if base is None:
                print(line("here", name, row))
                continue
            match = next((b for b in base[name]
                          if same_start(b["start"], row["start"])), None)
            mark = verdict(row, match)
            ok &= mark in ("equal", "no worse")
            if match is not None:
                print(line(args.base, name, match))
            print(line("here", name, row) + "  " + mark)
        for row in base[name] if base else []:
            if not any(same_start(row["start"], r["start"])
                       for r in here[name]):
                ok = False
                print(line(args.base, name, row) + "  NO MATCH here")
    return 0 if ok else 1


if __name__ == "__main__":
    import logging
    logging.disable(logging.WARNING)  # the runs' warnings are not compared
    sys.exit(main())
