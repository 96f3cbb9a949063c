"""CSV/JSON outputs, determinism comparison, and a run from a config."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .engine import ACCEPTED, REFINED, QueueEngine
from .problems import SolutionPoint, make_builtin
from .runtime import apalm

# Above this many unknowns the CSV carries ||u|| plus one observable
# component instead of every component.
FULL_COMPONENT_LIMIT = 16


Row = tuple[int, float, float, int, SolutionPoint]


def write_csv(solutions: list[Row], path: str,
              observable_index: int = 0) -> None:
    """One row per point, ordered by (branch, xi), 17 significant digits."""
    if solutions:
        n_dof = solutions[0][4].n_dof
    else:
        n_dof = 0
    full = n_dof <= FULL_COMPONENT_LIMIT
    if full:
        u_cols = [f"u{i}" for i in range(n_dof)]
    else:
        u_cols = ["u_norm", f"u{observable_index}"]
    rows = sorted(solutions, key=lambda r: (r[0], r[1]))
    if full:
        u_rows = [w.u.tolist() for *_, w in rows]
    else:
        # ||u|| of every row in one stacked pass: np.vecdot takes each
        # row's u.u as np.linalg.norm's 1-D dot does, with the same bits
        U = np.array([w.u for *_, w in rows])
        u_rows = zip(np.sqrt(np.vecdot(U, U)).tolist(),
                     U[:, observable_index].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch", "xi", "s", "level", "lambda"] + u_cols)
        for (branch, xi, s, level, w), u_vals in zip(rows, u_rows):
            writer.writerow([branch, f"{xi:.17g}", f"{s:.17g}", level,
                             f"{w.lam:.17g}",
                             *(f"{v:.17g}" for v in u_vals)])


def read_csv(path: str) -> list[Row]:
    """Inverse of write_csv (full-component files only)."""
    rows: list[Row] = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        u_cols = [c for c in header if c.startswith("u")]
        if u_cols and u_cols[0] == "u_norm":
            raise ValueError("cannot reconstruct u from a norm-only file")
        for rec in reader:
            branch, xi, s, level, lam = rec[:5]
            u = np.array([float(v) for v in rec[5:]])
            rows.append((int(branch), float(xi), float(s), int(level),
                         SolutionPoint(u, float(lam))))
    return rows


def write_summary(state: QueueEngine, path: str) -> None:
    records = sorted(state.stats.records,
                     key=lambda r: (r.job.branch, r.job.xi_lo, r.job.xi_hi))
    levels = Counter(r.job.level for r in records
                     if r.outcome in (ACCEPTED, REFINED))
    summary = {
        "branches": len(state.maps),
        "points": sum(len(m) for m in state.maps.values()),
        "jobs_done": state.stats.jobs_done,
        "jobs_failed": state.stats.jobs_failed,
        "children_spawned": state.stats.children_spawned,
        "jobs_per_level": {str(k): v for k, v in sorted(levels.items())},
        "max_level": max((e[3] for m in state.maps.values()
                          for e in m.collect()), default=0),
        "serial_time_s": state.stats.serial_time,
        "queue_time_s": state.stats.queue_time,
        "warnings": [r.message for r in records if r.message],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class ComparisonReport:
    missing_keys: list[tuple[int, float]]
    extra_keys: list[tuple[int, float]]
    mismatched_keys: list[tuple[int, float]]

    @property
    def keys_match(self) -> bool:
        return not self.missing_keys and not self.extra_keys

    def ok(self) -> bool:
        return self.keys_match and not self.mismatched_keys


def compare(run_a: list[Row], run_b: list[Row]) -> ComparisonReport:
    """Match rows by (branch, xi); compare s, level, u and lambda bitwise."""
    def index(rows: list[Row]) -> dict:
        return {(branch, xi): (level,
                               np.concatenate(([s, w.lam], w.u)).tobytes())
                for branch, xi, s, level, w in rows}

    a, b = index(run_a), index(run_b)
    return ComparisonReport(
        missing_keys=sorted(set(a) - set(b)),
        extra_keys=sorted(set(b) - set(a)),
        mismatched_keys=sorted(k for k in set(a) & set(b) if a[k] != b[k]))


def run_from_config(cfg: RunConfig, workers: int | None = None) -> QueueEngine:
    problem = make_builtin(cfg.problem_name, **cfg.problem_params)
    n = cfg.workers if workers is None else workers
    return apalm(problem, cfg.alm, cfg.engine, worker_count=n,
                 transport=cfg.transport)
