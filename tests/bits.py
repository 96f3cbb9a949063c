"""Bit-identity check of the program's output across transports and
revisions.

    python tests/bits.py [CONFIG ...] [--base REV]

Runs each named config (all of them by default) under `aalm`, 3 thread
workers, 3 process workers and 1 process worker, and prints one hash per
config and transport; with one worker, the manager is the only solver
while worker 0 steps the serial phase. A hash covers three parts: the
`collect()` rows, the records sorted by (branch, xi_lo, xi_hi) without
job ids, and `.summary.json` without its two timings, all bit for bit.
Each part is hashed on its own as well, and where a config's hashes
differ, a line after its own names each part as equal or differing. With
`--base REV` the same configs also run against REV, exported with
`git archive` into a temporary directory outside the checkout and removed
afterwards; nothing is written under `.git`, so no worktree or lock is
left if the run is killed; the base's run is this script, so both sides
hash the same parts. Exits 1 if any hash of a config differs from
another, 0 if all are equal.

The tests import `row_bits`, `record_bits`, `summary_without_timings`,
`twin_problem` and `NOISE_FLOOR_CONFIGS` from here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

# apalm is imported inside the functions: run as a script, main() first
# puts the source tree named by --src on sys.path.
ROOT = Path(__file__).resolve().parents[1]
TRANSPORTS = ("aalm", "thread3", "process3", "process1")
WORKERS = {"thread3": ("thread", 3), "process3": ("process", 3),
           "process1": ("process", 1)}

# Configs whose finest intervals reach the Newton noise floor, where some
# fine paths no longer fit their parent (cubic1d, psi = 1, newton_tol 1e-10).
NOISE_FLOOR_CONFIGS = [  # (steps, delta_L, tol, max_level)
    (50, 0.12, 1e-4, 5),
    (15, 0.4, 1e-6, 5),
    (15, 0.4, 1e-4, 8),
    (400, 0.015, 1e-6, 5),
]


def row_bits(rows):
    return [(b, xi.hex(), s.hex(), level, w.u.tobytes(), w.lam.hex())
            for b, xi, s, level, w in rows]


def record_bits(state):
    """Every record but its job id, bitwise, in (branch, xi_lo, xi_hi)
    order; that key is unique among a run's settled jobs. A job of a
    revision before protocol 7 has no w_end, which hashes as None."""
    def point(w):
        return None if w is None else (w.u.tobytes(), float(w.lam).hex())

    out = []
    for r in sorted(state.stats.records, key=lambda r: (
            r.job.branch, r.job.xi_lo, r.job.xi_hi)):
        j = r.job
        out.append((j.branch, j.xi_lo.hex(), j.xi_hi.hex(),
                    j.delta_L0.hex(), j.level, j.N, point(j.w_start),
                    point(j.w_prev), point(getattr(j, "w_end", None)),
                    r.outcome,
                    r.measured and [float(x).hex() for x in r.measured],
                    r.children, r.message))
    return out


def summary_without_timings(state, path):
    from apalm import io as apio
    apio.write_summary(state, str(path))
    summary = json.loads(Path(path).read_text())
    del summary["serial_time_s"], summary["queue_time_s"]
    return summary


def twin_problem():
    """G = u^3 + (lam - 1)(lam - 1.1) u: the trivial path u = 0, and a
    closed loop u^2 = (lam - 1)(1.1 - lam) that joins bifurcations at
    lam = 1 and 1.1."""
    import numpy as np
    from apalm.problems import ProblemDef
    return ProblemDef(
        n_dof=1,
        residual_fn=lambda u, lam: u**3 + (lam - 1.0) * (lam - 1.1) * u,
        jacobian_u_fn=lambda u, lam: np.array(
            [[3.0 * u[0]**2 + (lam - 1.0) * (lam - 1.1)]]),
        jacobian_lambda_fn=lambda u, lam: (2.0 * lam - 2.1) * u,
        load_norm_sq=1.0, name="twin")


def configs() -> dict:
    """Every config by name, as (problem, AlmConfig, EngineConfig)."""
    from apalm.alm import AlmConfig
    from apalm.config import parse_config
    from apalm.engine import EngineConfig
    from apalm.problems import make_builtin

    def crisfield(psi=1.0, tol=1e-10):
        return AlmConfig(constraint="crisfield", psi=psi, newton_tol=tol)

    seeded = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))[
        "seeded_config"]
    out = {}
    for workload in ("chain-serial", "chain-proc"):
        for seed in range(1, 5):
            cfg = parse_config(json.dumps(seeded(workload, seed)))
            out[f"{workload}-s{seed}"] = (
                make_builtin(cfg.problem_name, **cfg.problem_params),
                cfg.alm, cfg.engine)
    cubic, linear = make_builtin("cubic1d"), make_builtin("linear1d")
    cubic_eng = EngineConfig(delta_L=0.4, steps=15, tol_lower=1e-2,
                             tol_upper=1e-2)
    out.update({
        "acc-cubic-psi0": (cubic, crisfield(0.0), cubic_eng),
        "acc-cubic-psi1": (cubic, crisfield(), cubic_eng),
        "acc-cubic-psi1-tight": (cubic, crisfield(), EngineConfig(
            delta_L=0.4, steps=15, tol_lower=1e-4, tol_upper=1e-4)),
        "acc-linear-psi0": (linear, crisfield(0.0),
                            EngineConfig(delta_L=1.0, steps=5)),
        "acc-linear-psi1": (linear, crisfield(),
                            EngineConfig(delta_L=1.0, steps=5)),
        "acc-pitchfork": (make_builtin("pitchfork"), crisfield(tol=1e-12),
                          EngineConfig(delta_L=0.3, steps=6,
                                       bifurcation_enabled=True)),
        "acc-chain-n64": (make_builtin("springchain", n=64), crisfield(),
                          EngineConfig(delta_L=0.4, steps=64, tol_lower=1e-2,
                                       tol_upper=1e-2, max_level=3)),
    })
    for i, (steps, delta_L, tol, max_level) in enumerate(NOISE_FLOOR_CONFIGS):
        out[f"noise-floor-{i}"] = (cubic, crisfield(), EngineConfig(
            delta_L=delta_L, steps=steps, tol_lower=tol, tol_upper=tol,
            max_level=max_level))
    out["riks-chain-n16"] = (
        make_builtin("springchain", n=16),
        AlmConfig(constraint="riks", psi=1.0, newton_tol=1e-10),
        EngineConfig(delta_L=0.4, steps=32, max_level=3))
    out["twin"] = (twin_problem(), crisfield(), EngineConfig(
        delta_L=0.03, steps=70, bifurcation_enabled=True, tol_lower=1e-2,
        tol_upper=1e-2, max_level=3))
    return out


PARTS = ("rows", "records", "summary")


def digests(state, scratch: Path) -> tuple[str, dict]:
    """The hash of the run's whole output, and {part: hash} of each of
    PARTS."""
    parts = dict(zip(PARTS, (
        repr(row_bits(state.collect())).encode(),
        repr(record_bits(state)).encode(),
        json.dumps(summary_without_timings(state, scratch / "run.json"),
                   sort_keys=True).encode())))
    return (hashlib.sha256(b"".join(parts.values())).hexdigest()[:16],
            {k: hashlib.sha256(v).hexdigest()[:16] for k, v in parts.items()})


def hashes(runs: dict) -> dict:
    """{name: {"jobs": aalm's job count, transport: hash, "parts": {part:
    {transport: hash}}}} of each (problem, AlmConfig, EngineConfig) in
    runs, by name."""
    from apalm.engine import aalm
    from apalm.runtime import apalm

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (p, cfg, eng) in runs.items():
            states = {"aalm": aalm(p, cfg, eng)}
            for label, (transport, count) in WORKERS.items():
                states[label] = apalm(p, cfg, eng, worker_count=count,
                                      transport=transport)
            row = out[name] = {"jobs": states["aalm"].stats.jobs_done,
                               "parts": {part: {} for part in PARTS}}
            for t, s in states.items():
                row[t], parts = digests(s, Path(tmp))
                for part, h in parts.items():
                    row["parts"][part][t] = h
    return out


def base_hashes(rev: str, names: list[str]) -> dict:
    """hashes(names) at git revision rev, run by this script in a fresh
    interpreter against rev's files, exported by `git archive`."""
    return run_at(rev, __file__, names)


def run_at(rev: str, script: str, names: list[str]) -> dict:
    """What `script --json` prints for names, run in a fresh interpreter
    against the source of git revision rev, exported by `git archive`
    into a temporary directory that is removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        archive, tree = Path(tmp) / "base.tar", Path(tmp) / "base"
        tree.mkdir()
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                        f"--output={archive}", rev], check=True)
        subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)],
                       check=True)
        proc = subprocess.run(
            [sys.executable, script, "--json", "--src", str(tree / "src"),
             *names], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"the run at {rev} exited {proc.returncode}")
    return json.loads(proc.stdout)


def line(label: str, name: str, row: dict) -> str:
    return (f"{label:<8} {name:<22} jobs {row['jobs']:>5}  "
            + "  ".join(f"{t} {row[t]}" for t in TRANSPORTS))


def parts_line(name: str, rows: list[dict]) -> str:
    """Which of PARTS differ among rows, across transports and sides."""
    return f"{'parts':<8} {name:<22} " + "  ".join(
        f"{part} " + ("equal" if len({h for row in rows for h in
                                      row["parts"][part].values()}) == 1
                      else "DIFFER")
        for part in PARTS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="CONFIG",
                        help="configs to run (default: all)")
    parser.add_argument("--base", metavar="REV",
                        help="also run at this git revision and compare")
    parser.add_argument("--json", action="store_true",
                        help="print the hashes as one JSON object")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree to run (default: this "
                        "checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    runs = configs()
    unknown = sorted(set(args.names) - set(runs))
    if unknown:
        parser.error(f"unknown config {', '.join(unknown)}; the configs are "
                     f"{', '.join(runs)}")
    names = args.names or list(runs)
    here = hashes({name: runs[name] for name in names})
    if args.json:
        print(json.dumps(here))
        return 0
    base = base_hashes(args.base, names) if args.base else {}
    ok = True
    for name in names:
        rows = [here[name], *([base[name]] if base else [])]
        equal = len({row[t] for row in rows for t in TRANSPORTS}) == 1 \
            and len({row["jobs"] for row in rows}) == 1
        ok &= equal
        if base:
            print(line(args.base, name, base[name]))
        print(line("here", name, here[name]) + "  "
              + ("equal" if equal else "MISMATCH"))
        if not equal:
            print(parts_line(name, rows))
    return 0 if ok else 1


if __name__ == "__main__":
    import logging
    logging.disable(logging.WARNING)  # the runs' warnings are in the hashes
    sys.exit(main())
