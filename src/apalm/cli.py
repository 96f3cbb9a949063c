"""Command-line entry points: run and compare."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import io as apio
from .config import ConfigError, load_config
from .engine import SerialSolveError


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def _parse_worker_list(text: str) -> list[int]:
    try:
        counts = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("worker counts must be integers")
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError("worker counts must be >= 1")
    return counts


def _unwritable(out: str) -> bool:
    """Whether out cannot be written as an output file, said in one line
    on stderr if so; creates nothing. A trailing separator is checked on
    the string, as Path(out) drops it."""
    path = Path(out)
    if path.is_dir():
        reason = "it is a directory"
    elif out.endswith((os.sep, os.altsep or os.sep)):
        reason = "it ends in a path separator"
    elif not path.parent.is_dir():
        reason = f"{path.parent} is not a directory"
    elif not os.access(path.parent, os.W_OK | os.X_OK) or (
            path.exists() and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return False
    print(f"error: cannot write {out}: {reason}", file=sys.stderr)
    return True


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = args.output or cfg.output
    # refused before the run, not after it; out first, as "." or "/" has
    # no name that with_suffix could extend
    if out and (_unwritable(out) or _unwritable(
            summary := str(Path(out).with_suffix(".summary.json")))):
        return 2
    state = apio.run_from_config(cfg, workers=args.workers)
    if out:
        apio.write_csv(state.collect(), out,
                       observable_index=cfg.observable_index)
        apio.write_summary(state, summary)
        print(f"wrote {out}")
    else:
        points = sum(len(m) for m in state.maps.values())
        print(f"{points} points on {len(state.maps)} branch(es), "
              f"{state.stats.jobs_done} jobs "
              f"(serial {state.stats.serial_time:.3f}s, "
              f"queue {state.stats.queue_time:.3f}s)")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    counts = args.workers
    if len(counts) != 2:
        print("compare needs exactly two worker counts", file=sys.stderr)
        return 2
    run_a = apio.run_from_config(cfg, workers=counts[0]).collect()
    run_b = apio.run_from_config(cfg, workers=counts[1]).collect()
    report = apio.compare(run_a, run_b)
    print(json.dumps({
        "workers": counts,
        "keys_match": report.keys_match,
        "missing_keys": [list(k) for k in report.missing_keys],
        "extra_keys": [list(k) for k in report.extra_keys],
        "mismatched_keys": [list(k) for k in report.mismatched_keys],
        "ok": report.ok(),
    }, indent=2))
    return 0 if report.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apalm",
        description="Adaptive (parallel) arc-length continuation runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configuration")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=_positive_int, default=None)
    p_run.add_argument("--output", default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="compare two worker counts for determinism")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--workers", type=_parse_worker_list, required=True,
                       help="two counts, e.g. 1,4")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SerialSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
