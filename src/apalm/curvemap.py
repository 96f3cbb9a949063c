"""Per-branch discrete curve maps: xi <-> s <-> (w, w_prev, level).

The parametric coordinate xi is the stable key: jobs reference entries by
their exact stored xi value, never by approximate comparison. Each entry
stores ds, the arc length from the previous key (0 at the branch start);
the curve-length coordinate s is the running sum of ds in xi order, formed
by `collect`. An insertion into an interval changes only that interval's
new points and the ds of its end, so neither xi nor s depends on the order
in which intervals are inserted. The map only stores points and keeps
their geometry; which sub-intervals to queue is the engine's decision.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .problems import SolutionPoint


class CurveStructureError(RuntimeError):
    """An insertion would violate the map's monotonicity invariants."""


class LookupError_(KeyError):
    """Requested xi is not a stored key."""


@dataclass
class CurveEntry:
    xi: float
    ds: float  # arc length from the previous key; 0 at the branch start
    w: SolutionPoint
    w_prev: SolutionPoint
    level: int


class CurveMap:
    """Ordered map of CurveEntry keyed by exact xi, for one branch."""

    def __init__(self, branch: int = 0):
        self.branch = branch
        self._entries: dict[float, CurveEntry] = {}
        self._keys: list[float] = []
        self.ds_floor = 0.0  # an insertion stores no ds at or below it

    # -- construction ------------------------------------------------------

    @classmethod
    def from_serial(cls, branch: int, solutions: list[SolutionPoint],
                    s_coords: list[float], w_prev0: SolutionPoint
                    ) -> "CurveMap":
        """Initialize from the serial solve: xi_i = s_i / s_I, level 0.

        w_prev0 is the branch start's virtual predecessor: the start minus
        the direction of the branch's first step, which the first
        interval's predictor follows. ds_floor becomes 4 ulps of s_I: a ds
        above it advances s in collect() while s stays below 8 s_I, and it
        is fixed before any job runs, so a refusal does not depend on the
        order in which intervals are inserted.
        """
        if len(solutions) != len(s_coords):
            raise CurveStructureError("solutions and s_coords length mismatch")
        if len(solutions) < 1:
            raise CurveStructureError("need at least one solution")
        if s_coords[0] != 0.0:
            raise CurveStructureError("s_coords must start at 0")
        m = cls(branch)
        s_total = s_coords[-1]
        m.ds_floor = 4.0 * math.ulp(s_total)
        for i, (w, s) in enumerate(zip(solutions, s_coords)):
            xi = s / s_total if s_total > 0 else 0.0
            ds = s - s_coords[i - 1] if i > 0 else 0.0
            w_prev = solutions[i - 1] if i > 0 else w_prev0
            m._keys.append(xi)
            m._entries[xi] = CurveEntry(xi=xi, ds=ds, w=w, w_prev=w_prev,
                                        level=0)
        m.validate_monotone()
        return m

    # -- access ------------------------------------------------------------

    def lookup(self, xi: float) -> CurveEntry:
        try:
            return self._entries[xi]
        except KeyError:
            raise LookupError_(f"xi={xi!r} is not a stored key") from None

    def xi_keys(self) -> list[float]:
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def collect(self) -> list[tuple[int, float, float, int, SolutionPoint]]:
        """All entries as (branch, xi, s, level, w), sorted by xi."""
        rows = []
        s = 0.0
        for k in self._keys:
            e = self._entries[k]
            s += e.ds
            rows.append((self.branch, k, s, e.level, e.w))
        return rows

    def validate_monotone(self) -> None:
        """Raise unless xi strictly increases and every ds after the first
        entry is positive."""
        for a, b in zip(self._keys, self._keys[1:]):
            if not (a < b and self._entries[b].ds > 0):
                raise CurveStructureError(f"monotonicity violated at xi={b!r}")

    # -- insertion ---------------------------------------------------------

    def insert_interior(self, xi_lo: float, xi_hi: float, level: int,
                        sols: list[SolutionPoint], dists: list[float]
                        ) -> None:
        """Store a converged interval's interior fine points at `level`;
        sols[k] ends fine step k, of length dists[k].

        Every fine point but the last gets xi by proportional rescaling of
        its distance within the parent's length hi.ds; the fine end-point is
        not stored, and hi.ds becomes what the stored distances leave of it.
        """
        width = self.lookup(xi_hi).ds
        self._insert(xi_lo, xi_hi, level, sols[:-1], dists[:-1], width,
                     width - sum(dists[:-1]))

    def insert_stretch(self, xi_lo: float, xi_hi: float, level: int,
                       sols: list[SolutionPoint], dists: list[float],
                       dl_close: float) -> list[float]:
        """Store all fine points; hi.ds becomes dl_close, the distance from
        the last fine point to hi.

        Fine xi values are assigned chord-length style with the fine length
        sum d_k + dl_close as denominator, so the last fine point stays
        strictly inside the parent. A closing distance below 1e-12 of the
        parent's length is degenerate: the fine end-point is then not stored
        and its distance goes to hi.ds. Returns the keys from lo.xi to
        hi.xi, so len(dists) + 2 of them if the fine end-point was stored.
        """
        total = sum(dists) + dl_close
        if dl_close <= 1e-12 * self.lookup(xi_hi).ds:
            sols, dists, dl_close = sols[:-1], dists[:-1], dists[-1] + dl_close
        return self._insert(xi_lo, xi_hi, level, sols, dists, total,
                            dl_close)

    def _insert(self, xi_lo: float, xi_hi: float, level: int,
                sols: list[SolutionPoint], dists: list[float], denom: float,
                closing: float) -> list[float]:
        """Store sols at `level` between the keys xi_lo and xi_hi; hi.ds
        becomes closing.

        Fine xi advance by (hi.xi - lo.xi) * d_k / denom. Every check runs
        before the map changes, so a CurveStructureError leaves it as it
        was. Returns the keys from lo.xi to hi.xi.
        """
        lo = self.lookup(xi_lo)
        hi = self.lookup(xi_hi)
        idx = bisect.bisect_right(self._keys, lo.xi)
        if self._keys[idx] != hi.xi:
            raise CurveStructureError(
                f"[{lo.xi!r}, {hi.xi!r}] is not between adjacent keys")
        span_xi = hi.xi - lo.xi
        keys = [lo.xi]
        for d in dists:
            keys.append(keys[-1] + span_xi * d / denom)
        keys.append(hi.xi)
        if not all(a < b for a, b in zip(keys, keys[1:])):
            raise CurveStructureError(
                f"fine xi not strictly inside [{lo.xi!r}, {hi.xi!r}]")
        if min([*dists, closing]) <= self.ds_floor:
            raise CurveStructureError(
                f"arc length at or below ds_floor inside "
                f"[{lo.xi!r}, {hi.xi!r}]")
        w_prev = lo.w
        for xi, d, w in zip(keys[1:], dists, sols):
            self._entries[xi] = CurveEntry(xi=xi, ds=d, w=w, w_prev=w_prev,
                                           level=level)
            w_prev = w
        self._keys[idx:idx] = keys[1:-1]
        hi.ds = closing
        return keys
