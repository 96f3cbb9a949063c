"""tests/curve.py, the curve-quality script: its polyline distance on
paths with a closed form, its clipping, its metric, and its verdicts."""

import math

import numpy as np
import pytest

import bits
import curve
from apalm import alm
from apalm.problems import SolutionPoint


def polygon(k, turns=1.0):
    """The k + 1 corners of a regular k-gon inscribed in the unit circle,
    the first repeated at the end when turns is 1."""
    angles = 2 * math.pi * turns * np.arange(k + 1) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("k", [3, 4, 7, 64])
def test_polyline_distance_to_an_inscribed_polygon(k):
    # the circle's points at the middle of each edge's arc lie the edge's
    # sagitta, 1 - cos(pi / k), from the polygon; the centre lies
    # cos(pi / k) from every edge; and each corner lies on it
    mid = 2 * math.pi * (np.arange(k) + 0.5) / k
    on_circle = np.column_stack([np.cos(mid), np.sin(mid)])
    sagitta = curve.polyline_distance(on_circle, polygon(k))
    assert sagitta == pytest.approx(np.full(k, 1 - math.cos(math.pi / k)),
                                    rel=1e-12, abs=1e-15)
    assert curve.polyline_distance([0.0, 0.0], polygon(k)) == pytest.approx(
        [math.cos(math.pi / k)], rel=1e-12)
    assert curve.polyline_distance(polygon(k), polygon(k)) == pytest.approx(
        np.zeros(k + 1), abs=1e-15)


def test_polyline_distance_past_the_ends_is_to_the_end_points():
    path = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    points = [[-3.0, 4.0], [4.0, 5.0], [0.5, -0.25], [0.5, 0.25]]
    assert curve.polyline_distance(points, path) == pytest.approx(
        [5.0, 5.0, 0.25, 0.25], rel=1e-15)
    # a path of one row is a point
    assert curve.polyline_distance(points[:1], path[:1]) == \
        pytest.approx([5.0])


def brute_feet(points, path, first=0):
    """_feet as every segment is scanned: the whole (points, segments)
    table and its first minimum in each row."""
    path = path[first:]
    if len(path) == 1:
        path = np.vstack([path, path])
    d = np.diff(path, axis=0)
    r, t = curve._pairs(points, path[:-1], d, np.einsum("ij,ij->i", d, d))
    k = r.argmin(axis=1)
    rows = np.arange(len(k))
    return np.sqrt(r[rows, k]), k + first, t[rows, k]


def assert_feet_as_brute(points, path, first=0, **kw):
    for got, want in zip(curve._feet(points, path, first, **kw),
                         brute_feet(points, path, first)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(40))
def test_feet_match_the_full_scan_on_random_polylines(seed):
    """Random walks and points scattered along them, in 1 to 40
    dimensions, with paths of up to 300 rows: 10 times the box, so that
    most boxes are skipped; also sought from a later row, and with
    scattered points that lie near no stretch of the path."""
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([1, 2, 3, 40]))
    path = np.cumsum(rng.normal(size=(int(rng.integers(1, 300)), dim)),
                     axis=0)
    near = np.repeat(path, 3, axis=0) + 1e-2 * rng.normal(
        size=(3 * len(path), dim))
    for points in (near, near[::-7], rng.normal(size=(50, dim)) * 5):
        assert_feet_as_brute(points, path)
        assert_feet_as_brute(points, path, int(rng.integers(len(path))))
    assert_feet_as_brute(near, path, chunk_values=1)


def test_feet_match_the_full_scan_where_the_path_folds_back():
    """A path that runs out along a line and back along it, 1e-9 apart,
    and one that then runs out again: a point's nearest segment may lie on
    any leg, far along the path from the last one's, and the first of
    exact ties is taken, as the full scan takes it."""
    rng = np.random.default_rng(1)
    out = np.linspace(0.0, 1.0, 200)
    for legs in ([out, out[::-1]], [out, out[::-1], out]):
        s = np.concatenate(legs)
        path = np.column_stack([s, 1e-9 * (np.arange(len(s)) % 3)])
        points = np.column_stack([rng.uniform(-0.1, 1.1, 500),
                                  rng.normal(size=500) * 1e-9])
        assert_feet_as_brute(points, path)
        assert_feet_as_brute(path, path)
        assert_feet_as_brute(points[::-1], path, 150)
    # a square walked twice: each corner is nearest to two segments twice
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]] * 2
                      + [[0.0, 0.0]])
    assert_feet_as_brute(np.vstack([square, [[0.5, 0.5]]]), square)


def test_chunks_change_no_distance():
    rng = np.random.default_rng(0)
    points, path = rng.normal(size=(50, 5)), rng.normal(size=(20, 5))
    whole = curve._feet(points, path)
    for values in (1, 95, 1000):
        parts = curve._feet(points, path, chunk_values=values)
        for a, b in zip(whole, parts):
            assert np.array_equal(a, b)


def test_clip_ends_at_the_foot():
    path = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(curve.clip(path, np.array([1.5, 7.0])),
                          [[0.0, 0.0], [1.0, 0.0], [1.5, 0.0]])
    assert np.array_equal(curve.clip(path, np.array([9.0, 1.0])), path)
    # sought from a later row, a point nearest an earlier one clips there
    loop = polygon(8)
    near_start = np.array([1.01, 0.0])
    assert len(curve.clip(loop, near_start)) == 2
    assert np.allclose(curve.clip(loop, near_start, first=4), loop,
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("psi", [0.0, 1.0, 0.3])
def test_metric_rows_measure_as_point_distance(psi):
    a = SolutionPoint(np.array([0.5, -1.0, 2.0]), 0.25)
    b = SolutionPoint(np.array([1.5, 0.0, 1.0]), -0.75)
    rows = curve.metric_rows([a, b], psi, 3.0)
    assert np.linalg.norm(rows[1] - rows[0]) == pytest.approx(
        alm.point_distance(b, a, psi, 3.0), rel=1e-15)


def test_reference_covers_the_straight_path():
    # linear1d's path is the line u = lambda: a reference along it is a
    # cloud of its own, which misses nothing
    from apalm.engine import aalm
    from apalm.problems import make_builtin
    p, cfg, eng = bits.configs()["acc-linear-psi1"]
    state = aalm(p, cfg, eng)
    row = curve.branch_quality(p, cfg, eng, state.maps[0])
    assert max(row[k] for k in curve.DISTANCES) < 1e-12
    # steps of 0.25 until the length reaches 0.9: four of them
    points, ss = curve.reference(make_builtin("linear1d"), cfg,
                                 SolutionPoint(np.zeros(1), 0.0),
                                 SolutionPoint(-np.ones(1), -1.0), 0.25, 0.9)
    assert len(points) == 5 and ss[-1] == pytest.approx(1.0)
    assert points[-1].u[0] == pytest.approx(math.sqrt(0.5))


def fake_quality(runs, grow=0.0, start=0.0):
    return {name: [{"branch": 0, "start": [0.0, start],
                    "jobs": [5, 0, 0, 0, 0], "points": 11,
                    "miss_max": 1e-3 + grow, "miss_p99": 1e-4,
                    "off_max": 1e-5}]
            for name in runs}


@pytest.mark.parametrize("grow,start,mark,code", [
    (0.0, 0.0, "equal", 0), (-1e-4, 0.0, "no worse", 0),
    (1e-10, 0.0, "no worse", 0), (1e-5, 0.0, "WORSE", 1),
    (0.0, 1.0, "NO MATCH", 1)],
    ids=["equal", "better", "within-rounding", "worse", "no-match"])
def test_verdicts(monkeypatch, capsys, grow, start, mark, code):
    monkeypatch.setattr(curve, "quality", fake_quality)
    monkeypatch.setattr(bits, "run_at", lambda rev, script, names:
                        fake_quality(names, grow=-grow, start=start))
    assert curve.main(["--base", "REV", "acc-linear-psi0"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("here ") and line.endswith(mark)
               for line in lines)
