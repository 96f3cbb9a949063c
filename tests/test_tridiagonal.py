"""The tridiagonal path of the arc-length layer: the O(n) kernels against
numpy's dense LAPACK calls, and LAPACK's dgttrf/dgttrs against the Python
reference elimination, bit for bit; the bordered solve near a singular K;
and whole runs of springchain against the same problem with a dense K."""

import ctypes
import os
import subprocess
import sys
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apalm import alm, tridiagonal
from apalm.alm import AlmConfig, null_vector
from apalm.engine import EngineConfig, aalm
from apalm.problems import ProblemDef, SolutionPoint, make_builtin
from apalm.runtime import apalm
from bits import record_bits, row_bits
from test_engine import KERNEL_RUNS, level_one_jobs, on_new_thread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def as_dense(p):
    """p with K given as the dense matrix that p.jacobian_u assembles."""
    return replace(p, tridiagonal_fn=None, jacobian_u_fn=lambda u, lam:
                   p.jacobian_u(SolutionPoint(u, lam)))


def dense(sub, diag, sup):
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


def random_tridiagonal(seed):
    """(sub, diag, sup, b) with n in [1, 40); a small diagonal forces row
    interchanges in about half the steps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    sub, sup = rng.normal(size=n - 1), rng.normal(size=n - 1)
    diag = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
    return sub, diag, sup, rng.normal(size=n)


def small_tridiagonal(n):
    """An n x n case with an interchange at every step: |sub| > |diag|."""
    sub = np.arange(1.0, n) + 2.0
    sup = -0.5 * np.arange(1.0, n)
    diag = 0.25 * np.arange(1.0, n + 1)
    return sub, diag, sup, np.linspace(-1.0, 1.0, n)


def solve_rows(solve, lu, *rows):
    """A copy of the solutions of K x = b for each of up to two b, written
    into lu's own rows and solved there in place, the one way a factor
    solves."""
    lu.b[:len(rows)] = rows
    return solve(lu, len(rows)).copy()


LAPACK = pytest.mark.skipif(tridiagonal.factor is tridiagonal.reference_factor,
                            reason="numpy's LAPACK exports no dgttrf/dgttrs")
PATHS = [pytest.param((tridiagonal.lapack_factor, tridiagonal.lapack_solve),
                      id="lapack", marks=LAPACK),
         pytest.param((tridiagonal.reference_factor,
                       tridiagonal.reference_solve), id="reference")]


class TestKernels:
    @pytest.mark.parametrize("seed", range(20))
    def test_solve_matches_lapack(self, seed):
        sub, diag, sup, b = random_tridiagonal(seed)
        lu = tridiagonal.factor(sub, diag, sup)
        [x] = solve_rows(tridiagonal.solve, lu, b)
        K = dense(sub, diag, sup)
        ref = np.linalg.solve(K, b)
        cond = np.linalg.cond(K)
        assert np.max(np.abs(x - ref)) <= 1e-14 * cond * np.max(np.abs(ref))
        assert np.allclose(tridiagonal.matvec(sub, diag, sup, x), K @ x)

    @LAPACK
    @pytest.mark.parametrize("case", [f"seed{s}" for s in range(20)]
                             + ["n1", "n2", "n3"])
    def test_lapack_and_reference_agree_bitwise(self, case):
        """dgttrf/dgttrs and the Python elimination give the same five
        factor fields and the same solution, bit for bit: the reference
        lists, as float64 and int64 arrays, are LAPACK's arrays."""
        if case.startswith("seed"):
            sub, diag, sup, b = random_tridiagonal(int(case[4:]))
        else:
            sub, diag, sup, b = small_tridiagonal(int(case[1:]))
        lu = tridiagonal.lapack_factor(sub, diag, sup)
        ref = tridiagonal.reference_factor(sub, diag, sup)
        n = len(diag)
        fields = ("dl", "d", "du", "du2", "ipiv")
        assert [len(getattr(ref, f)) for f in fields] == \
            [n - 1, n, n - 1, max(n - 2, 0), n]
        for f, dtype in zip(fields, [np.float64] * 4 + [np.int64]):
            a, r = getattr(lu, f), np.array(getattr(ref, f), dtype=dtype)
            assert (a.dtype, a.shape, a.tobytes()) == \
                (r.dtype, r.shape, r.tobytes())
        x = solve_rows(tridiagonal.lapack_solve, lu, b, b[::-1])
        assert x.tobytes() == solve_rows(tridiagonal.reference_solve, ref, b,
                                         b[::-1]).tobytes()

    @pytest.mark.parametrize("kernels", PATHS)
    @pytest.mark.parametrize("case", [f"seed{s}" for s in range(20)]
                             + ["n1", "n2", "n3"])
    def test_rows_solve_as_one_row_each(self, kernels, case):
        """Two right-hand sides in a factor's two rows, solved in one call,
        give the two one-row solutions bit for bit."""
        factor, solve = kernels
        if case.startswith("seed"):
            sub, diag, sup, b = random_tridiagonal(int(case[4:]))
        else:
            sub, diag, sup, b = small_tridiagonal(int(case[1:]))
        lu = factor(sub, diag, sup)
        rows = np.vstack([b, np.random.default_rng(len(b)).normal(
            size=len(b))])
        x = solve_rows(solve, lu, *rows)
        assert x.shape == (2, len(diag))
        for xi, bi in zip(x, rows):
            assert xi.tobytes() == solve_rows(solve, lu, bi)[0].tobytes()

    def test_cases_take_both_branches(self):
        """The parity cases interchange rows at some steps and not at
        others."""
        swaps, steps = 0, 0
        for seed in range(20):
            sub, diag, sup, _ = random_tridiagonal(seed)
            ipiv = np.array(tridiagonal.reference_factor(sub, diag, sup)
                            .ipiv[:-1], dtype=np.int64)
            swaps += int(np.sum(ipiv != np.arange(1, len(ipiv) + 1)))
            steps += len(ipiv)
        assert 0.2 * steps < swaps < 0.8 * steps
        lu = tridiagonal.reference_factor(*small_tridiagonal(3)[:3])
        assert lu.ipiv == [2, 3, 3]

    @pytest.mark.parametrize("sub,diag,sup", [
        ([], [0.0], []),
        ([1.0], [1.0, 1.0], [1.0]),
        ([0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 0.0]),
    ])
    def test_zero_pivot_raises(self, sub, diag, sup):
        for factor in {tridiagonal.factor, tridiagonal.reference_factor}:
            with pytest.raises(np.linalg.LinAlgError):
                factor(sub, diag, sup)

    @pytest.mark.parametrize("kernels", PATHS)
    def test_diagonals_left_unchanged(self, kernels):
        # springchain passes one off-diagonal array as both sub and sup
        n = 8
        off = np.full(n - 1, -0.5)
        diag = np.linspace(-2.0, 2.0, n) + 0.1
        keep = off.copy(), diag.copy()
        lu = kernels[0](off, diag, off)
        assert off.tobytes() == keep[0].tobytes()
        assert diag.tobytes() == keep[1].tobytes()
        b = np.ones(n)
        [x] = solve_rows(kernels[1], lu, b)
        assert b.tobytes() == np.ones(n).tobytes()
        assert np.allclose(tridiagonal.matvec(off, diag, off, x), b)

    @pytest.mark.parametrize("kernels", PATHS)
    def test_bad_lengths_refused(self, kernels):
        factor = kernels[0]
        with pytest.raises(ValueError):
            factor([1.0], [1.0, 2.0], [])
        with pytest.raises(ValueError):
            factor([], [], [])
        lu = factor([1.0], [3.0, 2.0], [1.0])
        # with an earlier factor, whose rows b it keeps, a scalar that
        # would broadcast is refused, and so is another n
        with pytest.raises(ValueError):
            factor(1.0, [3.0, 2.0], [1.0], lu)
        with pytest.raises(ValueError):
            factor([1.0, 1.0], [3.0, 2.0, 1.0], [1.0, 1.0], lu)
        with pytest.raises(ValueError):
            factor([], [3.0], [], lu)

    @pytest.mark.parametrize("kernels", PATHS)
    @pytest.mark.parametrize("order", ["swaps-then-none", "none-then-swaps"])
    def test_refactor_into_buffers_matches_fresh(self, kernels, order):
        """K2 factored into the arrays of K1's factor, and solved in that
        factor's own rows b, gives the bits of a fresh factor and solve of
        K2, where K2's elimination interchanges rows at every step and
        where it interchanges none, after a K1 of the other kind."""
        factor, solve = kernels
        n = 9
        swaps = small_tridiagonal(n)
        rng = np.random.default_rng(3)
        none = (rng.normal(size=n - 1), 4.0 + rng.uniform(size=n),
                rng.normal(size=n - 1), rng.normal(size=n))
        ref = tridiagonal.reference_factor
        assert list(ref(*swaps[:3]).ipiv[:-1]) == list(range(2, n + 1))
        assert list(ref(*none[:3]).ipiv) == list(range(1, n + 1))
        k1, k2 = (swaps, none) if order == "swaps-then-none" else \
            (none, swaps)
        lu = factor(*k1[:3])
        lu.b[...] = k1[3]
        solve(lu, 2)
        rows_k1 = lu.b
        lu = factor(*k2[:3], lu)
        assert lu.b is rows_k1
        fresh = factor(*k2[:3])
        for got, want in zip(lu[:5], fresh[:5]):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        b = k2[3]
        rows = np.vstack([b, -2.0 * b])
        lu.b[...] = rows
        x = solve(lu, 2)
        assert x.base is lu.b and x.shape == lu.b.shape
        assert lu.b.tobytes() == solve_rows(solve, fresh, *rows).tobytes()
        # one row solves that row alone, and leaves the second as it is
        lu.b[0], lu.b[1] = -b, rows[1]
        [x] = solve(lu, 1)
        assert x.base is lu.b
        assert lu.b[0].tobytes() == solve_rows(solve, fresh, -b).tobytes()
        assert lu.b[1].tobytes() == rows[1].tobytes()

    @pytest.mark.parametrize("kernels", PATHS)
    def test_new_factor_solves_in_given_rows(self, kernels):
        """A new factor given rows b, here one slot of a batch's
        (members, 2, n) array, keeps them, a refactor keeps them too, and
        they solve to the bits of a factor's own rows; the rows of another
        shape, dtype or layout, or read-only ones, are refused."""
        factor, solve = kernels
        n = 9
        sub, diag, sup, b = small_tridiagonal(n)
        slots = np.full((3, 2, n), np.nan)
        lu = factor(sub, diag, sup, None, slots[1])
        assert lu.b.base is slots and np.shares_memory(lu.b, slots[1])
        assert factor(sub, diag, sup, lu, slots[2]).b is lu.b
        want = solve_rows(solve, factor(sub, diag, sup), b, -b)
        assert solve_rows(solve, lu, b, -b).tobytes() == want.tobytes()
        assert slots[1].tobytes() == want.tobytes()
        assert np.isnan(slots[[0, 2]]).all()
        read_only = np.empty((2, n))
        read_only.flags.writeable = False
        for rows in (np.empty((2, n + 1)), np.empty((1, n)),
                     np.empty((2, n), dtype=np.float32),
                     np.empty((n, 2)).T, read_only):
            with pytest.raises(ValueError):
                factor(sub, diag, sup, None, rows)

    def test_zero_pivot_reads_singular(self):
        # eigenvalues +-1, but the first LDL^T pivot is 0
        assert tridiagonal.ldl_inertia(np.array([1.0]),
                                       np.array([0.0, 0.0])) == (0, 1)


def loop_ldl_inertia(off, diag):
    """ldl_inertia as it was before its loop took numpy's squares of off
    and one comparison per pivot, kept verbatim as the reference."""
    g = np.abs(diag)
    g[:-1] += np.abs(off)
    g[1:] += np.abs(off)
    tol = 1e-14 * max(1.0, float(np.max(g)))
    n_nonpos, singular, p, e = 0, False, 1.0, 0.0
    for d, e_next in zip(diag.tolist(), off.tolist() + [0.0]):
        p = d - e * e / p
        if abs(p) <= tol:
            singular, p = True, -tol
        if p < 0.0:
            n_nonpos += 1
        e = e_next
    return (0 if singular else (-1) ** n_nonpos), n_nonpos


def inertia_cases():
    """(off, diag): random symmetric tridiagonals at n = 1, 2 and 256,
    and the edges of the pivot tests."""
    cases = []
    for n in (1, 2, 256):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            scale = rng.choice([1e-3, 1.0, 1e3])
            cases.append((rng.normal(size=n - 1),
                          rng.normal(size=n) * scale + rng.normal()))
    cases.append(([1.0], [0.0, 0.0]))  # a zero first pivot
    # n = 1 and g <= 1: tol = 1e-14; n = 3, g = 2: the middle pivot is the
    # middle entry and tol = 2e-14; pivots at, inside and just outside
    # +-tol
    for tol, make in ((1e-14, lambda p: ([], [p])),
                      (2e-14, lambda p: ([0.0, 0.0], [2.0, p, 2.0]))):
        for p in (tol, -tol, 0.5 * tol, -0.5 * tol, 0.0, -0.0,
                  np.nextafter(tol, 1.0), np.nextafter(-tol, -1.0),
                  np.nextafter(tol, 0.0), np.nextafter(-tol, 0.0)):
            cases.append(make(p))
    for bad in (np.nan, np.inf, -np.inf):
        cases += [([1.0, bad], [2.0, 3.0, 4.0]), ([0.5, 1.0], [bad, 1.0, 2.0]),
                  ([0.5, 1.0], [2.0, 1.0, bad]), ([], [bad]),
                  ([1.0, bad], [-2.0, 3.0, 4.0])]
    return [(np.array(off, dtype=float), np.array(diag, dtype=float))
            for off, diag in cases]


def test_ldl_inertia_matches_the_loop_it_replaced():
    cases = inertia_cases()
    for off, diag in cases:
        assert tridiagonal.ldl_inertia(off, diag) == \
            loop_ldl_inertia(off, diag), (off, diag)
    # the cases reach each outcome: singular, and both signs of det
    signs = {loop_ldl_inertia(off, diag)[0] for off, diag in cases}
    assert signs == {-1, 0, 1}


def stacks_by_n():
    """{n: (off, diag)}: inertia_cases() of each n as the rows of one
    stack, repeated to at least 2 * MIN_STACK rows; for n = 1, 2 and 3
    clean rows are mixed with the pivots at, inside and outside +-tol, the
    zero pivots and the NaN and +-inf entries."""
    by_n = defaultdict(list)
    for off, diag in inertia_cases():
        by_n[diag.size].append((off, diag))
    stacks = {}
    for n, cases in by_n.items():
        cases = cases * -(-2 * tridiagonal.MIN_STACK // len(cases))
        stacks[n] = tuple(np.array(part).reshape(len(cases), -1)
                          for part in zip(*cases))
    return stacks


def assert_rows_match_the_loop(off, diag):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = tridiagonal.ldl_inertias(off, diag)
    assert got == [loop_ldl_inertia(o, d) for o, d in zip(off, diag)]


def test_stacked_inertia_matches_the_loop_row_by_row(monkeypatch):
    """Stacks of every n of inertia_cases(), of 1 and 2 rows, below, at
    and above MIN_STACK rows and whole, count each row as the loop does,
    with no RuntimeWarning; so do all of them through the column pass,
    with MIN_STACK = 1."""
    stacks = stacks_by_n()
    assert sorted(stacks) == [1, 2, 3, 256]
    for min_stack in (tridiagonal.MIN_STACK, 1):
        monkeypatch.setattr(tridiagonal, "MIN_STACK", min_stack)
        for off, diag in stacks.values():
            for rows in {1, 2, min_stack - 1, min_stack, min_stack + 1,
                         len(diag)} - {0}:
                assert_rows_match_the_loop(off[:rows], diag[:rows])


def test_column_pass_recounts_only_rows_with_a_pivot_within_tol(
        monkeypatch):
    """The column pass hands ldl_inertia the rows that read singular, where
    a pivot within tol was replaced by -tol, and counts the others
    itself."""
    recounted = []
    ldl_inertia = tridiagonal.ldl_inertia

    def logged(off, diag):
        recounted.append((off.tobytes(), diag.tobytes()))
        return ldl_inertia(off, diag)

    monkeypatch.setattr(tridiagonal, "ldl_inertia", logged)
    total = 0
    for off, diag in stacks_by_n().values():
        assert len(diag) >= tridiagonal.MIN_STACK
        recounted.clear()
        counts = tridiagonal.ldl_inertias(off, diag)
        singular = [(o.tobytes(), d.tobytes())
                    for o, d, (sign, _) in zip(off, diag, counts)
                    if sign == 0]
        assert recounted == singular, diag.shape
        total += len(singular)
    assert total > 0


entries = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 2e-14, -2e-14, 5e-15,
                     np.nextafter(1e-14, 1.0), np.nan, np.inf, -np.inf]))


@st.composite
def stacks(draw):
    """(off, diag) of 1 to 40 rows of n = 1 to 6, entries near the pivot
    tolerance, exactly zero, NaN and +-inf among ordinary values."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 40))
    values = draw(st.lists(entries, min_size=m * (2 * n - 1),
                           max_size=m * (2 * n - 1)))
    flat = np.array(values)
    return flat[:m * (n - 1)].reshape(m, n - 1), flat[m * (n - 1):] \
        .reshape(m, n)


@settings(max_examples=100, deadline=None)
@given(stacks())
def test_stacked_inertia_property(stack):
    off, diag = stack
    assert_rows_match_the_loop(off, diag)


@LAPACK
def test_lapack_arguments_are_ctypes_objects(monkeypatch):
    """dgttrf and dgttrs carry no argtypes, so ctypes passes each argument
    as it is: every one must be a ctypes instance, a byref or bytes. A bare
    int would go out as a 32-bit C int, and dgttrs would read its size_t
    TRANS length with undefined upper bits."""
    calls = []
    byref = type(ctypes.byref(ctypes.c_int64()))

    def checked(fn):
        # checked before the call: LAPACK would dereference a bare int
        def call(*args):
            calls.append(args)
            for i, arg in enumerate(args):
                assert isinstance(arg, (ctypes._SimpleCData, ctypes.Array,
                                        byref, bytes)), (i, arg)
            return fn(*args)
        return call

    for name in ("_DGTTRF", "_DGTTRS"):
        monkeypatch.setattr(tridiagonal, name,
                            checked(getattr(tridiagonal, name)))
    sub, diag, sup, b = random_tridiagonal(1)
    lu = tridiagonal.lapack_factor(sub, diag, sup)
    lu.b[...] = b
    tridiagonal.lapack_solve(lu, 1)
    tridiagonal.lapack_solve(lu, 2)
    assert [len(args) for args in calls] == [7, 12, 12]
    for args in calls[1:]:
        assert isinstance(args[-1], ctypes.c_size_t)


def test_lapack_kernels_found_where_numpy_links_ilp64_openblas():
    """Where numpy links the ILP64 scipy-openblas (the manylinux wheels),
    factor and solve are LAPACK's: a numpy that renamed the symbols would
    otherwise leave every chain run on the reference path, about 2.4x
    slower, and no other test would fail."""
    lapack = np.show_config(mode="dicts")["Build Dependencies"].get(
        "lapack", {})
    if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in \
            lapack.get("openblas configuration", ""):
        pytest.skip("numpy does not link the ILP64 scipy-openblas")
    assert tridiagonal.factor is tridiagonal.lapack_factor
    assert tridiagonal.solve is tridiagonal.lapack_solve


@LAPACK
def test_solve_wraps_only_its_right_hand_sides(monkeypatch):
    """The LAPACK arguments that a factor fixes, its own rows b among them,
    are built once, by the first lapack_factor: a refactor into its arrays
    wraps none, and a solve of its rows in place none. So the first
    arc-length step on a thread wraps the six arrays of the one factor it
    builds, in row 0 of the thread's alm.workspace, and a later step on
    that thread wraps none, however many Newton iterations it makes."""
    sub, diag, sup, b = random_tridiagonal(0)
    lu = tridiagonal.lapack_factor(sub, diag, sup)
    x = solve_rows(tridiagonal.lapack_solve, lu, b, -b)
    wrapped = []
    data = tridiagonal._data
    monkeypatch.setattr(tridiagonal, "_data",
                        lambda a: wrapped.append(a) or data(a))
    for _ in range(3):
        assert tridiagonal.lapack_factor(sub, diag, sup, lu) is lu
        lu.b[0], lu.b[1] = b, -b
        assert tridiagonal.lapack_solve(lu, 2).tobytes() == x.tobytes()
        lu.b[0] = -b
        assert tridiagonal.lapack_solve(lu, 1).tobytes() == \
            x[1:].tobytes()
    assert not wrapped
    p = make_builtin("springchain", n=16)
    cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-10)
    solves = []
    monkeypatch.setattr(tridiagonal, "solve",
                        lambda *args: solves.append(args) or
                        tridiagonal.lapack_solve(*args))

    def two_steps():
        w0 = SolutionPoint(np.zeros(16), 0.0)
        first = alm.step(p, cfg, w0, alm.tangent(p, w0), 0.4)
        built = len(wrapped)
        wrapped.clear()
        solves.clear()
        return first, built, alm.step(p, cfg, first.w_new, first.dw, 0.8)

    first, built, res = on_new_thread(two_steps)
    assert first.iterations >= 2 and built == 6
    assert res.cuts_used == 0 and res.iterations >= 2
    assert len(solves) == 2 * res.iterations
    assert not wrapped


def test_a_swapped_factor_gets_a_new_workspace(monkeypatch):
    """A thread's alm.workspace holds factors of one tridiagonal.factor:
    swapping it, as a test does to count factors or to take the reference
    path, gives the thread a new workspace, and swapping it back another,
    so a LAPACK refill never meets a reference factor's lists, and a step
    keeps its bits."""
    p = make_builtin("springchain", n=16)
    w0 = SolutionPoint(np.zeros(16), 0.0)

    def first_step():
        return alm.step(p, CRISFIELD, w0, alm.tangent(p, w0), 0.4)

    ref = first_step()
    ws = alm.workspace(16)
    assert ws.factors[0] is not None and alm.workspace(16) is ws
    factor = tridiagonal.factor
    monkeypatch.setattr(tridiagonal, "factor", lambda *args: factor(*args))
    fresh = alm.workspace(16)
    assert fresh is not ws and not any(fresh.factors)
    monkeypatch.setattr(tridiagonal, "factor", tridiagonal.reference_factor)
    monkeypatch.setattr(tridiagonal, "solve", tridiagonal.reference_solve)
    assert step_bits(first_step()) == step_bits(ref)
    monkeypatch.undo()
    assert step_bits(first_step()) == step_bits(ref)


def test_a_callback_that_steps_moves_no_bit():
    """A problem callback may take arc-length steps of its own on the
    thread: a springchain whose dG/dlambda also takes an alm.step from
    the trivial point along its tangent on another chain of 16 unknowns,
    in row 0 of the same workspace, traces the rows and records of plain
    springchain, as a bordered solve reads dG/dlambda before it factors K
    into that row."""
    p = make_builtin("springchain", n=16)
    other = make_builtin("springchain", n=16, c=0.8)
    w0 = SolutionPoint(np.zeros(16), 0.0)
    g, nested = p.jacobian_lambda_fn, []

    def stepping(u, lam):
        nested.append(alm.step(other, CRISFIELD, w0,
                               alm.tangent(other, w0), 0.3))
        return g(u, lam)

    eng = EngineConfig(delta_L=0.4, steps=16, tol_lower=1e-3,
                       tol_upper=1e-3, max_level=2)
    state = aalm(replace(p, jacobian_lambda_fn=stepping,
                         jacobians_lambda_fn=None), CRISFIELD, eng)
    plain = aalm(p, CRISFIELD, eng)
    assert nested and state.stats.jobs_done == plain.stats.jobs_done > 0
    assert row_bits(state.collect()) == row_bits(plain.collect())
    assert record_bits(state) == record_bits(plain)


def test_library_without_symbols_leaves_the_reference_path(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoSymbols)
    assert tridiagonal._load_lapack() is None


def near_singular(seed, n=24):
    """springchain's K at a random u, shifted so that its smallest
    |eigenvalue| is 1e-10 ||K||, and held constant; dG/dlam = -1."""
    rng = np.random.default_rng(seed)
    c = 0.5
    off = np.full(n - 1, -c)
    diag = 3.0 * rng.uniform(-1.5, 1.5, n)**2 - 3.0 + 2.0 * c
    eigs = np.linalg.eigvalsh(dense(off, diag, off))
    small = eigs[np.argmin(np.abs(eigs))]
    target = rng.choice([-1.0, 1.0]) * 1e-10 * np.max(np.abs(eigs))
    diag = diag - small + target
    p = ProblemDef(n_dof=n, residual_fn=lambda u, lam: np.zeros(n),
                   jacobian_u_fn=None,
                   jacobian_lambda_fn=lambda u, lam: -np.ones(n),
                   load_norm_sq=float(n),
                   tridiagonal_fn=lambda u, lam: (off, diag, off))
    return p, rng


@pytest.mark.parametrize("constraint", ["riks", "crisfield"])
@pytest.mark.parametrize("seed", range(10))
def test_near_singular_bordered_solve_matches_dense(constraint, seed):
    """Where K is nearly singular the bordered matrix is not, and the
    tridiagonal solve keeps the dense solve's accuracy: block elimination
    alone is off by about 1e-7 here, and its refinement step brings it
    back."""
    p, rng = near_singular(seed)
    n = p.n_dof
    w = SolutionPoint(np.zeros(n), 0.0)
    K = p.jacobian_u(w)
    eigs = np.linalg.eigvalsh(K)
    assert np.min(np.abs(eigs)) <= 2e-10 * np.max(np.abs(eigs))
    G = 1e-3 * rng.normal(size=n)
    du, dlam = 0.1 * rng.normal(size=n), 0.1 * rng.normal()
    # the columns [-G; beta] and, for Crisfield, [0; 1]
    if constraint == "riks":
        row, corner, beta = du, 0.0, -1e-3
        rhs = np.append(-G, beta)
    else:
        row, corner, beta = 2.0 * du, 2.0 * n * dlam, 0.0
        rhs = np.zeros((n + 1, 2))
        rhs[:n, 0] = -G
        rhs[n, 1] = 1.0
    x = alm._bordered_solve(p, w, -G, beta, row, corner, rhs.ndim == 2)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = K
    M[:n, n] = -1.0
    M[n, :n] = row
    M[n, n] = corner
    ref = np.linalg.solve(M, rhs)
    assert np.linalg.cond(M) < 1e6
    assert x.shape == ref.shape
    err = np.max(np.abs(x - ref), axis=0) / np.max(np.abs(ref), axis=0)
    assert np.all(err <= 1e-8)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("constraint", ["riks", "crisfield"])
@pytest.mark.parametrize("seed", range(10))
def test_near_singular_step_matches_dense(constraint, warm, seed):
    """On the linear G = K u - lam 1 with near_singular's K, a step through
    the tridiagonal path makes the dense path's Newton iterations and cuts
    and lands on its point. The refinement step is what keeps it there:
    without it, 16 of these 40 steps take a second Newton iteration and
    the points differ by up to 1.5e-9 of max(|u|, |lam|)."""
    p0, rng = near_singular(seed)
    n = p0.n_dof
    tri = p0.tridiagonal(SolutionPoint(np.zeros(n), 0.0))
    p = replace(p0, residual_fn=lambda u, lam:
                tridiagonal.matvec(*tri, u) - lam)
    w0 = SolutionPoint(1e-3 * rng.normal(size=n), 0.0)
    dw0 = 0.1 * rng.normal(size=n + 1)
    cfg = AlmConfig(constraint=constraint, psi=1.0, newton_tol=1e-10)
    # a cold step starts along the tangent at w0, which each path solves
    a, b = (alm.step(q, cfg, w0, dw0 if warm else alm.tangent(q, w0), 0.05)
            for q in (p, as_dense(p)))
    assert (a.iterations, a.cuts_used) == (b.iterations, b.cuts_used)
    scale = max(np.max(np.abs(b.w_new.u)), abs(b.w_new.lam))
    assert np.max(np.abs(a.w_new.u - b.w_new.u)) <= 1e-10 * scale
    assert abs(a.w_new.lam - b.w_new.lam) <= 1e-10 * scale


def step_bits(res):
    return (res.w_new.u.tobytes(), res.w_new.lam.hex(), res.iterations,
            res.cuts_used, res.achieved_length.hex(), res.dw.tobytes())


@pytest.mark.parametrize("kernels", PATHS)
@pytest.mark.parametrize("run", sorted(KERNEL_RUNS))
def test_lone_step_in_a_members_row_moves_no_bit(run, kernels, monkeypatch):
    """A step taken alone after a batch_step on the same thread refills
    row 0 of the thread's alm.workspace, whose factor a member has just
    refilled and solved in, and gives the bits of the same step on a new
    thread, whose workspace is new: the first step of job 0, along the
    tangent at the trivial point, and the first steps of later jobs, on
    springchain with Crisfield's and Riks's constraint."""
    monkeypatch.setattr(tridiagonal, "factor", kernels[0])
    monkeypatch.setattr(tridiagonal, "solve", kernels[1])
    p, cfg, eng = KERNEL_RUNS[run]
    jobs = level_one_jobs(p, cfg, eng)
    n = p.n_dof

    def first_step(job):
        return (job.w_start, alm.increment_between(job.w_start, job.w_prev),
                job.delta_L0 / job.N)

    members = [first_step(job) for job in jobs[1:9]]
    for job in [jobs[0], jobs[1], jobs[-1]]:
        results = alm.batch_step(p, cfg, *map(list, zip(*members)))
        ws = alm.workspace(n)
        assert all(results) and all(ws.factors[:len(members)])
        alone = alm.step(p, cfg, *first_step(job))
        assert alm.workspace(n) is ws
        assert np.shares_memory(ws.factors[0].b, ws.rows[0])
        assert step_bits(alone) == step_bits(
            on_new_thread(alm.step, p, cfg, *first_step(job)))


CRISFIELD = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-10)
RUNS = {
    "n16": (16, EngineConfig(delta_L=0.4, steps=32, tol_lower=1e-3,
                             tol_upper=1e-3, max_level=3)),
    # a run whose spawned branch followed the sign LAPACK happened to give
    # the null vector: branch 1 came out mirrored under a rounding change
    "n4-detect": (4, EngineConfig(delta_L=0.2, steps=40, tol_lower=1e-3,
                                  tol_upper=1e-3, max_level=3,
                                  bifurcation_enabled=True)),
}


def points(state):
    return [(b, level, w) for b, _, _, level, w in state.collect()]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_dense_and_tridiagonal_paths_trace_the_same_curve(run, monkeypatch):
    n, eng = RUNS[run]
    p = make_builtin("springchain", n=n, c=0.5)
    located = []
    locate = alm.locate_bifurcation

    def counted(*args):
        located.append(args)
        return locate(*args)

    monkeypatch.setattr(alm, "locate_bifurcation", counted)
    tri = aalm(p, CRISFIELD, eng)
    calls = len(located)
    ref = aalm(as_dense(p), CRISFIELD, eng)
    assert len(located) == 2 * calls == (8 if run == "n4-detect" else 0)
    assert sorted(tri.maps) == sorted(ref.maps)
    assert tri.stats.jobs_done == ref.stats.jobs_done
    assert tri.stats.jobs_failed == ref.stats.jobs_failed
    a, b = points(tri), points(ref)
    assert [x[:2] for x in a] == [x[:2] for x in b]
    for (_, _, wa), (_, _, wb) in zip(a, b):
        assert np.max(np.abs(wa.u - wb.u)) <= 1e-9
        assert abs(wa.lam - wb.lam) <= 1e-9


def test_spawned_branch_side_is_pinned():
    """The null vector's sign rule fixes which of the two mirror images the
    spawned branch of the n = 4 run follows: at the seed, the first
    significant component is positive, and the branch ends with
    u_1 > u_4."""
    n, eng = RUNS["n4-detect"]
    p = make_builtin("springchain", n=n, c=0.5)
    state = aalm(p, CRISFIELD, eng)
    assert sorted(state.maps) == [0, 1]
    branch = [w for b, _, _, _, w in state.collect() if b == 1]
    start, end = branch[0], branch[-1]
    phi = null_vector(p, start)
    first = phi[np.argmax(np.abs(phi) > 1e-8)]
    assert first > 0.0
    assert end.u[0] > end.u[-1] + 0.5


@pytest.mark.parametrize("phi", [[1.0, -1.0], [1.0, 1.0],
                                 [1e-12, 0.6, -0.8], [-1e-12, 0.6, -0.8]])
def test_null_vector_sign_rule(phi):
    # K = +-(I - phi phi^T) has the null vector +-phi; the first component
    # above 1e-8 in magnitude comes out positive, whatever sign eigh gave
    phi = np.array(phi) / np.linalg.norm(phi)
    n = len(phi)
    for sign in (1.0, -1.0):
        K = sign * (np.eye(n) - np.outer(phi, phi))
        p = ProblemDef(n_dof=n, residual_fn=lambda u, lam: np.zeros(n),
                       jacobian_u_fn=lambda u, lam: K,
                       jacobian_lambda_fn=lambda u, lam: np.zeros(n),
                       load_norm_sq=0.0)
        got = null_vector(p, SolutionPoint(np.zeros(n), 0.0))
        assert np.allclose(got, phi, atol=1e-12)


def test_spawned_branch_workers_match_aalm_bitwise():
    n, eng = RUNS["n4-detect"]
    p = make_builtin("springchain", n=n, c=0.5)
    ref = row_bits(aalm(p, CRISFIELD, eng).collect())
    for transport in ("thread", "process"):
        assert row_bits(apalm(p, CRISFIELD, eng, worker_count=3,
                              transport=transport).collect()) == ref


def test_springchain_imports_no_scipy():
    """A springchain step and stability check load no scipy: importing it
    costs about 0.1 s of start-up and a third more peak memory."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from apalm.alm import AlmConfig, detect_singular, step, "
            "tangent\n"
            "from apalm.problems import SolutionPoint, make_builtin\n"
            "p = make_builtin('springchain', n=8)\n"
            "w0 = SolutionPoint(np.zeros(8), 0.0)\n"
            "res = step(p, AlmConfig(), w0, tangent(p, w0), 0.3)\n"
            "detect_singular(p, res.w_new)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
