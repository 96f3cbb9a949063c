import math
from dataclasses import replace

import numpy as np
import pytest

from apalm.alm import AlmConfig
from apalm.engine import EngineConfig, aalm
from apalm.problems import (DimensionError, ProblemDef, SolutionPoint,
                            UnknownProblemError, make_builtin)
from bits import row_bits


def pt(u, lam):
    return SolutionPoint(np.atleast_1d(np.asarray(u, dtype=float)), lam)


class TestResidual:
    def test_linear1d_on_path(self):
        p = make_builtin("linear1d", k=1.0, P=1.0)
        assert p.residual(pt(1.0, 1.0)) == pytest.approx(0.0)

    def test_cubic1d_origin(self):
        p = make_builtin("cubic1d")
        assert p.residual(pt(0.0, 0.0)) == pytest.approx(0.0)

    def test_cubic1d_off_path(self):
        p = make_builtin("cubic1d")
        assert p.residual(pt(1.0, 0.0))[0] == pytest.approx(-2.0)

    def test_dimension_mismatch(self):
        p = make_builtin("cubic1d")
        with pytest.raises(DimensionError):
            p.residual(SolutionPoint(np.zeros(2), 0.0))


class TestJacobians:
    def test_linear1d_constant_slope(self):
        p = make_builtin("linear1d")
        assert p.jacobian_u(pt(3.7, -2.0))[0, 0] == pytest.approx(1.0)

    def test_cubic1d_at_origin(self):
        p = make_builtin("cubic1d")
        assert p.jacobian_u(pt(0.0, 0.0))[0, 0] == pytest.approx(-3.0)

    def test_cubic1d_singular_at_limit_point(self):
        p = make_builtin("cubic1d")
        assert p.jacobian_u(pt(1.0, 5.0))[0, 0] == pytest.approx(0.0)

    def test_linear1d_load(self):
        p = make_builtin("linear1d")
        assert p.jacobian_lambda(pt(0.0, 0.0))[0] == pytest.approx(-1.0)

    def test_cubic1d_load(self):
        p = make_builtin("cubic1d")
        assert p.jacobian_lambda(pt(2.0, 1.0))[0] == pytest.approx(-1.0)

    def test_pitchfork_load_vanishes_on_primary(self):
        p = make_builtin("pitchfork")
        assert p.jacobian_lambda(pt(0.0, 0.5))[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("dense,tri", [(False, False), (True, True)])
    def test_k_given_exactly_once(self, dense, tri):
        with pytest.raises(ValueError, match="exactly one"):
            ProblemDef(n_dof=2, residual_fn=lambda u, lam: u,
                       jacobian_u_fn=(lambda u, lam: np.eye(2)) if dense
                       else None,
                       jacobian_lambda_fn=lambda u, lam: -np.ones(2),
                       load_norm_sq=2.0,
                       tridiagonal_fn=(lambda u, lam: ([0.0], [1.0, 1.0],
                                                       [0.0])) if tri
                       else None)

    @pytest.mark.parametrize("load_norm_sq", [-1.0, math.nan, math.inf])
    def test_load_norm_sq_non_negative_and_finite(self, load_norm_sq):
        with pytest.raises(ValueError, match="load_norm_sq"):
            ProblemDef(n_dof=1, residual_fn=lambda u, lam: u,
                       jacobian_u_fn=lambda u, lam: np.eye(1),
                       jacobian_lambda_fn=lambda u, lam: -np.ones(1),
                       load_norm_sq=load_norm_sq)

    def test_tridiagonal_lengths_checked(self):
        p = ProblemDef(n_dof=3, residual_fn=lambda u, lam: u,
                       jacobian_u_fn=None,
                       jacobian_lambda_fn=lambda u, lam: -np.ones(3),
                       load_norm_sq=3.0,
                       tridiagonal_fn=lambda u, lam: ([1.0], [1.0] * 3,
                                                      [1.0, 2.0]))
        with pytest.raises(ValueError):
            p.tridiagonal(SolutionPoint(np.zeros(3), 0.0))

    def test_springchain_dense_k_assembled_from_diagonals(self):
        p = make_builtin("springchain", n=4, c=0.5)
        w = SolutionPoint(np.array([0.1, -0.2, 0.3, 1.0]), 0.0)
        sub, diag, sup = p.tridiagonal(w)
        K = p.jacobian_u(w)
        assert np.array_equal(K, np.diag(diag) + np.diag(sup, 1)
                              + np.diag(sub, -1))
        assert np.allclose(diag, 3.0 * w.u**2 - 2.0, rtol=0, atol=1e-15)
        assert np.array_equal(sub, [-0.5] * 3)


class TestConversions:
    """A float64 vector of the right shape is taken as it is; anything
    else is converted as np.asarray(..., dtype=float) converts it."""

    @pytest.mark.parametrize("u", [
        [1, 2], np.array([1, 2]), np.array([1.5, 2.5], dtype=np.float32),
        np.array(3.0), 4])
    @pytest.mark.parametrize("lam", [np.float64(2.5), True, 1])
    def test_point_converts_other_input(self, u, lam):
        w = SolutionPoint(u, lam)
        assert type(w.u) is np.ndarray and w.u.dtype == np.float64
        assert w.u.ndim == 1 and w.u.tolist() == np.atleast_1d(u).tolist()
        assert type(w.lam) is float and w.lam == float(lam)

    def test_point_keeps_a_float64_vector(self):
        u = np.array([1.0, 2.0])
        w = SolutionPoint(u, 0.5)
        assert w.u is u and type(w.lam) is float

    @staticmethod
    def callbacks(n, make):
        """A problem of n unknowns whose callbacks return make(values)."""
        return ProblemDef(
            n_dof=n, residual_fn=lambda u, lam: make(np.arange(n) + 1),
            jacobian_u_fn=None,
            jacobian_lambda_fn=lambda u, lam: make(-np.ones(n, dtype=int)),
            load_norm_sq=float(n),
            tridiagonal_fn=lambda u, lam: (make(np.ones(n - 1, dtype=int)),
                                           make(np.arange(n) + 2),
                                           make(np.ones(n - 1, dtype=int))))

    @pytest.mark.parametrize("make", [
        lambda a: a.tolist(), lambda a: a, lambda a: a.reshape(-1, 1),
        lambda a: a.astype(np.float32)], ids=["list", "int", "column",
                                              "float32"])
    def test_callbacks_converted(self, make):
        n = 3
        p = self.callbacks(n, make)
        w = SolutionPoint(np.zeros(n), 0.0)
        sub, diag, sup = p.tridiagonal(w)
        for got, want in ((p.residual(w), [1, 2, 3]),
                          (p.jacobian_lambda(w), [-1] * 3), (sub, [1] * 2),
                          (diag, [2, 3, 4]), (sup, [1] * 2)):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == (len(want),) and got.tolist() == want

    def test_float64_callback_results_kept(self):
        g = np.arange(3.0)
        p = self.callbacks(3, lambda a: g)
        w = SolutionPoint(np.zeros(3), 0.0)
        assert p.residual(w) is g and p.jacobian_lambda(w) is g

    @staticmethod
    def stacked(p, make, seen=None):
        """p with stacked forms that return make(values) for all points at
        once, the values of p's callbacks; the residuals note each call's
        (u, lam) in seen."""
        n = p.n_dof

        def rows(a, u):
            return make(np.tile(a, (len(u), 1)))

        def residuals(u, lam):
            if seen is not None:
                seen.append((u.tolist(), lam))
            return make(np.arange(n) + (2 * lam).astype(int)[:, None])

        return replace(
            p, residuals_fn=residuals,
            jacobians_lambda_fn=lambda u, lam: rows(
                -np.ones(n, dtype=int), u),
            tridiagonals_fn=lambda u, lam: (
                rows(np.ones(n - 1, dtype=int), u),
                rows(np.arange(n) + 2, u),
                rows(np.ones(n - 1, dtype=int), u)))

    @pytest.mark.parametrize("make", [
        lambda a: a.tolist(), lambda a: a, lambda a: a.reshape(-1, 1),
        lambda a: a.astype(np.float32), lambda a: a.astype(float)],
        ids=["list", "int", "column", "float32", "float64"])
    def test_callbacks_at_many_points_stack_the_rows(self, make):
        """residuals, tridiagonals and jacobians_lambda give, in row k, the
        bits that residual, tridiagonal and jacobian_lambda give at point
        k, through the row loop and through stacked forms alike; the
        per-point callbacks see each point's own u row and lambda, and a
        stacked form sees all points in one call, with lambda as a float64
        array."""
        n, lams = 3, [0.5, -1.0]
        seen = []
        p = self.callbacks(n, make)
        p = ProblemDef(
            n_dof=n, residual_fn=lambda u, lam: (
                seen.append((u.tolist(), lam))
                or make(np.arange(n) + int(2 * lam))),
            jacobian_u_fn=None, jacobian_lambda_fn=p.jacobian_lambda_fn,
            load_norm_sq=p.load_norm_sq, tridiagonal_fn=p.tridiagonal_fn)
        u = np.arange(2.0 * n).reshape(2, n)
        points = [SolutionPoint(uk, lk) for uk, lk in zip(u, lams)]
        singles = [[f(w) for w in points] for f in (
            p.residual, p.jacobian_lambda,
            lambda w: p.tridiagonal(w)[0], lambda w: p.tridiagonal(w)[1],
            lambda w: p.tridiagonal(w)[2])]
        assert seen == [(u[0].tolist(), 0.5), (u[1].tolist(), -1.0)]
        for q in (p, self.stacked(p, make, seen)):
            seen.clear()
            stacks = [q.residuals(u, lams), q.jacobians_lambda(u, lams),
                      *q.tridiagonals(u, lams)]
            for got, want in zip(stacks, singles):
                assert got.dtype == np.float64
                assert got.shape == (2, len(want[0]))
                assert got.tobytes() == np.array(want).tobytes()
            if q is p:
                assert seen == [(u[0].tolist(), 0.5), (u[1].tolist(), -1.0)]
            else:
                [(seen_u, seen_lam)] = seen
                assert seen_u == u.tolist() and type(seen_lam) is np.ndarray
                assert seen_lam.dtype == np.float64
                assert seen_lam.tolist() == lams

    def test_wrong_size_refused(self):
        n = 3
        p = self.callbacks(n, lambda a: np.append(a, 0.0))
        stacked = self.stacked(self.callbacks(n, lambda a: a),
                               lambda a: np.append(a, 0.0))
        w = SolutionPoint(np.zeros(n), 0.0)
        u = np.zeros((2, n))
        for call in (p.residual, p.jacobian_lambda, p.tridiagonal,
                     *(f for q in (p, stacked) for f in (
                         lambda w, q=q: q.residuals(u, [0.0, 0.0]),
                         lambda w, q=q: q.jacobians_lambda(u, [0.0, 0.0]),
                         lambda w, q=q: q.tridiagonals(u, [0.0, 0.0])))):
            with pytest.raises(ValueError):
                call(w)

    @pytest.mark.parametrize("m", [1, 2, 16])
    @pytest.mark.parametrize("n", [1, 2, 256])
    def test_springchain_stacked_rows_match_its_points(self, m, n):
        """springchain's stacked callbacks give row k the bits of its
        per-point callbacks at point k, NaN and infinite entries
        included."""
        p = make_builtin("springchain", n=n)
        assert None not in (p.residuals_fn, p.tridiagonals_fn,
                            p.jacobians_lambda_fn)
        rng = np.random.default_rng(1000 * m + n)
        u = rng.normal(size=(m, n)) * 3.0
        lam = rng.normal(size=m)
        specials = [np.nan, np.inf, -np.inf]
        u.flat[rng.choice(u.size, size=min(3, u.size), replace=False)] = \
            specials[:min(3, u.size)]
        lam[rng.integers(m)] = specials[m % 3]
        with np.errstate(all="ignore"):
            stacks = [p.residuals(u, lam), p.jacobians_lambda(u, lam),
                      *p.tridiagonals(u, lam)]
            points = [SolutionPoint(uk, lk) for uk, lk in zip(u, lam)]
            singles = [[f(w) for w in points] for f in (
                p.residual, p.jacobian_lambda,
                lambda w: p.tridiagonal(w)[0], lambda w: p.tridiagonal(w)[1],
                lambda w: p.tridiagonal(w)[2])]
        assert not np.isfinite(stacks[0]).all()
        for got, want in zip(stacks, singles):
            assert got.dtype == np.float64 and got.shape == (m, len(want[0]))
            assert got.tobytes() == np.array(want).reshape(got.shape).tobytes()

    def test_stacked_callbacks_check_the_width_of_u(self):
        p = make_builtin("springchain", n=4)
        for call in (p.residuals, p.jacobians_lambda, p.tridiagonals):
            with pytest.raises(DimensionError):
                call(np.zeros((2, 5)), [0.0, 0.0])


def test_springchain_residual_matches_its_expression():
    """springchain's residual, computed in place, has the bits of the
    expression it evaluates, kept here as it was written."""
    c = 0.5

    def expression(u, lam):
        g = u * u * u - 3.0 * u + 2.0 * c * u - lam
        g[:-1] -= c * u[1:]
        g[1:] -= c * u[:-1]
        return g

    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 256):
        p = make_builtin("springchain", n=n, c=c)
        for _ in range(10):
            u, lam = rng.normal(size=n) * 3.0, float(rng.normal())
            got = p.residual(SolutionPoint(u, lam))
            assert got.tobytes() == expression(u, lam).tobytes()


class TestMakeBuiltin:
    def test_unknown_name(self):
        with pytest.raises(UnknownProblemError):
            make_builtin("nosuchthing")

    def test_bad_params(self):
        with pytest.raises(UnknownProblemError):
            make_builtin("cubic1d", bogus=3)

    @pytest.mark.parametrize("params", [{"n": 2.5}, {"n": True},
                                        {"c": "x"}, {"c": float("nan")}],
                             ids=["n-float", "n-bool", "c-string", "c-nan"])
    def test_param_types_checked(self, params):
        with pytest.raises(UnknownProblemError, match="springchain"):
            make_builtin("springchain", **params)

    def test_linear1d_path_is_identity(self):
        p = make_builtin("linear1d", k=1.0, P=1.0)
        for u in np.linspace(-3, 3, 7):
            assert p.residual(pt(u, u))[0] == pytest.approx(0.0)

    def test_cubic1d_limit_points(self):
        # dlambda/du = 3u^2 - 3 vanishes at u = +-1 on lambda = u^3 - 3u.
        p = make_builtin("cubic1d")
        assert p.jacobian_u(pt(-1.0, 2.0))[0, 0] == pytest.approx(0.0)
        assert p.residual(pt(-1.0, 2.0))[0] == pytest.approx(0.0)
        assert p.residual(pt(1.0, -2.0))[0] == pytest.approx(0.0)

    def test_pitchfork_branches(self):
        p = make_builtin("pitchfork")
        # primary branch u = 0
        for lam in np.linspace(-1, 3, 9):
            assert p.residual(pt(0.0, lam))[0] == pytest.approx(0.0)
        # secondary branch u^2 = lambda - 1
        for u in np.linspace(-2, 2, 9):
            assert p.residual(pt(u, 1.0 + u * u))[0] == pytest.approx(0.0)
        # stiffness singular at the bifurcation point (0, 1)
        assert p.jacobian_u(pt(0.0, 1.0))[0, 0] == pytest.approx(0.0)

    def test_springchain_shape(self):
        p = make_builtin("springchain", n=5)
        assert p.n_dof == 5
        assert p.load_norm_sq == pytest.approx(5.0)
        K = p.jacobian_u(SolutionPoint(np.zeros(5), 0.0))
        assert np.allclose(K, K.T)
        # tridiagonal: anything further off the diagonal is zero
        assert K[0, 2] == 0.0 and K[4, 1] == 0.0

    def test_springchain_load_is_one_shared_read_only_array(self):
        p = make_builtin("springchain", n=5)
        a = p.jacobian_lambda(SolutionPoint(np.zeros(5), 0.0))
        b = p.jacobian_lambda(SolutionPoint(np.ones(5), 2.0))
        assert a.tolist() == [-1.0] * 5
        assert np.shares_memory(a, b)
        with pytest.raises(ValueError):
            a[0] = 0.0
        assert b.tolist() == [-1.0] * 5

    def test_springchain_off_diagonals_are_shared_read_only_arrays(self):
        """K's off-diagonals, the same at every point, come per point as
        one shared array and stacked as views of it, all read-only, so no
        caller can change K at another point; a chain run, which writes
        into none of them, gives the rows of one on writable copies."""
        p = make_builtin("springchain", n=16)
        sub, diag, sup = p.tridiagonal(SolutionPoint(np.zeros(16), 0.0))
        subs, diags, sups = p.tridiagonals(np.ones((3, 16)), [0.0, 1.0, 2.0])
        assert sub.tolist() == [-0.5] * 15 and np.shares_memory(sub, sup)
        assert np.shares_memory(sub, subs) and np.shares_memory(sub, sups)
        for off in (sub, sup, subs, sups):
            assert not off.flags.writeable
            with pytest.raises(ValueError):
                off[..., 0] = 0.0
        assert sub.tolist() == [-0.5] * 15
        assert diag.flags.writeable and diags.flags.writeable

        def writable(fn):
            return lambda u, lam: [np.array(a) for a in fn(u, lam)]

        copies = replace(p, tridiagonal_fn=writable(p.tridiagonal_fn),
                         tridiagonals_fn=writable(p.tridiagonals_fn))
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-10)
        eng = EngineConfig(delta_L=0.4, steps=32, max_level=3)
        state = aalm(p, cfg, eng)
        assert state.stats.jobs_done > 32
        assert row_bits(state.collect()) == row_bits(
            aalm(copies, cfg, eng).collect())


def _fd_residual_u(p, w, h=1e-6):
    """Central-difference d/du of the residual: the independent oracle."""
    K = np.zeros((p.n_dof, p.n_dof))
    for j in range(p.n_dof):
        e = np.zeros(p.n_dof)
        e[j] = h
        gp = p.residual(SolutionPoint(w.u + e, w.lam))
        gm = p.residual(SolutionPoint(w.u - e, w.lam))
        K[:, j] = (gp - gm) / (2 * h)
    return K


def _fd_residual_lam(p, w, h=1e-6):
    gp = p.residual(SolutionPoint(w.u, w.lam + h))
    gm = p.residual(SolutionPoint(w.u, w.lam - h))
    return (gp - gm) / (2 * h)


@pytest.mark.parametrize("name,params", [
    ("linear1d", {}),
    ("cubic1d", {}),
    ("pitchfork", {}),
    ("springchain", {"n": 6}),
])
def test_jacobian_consistency(name, params):
    p = make_builtin(name, **params)
    rng = np.random.default_rng(42)
    for _ in range(100):
        w = SolutionPoint(rng.uniform(-2, 2, p.n_dof), rng.uniform(-2, 2))
        K = p.jacobian_u(w)
        K_fd = _fd_residual_u(p, w)
        scale = max(1.0, float(np.max(np.abs(K))))
        assert np.max(np.abs(K - K_fd)) <= 1e-6 * scale
        gl = p.jacobian_lambda(w)
        gl_fd = _fd_residual_lam(p, w)
        scale = max(1.0, float(np.max(np.abs(gl))))
        assert np.max(np.abs(gl - gl_fd)) <= 1e-6 * scale
