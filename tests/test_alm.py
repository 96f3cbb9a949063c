import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apalm import alm, tridiagonal
from apalm.alm import (AlmConfig, BranchSwitchError, branch_switch,
                       detect_singular, distance, locate_bifurcation,
                       point_distance, predictor, select_root, step,
                       tangent)
from apalm.problems import (DimensionError, ProblemDef, SolutionPoint,
                            make_builtin)


def pt(u, lam):
    return SolutionPoint(np.atleast_1d(np.asarray(u, dtype=float)), lam)


def inc(du, dlam):
    """The (n+1) increment (du, dlam)."""
    return np.append(du, dlam)


class TestDistance:
    def test_euclidean_when_psi_zero(self):
        assert distance(inc([3.0, 4.0], 17.0), 0.0, 5.0) == pytest.approx(5.0)

    def test_pure_load_increment(self):
        assert distance(inc([0.0, 0.0], 2.0), 1.0, 9.0) == pytest.approx(6.0)

    def test_mixed(self):
        d = distance(inc([1.0, 1.0], 1.0), 1.0, 1.0)
        assert d == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_negative_load_norm_rejected(self):
        with pytest.raises(ValueError):
            distance(inc(0.0, 0.0), 1.0, -1.0)

    @given(st.floats(-100, 100), st.floats(-10, 10), st.floats(-10, 10),
           st.floats(0, 4), st.floats(0, 25))
    def test_absolute_homogeneity(self, a, du, dlam, psi, ptp):
        d1 = distance(inc(du, dlam), psi, ptp)
        d2 = distance(a * inc(du, dlam), psi, ptp)
        assert d2 == pytest.approx(abs(a) * d1, rel=1e-9, abs=1e-9)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
           st.floats(-10, 10), st.floats(0, 4), st.floats(0, 25))
    def test_triangle_inequality(self, du1, dl1, du2, dl2, psi, ptp):
        lhs = distance(inc(du1, dl1) + inc(du2, dl2), psi, ptp)
        rhs = (distance(inc(du1, dl1), psi, ptp)
               + distance(inc(du2, dl2), psi, ptp))
        assert lhs <= rhs + 1e-9


class TestPredictor:
    def test_warm_rescale(self):
        p = make_builtin("linear1d")
        cfg = AlmConfig(psi=1.0)
        prev = inc(1.2, 1.6)  # length 2
        dw = predictor(p, cfg, prev, 1.0)
        assert dw == pytest.approx([0.6, 0.8])

    def test_cold_linear1d(self):
        p = make_builtin("linear1d")
        cfg = AlmConfig(psi=1.0)
        dw = predictor(p, cfg, tangent(p, pt(0.0, 0.0)), math.sqrt(2.0))
        assert dw == pytest.approx([1.0, 1.0])

    def test_cold_cubic1d_tangent(self):
        # K = -3 at the origin, so du/dlam = -1/3; sign fixed by dlam > 0.
        p = make_builtin("cubic1d")
        cfg = AlmConfig(psi=0.0)
        dw = predictor(p, cfg, tangent(p, pt(0.0, 0.0)), 0.1)
        assert dw == pytest.approx([-0.1, 0.3])
        assert dw[-1] > 0

    @pytest.mark.parametrize("direction", [
        inc(0.0, 0.0), inc(math.nan, 1.0), inc(1.0, math.inf)],
        ids=["zero", "nan", "inf"])
    def test_direction_without_a_finite_length_raises(self, direction):
        with pytest.raises(alm.PredictorError, match="length"):
            predictor(make_builtin("linear1d"), AlmConfig(psi=1.0),
                      direction, 1.0)

    def test_singular_tangent_raises(self):
        # K = 0 and dG/dlam = -1: [[0, -1], [0, 1]] is singular
        with pytest.raises(alm.PredictorError, match="singular tangent"):
            tangent(make_builtin("linear1d", k=0.0), pt(0.0, 0.0))


class TestSelectRoot:
    # select_root takes the dot products delta_u_old . delta_u_candidate_i
    def test_forward_alignment(self):
        # delta_u_old 0.05 against candidates 0.1 and -0.1
        assert select_root((0.7, -0.2), 0.05 * 0.1, 0.05 * -0.1) == 0

    def test_tie_break_larger_dlam(self):
        # delta_u_old 0: both dot products vanish
        assert select_root((1.0, -1.0), 0.0, -0.0) == 0
        assert select_root((-1.0, 1.0), 0.0, -0.0) == 1

    def test_linear1d_first_iteration_hand_solve(self):
        # Crisfield sphere from the origin: (dlam)^2 * (1 + 1) = 2 gives
        # roots +-1; the +1 root lands the step at (1, 1).
        roots = (1.0, -1.0)
        assert roots[select_root(roots, 0.0, -0.0)] == 1.0

    def test_near_tie_is_a_tie(self):
        # dot products within 1e-12 of their scale tie, and the larger
        # delta lambda wins over the larger dot product
        assert select_root((-1.0, 1.0), 1.0, 1.0 - 1e-13) == 1
        assert select_root((-1.0, 1.0), 1.0, 1.0 - 1e-11) == 0


class TestStep:
    def test_linear1d_crisfield(self):
        p = make_builtin("linear1d")
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-12)
        res = step(p, cfg, pt(0.0, 0.0), tangent(p, pt(0.0, 0.0)),
                   math.sqrt(2.0))
        assert res.w_new.u[0] == pytest.approx(1.0, abs=1e-10)
        assert res.w_new.lam == pytest.approx(1.0, abs=1e-10)
        assert res.achieved_length == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert res.cuts_used == 0

    def test_cubic1d_crisfield_cold(self):
        p = make_builtin("cubic1d")
        cfg = AlmConfig(constraint="crisfield", psi=0.0, newton_tol=1e-12)
        res = step(p, cfg, pt(0.0, 0.0), tangent(p, pt(0.0, 0.0)), 0.1)
        assert res.w_new.u[0] == pytest.approx(-0.1, abs=1e-10)
        assert res.w_new.lam == pytest.approx(0.299, abs=1e-10)

    def test_cubic1d_riks_matches_crisfield_at_psi_zero(self):
        p = make_builtin("cubic1d")
        tol = 1e-12
        t = tangent(p, pt(0.0, 0.0))
        r1 = step(p, AlmConfig(constraint="riks", psi=0.0, newton_tol=tol),
                  pt(0.0, 0.0), t, 0.1)
        r2 = step(p, AlmConfig(constraint="crisfield", psi=0.0, newton_tol=tol),
                  pt(0.0, 0.0), t, 0.1)
        assert r1.w_new.u[0] == pytest.approx(r2.w_new.u[0], abs=1e-10)
        assert r1.w_new.lam == pytest.approx(r2.w_new.lam, abs=1e-10)

    def test_crisfield_constraint_satisfied(self):
        p = make_builtin("cubic1d")
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-13)
        w = pt(0.0, 0.0)
        dw = tangent(p, w)
        for _ in range(12):
            res = step(p, cfg, w, dw, 0.4)
            assert res.cuts_used == 0
            d2 = point_distance(res.w_new, w, cfg.psi, p.load_norm_sq) ** 2
            assert abs(d2 - 0.4**2) <= 1e-10 * 0.4**2
            assert np.array_equal(res.dw, alm.increment_between(res.w_new, w))
            dw = res.dw
            w = res.w_new

    def test_riks_plane_condition_satisfied(self):
        p = make_builtin("cubic1d")
        cfg = AlmConfig(constraint="riks", psi=1.0, newton_tol=1e-13)
        w = pt(0.0, 0.0)
        dw = tangent(p, w)
        c = cfg.psi**2 * p.load_norm_sq
        for _ in range(8):
            dw0 = predictor(p, cfg, dw, 0.3)  # as inside the step
            res = step(p, cfg, w, dw, 0.3)
            assert res.cuts_used == 0
            f = float(dw0[:-1] @ res.dw[:-1]) + c * dw0[-1]**2 - 0.3**2
            assert abs(f) <= 1e-10 * 0.3**2
            dw = res.dw
            w = res.w_new

    def test_residual_contract(self):
        p = make_builtin("springchain", n=6)
        cfg = AlmConfig(constraint="crisfield", psi=0.0, newton_tol=1e-11)
        w = SolutionPoint(np.zeros(6), 0.0)
        dw = tangent(p, w)
        for _ in range(10):
            res = step(p, cfg, w, dw, 0.3)
            assert np.linalg.norm(p.residual(res.w_new)) <= cfg.newton_tol
            dw = res.dw
            w = res.w_new

    def test_bitwise_deterministic(self):
        p = make_builtin("cubic1d")
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-12)
        prev = inc(-0.3, 0.7)
        a = step(p, cfg, pt(-0.5, 1.4), prev, 0.4)
        b = step(p, cfg, pt(-0.5, 1.4), prev, 0.4)
        assert a.w_new.u[0] == b.w_new.u[0]
        assert a.w_new.lam == b.w_new.lam
        assert a.achieved_length == b.achieved_length
        assert np.array_equal(a.dw, b.dw)

    @pytest.mark.parametrize("constraint", ["riks", "crisfield"])
    def test_concurrent_steps_match_serial_bits(self, constraint):
        """Steps on one ProblemDef in four threads at once, with a short
        switch interval, give the bits of the same steps run one after
        another: a step refills only buffers it built itself, none on the
        module or the problem. The steps are springchain steps from the
        trivial point along its tangent and from later points, so the
        threads factor different K's at the same time."""
        p = make_builtin("springchain", n=48)
        cfg = AlmConfig(constraint=constraint, psi=1.0, newton_tol=1e-10)
        w = SolutionPoint(np.zeros(48), 0.0)
        starts, dw = [], tangent(p, w)
        for _ in range(6):
            starts.append((w, dw))
            res = step(p, cfg, w, dw, 0.8)
            w, dw = res.w_new, res.dw

        def bits(res):
            return (res.w_new.u.tobytes(), res.w_new.lam.hex(),
                    res.iterations, res.cuts_used,
                    res.achieved_length.hex(), res.dw.tobytes())

        tasks = [(w, dw, dl) for w, dw in starts for dl in (0.4, 1.6)]
        ref = [bits(step(p, cfg, *t)) for t in tasks]
        # most steps factor more than once, into the arrays they built
        assert sum(r[2] for r in ref) > 1.5 * len(tasks)
        count = 4
        barrier = threading.Barrier(count)
        out = [None] * count

        def run(k):
            barrier.wait(timeout=60)
            # each thread runs the tasks from its own offset, 5 times over
            order = [(k + i) % len(tasks) for i in range(5 * len(tasks))]
            out[k] = [(i, bits(step(p, cfg, *tasks[i]))) for i in order]

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in out:
            assert got is not None
            assert all(b == ref[i] for i, b in got)

    def test_each_thread_has_its_own_workspace(self):
        """alm.workspace is the calling thread's: the same Batch on every
        call for one n, and another on another thread. A new one, of
        WAVE_VALUES // n rows or of the rows asked for where that is more,
        replaces it for another n or more rows."""
        main = alm.workspace(16)
        assert alm.workspace(16) is main
        barrier = threading.Barrier(2)
        seen = []

        def hold():
            seen.append(alm.workspace(16))
            barrier.wait(timeout=60)  # both threads live at once

        threads = [threading.Thread(target=hold) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert main is not seen[0] and main is not seen[1]
        assert alm.workspace(16) is main

        def sizes():
            first = alm.workspace(16)
            wide = alm.workspace(16, 300)
            return [len(ws.factors) for ws in (
                first, wide, alm.workspace(16), alm.workspace(32),
                alm.workspace(8192))], wide is alm.workspace(16, 2)

        rows, kept = sizes()
        assert rows == [alm.WAVE_VALUES // 16, 300, 300,
                        alm.WAVE_VALUES // 32, 1]
        assert not kept  # the 32- and 8192-unknown ones replaced it

    def test_traverses_limit_point(self):
        # The load factor must rise and then fall past (u, lambda) = (-1, 2).
        p = make_builtin("cubic1d")
        cfg = AlmConfig(constraint="crisfield", psi=1.0, newton_tol=1e-12)
        w = pt(0.0, 0.0)
        dw = tangent(p, w)
        lams = [0.0]
        for _ in range(20):
            res = step(p, cfg, w, dw, 0.4)
            dw = res.dw
            w = res.w_new
            lams.append(w.lam)
            assert abs(w.lam - (w.u[0] ** 3 - 3 * w.u[0])) < 1e-9
        assert max(lams) > 1.9 and lams[-1] < max(lams)


def as_dense(p):
    """p with K given as the dense matrix that p.jacobian_u assembles."""
    return replace(p, tridiagonal_fn=None, jacobian_u_fn=lambda u, lam:
                   p.jacobian_u(SolutionPoint(u, lam)))


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBorderedSolve:
    @pytest.mark.parametrize("constraint", ["riks", "crisfield"])
    def test_one_solve_per_newton_iteration(self, constraint, monkeypatch):
        # a branch's first step: one bordered solve for its tangent, then
        # one per Newton iteration; counted as factorizations of
        # springchain's tridiagonal K, and as LAPACK solves of its dense K.
        # A tridiagonal factor is solved with once for the tangent (dG/dlam
        # alone) and twice per iteration: dG/dlam with -G, then -G's
        # refinement residual
        tri = make_builtin("springchain", n=6)
        factors = counting(monkeypatch, tridiagonal, "factor")
        tri_solves = counting(monkeypatch, tridiagonal, "solve")
        solves = counting(monkeypatch, np.linalg, "solve")
        cfg = AlmConfig(constraint=constraint, psi=1.0, newton_tol=1e-11)
        for p, calls in ((tri, factors), (as_dense(tri), solves)):
            w0 = SolutionPoint(np.zeros(6), 0.0)
            res = step(p, cfg, w0, tangent(p, w0), 0.3)
            assert res.cuts_used == 0 and res.iterations >= 2
            assert len(calls) == 1 + res.iterations
            if p is tri:
                assert len(tri_solves) == 1 + 2 * res.iterations
        assert len(factors) == len(solves)


def fixed_K(K):
    """A problem whose tangent stiffness is the constant matrix K."""
    n = K.shape[0]
    return ProblemDef(n_dof=n, residual_fn=lambda u, lam: K @ u,
                      jacobian_u_fn=lambda u, lam: K,
                      jacobian_lambda_fn=lambda u, lam: np.zeros(n),
                      load_norm_sq=0.0)


def fixed_tridiagonal(off, diag):
    """A problem whose tangent stiffness is the constant symmetric
    tridiagonal matrix with diagonal diag and off-diagonal off."""
    n = len(diag)
    return ProblemDef(n_dof=n, residual_fn=lambda u, lam: np.zeros(n),
                      jacobian_u_fn=None,
                      jacobian_lambda_fn=lambda u, lam: np.zeros(n),
                      load_norm_sq=0.0,
                      tridiagonal_fn=lambda u, lam: (off, diag, off))


class TestDetectSingular:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0)),
                    min_size=1, max_size=8),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_sign_and_count_match_slogdet(self, d, seed, tri):
        rng = np.random.default_rng(seed)
        n = len(d)
        if tri:
            # K = L diag(d) L^T, L unit lower bidiagonal with |l_i| <= 1/2:
            # symmetric tridiagonal with LDL^T pivots d, so by Sylvester's
            # law the eigenvalue signs are those of d; as L^-1 has norm
            # <= 2, the eigenvalues stay at least 0.1 / 4 away from zero
            l = rng.uniform(-0.5, 0.5, n - 1)
            off = l * np.asarray(d[:-1])
            diag = np.asarray(d) + np.append(0.0, l * off)
            p = fixed_tridiagonal(off, diag)
            K = p.jacobian_u(pt(np.zeros(n), 0.0))
            assert np.min(np.abs(np.linalg.eigvalsh(K))) >= 0.1 / 4
        else:
            # K = Q diag(d) Q^T: the eigenvalues are d, well away from zero
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            K = Q @ np.diag(d) @ Q.T
            p = fixed_K(K)
        info = detect_singular(p, pt(np.zeros(n), 0.0))
        assert info.det_sign == int(np.linalg.slogdet(K)[0])
        assert info.n_nonpositive == sum(di < 0 for di in d)

    def test_nonsymmetric_complex_pair(self):
        # eigenvalues -1 +- 2i and 3: det K = 5 * 3 > 0, and the pair's
        # negative real parts count twice
        K = np.array([[-1.0, -2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
        info = detect_singular(fixed_K(K), pt(np.zeros(3), 0.0))
        assert info.det_sign == 1
        assert info.n_nonpositive == 2

    def test_point_of_another_size_refused(self):
        # the points' diagonals come stacked, and the stack checks their
        # size as ProblemDef.tridiagonal checks one point's
        p = make_builtin("springchain", n=8)
        with pytest.raises(DimensionError, match="expected 8 unknowns, got 5"):
            detect_singular(p, pt(np.zeros(5), 0.0))

    def test_nonsymmetric_tridiagonal_complex_pair(self):
        # the same K given by its diagonals: not symmetric, so no LDL^T
        # pivot count; the eigenvalue pass counts it as above
        p = ProblemDef(n_dof=3, residual_fn=lambda u, lam: np.zeros(3),
                       jacobian_u_fn=None,
                       jacobian_lambda_fn=lambda u, lam: np.zeros(3),
                       load_norm_sq=0.0,
                       tridiagonal_fn=lambda u, lam: (
                           [2.0, 0.0], [-1.0, -1.0, 3.0], [-2.0, 0.0]))
        info = detect_singular(p, pt(np.zeros(3), 0.0))
        assert (info.det_sign, info.n_nonpositive) == (1, 2)

    def test_cubic1d_unstable_at_origin(self):
        p = make_builtin("cubic1d")
        info = detect_singular(p, pt(0.0, 0.0))
        assert info.det_sign == -1
        assert info.n_nonpositive == 1

    def test_cubic1d_stable_outside(self):
        p = make_builtin("cubic1d")
        info = detect_singular(p, pt(2.0, 2.0))
        assert info.det_sign == 1
        assert info.n_nonpositive == 0

    def test_pitchfork_stable_before_bifurcation(self):
        p = make_builtin("pitchfork")
        info = detect_singular(p, pt(0.0, 0.5))
        assert info.det_sign == 1


class TestLocateBifurcation:
    def test_pitchfork_lambda_one(self):
        p = make_builtin("pitchfork")
        cfg = AlmConfig(psi=1.0, newton_tol=1e-12)
        w_star = locate_bifurcation(p, cfg, pt(0.0, 0.9), pt(0.0, 1.1))
        assert abs(w_star.lam - 1.0) <= 1e-4
        assert abs(w_star.u[0]) <= 1e-10

    def test_cubic1d_limit_point_located_and_classified(self):
        p = make_builtin("cubic1d")
        cfg = AlmConfig(psi=1.0, newton_tol=1e-12)
        w_a = pt(-0.8, -0.8**3 + 3 * 0.8)
        w_b = pt(-1.2, -1.2**3 + 3 * 1.2)
        w_star = locate_bifurcation(p, cfg, w_a, w_b)
        assert w_star.u[0] == pytest.approx(-1.0, abs=0.01)
        assert w_star.lam == pytest.approx(2.0, abs=0.01)
        assert branch_switch(p, w_star) is None  # a limit point

    def test_degenerate_bracket_returns_left_endpoint(self):
        p = make_builtin("pitchfork")
        cfg = AlmConfig(psi=1.0, newton_tol=1e-12)
        w_a = pt(0.0, 1.0)  # already singular
        assert locate_bifurcation(p, cfg, w_a, pt(0.0, 1.5)) is w_a


class TestBranchSwitch:
    def test_pitchfork_null_vector(self):
        p = make_builtin("pitchfork")
        seed = branch_switch(p, pt(0.0, 1.0))
        assert abs(seed[0]) == pytest.approx(1e-4)
        assert seed[-1] == 0.0

    def test_perturbed_step_lands_on_secondary_branch(self):
        p = make_builtin("pitchfork")
        cfg = AlmConfig(psi=1.0, newton_tol=1e-12)
        w_star = pt(0.0, 1.0)
        seed = branch_switch(p, w_star)
        res = step(p, cfg, w_star, seed, 0.4)
        u, lam = res.w_new.u[0], res.w_new.lam
        assert abs(u) > 0.1
        assert abs(u * u - (lam - 1.0)) < 1e-10

    def test_regular_point_refused(self):
        p = make_builtin("pitchfork")
        with pytest.raises(BranchSwitchError):
            branch_switch(p, pt(0.0, 0.2))

    def test_classify_bifurcation(self):
        p = make_builtin("pitchfork")
        assert branch_switch(p, pt(0.0, 1.0)) is not None


class TestConfigValidation:
    def test_bad_constraint(self):
        with pytest.raises(ValueError):
            AlmConfig(constraint="nope")

    def test_bad_newton_tol(self):
        with pytest.raises(ValueError):
            AlmConfig(newton_tol=0.0)

    def test_fields_are_the_papers(self):
        assert [f.name for f in fields(AlmConfig)] == [
            "constraint", "psi", "newton_tol"]

    def test_negative_psi(self):
        with pytest.raises(ValueError):
            AlmConfig(psi=-1.0)

    @pytest.mark.parametrize("field,value", [
        # a comparison with NaN is false, so each check must fail on it
        (field, value) for field in ("newton_tol", "psi")
        for value in (math.nan, math.inf)
    ])
    def test_out_of_range(self, field, value):
        # refused by the type check that a config file's "alm" gets
        with pytest.raises(TypeError,
                           match=f"'alm.{field}' must be a finite number"):
            AlmConfig(**{field: value})

    def test_bool_newton_tol_rejected(self):
        # True is an int to Python, and 0 < True < inf would pass
        with pytest.raises(TypeError,
                           match="'alm.newton_tol' must be a finite number"):
            AlmConfig(newton_tol=True)
