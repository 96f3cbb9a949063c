"""Nonlinear systems G(u, lambda) = 0 with derivatives, plus built-in benchmarks.

The built-in problems are small test fixtures; all but springchain have
closed-form solution paths and serve as analytic oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """Input vector does not match the problem's number of unknowns."""


class UnknownProblemError(ValueError):
    """Requested builtin problem name is not registered."""


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_numbers(values: dict, types: dict, where: str) -> None:
    """Raise TypeError unless every entry of values typed "int" in types
    holds an integer, every one typed "float" a finite number (3.0, "0.1",
    true, NaN and null are rejected) and every one typed "bool" true or
    false (not "false", 0 or null).

    types maps names to annotation strings, as dataclass fields and the
    annotations of a function give them under postponed evaluation.
    """
    for key, kind in types.items():
        if key not in values:
            continue
        value = values[key]
        if kind == "int" and not is_int(value):
            raise TypeError(f"'{where}.{key}' must be an integer")
        if kind == "float" and not ((is_int(value)
                                     or isinstance(value, float))
                                    and math.isfinite(value)):
            raise TypeError(f"'{where}.{key}' must be a finite number")
        if kind == "bool" and not isinstance(value, bool):
            raise TypeError(f"'{where}.{key}' must be true or false")


_FLOAT64 = np.dtype(np.float64)


def _vector(a, n: int) -> np.ndarray:
    """a as a float64 array of shape (n,): a itself where it is one, which
    np.asarray(a, dtype=float).reshape(n) would only wrap anew."""
    if type(a) is np.ndarray and a.dtype == _FLOAT64 and a.shape == (n,):
        return a
    return np.asarray(a, dtype=float).reshape(n)


@dataclass(frozen=True)
class SolutionPoint:
    """One point w = (u, lambda) on a solution branch."""

    u: np.ndarray
    lam: float

    def __post_init__(self):
        # the corrector's trial points come with a float64 vector and a
        # Python float, which the conversions would return as they are
        u = self.u
        if not (type(u) is np.ndarray and u.dtype == _FLOAT64
                and u.ndim == 1):
            object.__setattr__(self, "u",
                               np.atleast_1d(np.asarray(u, dtype=float)))
        if type(self.lam) is not float:
            object.__setattr__(self, "lam", float(self.lam))

    @property
    def n_dof(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class ProblemDef:
    """A nonlinear system G(u, lambda) = 0 with its derivatives.

    For proportional loading, G = N(u) - lambda * P, d/dlambda G = -P is
    constant and load_norm_sq = P^T P. Problems that are not of proportional
    form supply d/dlambda G and load_norm_sq explicitly; the arc-length
    algebra only needs K, dG/dlambda and P^T P.

    K = dG/du comes either as a dense matrix from jacobian_u_fn or, for a
    tridiagonal K, as its three diagonals (sub, diag, sup), of lengths
    n - 1, n and n - 1, from tridiagonal_fn; exactly one of the two is
    given. The arc-length algebra solves and factors a tridiagonal K in
    O(n) (`apalm.tridiagonal`); jacobian_u assembles the dense matrix from
    the diagonals for the callers that need one.

    A problem may also give stacked forms of residual_fn, tridiagonal_fn
    and jacobian_lambda_fn, which take the points of a batch at once: u of
    shape (m, n), one point per row, and lam of shape (m,), and return the
    values of point k in row k of arrays of m rows. `residuals`,
    `tridiagonals` and `jacobians_lambda` then make one call per batch
    instead of one per point. A stacked form must give each row the bits
    that its per-point callback gives at that point, as elementwise IEEE
    arithmetic written over the last axis does; without one, those
    methods call the per-point callback row by row. Callers only read the
    arrays that a callback returns, so a stacked form may return a
    read-only view, such as np.broadcast_to of a value every point shares.
    """

    n_dof: int
    residual_fn: Callable[[np.ndarray, float], np.ndarray]
    jacobian_u_fn: Callable[[np.ndarray, float], np.ndarray] | None
    jacobian_lambda_fn: Callable[[np.ndarray, float], np.ndarray]
    load_norm_sq: float
    name: str = "custom"
    tridiagonal_fn: Callable[[np.ndarray, float], tuple] | None = None
    # the stacked forms, of (m, n) u and (m,) lam
    residuals_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    tridiagonals_fn: Callable[[np.ndarray, np.ndarray], tuple] | None = None
    jacobians_lambda_fn: Callable[[np.ndarray, np.ndarray],
                                  np.ndarray] | None = None

    def __post_init__(self):
        if not self.n_dof >= 1:
            raise ValueError("n_dof must be positive")
        if not 0 <= self.load_norm_sq < math.inf:
            raise ValueError("load_norm_sq must be non-negative and finite")
        if (self.jacobian_u_fn is None) == (self.tridiagonal_fn is None):
            raise ValueError(
                "give exactly one of jacobian_u_fn and tridiagonal_fn")

    def _check(self, w: SolutionPoint) -> None:
        if w.n_dof != self.n_dof:
            raise DimensionError(
                f"expected {self.n_dof} unknowns, got {w.n_dof}"
            )

    def residual(self, w: SolutionPoint) -> np.ndarray:
        """Evaluate G(u, lambda)."""
        self._check(w)
        return _vector(self.residual_fn(w.u, w.lam), self.n_dof)

    def jacobian_u(self, w: SolutionPoint) -> np.ndarray:
        """Evaluate the tangent stiffness K = dG/du as a dense matrix."""
        n = self.n_dof
        if self.jacobian_u_fn is None:
            sub, diag, sup = self.tridiagonal(w)
            K = np.diag(diag)
            K.flat[n::n + 1] = sub
            K.flat[1::n + 1] = sup
            return K
        self._check(w)
        return np.asarray(self.jacobian_u_fn(w.u, w.lam),
                          dtype=float).reshape(n, n)

    def tridiagonal(self, w: SolutionPoint
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """K's diagonals (sub, diag, sup), or None if K is given dense."""
        if self.tridiagonal_fn is None:
            return None
        self._check(w)
        n = self.n_dof
        sub, diag, sup = self.tridiagonal_fn(w.u, w.lam)
        return _vector(sub, n - 1), _vector(diag, n), _vector(sup, n - 1)

    def jacobian_lambda(self, w: SolutionPoint) -> np.ndarray:
        """Evaluate dG/dlambda (equals -P for proportional loading)."""
        self._check(w)
        return _vector(self.jacobian_lambda_fn(w.u, w.lam), self.n_dof)

    # The same callbacks at many points at once, (u[k], lam[k]) for each
    # row u[k] of a (points, n) array u and entry lam[k] of a (points,)
    # array or list lam: each value as the row k of one float64 array,
    # converted as `_vector` converts it alone. The stacked form of a
    # callback, where the problem gives one, makes the one call; otherwise
    # the per-point callback is called at each point, with lam[k] as a
    # Python float.

    def _points(self, u: np.ndarray, lam) -> np.ndarray:
        """lam as a float64 array, once u is checked for n columns."""
        if u.shape[-1] != self.n_dof:
            raise DimensionError(
                f"expected {self.n_dof} unknowns, got {u.shape[-1]}")
        return np.asarray(lam, dtype=float)

    def residuals(self, u: np.ndarray, lam) -> np.ndarray:
        """`residual` at each point, as the rows of a (points, n) array."""
        lam = self._points(u, lam)
        if self.residuals_fn is not None:
            return _stacked(self.residuals_fn(u, lam), len(u), self.n_dof)
        return _stacked([self.residual_fn(*w)
                         for w in zip(u, lam.tolist())], len(u), self.n_dof)

    def tridiagonals(self, u: np.ndarray, lam
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`tridiagonal` at each point: (sub, diag, sup) with the
        diagonals of K at point k in their rows; for a tridiagonal K."""
        lam = self._points(u, lam)
        n = self.n_dof
        if self.tridiagonals_fn is not None:
            parts = self.tridiagonals_fn(u, lam)
        else:
            parts = zip(*[self.tridiagonal_fn(*w)
                          for w in zip(u, lam.tolist())])
        return tuple(_stacked(part, len(u), m)
                     for part, m in zip(parts, (n - 1, n, n - 1)))

    def jacobians_lambda(self, u: np.ndarray, lam) -> np.ndarray:
        """`jacobian_lambda` at each point, as the rows of an array."""
        lam = self._points(u, lam)
        if self.jacobians_lambda_fn is not None:
            return _stacked(self.jacobians_lambda_fn(u, lam), len(u),
                            self.n_dof)
        return _stacked([self.jacobian_lambda_fn(*w)
                         for w in zip(u, lam.tolist())], len(u), self.n_dof)


def _stacked(values, m: int, n: int) -> np.ndarray:
    """Values of m points of n entries each as the rows of one float64
    array: values itself where it is one of that shape."""
    return np.asarray(values, dtype=float).reshape(m, n)


def _linear1d(k: float = 1.0, P: float = 1.0) -> ProblemDef:
    return ProblemDef(
        n_dof=1,
        residual_fn=lambda u, lam: np.array([k * u[0] - lam * P]),
        jacobian_u_fn=lambda u, lam: np.array([[k]]),
        jacobian_lambda_fn=lambda u, lam: np.array([-P]),
        load_norm_sq=P * P,
        name="linear1d",
    )


def _cubic1d() -> ProblemDef:
    # Path lambda = u^3 - 3u, limit points at (u, lambda) = (-1, 2), (1, -2).
    return ProblemDef(
        n_dof=1,
        residual_fn=lambda u, lam: np.array([u[0] ** 3 - 3.0 * u[0] - lam]),
        jacobian_u_fn=lambda u, lam: np.array([[3.0 * u[0] ** 2 - 3.0]]),
        jacobian_lambda_fn=lambda u, lam: np.array([-1.0]),
        load_norm_sq=1.0,
        name="cubic1d",
    )


def _pitchfork() -> ProblemDef:
    # Primary branch u = 0, secondary branch u^2 = lambda - 1,
    # bifurcation at lambda = 1. Not of proportional form: dG/dlambda = -u,
    # so the metric weight P^T P = 1 is supplied explicitly.
    return ProblemDef(
        n_dof=1,
        residual_fn=lambda u, lam: np.array([u[0] ** 3 - (lam - 1.0) * u[0]]),
        jacobian_u_fn=lambda u, lam: np.array([[3.0 * u[0] ** 2 - (lam - 1.0)]]),
        jacobian_lambda_fn=lambda u, lam: np.array([-u[0]]),
        load_norm_sq=1.0,
        name="pitchfork",
    )


def _springchain(n: int = 8, c: float = 0.5) -> ProblemDef:
    """Chain of n cubic springs with nearest-neighbour coupling c.

    G_i = u_i^3 - 3 u_i + c (2 u_i - u_{i-1} - u_{i+1}) - lambda,
    with the out-of-range neighbour terms dropped at the chain ends.
    """
    if n < 1:
        raise ValueError("springchain needs n >= 1")

    def residual(u, lam):
        # G at u, a point or a stack of them in the rows of a (m, n) u,
        # with lam a float or a (m, 1) column: u * u * u - 3.0 * u +
        # 2.0 * c * u - lam, minus c times each neighbour, in that order,
        # in place in g and one scratch array t, elementwise over the last
        # axis, so a row has the bits of its point alone. u * u * u, not
        # u**3: numpy computes u**3 through libm's pow, element by
        # element, at about ten times the cost
        g = u * u
        g *= u
        t = 3.0 * u
        g -= t
        np.multiply(2.0 * c, u, out=t)
        g += t
        g -= lam
        t = t[..., 1:]
        np.multiply(c, u[..., 1:], out=t)
        g[..., :-1] -= t
        np.multiply(c, u[..., :-1], out=t)
        g[..., 1:] -= t
        return g

    def diagonal(u):
        return 3.0 * u**2 - 3.0 + 2.0 * c

    # the off-diagonals of K and dG/dlam, the same for every point: shared
    # arrays, read-only so no caller can change them for the others
    off = np.full(n - 1, -c)
    off.flags.writeable = False
    load = np.full(n, -1.0)
    load.flags.writeable = False

    def tridiagonals(u, lam):
        offs = np.broadcast_to(off, (len(u), n - 1))
        return offs, diagonal(u), offs

    return ProblemDef(
        n_dof=n,
        residual_fn=residual,
        jacobian_u_fn=None,
        jacobian_lambda_fn=lambda u, lam: load,
        load_norm_sq=float(n),
        name=f"springchain({n})",
        tridiagonal_fn=lambda u, lam: (off, diagonal(u), off),
        residuals_fn=lambda u, lam: residual(u, lam[:, None]),
        tridiagonals_fn=tridiagonals,
        jacobians_lambda_fn=lambda u, lam: np.broadcast_to(load, u.shape),
    )


_BUILTINS: dict[str, Callable[..., ProblemDef]] = {
    "linear1d": _linear1d,
    "cubic1d": _cubic1d,
    "pitchfork": _pitchfork,
    "springchain": _springchain,
}


def make_builtin(name: str, **params) -> ProblemDef:
    """Construct a built-in benchmark problem by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {sorted(_BUILTINS)}"
        ) from None
    try:
        check_numbers(params, factory.__annotations__, name)
        return factory(**params)
    except TypeError as exc:
        raise UnknownProblemError(f"bad parameters for {name!r}: {exc}") from None
