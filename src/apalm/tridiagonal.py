"""O(n) linear algebra for a tridiagonal K, on Python floats.

A problem may give its tangent stiffness K by its three diagonals (sub,
diag, sup) instead of as a dense matrix; `alm` then factors, solves and
counts inertia here instead of calling LAPACK on the assembled matrix.
`factor` and `solve` are the Gaussian elimination with partial pivoting of
LAPACK's dgtsv, which is backward stable for any nonsingular tridiagonal
matrix; `ldl_inertia` counts signs of the LDL^T pivots of a symmetric one.
The loops run over Python lists: a float in a list costs a fraction of a
numpy scalar to combine, and numpy has no tridiagonal solver.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Factor(NamedTuple):
    """P K = L U from `factor`: U's diagonal d, first and second
    superdiagonals du and du2 (du2 is the fill-in of row interchanges), and
    for each elimination step i its multiplier and whether rows i and i+1
    were interchanged."""

    d: list
    du: list
    du2: list
    mult: list
    swap: list


def factor(sub, diag, sup) -> Factor:
    """Factor the tridiagonal matrix with diagonals sub, diag and sup
    (lengths n - 1, n, n - 1); raises np.linalg.LinAlgError on a zero
    pivot, where the matrix is exactly singular."""
    d = np.asarray(diag, dtype=float).tolist()
    dl = np.asarray(sub, dtype=float).tolist()
    du = np.asarray(sup, dtype=float).tolist()
    du.append(0.0)
    n = len(d)
    du2 = [0.0] * n
    mult = [0.0] * n
    swap = [False] * n
    for i in range(n - 1):
        di, li = d[i], dl[i]
        if abs(di) >= abs(li):
            if di == 0.0:
                raise np.linalg.LinAlgError("zero pivot")
            f = li / di
            d[i + 1] -= f * du[i]
        else:
            # interchange rows i and i+1; row i gains the entry du2[i]
            f = di / li
            swap[i] = True
            d[i] = li
            t = d[i + 1]
            d[i + 1] = du[i] - f * t
            du2[i] = du[i + 1]
            du[i + 1] = -f * du2[i]
            du[i] = t
        mult[i] = f
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("zero pivot")
    return Factor(d, du, du2, mult, swap)


def solve(lu: Factor, b) -> np.ndarray:
    """The solution x of K x = b, for K factored by `factor`."""
    d, du, du2, mult, swap = lu
    n = len(d)
    x = np.asarray(b, dtype=float).tolist()
    for i in range(n - 1):  # L^-1 P b
        if swap[i]:
            xi = x[i]
            x[i] = x[i + 1]
            x[i + 1] = xi - mult[i] * x[i + 1]
        else:
            x[i + 1] -= mult[i] * x[i]
    x1 = x[n - 1] / d[n - 1]  # U^-1, carrying x[i+1] and x[i+2]
    x[n - 1] = x1
    x2 = 0.0
    for i in range(n - 2, -1, -1):
        xi = (x[i] - du[i] * x1 - du2[i] * x2) / d[i]
        x[i] = xi
        x2, x1 = x1, xi
    return np.array(x)


def matvec(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
           x: np.ndarray) -> np.ndarray:
    """K x for K given by its three diagonals."""
    y = diag * x
    y[:-1] += sup * x[1:]
    y[1:] += sub * x[:-1]
    return y


def ldl_inertia(off: np.ndarray, diag: np.ndarray) -> tuple[int, int]:
    """(det_sign, n_nonpositive) of the symmetric tridiagonal matrix with
    diagonal diag and off-diagonal off, from its LDL^T pivots
    p_i = d_i - e_{i-1}^2 / p_{i-1}.

    By Sylvester's law of inertia the pivots have the signs of the
    eigenvalues, so n_nonpositive counts the pivots at or below
    tol = 1e-14 * max(1, g), where g is the Gershgorin bound
    max_i |d_i| + |e_{i-1}| + |e_i| on the eigenvalues, and det_sign is
    (-1)^n_nonpositive. A pivot within tol of zero reports det_sign = 0 and
    continues as -tol, as LAPACK's pivmin guard does. A pivot near zero need
    not mean an eigenvalue near zero: [[0, 1], [1, 0]] has eigenvalues
    +-1 but a zero first pivot, and reads as singular, as a matrix whose
    factorization fails does in the dense test.
    """
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
