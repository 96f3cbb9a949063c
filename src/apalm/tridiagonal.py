"""O(n) linear algebra for a tridiagonal K.

A problem may give its tangent stiffness K by its three diagonals (sub,
diag, sup) instead of as a dense matrix; `alm` then factors, solves and
counts inertia here instead of calling LAPACK on the assembled matrix.
`factor` and `solve` are LAPACK's dgttrf and dgttrs, Gaussian elimination
with partial pivoting, which is backward stable for any nonsingular
tridiagonal matrix; `ldl_inertia` counts signs of the LDL^T pivots of a
symmetric one, and `ldl_inertias` those of a stack of them, one row per
matrix: from MIN_STACK rows on, it runs the pivot recurrence column by
column, one numpy call per operation for the whole stack, and counts
each row as `ldl_inertia` counts it.

The OpenBLAS that numpy's linalg extension links exports dgttrf and
dgttrs, as the ILP64 symbols scipy_dgttrf_64_ and scipy_dgttrs_64_;
`factor` and `solve` call them through ctypes, and scipy is never
imported. Where that library exports no such symbols (Windows, Accelerate
or MKL builds of numpy), `factor` and `solve` are `reference_factor` and
`reference_solve`: the same elimination, operation for operation, on
Python floats, which returns the same bits. Each path keeps its own
`Factor` form: the reference path Python lists, the LAPACK path arrays and
the dgttrs arguments they fix. The tests compare the two paths bitwise.

dgttrf and dgttrs carry no `argtypes`: with them, ctypes converts each
argument on every call, about a microsecond a call, and every argument is
already the ctypes object C needs. Without them nothing is checked or
converted, so each argument must be one of these, and a bare Python int
never: a reference (`ctypes.byref`) to a `c_int64` for N, NRHS, LDB and
INFO, LAPACK's ILP64 INTEGER; a `c_char` array over the data of a
writable, C-contiguous float64 array for DL, D, DU, DU2 and B, or int64
for IPIV (`_data`), which ctypes passes as its address; the bytes b"N"
for TRANS; and the `c_size_t` `_TRANS_LEN` for the hidden length of
TRANS that gfortran appends, which a bare int would pass as a 32-bit C
int and leave the upper half of the register undefined.

A factor solves only its own rows: a caller writes up to two right-hand
sides into `lu.b`, and `solve(lu, k)` solves the first k in place and
returns them, a view of `lu.b`. A caller that factors one K after
another, as the Newton iterations of arc-length steps do, passes its
last factor back to `factor`, which keeps its `b` and refuses one of
another n; the LAPACK path also refills its arrays, which the first
factor wrapped in ctypes. In `alm` such a factor lives in a row of its
thread's `alm.workspace`, refilled by whichever batch member or step
taken alone stands at that row, and no other thread sees it, so steps
that run at the same time in different threads never write to each
other's arrays. A workspace holds the factors of one kernel path, so one
filled by `reference_factor` is not refilled by `lapack_factor`.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple, Sequence

import numpy as np


class Factor(NamedTuple):
    """P K = L U from `factor`, as dgttrf documents it: dl holds the n - 1
    multipliers of L, d, du and du2 the diagonal and the first and second
    superdiagonals of U (du2, of length n - 2, is the fill-in of row
    interchanges), and ipiv[i] (1-based) the pivot row of step i: i + 1 where
    row i kept its place, i + 2 where rows i and i + 1 were interchanged.
    `reference_factor` gives the five as lists of Python floats and ints,
    `lapack_factor` as float64 and int64 arrays. Both give b, the only
    right-hand sides the factor solves: a (2, n) float64 array whose first k
    rows `solve(lu, k)` solves in place, kept by a refactor into the factor.
    A refactor overwrites everything a solve reads, so a factor may be
    refilled by any caller of the one thread that holds it, as the members
    and lone steps standing at one row of a thread's `alm.workspace`
    refill theirs.
    `lapack_factor` also gives, as `args`, dgttrf's whole argument list N, DL,
    D, DU, DU2, IPIV and INFO, as `calls`, dgttrs' whole argument lists for
    b's first k rows, keyed by k, and as `info` the INFO they share; all are
    built once, and their pointers keep the arrays alive. Each path solves
    only with its own factors."""

    dl: Sequence
    d: Sequence
    du: Sequence
    du2: Sequence
    ipiv: Sequence
    b: np.ndarray
    args: tuple = ()
    calls: dict | None = None
    info: ctypes.c_int64 | None = None


def _diagonals(sub, diag, sup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 copies of the three diagonals, checked for lengths n - 1, n
    and n - 1 with n >= 1; dgttrf overwrites what it is given, and a caller
    may pass one array as both sub and sup."""
    dl = np.array(sub, dtype=float)
    d = np.array(diag, dtype=float)
    du = np.array(sup, dtype=float)
    n = d.size
    if d.shape != (n,) or n == 0 or dl.shape != (n - 1,) \
            or du.shape != (n - 1,):
        raise ValueError("tridiagonal K needs diagonals of lengths "
                         "n - 1, n and n - 1, n >= 1")
    return dl, d, du


def _new_rows(b: np.ndarray | None, n: int) -> np.ndarray:
    """The rows of a new factor of n unknowns: b, checked, or a new array."""
    if b is None:
        return np.empty((2, n))
    if b.shape != (2, n) or b.dtype != np.float64 \
            or not b.flags.c_contiguous or not b.flags.writeable:
        raise ValueError("a factor's rows must be a writable, C-contiguous "
                         "(2, n) float64 array")
    return b


def reference_factor(sub, diag, sup, lu: Factor | None = None,
                     b: np.ndarray | None = None) -> Factor:
    """Factor the tridiagonal matrix with diagonals sub, diag and sup
    (lengths n - 1, n, n - 1); raises np.linalg.LinAlgError on a zero
    pivot, where the matrix is exactly singular. This is dgttrf step for
    step on Python floats, where a float in a list costs a fraction of a
    numpy scalar to combine. Given lu, an earlier factor from this
    function of a K of the same n, the new factor keeps lu's rows b, as
    `lapack_factor` does; its lists are built anew. Without lu, the rows
    are b where given, a C-contiguous (2, n) float64 array, and a new one
    otherwise."""
    dl, d, du = (a.tolist() for a in _diagonals(sub, diag, sup))
    n = len(d)
    if lu is None:
        b = _new_rows(b, n)
    elif lu.b.shape == (2, n):
        b = lu.b
    else:
        raise ValueError("tridiagonal K needs diagonals of the lengths "
                         "of the factor it is refilled into")
    du.append(0.0)
    du2 = [0.0] * n
    ipiv = list(range(1, n + 1))
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
            ipiv[i] = i + 2
            d[i] = li
            t = d[i + 1]
            d[i + 1] = du[i] - f * t
            du2[i] = du[i + 1]
            du[i + 1] = -f * du2[i]
            du[i] = t
        dl[i] = f
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("zero pivot")
    return Factor(dl, d, du[:-1], du2[:max(n - 2, 0)], ipiv, b)


def reference_solve(lu: Factor, k: int) -> np.ndarray:
    """lu.b's first k rows, right-hand sides of K x = b for K factored by
    `reference_factor`, overwritten with their solutions and returned as
    that view of lu.b: dgttrs, step for step on Python floats."""
    xs = lu.b[:k]
    dl, d, du, du2, ipiv = lu[:5]
    n = len(d)
    rows = xs.tolist()
    for x in rows:
        xi = x[0]  # L^-1 P b: step i - 1 settles row i - 1 and updates row i
        for i, l, p in zip(range(1, n), dl, ipiv):
            xn = x[i]
            if p == i:
                x[i - 1] = xi
                xi = xn - l * xi
            else:
                x[i - 1] = xn
                xi = xi - l * xn
        x1 = x[n - 1] = xi / d[n - 1]  # U^-1, carrying x[i+1] and x[i+2]
        if n > 1:
            x2, x1 = x1, (x[n - 2] - du[n - 2] * x1) / d[n - 2]
            x[n - 2] = x1
        for i in range(n - 3, -1, -1):
            xi = (x[i] - du[i] * x1 - du2[i] * x2) / d[i]
            x[i] = xi
            x2, x1 = x1, xi
    xs[...] = rows
    return xs


def _load_lapack():
    """(dgttrf, dgttrs) from the LAPACK that numpy's linalg extension
    links, or None where it exports no ILP64 scipy-openblas symbols."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        dgttrf, dgttrs = lib.scipy_dgttrf_64_, lib.scipy_dgttrs_64_
    except (ImportError, OSError, AttributeError):
        return None
    # no argtypes: every argument is a prebuilt ctypes object (see above)
    dgttrf.restype = dgttrs.restype = None
    return dgttrf, dgttrs


_DGTTRF, _DGTTRS = _load_lapack() or (None, None)
# the address of an array's data, also for an empty one; ctypes keeps the
# array alive for the call, and is given only arrays made here, which are
# writable, C-contiguous and of the dtype LAPACK expects
_data = (ctypes.c_char * 0).from_buffer


# the hidden length of dgttrs' character argument TRANS, a size_t
_TRANS_LEN = ctypes.c_size_t(1)


def _int(value: int):
    """A reference to a LAPACK INTEGER, an int64 in the ILP64 interface."""
    return ctypes.byref(ctypes.c_int64(value))


def lapack_factor(sub, diag, sup, lu: Factor | None = None,
                  b: np.ndarray | None = None) -> Factor:
    """`reference_factor` through LAPACK's dgttrf, on copies of the
    diagonals. Given lu, an earlier factor from this function of a K of
    the same n, the copies go into lu's arrays, whose LAPACK arguments were
    built with them, and lu is returned, factored anew: its old factor is
    lost, so lu must be one that nothing else still solves with. A new
    factor's rows are b where given, as in `reference_factor`."""
    if lu is None:
        dl, d, du = _diagonals(sub, diag, sup)
        n = d.size
        # Factor's arrays are dgttrf's and dgttrs' DL, D, DU, DU2 and IPIV,
        # in that order
        arrays = (dl, d, du, np.empty(max(n - 2, 0)),
                  np.empty(n, dtype=np.int64))
        b = _new_rows(b, n)
        info = ctypes.c_int64()
        # N, DL, D, DU, DU2, IPIV, INFO
        args = (_int(n), *map(_data, arrays), ctypes.byref(info))
        # TRANS, N, NRHS, DL, D, DU, DU2, IPIV, B, LDB = N, INFO, len(TRANS)
        b_data = _data(b)
        calls = {k: (b"N", args[0], _int(k), *args[1:6], b_data, args[0],
                     args[6], _TRANS_LEN) for k in (1, 2)}
        lu = Factor(*arrays, b, args, calls, info)
    else:
        dl, d, du = lu[:3]
        if (np.shape(sub), np.shape(diag), np.shape(sup)) != \
                (dl.shape, d.shape, du.shape):
            raise ValueError("tridiagonal K needs diagonals of the lengths "
                             "of the factor it is refilled into")
        # dgttrf sets every entry of du2 and ipiv
        dl[...], d[...], du[...] = sub, diag, sup
    _DGTTRF(*lu.args)
    if lu.info.value:
        raise np.linalg.LinAlgError("zero pivot")
    return lu


def lapack_solve(lu: Factor, k: int) -> np.ndarray:
    """`reference_solve` through LAPACK's dgttrs, for a factor from
    `lapack_factor`, in the one call that lu.calls holds for k: lu.b's
    first k rows are the columns of dgttrs' B, with LDB = n."""
    _DGTTRS(*lu.calls[k])
    return lu.b[:k]


factor, solve = ((reference_factor, reference_solve) if _DGTTRF is None
                 else (lapack_factor, lapack_solve))


def matvec(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
           x: np.ndarray) -> np.ndarray:
    """K x for K given by its three diagonals; with a row of diagonals and
    one of x per K, each K times its x, row for row with the same bits."""
    y = diag * x
    y[..., :-1] += sup * x[..., 1:]
    y[..., 1:] += sub * x[..., :-1]
    return y


# the fewest rows that ldl_inertias counts column by column; fewer are
# counted row by row by ldl_inertia. Per stack (timeit, random rows), 8
# rows cost 252 us against 157 row by row at 256 unknowns, 12 rows 259
# against 235, 16 rows 261 against 313, and 128 rows 498 against 2495; at
# 64 unknowns 12 rows cost 78 us against 101, and at 8 unknowns 4 rows 22
# against 21
MIN_STACK = 12


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
    factorization fails does in the dense test. `ldl_inertias` counts a
    stack of such matrices at once, with the same results.
    """
    g = np.abs(diag)
    g[:-1] += np.abs(off)
    g[1:] += np.abs(off)
    tol = 1e-14 * max(1.0, float(np.max(g)))
    n_nonpos, singular, p = 0, False, 1.0
    # the squares e * e come from numpy, the same IEEE products; a pivot
    # above tol, the common case, costs one comparison, and a NaN pivot
    # fails it and is not counted
    for d, e2 in zip(diag.tolist(), [0.0, *(off * off).tolist()]):
        p = d - e2 / p
        if p <= tol:
            if p >= -tol:
                singular, p = True, -tol
            n_nonpos += 1
    return (0 if singular else (-1) ** n_nonpos), n_nonpos


def ldl_inertias(off: np.ndarray, diag: np.ndarray) -> list[tuple[int, int]]:
    """`ldl_inertia` of each row: of the matrix with diagonal diag[k] and
    off-diagonal off[k], for a (m, n - 1) off and a (m, n) diag.

    A stack of at least MIN_STACK rows runs the pivot recurrence column by
    column, one numpy call per operation for all rows, on the same IEEE
    operations and each row's own tol, computed as `ldl_inertia` computes
    it (np.fmax, so a row with a NaN gets 1e-14, as max(1.0, nan) does).
    That pass does not replace a pivot within tol of zero by -tol: a row
    with no such pivot has the pivots of `ldl_inertia`, and is counted
    from them, and a row with one, whose first such pivot is the same,
    is counted again by `ldl_inertia`. Fewer rows are counted row by row.
    """
    if len(diag) < MIN_STACK:
        return [ldl_inertia(o, d) for o, d in zip(off, diag)]
    g = np.abs(diag)
    e = np.abs(off)
    g[:, :-1] += e
    g[:, 1:] += e
    tol = 1e-14 * np.fmax(1.0, np.max(g, axis=1))
    del g  # before the pivots' array is made: a lower peak of memory
    e2 = np.multiply(off, off, out=e)
    # pivots[j] holds column j's pivot of every row, the first d_0 - 0 / 1.
    # A pivot within tol, which ldl_inertia replaces, may be zero here, and
    # its row is counted again below; NaN and inf pass through the
    # arithmetic as on Python floats, so no warning is raised
    pivots = np.empty(diag.shape[::-1])
    q = np.empty(len(diag))
    p = pivots[0]
    p[...] = diag[:, 0]
    with np.errstate(all="ignore"):
        for j in range(1, len(pivots)):
            np.divide(e2[:, j - 1], p, out=q)
            p = pivots[j]
            np.subtract(diag[:, j], q, out=p)
    n_nonpos = np.count_nonzero(pivots <= tol, axis=0).tolist()
    counts = [((-1) ** k, k) for k in n_nonpos]
    np.abs(pivots, out=pivots)
    for k in np.flatnonzero(np.any(pivots <= tol, axis=0)).tolist():
        counts[k] = ldl_inertia(off[k], diag[k])
    return counts
