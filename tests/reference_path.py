"""Run pytest with the tridiagonal kernels on their reference path.

    PYTHONPATH=src python tests/reference_path.py [PYTEST ARGS ...]

`apalm.tridiagonal` picks LAPACK's dgttrf/dgttrs at import where numpy's
linalg extension exports them, and the Python elimination elsewhere, as on
the Windows, Accelerate and MKL builds of numpy. This script makes that
choice come out the second way: while apalm is imported, `ctypes.CDLL`
raises `OSError`, as a library that cannot be loaded does. It then checks
that `factor` is `reference_factor` and runs pytest with its own
arguments in this process, so every test that imports apalm runs on the
reference path; interpreters that a test starts itself load LAPACK as
usual. `test_lapack_kernels_found_where_numpy_links_ilp64_openblas` asserts
the LAPACK path where numpy links it, and fails here by design.
"""

import ctypes
import sys

import pytest


def _no_library(*args, **kwargs):
    raise OSError("library loading disabled to select the reference path")


def main() -> int:
    cdll, ctypes.CDLL = ctypes.CDLL, _no_library
    try:
        from apalm import tridiagonal
    finally:
        ctypes.CDLL = cdll
    if (tridiagonal.factor, tridiagonal.solve) != \
            (tridiagonal.reference_factor, tridiagonal.reference_solve):
        sys.exit("reference_path: apalm still chose the LAPACK kernels")
    return pytest.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
