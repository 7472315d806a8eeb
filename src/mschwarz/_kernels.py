"""scipy's compiled LAPACK and CSR kernels, without the scipy packages.

A matrix problem calls four LAPACK routines of scipy (``dpotrf``,
``dpotrs``, ``dsyevr``, ``dsygvd``) and its CSR ``csr_matvec`` kernel.
Importing ``scipy.linalg`` or ``scipy.sparse`` to reach them runs the
packages' ``__init__``: 0.26-0.34 s and 30 MB of RSS (numpy 2.4, scipy
1.17, a 2-vCPU x86-64 machine), most of it in ``scipy._lib._array_api``,
which loads ``numpy.f2py``.  So this module loads only the two compiled
modules the kernels live in (8 ms, 2.7 MB), ``scipy.linalg._flapack`` and
``scipy.sparse._sparsetools``, from scipy's install directory, and
registers them in ``sys.modules`` under their own names.  A module already
there (the process imported ``scipy.linalg``) is used as it is.

This needs an install in which each compiled module sits next to its
package's ``__init__.py`` (``<scipy>/linalg/_flapack...so``) and loads with
nothing set up by ``scipy/__init__``: the Linux wheels (tested: scipy
1.17.1) and, by the same layout, the macOS wheels and conda packages.
Windows wheels are not supported: their ``scipy/__init__`` adds the DLL
directory ``_flapack`` links against.  Neither are meson-python editable
installs, whose compiled modules live in the build directory.  There the
loader raises ``ImportError`` saying so; there is no fallback to the
scipy packages.

A process that imports ``scipy.linalg`` afterwards gets a working package:
its ``from scipy.linalg import _flapack`` finds this module in
``sys.modules``.  Only the private attribute ``scipy.linalg._flapack`` of
the package is then missing (and ``scipy.sparse._sparsetools`` likewise).

Each wrapper makes the call the named scipy function makes for a float64
matrix, with the same arguments, and keeps its checks: the
``check_finite`` scan, the tests of LAPACK's ``info`` and the exception
types (numpy's ``LinAlgError`` is scipy's).  The tests pin every wrapper to
its scipy function bit for bit.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError


def _load(name):
    """The compiled module ``scipy.<package>.<module>`` named ``name``,
    loaded without running its package's ``__init__``."""
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    package = name.split(".")[1]
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, package) for d in scipy.submodule_search_locations])
    unsupported = (f"cannot load {name} on its own from this scipy install; "
                   "mschwarz needs the compiled module next to its package's "
                   "__init__.py, loadable without scipy/__init__ (Linux or macOS "
                   "wheels, conda)")
    if spec is None:
        raise ImportError(f"{unsupported}: no such file", name=name)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise ImportError(f"{unsupported}: {exc}", name=name) from exc
    sys.modules[name] = module
    return module


flapack = _load("scipy.linalg._flapack")
csr_matvec = _load("scipy.sparse._sparsetools").csr_matvec

_INT32_MAX = np.iinfo(np.int32).max


def _validated(a, check_finite):
    return np.asarray_chkfinite(a) if check_finite else np.asarray(a)


def potrf(a, overwrite_a=False, clean=True, check_finite=True):
    """The lower Cholesky factor of ``a``: ``scipy.linalg.cholesky(a,
    lower=True, overwrite_a)`` for ``clean``, else the factor of
    ``cho_factor(a, lower=True, overwrite_a)``, whose upper triangle holds
    what ``a`` held there."""
    c, info = flapack.dpotrf(_validated(a, check_finite), lower=1, clean=clean,
                             overwrite_a=overwrite_a)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument '
                         f'on entry to "POTRF".')
    return c


def potrs(c, b, check_finite=True):
    """``scipy.linalg.cho_solve((c, True), b)``: the solution of A x = b
    from the lower Cholesky factor ``c`` of A."""
    x, info = flapack.dpotrs(_validated(c, check_finite), _validated(b, check_finite),
                             lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _check_eigen_info(info, n, routine, failed):
    if info == 0:
        return
    if info < -1:
        raise LinAlgError(f"Illegal value in argument {-info} of internal {routine}")
    if info > n:
        raise LinAlgError(f"The leading minor of order {info - n} of B is not positive "
                          "definite. The factorization of B could not be completed and no "
                          "eigenvalues or eigenvectors were computed.")
    raise LinAlgError(failed)


def eigvalsh(a):
    """The ascending eigenvalues of the symmetric ``a`` from its lower
    triangle: ``scipy.linalg.eigh(a, eigvals_only=True,
    overwrite_a=True)``, which asks ``dsyevr`` for its work sizes and then
    calls it.  LAPACK works in a Fortran-ordered float64 ``a`` itself
    and destroys it."""
    a = np.asarray_chkfinite(a)
    n = a.shape[0]
    *sizes, info = flapack.dsyevr_lwork(n=n, lower=1)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork, liwork = (int(s) for s in sizes)
    if not (0 <= lwork <= _INT32_MAX and 0 <= liwork <= _INT32_MAX):
        raise ValueError("Too large work array required -- computation cannot be "
                         "performed with standard 32-bit LAPACK.")
    w, _, _, _, info = flapack.dsyevr(a, compute_v=0, lower=1, lwork=lwork, liwork=liwork,
                                      overwrite_a=True)
    _check_eigen_info(info, n, "dsyevr", "Internal Error.")
    return w


def eigvalsh_pencil(a, b):
    """The ascending eigenvalues of the symmetric-definite pencil (a, b)
    from their lower triangles: ``scipy.linalg.eigh(a, b,
    eigvals_only=True)``, which calls ``dsygvd``."""
    w, _, info = flapack.dsygvd(np.asarray_chkfinite(a), np.asarray_chkfinite(b),
                                itype=1, jobz="N", uplo="L")
    _check_eigen_info(info, len(w), "dsygvd", f"The algorithm failed to converge; {info} "
                      "off-diagonal elements of an intermediate tridiagonal form did not "
                      "converge to zero.")
    return w


def csr_arrays(M):
    """The CSR arrays ``(indptr, indices, data)`` of the dense ``M``, as
    ``scipy.sparse.csr_array(M)`` stores them: the nonzeros row by row in
    ``np.nonzero`` order, with int32 ``indptr`` and ``indices``."""
    rows, cols = np.nonzero(M)
    indptr = np.zeros(M.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=indptr[1:])
    return indptr, cols.astype(np.int32), M[rows, cols]
