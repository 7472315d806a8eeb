"""The wrappers of scipy's compiled kernels equal scipy's public functions
bit for bit, and the loader reaches them without the scipy packages."""

import importlib.machinery
import importlib.util
import sys

import numpy as np
import pytest
import scipy
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh
from scipy.sparse import csr_array

import mschwarz._kernels as kernels
from mschwarz import make_poisson_1d
from mschwarz.poisson import poisson_matrix
from mschwarz.problems import _congruence_in_place, _symmetrize_in_place, additive_schwarz_sum

# the benchmark's splitting: 21 overlapping blocks and a coarse component
TWO_LEVEL_1024 = (1024, {"kind": "two_level", "coarse_stride": 32, "block_size": 64,
                         "overlap": 16})


def assert_same_bits(got, want):
    note = f"numpy {np.__version__}, scipy {scipy.__version__}"
    assert got.dtype == want.dtype and got.shape == want.shape, note
    assert np.array_equal(got, want), note
    assert np.array_equal(np.signbit(got), np.signbit(want)), note


def random_spd(n, seed):
    Q = np.random.default_rng(seed).standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def two_level():
    problem, splitting = make_poisson_1d(*TWO_LEVEL_1024)
    return problem, [splitting[1], splitting[splitting.N]]


def stability_form():
    """The symmetric form whose spectrum stability_constants computes."""
    problem, splitting = make_poisson_1d(*TWO_LEVEL_1024)
    M = _congruence_in_place(problem._L_band, additive_schwarz_sum(problem, splitting))
    return _symmetrize_in_place(M)


SPD = {
    **{f"poisson-{n}": lambda n=n: poisson_matrix(n) for n in (1, 2, 136, 1024)},
    "random-90": lambda: random_spd(90, 1),
    "local-block": lambda: two_level()[1][0].A_local,
    "local-coarse": lambda: two_level()[1][1].A_local,
}

SYMMETRIC = {**SPD, "stability-form": stability_form}


@pytest.mark.parametrize("case", sorted(SPD))
def test_potrf_is_cholesky_and_cho_factor(case):
    A = SPD[case]()
    assert_same_bits(kernels.potrf(A), cholesky(A, lower=True))
    assert_same_bits(kernels.potrf(A, clean=False), cho_factor(A, lower=True)[0])
    # in place on a Fortran-ordered array, as the library factors A and S
    mine, theirs = A.copy(), A.copy()
    c = kernels.potrf(mine.T, overwrite_a=True, clean=False)
    assert np.shares_memory(c, mine)
    assert_same_bits(c, cho_factor(theirs.T, lower=True, overwrite_a=True)[0])


@pytest.mark.parametrize("case", sorted(SPD))
def test_potrs_is_cho_solve(case):
    A = SPD[case]()
    n = A.shape[0]
    rng = np.random.default_rng(n)
    c = cho_factor(A, lower=True)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.ones(n)):
        assert_same_bits(kernels.potrs(c[0], b), cho_solve(c, b))
        assert_same_bits(kernels.potrs(c[0], b, check_finite=False),
                         cho_solve(c, b, check_finite=False))


@pytest.mark.parametrize("case", sorted(SYMMETRIC))
def test_eigvalsh_is_eigh(case):
    A = SYMMETRIC[case]()
    want = eigh(A, eigvals_only=True)
    assert_same_bits(kernels.eigvalsh(A.copy()), want)
    # in place on the Fortran-ordered view, as stability_constants calls it
    mine = A.copy()
    assert_same_bits(kernels.eigvalsh(mine.T), want)


def pencils():
    """(sym(G), A_i) of the two-level local forms, as uniform_bound_lambda
    solves them, and a random symmetric-definite pair."""
    problem, components = two_level()
    for c in components:
        G = c.galerkin(problem)
        yield 0.5 * (G + G.T), c.A_local
    Q = np.random.default_rng(7).standard_normal((90, 90))
    yield 0.5 * (Q + Q.T), random_spd(90, 2)


def test_pencil_is_generalized_eigh():
    for a, b in pencils():
        assert_same_bits(kernels.eigvalsh_pencil(a, b), eigh(a, b, eigvals_only=True))


@pytest.mark.parametrize("case", sorted(SYMMETRIC))
def test_csr_arrays_are_csr_arrays(case):
    M = SYMMETRIC[case]()
    # explicit zeros of both signs are not stored
    M[0, -1] = M[-1, 0] = -0.0
    csr = csr_array(M)
    for got, want in zip(kernels.csr_arrays(M), (csr.indptr, csr.indices, csr.data)):
        assert_same_bits(got, want)


def test_failures_raise_what_scipy_raises():
    A = poisson_matrix(8)
    A[5, 5] = -1.0
    for call in (lambda: cholesky(A), lambda: kernels.potrf(A)):
        with pytest.raises(np.linalg.LinAlgError, match="6-th leading minor"):
            call()
    B = A.copy()
    B[2, 3] = np.nan
    for call in (lambda: cholesky(B), lambda: kernels.potrf(B), lambda: kernels.eigvalsh(B),
                 lambda: kernels.potrs(B, np.ones(8)),
                 lambda: kernels.eigvalsh_pencil(poisson_matrix(8), B)):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()
    # a pencil whose second matrix is not positive definite
    for call in (lambda: eigh(poisson_matrix(8), A, eigvals_only=True),
                 lambda: kernels.eigvalsh_pencil(poisson_matrix(8), A)):
        with pytest.raises(np.linalg.LinAlgError, match="leading minor of order 6 of B"):
            call()


def test_loader_reuses_loaded_modules_and_names_a_missing_one():
    assert kernels._load("scipy.linalg._flapack") is sys.modules["scipy.linalg._flapack"]
    assert kernels.flapack is sys.modules["scipy.linalg._flapack"]
    assert kernels.csr_matvec is sys.modules["scipy.sparse._sparsetools"].csr_matvec
    with pytest.raises(ImportError, match="cannot load scipy.linalg._no_such_module on its "
                       "own from this scipy install.*no such file"):
        kernels._load("scipy.linalg._no_such_module")


def test_loader_names_an_unsupported_layout(tmp_path, monkeypatch):
    """A compiled module that needs ``scipy/__init__`` to load (the DLL
    directory of a Windows wheel) fails with the layout named."""
    (tmp_path / "linalg").mkdir()
    (tmp_path / "linalg" / "_needs_init.py").write_text(
        "raise ImportError('DLL load failed while importing _needs_init')\n")
    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
    with pytest.raises(ImportError, match="scipy.linalg._needs_init.*next to its package's "
                       "__init__.py.*DLL load failed") as exc:
        kernels._load("scipy.linalg._needs_init")
    assert "scipy.linalg._needs_init" not in sys.modules
    assert isinstance(exc.value.__cause__, ImportError)
