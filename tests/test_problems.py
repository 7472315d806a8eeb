import functools
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh
from scipy.sparse import csr_array

import mschwarz._kernels as kernels_module
import mschwarz.problems as problems_module
from mschwarz import (
    BlockResidual,
    CoordinateBlock,
    DiagonalModel,
    FiniteSplitting,
    FixedPool,
    GAWRRelaxation,
    GreedyRule,
    GrowingPool,
    MatrixSchwarzModel,
    Problem,
    PureRelaxation,
    RandomRule,
    SplittingComponent,
    TwoParamRelaxation,
    cyclic_rule,
    energy_norm,
    iterate,
    local_solve,
    make_poisson_1d,
    representation_block_norms,
    run,
    select_greedy,
    stability_constants,
    uniform_bound_lambda,
    uniform_distribution,
)
from mschwarz.poisson import poisson_matrix
from mschwarz.problems import UnstableSplittingError, additive_schwarz_sum


def identity_splitting(problem):
    n = problem.n
    eye = np.eye(n)
    comps = [SplittingComponent(i + 1, eye[:, [i]], np.eye(1)) for i in range(n)]
    return FiniteSplitting(problem, comps)


def random_spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def representation_norm_sq(problem, splitting, u):
    """|||u|||^2 = min sum_i a_i(v_i, v_i) over representations u = sum_i R_i v_i.

    Solved through the KKT system of the equality-constrained quadratic
    program, without the additive Schwarz sum that
    :func:`stability_constants` and :func:`representation_block_norms` use,
    so it serves as an independent cross-check of both.  Its dense system
    has sum_i d_i + n rows, so it is for small problems only.
    """
    u = np.asarray(u, dtype=float)
    dims = [c.dim for c in splitting]
    total = sum(dims)
    B = np.zeros((total, total))
    C = np.zeros((problem.n, total))
    off = 0
    for c, d in zip(splitting, dims):
        B[off : off + d, off : off + d] = c.A_local
        C[:, off : off + d] = c.R
        off += d
    # KKT system: [2B  C^T; C  0] [v; mu] = [0; u]
    kkt = np.block(
        [[2.0 * B, C.T], [C, np.zeros((problem.n, problem.n))]]
    )
    rhs = np.concatenate([np.zeros(total), u])
    v = np.linalg.solve(kkt, rhs)[:total]
    return float(v @ (B @ v))


def step_record(model, i, r):
    """The step record of component i with local solution r, d and A d filled."""
    energy = max(model.splitting[i].local_inner(r, r), 0.0)
    return model.step(BlockResidual(i, r, float(np.sqrt(energy)), float(energy)))


class TestEnergyNorm:
    def test_zero_vector(self):
        p = Problem(np.eye(3), np.zeros(3))
        assert energy_norm(p, np.zeros(3)) == 0.0

    def test_euclidean_identity(self):
        p = Problem(np.eye(2), np.zeros(2))
        assert energy_norm(p, np.array([3.0, 4.0])) == 5.0

    def test_diag_weighting(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        assert energy_norm(p, np.array([1.0, 1.0])) == pytest.approx(np.sqrt(3.0), abs=1e-15)


class TestProblemValidation:
    def test_rejects_nonsymmetric(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            Problem(A, np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Problem(np.diag([1.0, -1.0]), np.zeros(2))

    def test_rejects_wrong_exact_solution(self):
        with pytest.raises(ValueError, match="exact solution"):
            Problem(np.eye(2), np.ones(2), exact_solution=np.array([2.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_b_and_exact_solution(self, bad):
        b = np.ones(3)
        b[1] = bad
        with pytest.raises(ValueError, match="b must be finite"):
            Problem(np.eye(3), b)
        u = np.ones(3)
        u[2] = bad
        with pytest.raises(ValueError, match="exact solution must be finite"):
            Problem(np.eye(3), np.ones(3), exact_solution=u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(5, 5), (3, 100), (100, 3)])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_rejects_non_finite_a(self, monkeypatch, bad, where, sparse):
        """Refused as such before A is symmetrized or converted: the
        symmetry defect is not finite then."""
        def refuse(*args, **kwargs):
            raise AssertionError("a non-finite A got past the check")
        monkeypatch.setattr(problems_module, "_symmetrize_in_place", refuse)
        monkeypatch.setattr(kernels_module, "csr_arrays", refuse)
        A = random_spd(np.random.default_rng(13), 136)
        A[where] = bad
        with pytest.raises(ValueError, match="A must be finite"):
            Problem(csr_array(A) if sparse else A, np.ones(136))
        A[where[::-1]] = bad  # symmetric again
        with pytest.raises(ValueError, match="A must be finite"):
            Problem(csr_array(A) if sparse else A, np.ones(136))

    def test_overflowing_symmetry_defect_is_no_finiteness_failure(self):
        A = np.diag([1e308, 1e308])
        A[0, 1], A[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match="not symmetric"):
            Problem(A, np.ones(2))

    def test_symmetrization_that_overflows_is_refused(self):
        A = np.full((2, 2), 1.7e308)
        A[0, 1], A[1, 0] = 1e308, np.nextafter(1e308, np.inf)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                      match="symmetrizing it overflows"):
            Problem(A, np.ones(2))

    def test_rejects_exact_solution_whose_residual_overflows(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="exact solution"):
            Problem(np.diag([4.0, 4.0]), np.ones(2), exact_solution=np.array([1e308, -1e308]))

    def test_accepts_correct_exact_solution(self):
        p = Problem(np.diag([2.0, 4.0]), np.array([2.0, 4.0]),
                    exact_solution=np.ones(2))
        assert np.allclose(p.exact_solution, 1.0)


class TestBandStorage:
    """A is stored as its band of copied tiles; ``Problem.A`` rebuilds it."""

    @pytest.mark.parametrize("n", [1, 2, 9, 65, 130])
    def test_dense_a_is_rebuilt_with_its_bits(self, n):
        rng = np.random.default_rng(n)
        for A in (random_spd(rng, n), poisson_matrix(n)):
            p = Problem(A, rng.standard_normal(n))
            assert_same_bits(p.A, A)
            assert p.A is not p.A

    def test_nearly_symmetric_input_is_symmetrized(self):
        rng = np.random.default_rng(5)
        A = random_spd(rng, 70)
        A[3, 60] += 1e-14
        assert Problem(A, np.ones(70)).A.tobytes() == (0.5 * (A + A.T)).tobytes()

    def test_caller_arrays_are_not_aliased(self):
        rng = np.random.default_rng(6)
        A, b = random_spd(rng, 130), rng.standard_normal(130)
        u = np.linalg.solve(A, b)
        p = Problem(A, b, exact_solution=u)
        want = [p.A.tobytes(), p.b.tobytes(), p.exact_solution.tobytes()]
        d = rng.standard_normal(130)
        Ad = p._matvec(d)
        A[:], b[:], u[:] = 7.0, 3.0, 1.0
        assert [p.A.tobytes(), p.b.tobytes(), p.exact_solution.tobytes()] == want
        assert p._matvec(d).tobytes() == Ad.tobytes()
        assert energy_norm(p, d) == float(np.sqrt(d @ Ad))

    @pytest.mark.parametrize("near", [False, True])
    def test_caller_a_is_left_unmodified(self, near):
        """The build factors and, for a nearly symmetric A, symmetrizes its
        own copy in place, never the caller's array."""
        rng = np.random.default_rng(8)
        A = random_spd(rng, 136)
        if near:
            A[3, 100] += 1e-14
        before = A.tobytes()
        Problem(A, np.ones(136))
        assert A.tobytes() == before

    @pytest.mark.parametrize("case", ["poisson-1024", "random-136", "near-symmetric-70"])
    def test_csr_and_dense_input_store_the_same_bytes(self, case):
        rng = np.random.default_rng(12)
        if case == "poisson-1024":
            A = poisson_matrix(1024)
        elif case == "random-136":
            A = random_spd(rng, 136)
        else:
            A = random_spd(rng, 70)
            A[3, 60] += 1e-14
        n = A.shape[0]
        b = rng.standard_normal(n)
        dense, sparse = Problem(A, b), Problem(csr_array(A), b)
        for p in (dense, sparse):
            assert p.exact_solution.tobytes() == dense.exact_solution.tobytes()
            for band in ("_band", "_L_band"):
                assert [(rows, cols, tile.tobytes()) for rows, cols, tile in getattr(p, band)] == \
                    [(rows, cols, tile.tobytes()) for rows, cols, tile in getattr(dense, band)]
            assert [a.tobytes() for a in p._A_csr] == [a.tobytes() for a in dense._A_csr]

    def test_the_copy_of_a_is_factored_in_place(self, monkeypatch):
        calls = []
        real = kernels_module.potrf
        monkeypatch.setattr(kernels_module, "potrf",
                            lambda a, **k: calls.append((a, real(a, **k))) or calls[-1][1])
        Problem(poisson_matrix(136), np.ones(136))
        [(buf, L)] = calls
        # LAPACK factors a Fortran-ordered array in place; a C-ordered one
        # it would receive as a copy
        assert buf.flags.f_contiguous and np.shares_memory(L, buf)


class TestLocalSolve:
    def test_zero_residual(self):
        p = Problem(np.eye(2), np.zeros(2))
        c = SplittingComponent(1, np.eye(2)[:, [0]], np.eye(1))
        res = local_solve(p, c, np.zeros(2))
        assert res.local_norm == 0.0
        assert not np.any(res.r)

    def test_scalar_instance(self):
        # A = (2), b = (2), u = 0: g = (2), local solve 2 r = 2 -> r = 1
        p = Problem(np.array([[2.0]]), np.array([2.0]))
        c = SplittingComponent(1, np.array([[1.0]]), np.array([[2.0]]))
        res = local_solve(p, c, np.array([2.0]))
        assert res.r[0] == pytest.approx(1.0, abs=1e-15)
        assert res.local_norm == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_diagonal_residual_matches_dense(self):
        # the coordinate splitting reduces the local solve to c_i - u_i
        model = DiagonalModel([0.9, -0.4, 0.3, 0.0, 0.2])
        problem, splitting = model.to_dense()
        rng = np.random.default_rng(3)
        u = rng.standard_normal(5)
        g = problem.b - problem.A @ u
        for i in range(1, 6):
            dense = local_solve(problem, splitting[i], g)
            lazy = model.coefficients[i - 1] - u[i - 1]
            assert dense.r[0] == pytest.approx(lazy, abs=1e-14)


class TestApplyUpdate:
    def test_identity_update(self):
        p = Problem(np.eye(3), np.ones(3))
        model = MatrixSchwarzModel(p, identity_splitting(p))
        state = model.new_state()
        state.u = np.array([0.3, 0.1, -0.2])
        state.w = p.A @ state.u
        before = state.u.copy()
        model.apply_update(state, step_record(model, 1, np.zeros(1)), 1.0, 0.0)
        assert np.array_equal(state.u, before)

    def test_pure_replacement(self):
        p = Problem(np.eye(2), np.ones(2))
        comps = [SplittingComponent(1, np.eye(2), np.eye(2))]
        model = MatrixSchwarzModel(p, FiniteSplitting(p, comps))
        state = model.new_state()
        state.u = np.array([5.0, -1.0])
        v = np.array([1.0, 2.0])
        model.apply_update(state, step_record(model, 1, v), 0.0, 1.0)
        assert np.array_equal(state.u, v)

    @pytest.mark.parametrize("alpha, omega", [
        (0.0, 1.0), (1.0, 0.0), (-0.0, -0.0), (0.5, -0.0), (0.0, -2.0), (0.75, -1.3), (2.0 / 3.0, 1e-9),
    ])
    def test_in_place_update_has_the_bits_of_the_expression(self, alpha, omega):
        problem, splitting = make_poisson_1d(128, TWO_LEVEL)
        model = MatrixSchwarzModel(problem, splitting)
        rng = np.random.default_rng(12)
        for i in (1, splitting.N):
            for scale in SCALES:
                state = model.new_state()
                state.u = rng.standard_normal(128) * scale
                state.w = rng.standard_normal(128) * scale
                for v in (state.u, state.w):
                    v[::5], v[1::5] = -0.0, 0.0
                u, w = state.u, state.w
                res = step_record(model, i, rng.standard_normal(splitting[i].dim))
                want_u, want_w = alpha * u + omega * res.d, alpha * w + omega * res.Ad
                model.apply_update(state, res, alpha, omega)
                assert state.u is u and state.w is w
                assert_same_bits(state.u, want_u)
                assert_same_bits(state.w, want_w)
                # a refresh replaces w with the band product A u
                state.steps = model.refresh_every - 1
                model.apply_update(state, res, alpha, omega)
                assert_same_bits(state.w, problem.A @ state.u)

    def test_cache_tracks_dense_recomputation(self):
        rng = np.random.default_rng(11)
        A = random_spd(rng, 6)
        p = Problem(A, rng.standard_normal(6))
        model = MatrixSchwarzModel(p, identity_splitting(p))
        state = model.new_state()
        for _ in range(50):
            i = int(rng.integers(1, 7))
            r = rng.standard_normal(1)
            model.apply_update(state, step_record(model, i, r), 0.9, float(rng.standard_normal()))
        assert np.abs(state.w - A @ state.u).max() < 1e-9


class TestUniformBound:
    def test_orthonormal_model_is_isometric(self):
        model = DiagonalModel([1.0, 0.5])
        problem, splitting = model.to_dense()
        assert uniform_bound_lambda(problem, splitting) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_generalized_eigenvalue(self):
        p = Problem(np.array([[2.0]]), np.array([1.0]))
        comps = [SplittingComponent(1, np.array([[1.0]]), np.array([[1.0]]))]
        lam = uniform_bound_lambda(p, FiniteSplitting(p, comps))
        assert lam == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_local_form_rescaling_halves_lambda(self):
        p = Problem(np.array([[2.0]]), np.array([1.0]))
        base = FiniteSplitting(
            p, [SplittingComponent(1, np.array([[1.0]]), np.array([[1.0]]))]
        )
        scaled = FiniteSplitting(
            p, [SplittingComponent(1, np.array([[1.0]]), np.array([[4.0]]))]
        )
        assert uniform_bound_lambda(p, scaled) == pytest.approx(
            0.5 * uniform_bound_lambda(p, base), abs=1e-14
        )


class TestStability:
    def test_orthogonal_decomposition(self):
        model = DiagonalModel([1.0, 2.0, 3.0])
        problem, splitting = model.to_dense()
        sc = stability_constants(problem, splitting)
        assert sc.lam_min == pytest.approx(1.0, abs=1e-12)
        assert sc.lam_max == pytest.approx(1.0, abs=1e-12)
        assert sc.kappa == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_component_doubles_spectrum(self):
        p = Problem(np.eye(1), np.ones(1))
        comp = lambda i: SplittingComponent(i, np.array([[1.0]]), np.array([[1.0]]))
        sc = stability_constants(p, FiniteSplitting(p, [comp(1), comp(2)]))
        assert sc.lam_min == pytest.approx(2.0, abs=1e-12)
        assert sc.lam_max == pytest.approx(2.0, abs=1e-12)

    def test_rank_deficient_reports_unstable(self):
        with pytest.raises(UnstableSplittingError):
            p = Problem(np.eye(2), np.ones(2))
            FiniteSplitting(p, [SplittingComponent(1, np.eye(2)[:, [0]], np.eye(1))])

    def test_spectral_route_matches_qp_oracle(self):
        # lam_min <= ||u||_a^2 / |||u|||^2 <= lam_max for every u
        rng = np.random.default_rng(5)
        A = random_spd(rng, 4)
        p = Problem(A, rng.standard_normal(4))
        eye = np.eye(4)
        comps = [
            SplittingComponent(1, eye[:, :3], A[:3, :3]),
            SplittingComponent(2, eye[:, 2:], A[2:, 2:]),
        ]
        splitting = FiniteSplitting(p, comps)
        sc = stability_constants(p, splitting)
        for _ in range(20):
            u = rng.standard_normal(4)
            ratio = energy_norm(p, u) ** 2 / representation_norm_sq(p, splitting, u)
            assert sc.lam_min - 1e-9 <= ratio <= sc.lam_max + 1e-9

    def test_qp_oracle_orthonormal_identity(self):
        model = DiagonalModel([1.0, -2.0, 0.5])
        problem, splitting = model.to_dense()
        u = np.array([0.3, 1.1, -0.7])
        assert representation_norm_sq(problem, splitting, u) == pytest.approx(
            float(u @ u), abs=1e-10
        )


class TestSetupFunctionsTakeTheirPair:
    """Nothing computed from a (problem, splitting) pair is kept on the
    splitting: Lambda and the stability constants are those of the pair
    the functions are handed, and a model only needs the two to act on one
    space."""

    @staticmethod
    def split(problem):
        eye = np.eye(problem.n)
        return FiniteSplitting(problem, [SplittingComponent(1, eye[:, :2], np.eye(2)),
                                         SplittingComponent(2, eye[:, 2:], np.eye(problem.n - 2))])

    def test_constants_are_those_of_the_problem_given(self):
        p1 = Problem(np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        p2 = Problem(np.diag([10.0, 2.0, 3.0, 40.0]), np.ones(4))
        first, own = self.split(p1), self.split(p2)
        assert uniform_bound_lambda(p1, first) == pytest.approx(2.0, abs=1e-12)
        sc = stability_constants(p1, first)
        assert [sc.lam_min, sc.lam_max] == pytest.approx([1.0, 4.0], abs=1e-12)
        # the splitting of p1, handed p2 after p1's constants, gives p2's
        lam = uniform_bound_lambda(p2, first)
        assert lam == uniform_bound_lambda(p2, own)
        assert lam == pytest.approx(np.sqrt(40.0), abs=1e-12)
        sc = stability_constants(p2, first)
        assert sc == stability_constants(p2, own)
        assert [sc.lam_min, sc.lam_max] == pytest.approx([2.0, 40.0], abs=1e-12)

    def test_model_refuses_a_splitting_over_another_n(self):
        A, b = np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(4)
        with pytest.raises(ValueError, match=r"splitting acts on R\^4, the problem on R\^3"):
            MatrixSchwarzModel(Problem(A[:3, :3], b[:3]), self.split(Problem(A, b)))
        # an equal copy of the problem acts on the same space
        model = MatrixSchwarzModel(Problem(A, b), self.split(Problem(A, b)))
        assert model.component_count() == 2


TWO_LEVEL = {"kind": "two_level", "coarse_stride": 8, "block_size": 16, "overlap": 4}


def dense_copy(problem, splitting):
    """The same splitting with every component given by its dense R."""
    comps = [SplittingComponent(c.index, c.R, c.A_local) for c in splitting]
    return FiniteSplitting(problem, comps)


HAT_STARTS = (19, 59)


def interior_hats(n, lo, width, count):
    """``count`` hats of half-width ``width`` on the rows of R^n from ``lo``
    on, each overlapping the next by half: a dense R whose nonzero rows are
    a partial range and whose columns have several nonzero entries."""
    R = np.zeros((n, count))
    ramp = 1.0 - np.abs(np.arange(1 - width, width)) / width
    for k in range(count):
        centre = lo + (k + 1) * width
        R[centre - width + 1:centre + width, k] = ramp
    return R


def poisson_with_interior_hats():
    """The "blocks-128" splitting plus two dense components of three
    interior hats each, on the rows [20, 59) and [60, 99).  A is the same
    along its interior, so both take the Galerkin form of the first: one
    factor group of two dense blocks."""
    problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS["blocks-128"])
    R = interior_hats(128, 19, 10, 3)
    form = R.T @ problem.A @ R
    comps = list(splitting)
    for lo in HAT_STARTS:
        comps.append(SplittingComponent(len(comps) + 1, interior_hats(128, lo, 10, 3), form))
    return problem, FiniteSplitting(problem, comps)


class TestCoordinateBlocks:
    def test_restriction_and_prolongation_match_dense_bits(self):
        rng = np.random.default_rng(21)
        A = random_spd(rng, 9)
        block = CoordinateBlock(1, 9, 3, 7, A[3:7, 3:7])
        dense = SplittingComponent(1, np.eye(9)[:, 3:7], A[3:7, 3:7])
        g = rng.standard_normal(9)
        p = Problem(A, g)
        assert np.array_equal(block.R, dense.R)
        assert np.array_equal(block.galerkin(p), dense.galerkin(p))
        r = rng.standard_normal(4)
        assert block.restrict(g).tobytes() == dense.restrict(g).tobytes()
        assert np.array_equal(block.prolong(r), dense.prolong(r))
        assert local_solve(p, block, g).r.tobytes() == local_solve(p, dense, g).r.tobytes()

    def test_dense_block_on_a_partial_range(self):
        """A dense R stores the rows from its first nonzero row to its
        last; prolongation keeps the bits of ``R @ r``, and restriction,
        the Galerkin block and the additive Schwarz sum the values of the
        dense products."""
        problem, splitting = poisson_with_interior_hats()
        A = problem.A
        rng = np.random.default_rng(5)
        S = np.zeros_like(A)
        for c, lo in zip(splitting.components[-2:], HAT_STARTS):
            R = interior_hats(128, lo, 10, 3)
            nonzero = np.flatnonzero(R.any(axis=1))
            assert c.rows == slice(nonzero[0], nonzero[-1] + 1) and c.block is not None
            assert c.block.shape == (c.rows.stop - c.rows.start, 3)
            assert np.array_equal(c.R, R)
            for scale in SCALES:
                r = rng.standard_normal(3) * scale
                assert_same_bits(c.prolong(r), R @ r)
                g = rng.standard_normal(128) * scale
                np.testing.assert_allclose(c.restrict(g), R.T @ g, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(c.galerkin(problem), R.T @ A @ R, rtol=1e-13, atol=0.0)
        for c in splitting:
            S += c.R @ c.solve_local(c.R.T)
        np.testing.assert_allclose(additive_schwarz_sum(problem, splitting), S,
                                   rtol=1e-12, atol=1e-14 * np.abs(S).max())

    def test_poisson_blocks_keep_the_dense_local_forms(self):
        problem, splitting = make_poisson_1d(64, TWO_LEVEL)
        for c in splitting:
            if c.block is None:
                assert c.A_local.tobytes() == (c.R.T @ problem.A @ c.R).tobytes()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError, match="outside"):
            CoordinateBlock(1, 4, 2, 6, np.eye(4))
        with pytest.raises(ValueError, match="coordinates"):
            CoordinateBlock(1, 4, 1, 3, np.eye(3))

    def test_uncovered_coordinates_fall_back_to_rank_check(self):
        p = Problem(np.eye(4), np.ones(4))
        blocks = [CoordinateBlock(1, 4, 0, 2, np.eye(2))]
        with pytest.raises(UnstableSplittingError):
            FiniteSplitting(p, blocks)
        coarse = SplittingComponent(2, np.ones((4, 1)), np.eye(1))
        with pytest.raises(UnstableSplittingError):
            FiniteSplitting(p, blocks + [coarse])
        rest = SplittingComponent(2, np.eye(4)[:, 2:], np.eye(2))
        assert FiniteSplitting(p, blocks + [rest]).N == 2

    def test_rejects_component_of_other_dimension(self):
        p = Problem(np.eye(4), np.ones(4))
        with pytest.raises(ValueError, match="acts on"):
            FiniteSplitting(p, [CoordinateBlock(1, 5, 0, 5, np.eye(5))])


class TestComponentNumbering:
    """Components are numbered 1..N in order; no other index is a component."""

    @pytest.mark.parametrize("indices", [[1, 3], [1, 1], [2, 1], [0, 1]],
                             ids=["gap", "duplicate", "out-of-order", "from-zero"])
    def test_rejects_other_numberings(self, indices):
        p = Problem(np.eye(4), np.ones(4))
        blocks = [CoordinateBlock(i, 4, 2 * k, 2 * k + 2, np.eye(2))
                  for k, i in enumerate(indices)]
        with pytest.raises(ValueError, match=r"must be numbered 1\.\.2 in order"):
            FiniteSplitting(p, blocks)

    def test_component_i_is_the_ith(self):
        problem, splitting = make_poisson_1d(64, TWO_LEVEL)
        assert np.array_equal(splitting.indices(), np.arange(1, splitting.N + 1))
        for k, c in enumerate(splitting.components):
            assert splitting[k + 1] is c

    def test_index_outside_raises(self):
        problem, splitting = make_poisson_1d(64, TWO_LEVEL)
        model = MatrixSchwarzModel(problem, splitting)
        state = model.new_state()
        N = splitting.N
        message = rf"no component {{}}: the splitting has components 1\.\.{N}$"
        for i in (0, N + 1):
            with pytest.raises(ValueError, match=message.format(i)):
                splitting[i]
            with pytest.raises(ValueError, match=message.format(i)):
                model.local_residual(state, i)

    def test_growing_pool_norms_are_a_prefix_of_the_full_scan(self):
        """A growing pool's greedy pick is the pick over the first m + 1
        entries of the full scan, with that entry's own record."""
        problem, splitting = make_poisson_1d(64, TWO_LEVEL)
        model = MatrixSchwarzModel(problem, splitting)
        state = model.new_state()
        state.w = problem._matvec(np.random.default_rng(2).standard_normal(problem.n))
        full, residual = model.pool_local_norms(state)
        assert full.shape == (splitting.N,)
        for m in range(splitting.N + 2):
            res = select_greedy(model, state, GreedyRule(1.0, GrowingPool()), m)
            head = full[:m + 1]
            assert res.index == int(np.argmax(head)) + 1
            assert res.local_norm == head.max() == residual(res.index).local_norm



class TestFastPathPinnedToDenseLoop:
    """A run on index-set blocks is bit-identical to one on their dense R."""

    RULES = {
        "greedy": lambda n: GreedyRule(1.0),
        "random": lambda n: RandomRule(uniform_distribution(n)),
        "cyclic": cyclic_rule,
    }
    RELAXATIONS = {
        "gawr": GAWRRelaxation,
        "pure": PureRelaxation,
        "two_param": TwoParamRelaxation,
    }

    @pytest.mark.parametrize("relaxation", sorted(RELAXATIONS))
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_same_trace(self, rule, relaxation):
        problem, splitting = make_poisson_1d(128, TWO_LEVEL)
        assert any(c.block is None for c in splitting)
        fast = MatrixSchwarzModel(problem, splitting)
        dense = MatrixSchwarzModel(problem, dense_copy(problem, splitting))
        traces = [
            run(model, self.RULES[rule](splitting.N), self.RELAXATIONS[relaxation](), 60, seed=4)
            for model in (fast, dense)
        ]
        for field in ("index", "alpha", "omega", "local_norm"):
            assert np.array_equal(getattr(traces[0], field), getattr(traces[1], field),
                                  equal_nan=field != "index"), field
        np.testing.assert_allclose(traces[0].error, traces[1].error, rtol=1e-12, atol=0.0)


POISSON_SPLITTINGS = {
    "blocks-128": (128, {"kind": "overlapping_blocks", "block_size": 16, "overlap": 4}),
    "blocks-1024": (1024, {"kind": "overlapping_blocks", "block_size": 64, "overlap": 16}),
    "two-level-128": (128, TWO_LEVEL),
    "two-level-1024": (1024, {"kind": "two_level", "coarse_stride": 32, "block_size": 64,
                              "overlap": 16}),
}


def full_rows(model):
    """Force every component's A d onto one tile of all rows and all columns
    of A: the full dense product."""
    everything = slice(0, model.problem.n)
    model._tiles = [[(everything, everything, model.problem.A)]] * len(model._tiles)
    return model


def blas_note():
    """The BLAS numpy calls, as numpy reports it: the message of a test that
    pins how that BLAS rounds, so that a failure after a BLAS upgrade reads
    as one."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration reported')})")


def assert_same_trace(got, want):
    for field in ("index", "alpha", "omega", "local_norm"):
        assert np.array_equal(getattr(got, field), getattr(want, field),
                              equal_nan=field != "index"), f"{field}; {blas_note()}"
    np.testing.assert_allclose(got.error, want.error, rtol=1e-12, atol=0.0)


def two_level(n):
    """The two-level splitting of "two-level-1024" on n points: at n = 2100
    more than DGEMV_COLUMN_PIECE columns, with a last block of 65 rows."""
    return make_poisson_1d(n, POISSON_SPLITTINGS["two-level-1024"][1])


def dense_two_level_128():
    problem, splitting = make_poisson_1d(128, TWO_LEVEL)
    return problem, dense_copy(problem, splitting)


IMAGE_CASES = {
    **{name: lambda name=name: make_poisson_1d(*POISSON_SPLITTINGS[name])
       for name in POISSON_SPLITTINGS},
    **{f"two-level-{n}": functools.partial(two_level, n) for n in (1000, 1023, 1025, 2100, 4096)},
    "dense-R-128": dense_two_level_128,
    "interior-hats-128": poisson_with_interior_hats,
}


def assert_tile_rules(tiles, lo, hi, n):
    """The tiles ``(rows, cols, tile)`` cover the rows [lo, hi) in order, no
    tile has one row unless the window does, columns start on a multiple of
    TILE_COLUMN_ALIGN and end on one or at n, a tile that crosses a multiple
    of 2048 columns spans them all, and each tile is a contiguous array of
    its own of that shape, with leading dimension its width."""
    align = problems_module.TILE_COLUMN_ALIGN
    rows = [t for t, _, _ in tiles]
    assert rows[0].start == lo and rows[-1].stop == hi
    assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
    for t, cols, tile in tiles:
        assert t.stop - t.start > 1 or hi - lo == 1, (t, lo, hi)
        assert cols.start % align == 0 and (cols.stop % align == 0 or cols.stop == n), cols
        if cols.start // 2048 != (cols.stop - 1) // 2048:
            assert cols == slice(0, n), cols
        assert tile.shape == (t.stop - t.start, cols.stop - cols.start)
        assert tile.flags.c_contiguous and tile.base is None


def assert_row_view_rules(views, lo, hi, problem):
    """The views ``(rows, cols, view)`` of a component's A d cover the rows
    [lo, hi) rounded out to multiples of 4 (or to n) in order, each a row
    view of the band tile that holds its rows, with its columns, and none
    of one row unless A has one row."""
    n = problem.n
    rows = [t for t, _, _ in views]
    first = lo - lo % 4
    assert rows[0].start in (first, max(first - 4, 0)), (rows, lo)
    assert rows[-1].stop == min(-(-hi // 4) * 4, n), (rows, hi)
    assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
    for t, cols, view in views:
        assert t.start % 4 == 0 and (t.stop % 4 == 0 or t.stop == n), t
        assert t.stop - t.start > 1 or n == 1, t
        [(start, tile_cols, tile)] = [(r.start, c, tile) for r, c, tile in problem._band
                                      if r.start <= t.start and t.stop <= r.stop]
        assert cols == tile_cols and view.base is tile and view.flags.c_contiguous
        assert np.array_equal(view, tile[t.start - start:t.stop - start])


def assert_same_bits(got, want):
    assert np.array_equal(got, want), blas_note()
    assert np.array_equal(np.signbit(got), np.signbit(want)), blas_note()


SCALES = (1e-8, 1.0, 1e8)


def csr_pattern(A):
    """``indptr`` and ``indices`` of scipy's CSR array of A."""
    csr = csr_array(A)
    return csr.indptr, csr.indices


class TestImageTilesPinnedToDenseProduct:
    """A d tile by tile is the full dense A @ d, bit for bit."""

    @pytest.mark.parametrize("n", [128, 1000, 1023, 1024, 1025, 2100, 4096])
    def test_tiles_of_all_rows(self, n):
        """The strided views of A and the problem's stored band copies."""
        A = poisson_matrix(n)
        tiles = problems_module.image_tiles(*csr_pattern(A))
        band = Problem(A, np.ones(n))._band
        assert [(rows, cols) for rows, cols, _ in band] == tiles
        assert_tile_rules(band, 0, n, n)
        for rows, cols, tile in band:
            assert not np.shares_memory(tile, A)
            assert tile.strides == (8 * (cols.stop - cols.start), 8)
            assert np.array_equal(tile, A[rows, cols])
        rng = np.random.default_rng(n)
        for scale in SCALES:
            for _ in range(3):
                d = rng.standard_normal(n) * scale
                Ad = np.zeros(n)
                for rows, cols in tiles:
                    Ad[rows] = A[rows, cols] @ d[cols]
                assert_same_bits(Ad, A @ d)
                Ad = np.zeros(n)
                for rows, cols, tile in band:
                    Ad[rows] = tile @ d[cols]
                assert_same_bits(Ad, A @ d)

    @pytest.mark.parametrize("name", sorted(IMAGE_CASES))
    def test_every_component_image_equals_full_product(self, name):
        problem, splitting = IMAGE_CASES[name]()
        model = MatrixSchwarzModel(problem, splitting)
        A = problem.A
        rng = np.random.default_rng(31)
        for c in splitting:
            # A is tridiagonal: the nonzero rows of R and one neighbour each side
            nonzero = np.flatnonzero(c.R.any(axis=1))
            lo, hi = max(nonzero[0] - 1, 0), min(nonzero[-1] + 2, problem.n)
            tiles = model._tiles[c.index - 1]
            assert_row_view_rules(tiles, lo, hi, problem)
            for scale in SCALES:
                for _ in range(2):
                    r = rng.standard_normal(c.dim) * scale
                    res = step_record(model, c.index, r)
                    assert_same_bits(res.Ad, A @ res.d)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_random_dense_windows(self, n):
        """Tiles of random dense rows, each tile of rows holding values on a
        column window of random offset and width: TILE_COLUMN_ALIGN was
        first chosen from random products, so it is pinned on them too.

        n is a multiple of TILE_ROWS, so that every tile, and every share
        of rows a multi-threaded BLAS gives a thread of the full product,
        has a multiple of 4 rows: OpenBLAS computes a remainder of fewer
        rows with another kernel, and on random rows (not on the Poisson
        band) that kernel rounds differently."""
        rng = np.random.default_rng(n + 16)
        B = np.zeros((n, n))
        for start in range(0, n, problems_module.TILE_ROWS):
            stop = min(start + problems_module.TILE_ROWS, n)
            width = int(rng.integers(1, 400))
            first = int(rng.integers(0, n - width + 1))
            B[start:stop, first:first + width] = rng.standard_normal((stop - start, width))
        tiles = problems_module.image_tiles(*csr_pattern(B))
        band = [(rows, cols, B[rows, cols].copy()) for rows, cols in tiles]
        assert_tile_rules(band, 0, n, n)
        assert any(cols != slice(0, n) for _, cols, _ in band)
        for scale in SCALES:
            for _ in range(4):
                d = rng.standard_normal(n) * scale
                Bd = np.zeros(n)
                for rows, cols, tile in band:
                    np.dot(tile, d[cols], out=Bd[rows])
                assert_same_bits(Bd, B @ d)

    def test_random_banded_rows_equal_the_one_thread_product(self):
        """The reference for the tiled A d is the one-thread dense product.

        A multi-threaded ``dgemv`` that ends a thread's share of rows on a
        remainder of fewer than 4 computes those rows with another kernel,
        which on random rows (not on the Poisson band) rounds differently:
        with 2 OpenBLAS threads, n = 1025 mismatched rows 512 and 1024.  So
        the comparison runs in a process limited to one BLAS thread, at n
        that are not multiples of TILE_ROWS."""
        code = """
import numpy as np
from scipy.sparse import csr_array
from mschwarz import Problem
from mschwarz.problems import image_tiles

for n in (1025, 1100, 2100):
    rng = np.random.default_rng(n)
    A = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(i - 40, 0), min(i + 41, n)
        A[i, lo:hi] = rng.standard_normal(hi - lo)
    csr = csr_array(A)
    band = [(rows, cols, A[rows, cols].copy())
            for rows, cols in image_tiles(csr.indptr, csr.indices)]
    for _ in range(12):
        d = rng.standard_normal(n)
        Ad = np.zeros(n)
        for rows, cols, tile in band:
            np.dot(tile, d[cols], out=Ad[rows])
        want = A @ d
        same = (Ad == want) & (np.signbit(Ad) == np.signbit(want))
        assert same.all(), (n, np.flatnonzero(~same))
    # the row views of a component's A d, on random windows of the rows of
    # a symmetric banded problem
    problem = Problem(A + A.T + 200 * np.eye(n), np.ones(n))
    S = problem.A
    windows = [(n - 1, n)] * 8 + [(lo, int(rng.integers(lo + 1, min(lo + 140, n) + 1)))
                              for lo in rng.integers(0, n - 1, size=40)]
    for lo, hi in windows:
        d = rng.standard_normal(n)
        got = problem._matvec(d, problem._row_tiles(lo, hi))[lo:hi]
        assert np.array_equal(got, (S @ d)[lo:hi]), (n, lo, hi)
"""
        src = Path(problems_module.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, result.stderr + blas_note()

    @pytest.mark.parametrize("rows", [1, 2, 3, 64, 65])
    @pytest.mark.parametrize("width", [1, 2, 16, 31, 48, 1024, 2100])
    def test_dot_into_output_equals_matmul(self, rows, width):
        """``np.dot(tile, v, out=...)``, as the band product writes a tile,
        has the bits of ``tile @ v`` and touches no other entry."""
        rng = np.random.default_rng(rows * 10_000 + width)
        for scale in SCALES:
            tile = rng.standard_normal((rows, width)) * scale
            v = rng.standard_normal(width + 16) * scale
            out = np.zeros(rows + 10)
            np.dot(tile, v[16:], out=out[3:3 + rows])
            assert_same_bits(out[3:3 + rows], tile @ v[16:])
            assert not out[:3].any() and not out[3 + rows:].any()

    @pytest.mark.parametrize("n", [128, 1000, 1023, 1024, 1025, 2100, 4096])
    def test_lambda_row_slab_product_equals_full_product(self, n):
        """Lambda's A R of the coarse component, slab by slab of rows built
        from the band, is the full product A @ R; so is its Galerkin block."""
        problem, splitting = make_poisson_1d(n, POISSON_SPLITTINGS["two-level-1024"][1])
        c = splitting.components[-1]
        assert c.block is not None
        A = problem.A
        AR = np.concatenate([problem._rows(r) @ c.R for r in problems_module._slabs(n)])
        assert_same_bits(AR, A @ c.R)
        assert_same_bits(c.galerkin(problem), c.R.T @ (A @ c.R))
        block = splitting.components[-2]
        assert_same_bits(block.galerkin(problem), A[block.rows, block.rows])

    @pytest.mark.parametrize("name, steps", [("two-level-1024", 400), ("two-level-2100", 100)])
    @pytest.mark.parametrize("rule", ["greedy", "random"])
    def test_two_level_run_equals_run_on_full_rows(self, rule, name, steps):
        problem, splitting = IMAGE_CASES[name]()
        select = GreedyRule(1.0) if rule == "greedy" else RandomRule(uniform_distribution(splitting.N))
        tiled, full = (
            run(model, select, GAWRRelaxation(), steps, seed=3)
            for model in (MatrixSchwarzModel(problem, splitting),
                          full_rows(MatrixSchwarzModel(problem, splitting)))
        )
        assert_same_trace(tiled, full)


class TestGreedyScanReuse:
    def test_winner_is_not_solved_again(self, monkeypatch):
        problem, splitting = make_poisson_1d(128, TWO_LEVEL)
        model = MatrixSchwarzModel(problem, splitting)
        calls, columns = [], []
        solve, solve_local = problems_module.local_solve, SplittingComponent.solve_local
        monkeypatch.setattr(problems_module, "local_solve",
                            lambda *a: calls.append(a[1].index) or solve(*a))
        monkeypatch.setattr(SplittingComponent, "solve_local", lambda self, rhs: (
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1]) or solve_local(self, rhs)))
        steps = 0
        for m, state, res, _, _ in iterate(model, GreedyRule(1.0), GAWRRelaxation(), 30):
            # the scan solved every pool component once, in factor groups,
            # and the winner's record was built from it, not solved again
            assert calls == [] and sum(columns) == splitting.N
            columns.clear()
            # the single-solve path gives the same record
            fresh = model.local_residual(state, res.index)
            assert calls == [res.index] and columns == [1]
            for field in ("r", "d", "Ad"):
                assert getattr(res, field).tobytes() == getattr(fresh, field).tobytes(), field
            assert (res.local_norm, res.local_energy) == (fresh.local_norm, fresh.local_energy)
            calls.clear()
            columns.clear()
            steps += 1
        assert steps == 30


class TestLocalEnergyReuse:
    """omega takes r . A_i r from the solve that produced r."""

    class RecomputingModel(MatrixSchwarzModel):
        def step(self, res):
            r = res.r
            res.local_energy = float(max(self.splitting[res.index].local_inner(r, r), 0.0))
            return super().step(res)

    @pytest.mark.parametrize("rule", ["greedy", "random"])
    def test_same_trace_without_a_second_product(self, rule, monkeypatch):
        problem, splitting = make_poisson_1d(128, TWO_LEVEL)
        make_rule = TestFastPathPinnedToDenseLoop.RULES[rule]
        want = run(self.RecomputingModel(problem, splitting), make_rule(splitting.N),
                   GAWRRelaxation(), 60, seed=4)
        products = []
        inner = SplittingComponent.local_inner
        monkeypatch.setattr(SplittingComponent, "local_inner",
                            lambda self, v, w: products.append(1) or inner(self, v, w))
        got = run(MatrixSchwarzModel(problem, splitting), make_rule(splitting.N),
                  GAWRRelaxation(), 60, seed=4)
        assert_same_trace(got, want)
        assert np.array_equal(got.error, want.error)
        # the greedy scan takes its energies stacked; a random step's single
        # solve takes one, and omega none
        assert len(products) == (0 if rule == "greedy" else 60)


def alternated_runs(model, rule, relaxation, steps, seeds):
    """One ``iterate`` generator per seed on the same model, rule and
    relaxation objects, advanced a step each in turn; returns, per seed, the
    ``run`` trace fields as bytes."""
    runs = [iterate(model, rule, relaxation, steps, seed) for seed in seeds]
    rows = [[] for _ in seeds]
    states = [None] * len(seeds)
    for _ in range(steps):
        for k, steps_of_run in enumerate(runs):
            _, states[k], res, a, w = next(steps_of_run)
            rows[k].append((res.index, a, w, res.local_norm, model.error(states[k])))
    for k, steps_of_run in enumerate(runs):
        assert next(steps_of_run, None) is None  # applies the last step
        rows[k].append((-1, np.nan, np.nan, np.nan, model.error(states[k])))
    return [trace_bytes(*zip(*r)) for r in rows]


def trace_bytes(index, alpha, omega, local_norm, error):
    return (np.array(index, dtype=np.int64).tobytes(),) + tuple(
        np.array(values, dtype=float).tobytes() for values in (alpha, omega, local_norm, error))


class TestModelServesInterleavedRuns:
    """A model holds no per-step state: two runs stepped alternately on one
    model, rule and relaxation each give their solo trace, bit for bit."""

    RULES = {
        "greedy": lambda n: GreedyRule(1.0, FixedPool()),
        "random": lambda n: RandomRule(uniform_distribution(n)),
    }
    RELAXATIONS = {"gawr": GAWRRelaxation, "two_param": TwoParamRelaxation}
    MODELS = {
        "two-level-128": lambda: MatrixSchwarzModel(*make_poisson_1d(128, TWO_LEVEL)),
        "diagonal": lambda: DiagonalModel([(-1) ** k * (k + 1) ** -1.5 for k in range(59)]),
    }

    @pytest.mark.parametrize("relaxation", sorted(RELAXATIONS))
    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_alternated_runs_equal_solo_runs(self, name, rule, relaxation):
        model = self.MODELS[name]()
        n = model.component_count() or model.support_indices.size
        select, relax = self.RULES[rule](n), self.RELAXATIONS[relaxation]()
        before = dict(vars(model))
        got = alternated_runs(model, select, relax, 40, seeds=(3, 4))
        # stepping adds no attribute and rebinds none
        after = vars(model)
        assert after.keys() == before.keys()
        assert [k for k in before if after[k] is not before[k]] == []
        for seed, traced in zip((3, 4), got):
            solo = run(self.MODELS[name](), self.RULES[rule](n), self.RELAXATIONS[relaxation](),
                       40, seed=seed)
            assert traced == trace_bytes(solo.index, solo.alpha, solo.omega,
                                         solo.local_norm, solo.error)


class LoopScanModel(MatrixSchwarzModel):
    """The per-component pool scan the factor-group scan replaced."""

    def pool_local_norms(self, state):
        g = self.problem.b - state.w
        solved = [local_solve(self.problem, c, g) for c in self.splitting]
        out = np.array([res.local_norm for res in solved])
        return out, lambda i: self.step(solved[i - 1])


def mixed_splitting():
    """Two block forms, a dense-R component, and a right-hand side that
    vanishes on the first block at u = 0."""
    rng = np.random.default_rng(41)
    n = 12
    A = random_spd(rng, n)
    b = rng.standard_normal(n)
    b[:3] = 0.0
    problem = Problem(A, b)
    form1 = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]])
    form2 = random_spd(rng, 3)
    coarse = np.linspace(0.5, 1.5, n)[:, None]
    comps = [
        CoordinateBlock(1, n, 0, 3, form1),
        CoordinateBlock(2, n, 3, 6, form1),
        CoordinateBlock(3, n, 6, 9, form2),
        CoordinateBlock(4, n, 9, 12, form1),
        SplittingComponent(5, coarse, np.array([[2.5]])),
        CoordinateBlock(6, n, 4, 7, form2),
        CoordinateBlock(7, n, 8, 11, form2),
    ]
    return problem, FiniteSplitting(problem, comps)


class TestGroupedScanPinnedToLoop:
    """The factor-group scan is bit-identical to the per-component loop."""

    RELAXATIONS = {"gawr": GAWRRelaxation, "pure": PureRelaxation,
                   "two_param": TwoParamRelaxation}

    def runs(self, problem, splitting, relaxation, steps):
        for beta in (1.0, 0.7):
            for pool in (FixedPool(), GrowingPool()):
                yield [run(model, GreedyRule(beta, pool), self.RELAXATIONS[relaxation](), steps)
                       for model in (MatrixSchwarzModel(problem, splitting),
                                     LoopScanModel(problem, splitting))]

    @pytest.mark.parametrize("relaxation", sorted(RELAXATIONS))
    @pytest.mark.parametrize("name", sorted(POISSON_SPLITTINGS))
    def test_poisson_runs(self, name, relaxation):
        problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS[name])
        for grouped, loop in self.runs(problem, splitting, relaxation, 60):
            assert_same_trace(grouped, loop)

    @pytest.mark.parametrize("relaxation", sorted(RELAXATIONS))
    def test_mixed_splitting_runs(self, relaxation):
        problem, splitting = mixed_splitting()
        for grouped, loop in self.runs(problem, splitting, relaxation, 40):
            assert_same_trace(grouped, loop)

    @pytest.mark.parametrize("relaxation", sorted(RELAXATIONS))
    def test_interior_hat_runs(self, relaxation):
        problem, splitting = poisson_with_interior_hats()
        # the two hat components make one dense factor group
        assert sorted(len(ks) for ks, _, gather in splitting._blocks if gather is None) == [2]
        for grouped, loop in self.runs(problem, splitting, relaxation, 60):
            assert_same_trace(grouped, loop)

    def test_mixed_splitting_scan(self):
        problem, splitting = mixed_splitting()
        model = MatrixSchwarzModel(problem, splitting)
        loop = LoopScanModel(problem, splitting)
        # form1 blocks, form2 blocks and the dense component
        assert len(splitting._blocks) == 3
        indices = splitting.indices()
        assert list(indices) == [1, 2, 3, 4, 5, 6, 7]
        state = model.new_state()
        norms, residual = model.pool_local_norms(state)
        assert norms.tobytes() == loop.pool_local_norms(state)[0].tobytes(), blas_note()
        assert norms[0] == 0.0 and np.all(norms[1:] > 0.0)
        for i in indices:
            got = residual(i)
            want = local_solve(problem, splitting[i], problem.b - state.w)
            assert got.index == i and got.local_norm == want.local_norm, blas_note()
            assert got.r.tobytes() == want.r.tobytes(), blas_note()

    @pytest.mark.parametrize("entries", [1, 64, 10 ** 9])
    def test_column_blocks_do_not_change_bits(self, entries, monkeypatch):
        # the splitting plans its column blocks when it is built
        monkeypatch.setattr(problems_module, "SOLVE_BLOCK_ENTRIES", entries)
        problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS["two-level-1024"])
        want = run(LoopScanModel(problem, splitting), GreedyRule(1.0), GAWRRelaxation(), 40)
        model = MatrixSchwarzModel(problem, splitting)
        # the 21 blocks share one factor group, the coarse component has its own
        sizes = sorted(len(ks) for ks, _, _ in splitting._blocks)
        assert sizes == ([1] * 22 if entries < 128 else [1, 21])
        assert_same_trace(run(model, GreedyRule(1.0), GAWRRelaxation(), 40), want)


def loop_class_norms(splitting, g):
    """The local norms ||A_i^{-1} R_i^T g||_{a_i} as the per-component loop
    the grouped solve replaced computed them: one ``solve_local`` and one
    ``local_inner`` per component."""
    norms = []
    for c in splitting:
        v = c.solve_local(c.restrict(g))
        norms.append(np.sqrt(max(c.local_inner(v, v), 0.0)))
    return np.array(norms)


# Run in a child interpreter at a given BLAS thread count.  The class norms
# are the grouped solve on y = S^{-1} u (the spy reads y); the mixed
# splitting's b vanishes on its first block, a zero right-hand side.
CLASS_NORMS = """
import sys
import numpy as np
import mschwarz.problems as P
sys.path.insert(0, sys.argv[1])
import test_problems as T

two_level = {"kind": "two_level", "coarse_stride": 32, "block_size": 64, "overlap": 16}
cases = {name: lambda spec=spec: T.make_poisson_1d(*spec) for name, spec in T.POISSON_SPLITTINGS.items()}
cases.update({f"two-level-{n}": lambda n=n: T.make_poisson_1d(n, two_level) for n in (255, 1000)})
cases.update(mixed=T.mixed_splitting, hats=T.poisson_with_interior_hats)
rng = np.random.default_rng(23)
grouped = P._local_norms
for name, make in cases.items():
    problem, splitting = make()
    for g in (problem.b, rng.standard_normal(problem.n) * 1e3):
        want = T.loop_class_norms(splitting, g)
        assert grouped(splitting, g)[0].tobytes() == want.tobytes(), (name, "scan")
    for u in (problem.exact_solution, rng.standard_normal(problem.n)):
        ys = []
        P._local_norms = lambda splitting, y: ys.append(y) or grouped(splitting, y)
        got = P.representation_block_norms(problem, splitting, u)
        P._local_norms = grouped
        [y] = ys
        assert got.tobytes() == T.loop_class_norms(splitting, y).tobytes(), (name, "class norms")
"""


class TestClassNormsPinnedToLoop:
    """The class norms run the greedy scan's grouped local solve on the
    splitting's one scan plan, with the bits of the per-component loop."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_grouped_norms_equal_the_loop_at_each_thread_count(self, threads):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"), OPENBLAS_NUM_THREADS=threads,
                   PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run([sys.executable, "-c", CLASS_NORMS, str(tests)], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr + blas_note()

    def test_models_on_one_splitting_use_its_one_plan(self, monkeypatch):
        problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS["two-level-128"])
        plan = splitting._blocks, splitting._where
        models = [MatrixSchwarzModel(problem, splitting) for _ in range(2)]
        assert splitting._blocks is plan[0] and splitting._where is plan[1]
        assert not [m for m in models if {"_blocks", "_where"} & vars(m).keys()]
        scanned = []
        grouped = problems_module._local_norms
        monkeypatch.setattr(problems_module, "_local_norms",
                            lambda s, g: scanned.append(s) or grouped(s, g))
        norms = [m.pool_local_norms(m.new_state())[0].tobytes() for m in models]
        assert norms[0] == norms[1]
        assert len(scanned) == 2 and all(s is splitting for s in scanned)
        # a factor group's members share the first member's form and factor
        for _, comps, _ in splitting._blocks:
            assert all(c.A_local is comps[0].A_local and c._chol is comps[0]._chol for c in comps)


class UnreadableTile:
    """A band entry that fails when it is read."""

    def __iter__(self):
        raise AssertionError("read a tile that does not cover the rows")


class TestBandBlockByIndex:
    """``_band_block`` finds the tiles that cover its rows by index and reads
    no other."""

    @pytest.mark.parametrize("n", [1, 63, 64, 129, 192, 193])
    def test_windows_equal_the_dense_slice(self, n):
        rng = np.random.default_rng(n)
        # n = 129 and 193 (64 k + 1) end on a tile of 65 rows
        for A in (poisson_matrix(n), random_spd(rng, n)):
            problem = Problem(A, np.ones(n))
            L = cholesky(A, lower=True)
            edges = sorted({e for k in range(0, n + 64, 64) for e in (k - 1, k, k + 1)
                            if 0 <= e <= n} | {n - 1})
            cols = (slice(0, n), slice(n // 3, n // 3 + max(1, n // 4)))
            for lo, hi in itertools.combinations(edges, 2):
                r = slice(lo, hi)
                for band, dense in ((problem._band, A), (problem._L_band, L)):
                    guarded = [tile if tile[0].start < hi and lo < tile[0].stop else UnreadableTile()
                               for tile in band]
                    for c in cols:
                        assert_same_bits(problems_module._band_block(guarded, r, c), dense[r, c])


class TestBatchedLocalKernels:
    """The BLAS property the grouped scan rests on, checked directly."""

    def test_multi_column_solve_and_stacked_norms_match_single_columns(self):
        problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS["two-level-1024"])
        rng = np.random.default_rng(17)
        for c in splitting.components[:1] + splitting.components[-1:]:
            for width in (1, 2, 7, 15, 16, 21, 40):
                for _ in range(5):
                    rhs = rng.standard_normal((width, c.dim)) * rng.uniform(1e-3, 1e3)
                    xs = c.solve_local(rhs.T).T
                    energies = c.local_energies(xs)
                    for j in range(width):
                        x = c.solve_local(rhs[j])
                        assert xs[j].tobytes() == x.tobytes(), blas_note()
                        want = max(c.local_inner(x, x), 0.0)
                        assert energies[j] == want, blas_note()


class TestStepStateAgainstRecompute:
    def test_error_and_cached_product_track_dense_recompute(self):
        problem, splitting = make_poisson_1d(128, TWO_LEVEL)
        model = MatrixSchwarzModel(problem, splitting)
        steps = model.refresh_every + 100
        A, b = problem.A, problem.b
        w_tol = 1e-10 * (1.0 + np.linalg.norm(b))

        def check(state):
            e = problem.exact_solution - state.u
            dense = np.sqrt(max(e @ (A @ e), 0.0))
            assert model.error(state) == pytest.approx(dense, rel=1e-12, abs=0.0)
            assert np.abs(state.w - A @ state.u).max() <= w_tol

        rule = RandomRule(uniform_distribution(splitting.N))
        for _, state, *_ in iterate(model, rule, GAWRRelaxation(), steps, seed=8):
            check(state)
        assert state.steps == steps
        check(state)


def scipy_note():
    """The scipy version: the message of a test that pins a private scipy
    kernel, so that a failure after a scipy upgrade reads as one."""
    return f"scipy {scipy.__version__}"


class TestErrorKernel:
    """The error's direct ``csr_matvec`` call is ``csr_array @ e`` on the
    problem's CSR arrays, bit for bit."""

    @staticmethod
    def assert_error_is_the_dispatched_product(model, state):
        got = model.error(state)
        e = model.problem.exact_solution - state.u
        indptr, indices, data = model.problem._A_csr
        Ae = csr_array((data, indices, indptr), shape=(model.problem.n,) * 2) @ e
        assert np.array_equal(model._Ae, Ae), scipy_note()
        assert np.array_equal(np.signbit(model._Ae), np.signbit(Ae)), scipy_note()
        assert got == float(np.sqrt(max(e @ Ae, 0.0))), scipy_note()

    @pytest.mark.parametrize("n", [1, 2, 128, 1000, 1024])
    def test_random_vectors(self, n):
        problem, splitting = make_poisson_1d(n, {"kind": "overlapping_blocks", "block_size": 1})
        model = MatrixSchwarzModel(problem, splitting)
        rng = np.random.default_rng(n)
        state = model.new_state()
        for scale in SCALES:
            for _ in range(5):
                state.u = problem.exact_solution + rng.standard_normal(n) * scale
                self.assert_error_is_the_dispatched_product(model, state)
        state.u = problem.exact_solution.copy()
        self.assert_error_is_the_dispatched_product(model, state)
        assert model.error(state) == 0.0

    def test_vectors_of_a_3000_step_run(self):
        problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS["two-level-1024"])
        model = MatrixSchwarzModel(problem, splitting)
        rule = RandomRule(uniform_distribution(splitting.N))
        for _, state, *_ in iterate(model, rule, GAWRRelaxation(), 3000, seed=1):
            self.assert_error_is_the_dispatched_product(model, state)
        self.assert_error_is_the_dispatched_product(model, state)

    def test_interleaved_runs_share_a_model(self):
        problem, splitting = make_poisson_1d(*POISSON_SPLITTINGS["two-level-128"])
        model = MatrixSchwarzModel(problem, splitting)
        rule = RandomRule(uniform_distribution(splitting.N))
        want = [run(model, rule, GAWRRelaxation(), 50, seed=s).error for s in (1, 2)]
        runs = [iterate(model, rule, GAWRRelaxation(), 50, seed=s) for s in (1, 2)]
        for steps in zip(*runs):
            for k, (m, state, *_) in enumerate(steps):
                assert model.error(state) == want[k][m]


def count_eigh_calls(monkeypatch):
    """Record the positional arguments of every eigensolve: the calls of
    ``_kernels.eigvalsh`` (one matrix) and ``eigvalsh_pencil`` (two).

    The library imports the wrappers inside the set-up functions, so the
    patched module attributes are the ones it calls.
    """
    calls = []
    for name in ("eigvalsh", "eigvalsh_pencil"):
        real = getattr(kernels_module, name)
        monkeypatch.setattr(kernels_module, name,
                            functools.partial(lambda real, *a, **k: calls.append(a) or real(*a, **k),
                                              real))
    return calls


class TestBlockNorms:
    def test_block_norms_match_kkt_reference(self):
        rng = np.random.default_rng(9)
        problem, splitting = make_poisson_1d(48, TWO_LEVEL)
        for u in (problem.exact_solution, rng.standard_normal(48)):
            norms = representation_block_norms(problem, splitting, u)
            assert float(norms @ norms) == pytest.approx(
                representation_norm_sq(problem, splitting, u), rel=1e-10
            )


def reference_spectrum(problem, splitting):
    """(lam_min, lam_max) as stability_constants computed them before it
    reused the problem's factor, verbatim: A factored a second time and the
    symmetrization into new arrays."""
    L = cholesky(problem.A, lower=True)
    M = L.T @ additive_schwarz_sum(problem, splitting) @ L
    w = eigh(0.5 * (M + M.T), eigvals_only=True)
    return float(w[0]), float(w[-1])


def reference_block_norms(problem, splitting, u):
    """representation_block_norms as computed before the metadata pass
    released S, verbatim: the cached S, factored by cho_factor on a copy."""
    S = additive_schwarz_sum(problem, splitting)
    y = cho_solve(cho_factor(S, lower=True), np.asarray(u, dtype=float))
    norms = []
    for c in splitting:
        v = c.solve_local(c.restrict(y))
        norms.append(np.sqrt(max(c.local_inner(v, v), 0.0)))
    return np.array(norms)


def component_lambda(problem, c):
    """Lambda_i from the dense A: the Galerkin block as computed before A
    was stored as its band."""
    A = problem.A
    G = A[c.rows, c.rows] if c.block is None else c.R.T @ (A @ c.R)
    w = eigh(0.5 * (G + G.T), c.A_local, eigvals_only=True)
    return float(np.sqrt(max(w[-1], 0.0)))


SETUP_CASES = {
    **{name: lambda name=name: make_poisson_1d(*POISSON_SPLITTINGS[name])
       for name in ("blocks-128", "two-level-128", "two-level-1024")},
    "mixed-dense-R": mixed_splitting,
    "diagonal-dense": lambda: DiagonalModel([1.0, -0.5, 0.25, 2.0]).to_dense(),
}


class TestMetadataPass:
    """The class norms first, then the stability form, each on an additive
    Schwarz sum of its own: every number keeps its bits."""

    @pytest.mark.parametrize("case", sorted(SETUP_CASES))
    def test_cli_order_has_the_reference_bits(self, case):
        problem, splitting = SETUP_CASES[case]()
        want_norms = reference_block_norms(*SETUP_CASES[case](), problem.exact_solution)
        want_spectrum = reference_spectrum(*SETUP_CASES[case]())
        uniform_bound_lambda(problem, splitting)
        norms = representation_block_norms(problem, splitting, problem.exact_solution)
        sc = stability_constants(problem, splitting)
        assert norms.tobytes() == want_norms.tobytes()
        assert (sc.lam_min, sc.lam_max) == want_spectrum

    @pytest.mark.parametrize("case", sorted(SETUP_CASES))
    def test_block_norms_do_not_depend_on_the_stability_call(self, case):
        got = {}
        for when in ("before", "after", "without"):
            problem, splitting = SETUP_CASES[case]()
            if when == "after":
                stability_constants(problem, splitting)
            got[when] = representation_block_norms(
                problem, splitting, problem.exact_solution).tobytes()
            if when == "before":
                stability_constants(problem, splitting)
        assert got["before"] == got["after"] == got["without"]

    def test_schwarz_sum_is_rebuilt_with_its_bits(self):
        problem, splitting = SETUP_CASES["mixed-dense-R"]()
        first = additive_schwarz_sum(problem, splitting).copy()
        stability_constants(problem, splitting)
        assert np.array_equal(additive_schwarz_sum(problem, splitting), first)


def verbatim_schwarz_sum(problem, splitting):
    """additive_schwarz_sum as built before the dense-R term went in row
    slabs, verbatim."""
    n = problem.n
    S = np.zeros((n, n))
    for c in splitting:
        if c.block is None:
            S[c.rows, c.rows] += c.solve_local(np.eye(c.dim))
        else:
            S += c.R @ c.solve_local(c.R.T)
    return S


SLAB_CASES = {
    **SETUP_CASES,
    # n = 1000 is no multiple of its 128-wide slabs; n = 48 is less than one
    # slab; n = 1100 is no multiple of 8, so one slab
    "two-level-1000": lambda: make_poisson_1d(1000, POISSON_SPLITTINGS["two-level-1024"][1]),
    "two-level-1100": lambda: make_poisson_1d(1100, POISSON_SPLITTINGS["two-level-1024"][1]),
    "two-level-48": lambda: make_poisson_1d(48, TWO_LEVEL),
}


class TestSlabsPinnedToFullProducts:
    """The set-up's slab products, its blockwise symmetrization and its
    in-place factor are the full-array expressions, bit for bit."""

    @pytest.mark.parametrize("n", [4, 48, 64, 65, 72, 127, 128, 136, 300, 1000, 1024, 1100, 4096])
    def test_slab_rules(self, n):
        slabs = problems_module._slabs(n)
        assert slabs[0].start == 0 and slabs[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
        if n % 8 or n < 128:
            assert slabs == [slice(0, n)]
            return
        width = slabs[0].stop
        assert width % 64 == 0 and n / 8 <= width < n / 8 + 64
        assert all(s.stop - s.start == width for s in slabs[:-1])
        assert 64 <= slabs[-1].stop - slabs[-1].start < width + 64

    @pytest.mark.parametrize("case", sorted(SLAB_CASES))
    def test_schwarz_sum_equals_the_full_dense_r_term(self, case):
        problem, splitting = SLAB_CASES[case]()
        assert_same_bits(additive_schwarz_sum(problem, splitting),
                         verbatim_schwarz_sum(problem, splitting))

    @pytest.mark.parametrize("case", sorted(SLAB_CASES))
    def test_form_equals_the_full_products(self, case):
        problem, splitting = SLAB_CASES[case]()
        L = cholesky(problem.A, lower=True)
        S = additive_schwarz_sum(problem, splitting)
        M = L.T @ S @ L
        form = problems_module._congruence_in_place(problem._L_band, S)
        assert_same_bits(form, M)
        assert_same_bits(problems_module._symmetrize_in_place(form), 0.5 * (M + M.T))

    @pytest.mark.parametrize("case", sorted(SLAB_CASES))
    def test_in_place_factor_equals_the_copying_factor(self, case):
        problem, splitting = SLAB_CASES[case]()
        S = additive_schwarz_sum(problem, splitting)
        want, _ = cho_factor(S, lower=True)
        S = problems_module._transpose_in_place(S.copy()).T
        assert_same_bits(S, additive_schwarz_sum(problem, splitting))
        got, _ = cho_factor(S, lower=True, overwrite_a=True)
        assert np.shares_memory(got, S)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("n", [72, 136, 200, 300, 1000, 1560])
    def test_slab_products_of_random_matrices(self, n):
        """Random factors and sums at sizes whose last slab is narrower
        than the others or takes in a short remainder, that are no
        multiple of 8, or whose slabs would not start on multiples of 64
        at ceil(n / 8) columns."""
        rng = np.random.default_rng(n)
        L = cholesky(random_spd(rng, n), lower=True)
        for scale in SCALES:
            S = rng.standard_normal((n, n)) * scale
            M = L.T @ S @ L
            # L as the one tile of a dense problem's band
            form = problems_module._congruence_in_place([(slice(0, n), slice(0, n), L)], S)
            assert_same_bits(form, M)
            assert_same_bits(problems_module._symmetrize_in_place(form), 0.5 * (M + M.T))
        for d in (1, 5, 32):
            R = rng.standard_normal((n, d))
            X = rng.standard_normal((d, n))
            S = rng.standard_normal((n, n))
            want = S + R @ X
            for r in problems_module._slabs(n):
                S[r] += R[r] @ X
            assert_same_bits(S, want)


# Run in a child interpreter at a given BLAS thread count: the K panels of
# dgemm, and so the cuts of the congruence, depend on it.  L is the stored
# factor of a Poisson two-level problem, of a random banded SPD problem
# (bandwidth 40) and a random dense one (one tile); n = 1100 is one slab,
# and n = 400, 520 and 1000 are cut in other places at one and at two
# threads (n = 1560 and 2048 ran too, but take a second each).
CONGRUENCE_PIECES = """
import numpy as np
import mschwarz.problems as P
from mschwarz import Problem, make_poisson_1d

def congruence_equals_full_products(L_band, S):
    n = len(S)
    L = P._band_block(L_band, slice(0, n), slice(0, n))
    want = (L.T @ S) @ L
    got = P._congruence_in_place(L_band, S)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

def banded(rng, n, width):
    A = np.zeros((n, n))
    for i in range(n):
        A[i, max(i - width, 0):i] = rng.standard_normal(min(i, width))
    return A + A.T + 4 * width * np.eye(n)

spec = {"kind": "two_level", "coarse_stride": 32, "block_size": 64, "overlap": 16}
for n in (400, 520, 1000, 1100, 1024):
    starts = P._panel_starts(n)
    assert (np.diff([0, *starts, n]) > 0).all(), (n, starts)
    problem, splitting = make_poisson_1d(n, spec)
    S = P.additive_schwarz_sum(problem, splitting)
    assert congruence_equals_full_products(problem._L_band, S), ("two-level", n)
rng = np.random.default_rng(7)
for n in (400, 520, 1000):
    S = rng.standard_normal((n, n))
    assert congruence_equals_full_products(Problem(banded(rng, n, 40), np.ones(n))._L_band, S.copy()), ("banded", n)
    if n < 1000:
        Q = rng.standard_normal((n, n))
        L = np.linalg.cholesky(Q @ Q.T + n * np.eye(n))
        assert congruence_equals_full_products([(slice(0, n), slice(0, n), L)], S), ("dense", n)
# the negative control at n = 1024: uncut pieces round differently, so a
# probe that found no panel start could not pass the checks above
P._panel_starts = lambda n: []
assert not congruence_equals_full_products(problem._L_band, P.additive_schwarz_sum(problem, splitting))
"""


class TestCongruencePieces:
    """The congruence multiplies only L's band, in pieces cut at the K
    panels of dgemm, and has the full products' bits."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_congruence_equals_full_products_at_each_thread_count(self, threads):
        src = Path(problems_module.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", CONGRUENCE_PIECES], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr + blas_note()

    @pytest.mark.parametrize("sums", ["unknown", "every pair cut"])
    def test_unreadable_probe_multiplies_the_full_k_range(self, monkeypatch, sums):
        """A probe sum that is neither of the two expected, or a panel of
        one term, leaves each slab product whole: its pieces span [0, n)."""
        n = 520
        problem, splitting = make_poisson_1d(n, POISSON_SPLITTINGS["two-level-1024"][1])
        t = problems_module.PANEL_PROBE_T
        probe = problems_module._panel_probe(n)
        probe[:] = 0.5 if sums == "unknown" else t - 1.0
        if sums == "unknown":
            probe[::2] = t * (t - 1.0)
        monkeypatch.setattr(problems_module, "_panel_probe", lambda n: probe)
        assert problems_module._panel_starts(n) is None
        blocks = []
        real = problems_module._band_block
        monkeypatch.setattr(problems_module, "_band_block",
                            lambda band, r, c: blocks.append(r) or real(band, r, c))
        S = additive_schwarz_sum(problem, splitting)
        L = cholesky(problem.A, lower=True)
        want = (L.T @ S) @ L
        assert_same_bits(problems_module._congruence_in_place(problem._L_band, S), want)
        assert blocks and all(r == slice(0, n) for r in blocks)

    def test_probe_reads_two_values(self):
        t = problems_module.PANEL_PROBE_T
        sums = problems_module._panel_probe(1000)
        assert sums.shape == (999,)
        assert np.isin(sums, (t * (t - 1.0), t - 1.0)).all(), blas_note()


class TestLeanSetup:
    """The stored clean factor, the in-place stability form and the
    deduplicated Lambda keep the bits of the straightforward computations."""

    @pytest.mark.parametrize("case", sorted(SETUP_CASES))
    def test_problem_keeps_the_clean_lower_factor(self, case):
        """L rebuilt from its tiles, whole and slab by slab, is a fresh
        factor of A, bit for bit."""
        problem, _ = SETUP_CASES[case]()
        n = problem.n
        L = cholesky(problem.A, lower=True)
        rows = slice(0, n)
        assert_same_bits(problems_module._band_block(problem._L_band, rows, rows), L)
        for c in problems_module._slabs(n):
            assert_same_bits(problems_module._band_block(problem._L_band, rows, c), L[:, c])
        # the solve on cho_factor's factor, whose upper triangle holds A
        want = cho_solve(cho_factor(problem.A, lower=True), problem.b)
        assert np.array_equal(problem.exact_solution, want)

    @pytest.mark.parametrize("case", sorted(SETUP_CASES))
    def test_stability_spectrum_has_the_reference_bits(self, case):
        problem, splitting = SETUP_CASES[case]()
        want = reference_spectrum(problem, splitting)
        sc = stability_constants(problem, splitting)
        assert (sc.lam_min, sc.lam_max) == want

    def test_stability_eigh_gets_a_fortran_ordered_form(self, monkeypatch):
        problem, splitting = SETUP_CASES["two-level-128"]()
        calls = count_eigh_calls(monkeypatch)
        stability_constants(problem, splitting)
        [(form,)] = calls
        # LAPACK works on a Fortran-ordered array in place; a C-ordered one
        # it would receive as a copy
        assert form.flags.f_contiguous

    def test_block_norms_factor_a_fortran_ordered_sum_in_place(self, monkeypatch):
        problem, splitting = SETUP_CASES["two-level-128"]()
        calls = []
        real = kernels_module.potrf
        monkeypatch.setattr(kernels_module, "potrf",
                            lambda a, **k: calls.append((a, k, real(a, **k))) or calls[-1][2])
        representation_block_norms(problem, splitting, problem.exact_solution)
        [(S, kwargs, factor)] = calls
        # LAPACK factors a Fortran-ordered array in place; a C-ordered one
        # it would receive as a copy
        assert S.flags.f_contiguous and kwargs["overwrite_a"] is True
        assert np.shares_memory(factor, S)

    def test_stability_peak_memory_is_one_matrix(self):
        n, spec = POISSON_SPLITTINGS["two-level-1024"]
        problem, splitting = make_poisson_1d(n, spec)
        tracemalloc.start()
        try:
            stability_constants(problem, splitting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one buffer, plus a block of L's band, a piece product and
        # eigh's workspace
        assert peak <= 1.25 * n * n * 8

    def test_metadata_peak_memory_is_one_matrix(self):
        n, spec = POISSON_SPLITTINGS["two-level-1024"]
        problem, splitting = make_poisson_1d(n, spec)
        tracemalloc.start()
        try:
            # the CLI's order
            uniform_bound_lambda(problem, splitting)
            representation_block_norms(problem, splitting, problem.exact_solution)
            stability_constants(problem, splitting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one S at a time, factored or turned into the form in place, plus
        # the finiteness checks' boolean copies, a slab product and eigh's
        # workspace
        assert peak <= 1.25 * n * n * 8

    def test_build_peak_memory_is_one_matrix(self):
        n, spec = POISSON_SPLITTINGS["two-level-1024"]
        make_poisson_1d(128, spec)
        tracemalloc.start()
        try:
            make_poisson_1d(n, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n array at a time: the builder's A, then the problem's copy
        # factored in place; the band, the tiles of L and the splitting's
        # forms
        assert peak <= 1.5 * n * n * 8

    def test_problem_and_model_keep_one_matrix(self):
        n, spec = POISSON_SPLITTINGS["two-level-1024"]
        make_poisson_1d(128, spec)
        tracemalloc.start()
        try:
            kept = make_poisson_1d(n, spec)
            kept += (MatrixSchwarzModel(*kept),)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the bands of A and L (about 0.18 n^2 at n = 1024), the coarse R and
        # the two distinct local forms and factors; a dense A or L would be
        # one n^2 more
        assert retained <= 0.45 * n * n * 8

    def test_byte_equal_local_forms_are_stored_once(self):
        problem, splitting = SETUP_CASES["two-level-1024"]()
        forms = {id(c.A_local) for c in splitting}
        factors = {id(c._chol) for c in splitting}
        # 21 equal blocks and the coarse component
        assert len(forms) == len(factors) == 2
        A = problem.A
        for c in splitting:
            want = A[c.rows, c.rows] if c.block is None else c.R.T @ A @ c.R
            assert c.A_local.tobytes() == want.tobytes()

    def test_lambda_peak_memory_is_a_slab(self):
        n, spec = POISSON_SPLITTINGS["two-level-1024"]
        problem, splitting = make_poisson_1d(n, spec)
        tracemalloc.start()
        try:
            uniform_bound_lambda(problem, splitting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a slab of A's rows and A R; a dense A would be n^2
        assert peak <= 0.25 * n * n * 8

    @pytest.mark.parametrize("case, solves", [
        ("two-level-1024", 2),  # 21 equal blocks and the coarse component
        ("mixed-dense-R", 7),  # every Galerkin block of a random A differs
        ("diagonal-dense", 1),
    ])
    def test_lambda_solves_once_per_distinct_form(self, monkeypatch, case, solves):
        problem, splitting = SETUP_CASES[case]()
        want = max(component_lambda(problem, c) for c in splitting)
        calls = count_eigh_calls(monkeypatch)
        assert uniform_bound_lambda(problem, splitting) == want
        assert len(calls) == solves

