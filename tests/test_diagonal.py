import math

import numpy as np
import pytest

from mschwarz import (
    DiagonalModel,
    ExplicitDistribution,
    LogFamilyDistribution,
    MatrixSchwarzModel,
    PowerLawDistribution,
    PureRelaxation,
    RandomRule,
    a1_norm,
    ainfty_pi_norm,
    exact_expected_error,
    make_diagonal,
    run,
    uniform_bound_lambda,
    uniform_distribution,
)
from mschwarz.diagonal import sup_norm_over_pi


class TestModelBasics:
    def test_single_coefficient(self):
        model = make_diagonal({1: 1.0})
        assert model.solution_norm() == 1.0

    def test_sparse_indices(self):
        model = make_diagonal({3: 0.5, 10: -0.2})
        assert list(model.support_indices) == [3, 10]
        res = model.local_residual(model.new_state(), 10)
        assert res.r == pytest.approx(-0.2)

    def test_off_support_residual_is_zero(self):
        model = make_diagonal({2: 1.0})
        res = model.local_residual(model.new_state(), 7)
        assert res.r == 0.0 and res.local_norm == 0.0

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            make_diagonal({0: 1.0})

    def test_dense_embedding_uniform_bound(self):
        problem, splitting = make_diagonal({1: 1.0}).to_dense()
        assert uniform_bound_lambda(problem, splitting) == pytest.approx(1.0, abs=1e-12)


class TestDenseLazyEquivalence:
    def test_operations_agree_on_random_state(self):
        model = DiagonalModel([0.9, -0.4, 0.3, 0.0, 0.2])
        problem, splitting = model.to_dense()
        dense = MatrixSchwarzModel(problem, splitting)
        rng = np.random.default_rng(17)
        lazy_state = model.new_state()
        dense_state = dense.new_state()
        u = rng.standard_normal(5)
        lazy_state.u = u.copy()
        dense_state.u = u.copy()
        dense_state.w = problem.A @ u
        for i in range(1, 6):
            lr = model.local_residual(lazy_state, i)
            dr = dense.local_residual(dense_state, i)
            assert lr.r == pytest.approx(dr.r[0], abs=1e-13)
            assert model.dir_functional(lr) == pytest.approx(
                dense.dir_functional(dr), abs=1e-13
            )
            assert model.dir_inner_current(lazy_state, lr) == pytest.approx(
                dense.dir_inner_current(dense_state, dr), abs=1e-13
            )
        assert model.current_energy_sq(lazy_state) == pytest.approx(
            dense.current_energy_sq(dense_state), abs=1e-12
        )
        assert model.error(lazy_state) == pytest.approx(dense.error(dense_state), abs=1e-12)

    def test_random_run_traces_agree(self):
        model = DiagonalModel([0.6, 0.3, 0.1])
        problem, splitting = model.to_dense()
        dense = MatrixSchwarzModel(problem, splitting)
        rule = RandomRule(uniform_distribution(3))
        for relax in (PureRelaxation(),):
            lazy = run(model, rule, relax, 50, seed=5)
            ref = run(dense, rule, relax, 50, seed=5)
            assert np.array_equal(lazy.index, ref.index)
            assert np.abs(lazy.error - ref.error).max() < 1e-10


class TestPoolScan:
    def test_vectorized_scan_equals_loop(self):
        """The scan over the support equals a per-index local_residual loop."""
        rng = np.random.default_rng(23)
        support = np.sort(rng.choice(np.arange(2, 400), size=60, replace=False))
        models = [DiagonalModel(dict(zip(support.tolist(), rng.standard_normal(60)))),
                  DiagonalModel({2: 0.5, 40: -0.125, 10**9: 1.0}), DiagonalModel({})]
        for model in models:
            state = model.new_state()
            state.u = rng.standard_normal(state.u.size)
            state.u[::7] = model.coefficients[::7]  # exact zeros on the support
            got, residual = model.pool_local_norms(state)
            want = [model.local_residual(state, i).local_norm for i in model.support_indices]
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
            for i in model.support_indices:
                assert residual(i) == model.local_residual(state, i)

    def test_support_positions_equal_dictionary_lookup(self):
        model = DiagonalModel({2: 0.5, 3: 0.25, 40: -0.125, 10**9: 1.0})
        indices = np.array([1, 2, 3, 4, 39, 40, 41, 10**9, 10**9 + 1, 2**62])
        want = [model._pos.get(int(i), -1) for i in indices]
        assert model.support_positions(indices).tolist() == want
        assert DiagonalModel({}).support_positions(indices).tolist() == [-1] * indices.size


class TestPureRandomHitSets:
    def test_iterate_equals_partial_sum_over_hit_set(self):
        # pure relaxation writes the exact coefficient of every visited index
        model = DiagonalModel([0.5, -0.3, 0.2, 0.1])
        rule = RandomRule(uniform_distribution(4))
        trace = run(model, rule, PureRelaxation(), 30, seed=9)
        hit = set()
        c = model.coefficients
        for m in range(30):
            hit.add(int(trace.index[m]))
            expected_sq = sum(c[i - 1] ** 2 for i in range(1, 5) if i not in hit)
            assert trace.error_sq[m + 1] == pytest.approx(expected_sq, abs=1e-14)


class TestClassNorms:
    def test_a1_single(self):
        assert a1_norm(make_diagonal({1: 1.0})) == 1.0

    def test_a1_direct_sum(self):
        assert a1_norm(make_diagonal([1.0, 0.5, 0.25])) == pytest.approx(1.75, abs=1e-15)

    def test_a1_dominates_energy_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            model = make_diagonal(rng.standard_normal(6))
            assert model.solution_norm() <= a1_norm(model) + 1e-12

    def test_ainfty_extremal_case(self):
        pi = ExplicitDistribution([0.5, 0.3, 0.2])
        model = make_diagonal([0.5, 0.3, 0.2])
        assert ainfty_pi_norm(model, pi) == pytest.approx(1.0, abs=1e-15)

    def test_ainfty_componentwise_max(self):
        pi = ExplicitDistribution([0.5, 0.5])
        model = make_diagonal([1.0, 0.5])
        assert ainfty_pi_norm(model, pi) == pytest.approx(2.0, abs=1e-15)

    def test_ainfty_homogeneity(self):
        pi = ExplicitDistribution([0.25, 0.75])
        base = ainfty_pi_norm(make_diagonal([0.4, 0.3]), pi)
        scaled = ainfty_pi_norm(make_diagonal([-1.2, -0.9]), pi)
        assert scaled == pytest.approx(3.0 * base, abs=1e-13)

    def test_ainfty_infinite_off_support(self):
        pi = ExplicitDistribution([1.0])
        model = make_diagonal({2: 0.1})
        assert ainfty_pi_norm(model, pi) == math.inf

    def test_pi_is_read_once_and_past_its_support_has_no_mass(self, monkeypatch):
        pi = ExplicitDistribution([0.5, 0.25, 0.25])
        reads = []
        probs_at = pi.probs_at
        monkeypatch.setattr(pi, "probs_at", lambda i: reads.append(len(i)) or probs_at(i))
        monkeypatch.setattr(pi, "prob", None)
        # index 7 lies past the support: a nonzero coefficient there makes
        # the norm infinite, a zero one is skipped
        assert ainfty_pi_norm(make_diagonal({1: 0.5, 3: 0.25, 7: 0.125}), pi) == math.inf
        assert ainfty_pi_norm(make_diagonal({1: 0.5, 3: 0.25, 7: 0.0}), pi) == 1.0
        assert sup_norm_over_pi([], [], pi) == 0.0
        # past the support a coefficient is never hit: |c_7|^2 at every m
        model = make_diagonal({1: 0.5, 7: 0.125})
        assert np.array_equal(exact_expected_error(model, pi, [0, 1, 2]),
                              0.125 ** 2 + 0.25 * 0.5 ** np.arange(3))
        assert reads == [3, 2, 0, 2]

    @pytest.mark.parametrize("pi", [
        ExplicitDistribution(np.full(40, 1.0 / 40.0)), PowerLawDistribution(0.5),
        LogFamilyDistribution()], ids=["explicit", "power_law", "log_family"])
    def test_ainfty_equals_the_per_index_loop(self, pi):
        rng = np.random.default_rng(4)
        indices = np.unique(rng.integers(1, 60, 25))
        norms = rng.random(indices.size) * (rng.random(indices.size) < 0.8)
        worst = 0.0  # the loop before pi was read once
        for i, nrm in zip(indices, norms):
            if nrm != 0.0:
                p = pi.prob(int(i))
                worst = math.inf if p == 0.0 else max(worst, nrm / p)
        assert sup_norm_over_pi(indices, norms, pi) == worst
