import numpy as np
import pytest

from mschwarz import (
    BlockResidual,
    DiagonalModel,
    ExplicitDistribution,
    FiniteSplitting,
    GAWRRelaxation,
    GreedyRule,
    GrowingPool,
    MatrixSchwarzModel,
    PowerLawDistribution,
    Problem,
    PureRelaxation,
    RandomRule,
    SplittingComponent,
    TruncatedSchedule,
    TwoParamRelaxation,
    cyclic_rule,
    energy_norm,
    iterate,
    omega_optimal,
    run,
    select_greedy,
    two_param_update,
    uniform_distribution,
)
from mschwarz.solver import DeterministicRule, FixedPool


def random_spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def identity_model(rng, n):
    p = Problem(random_spd(rng, n), rng.standard_normal(n))
    eye = np.eye(n)
    comps = [SplittingComponent(i + 1, eye[:, [i]], p.A[[i], :][:, [i]]) for i in range(n)]
    return MatrixSchwarzModel(p, FiniteSplitting(p, comps))


class TestGreedySelection:
    def test_largest_coefficient_wins(self):
        model = DiagonalModel([3.0, 2.0, 1.0])
        res = select_greedy(model, model.new_state(), GreedyRule(1.0, FixedPool()), 0)
        assert res.index == 1
        assert res.local_norm == 3.0

    def test_tie_breaks_to_smallest_index(self):
        model = DiagonalModel([1.0, 1.0])
        res = select_greedy(model, model.new_state(), GreedyRule(1.0, FixedPool()), 0)
        assert res.index == 1

    def test_weak_greedy_compliance(self):
        rng = np.random.default_rng(0)
        rule = GreedyRule(0.5, FixedPool())
        for _ in range(100):
            model = DiagonalModel(rng.standard_normal(6))
            state = model.new_state()
            state.u = rng.standard_normal(6)
            res = select_greedy(model, state, rule, 0)
            pool_max = np.abs(model.coefficients - state.u).max()
            assert res.local_norm ** 2 >= 0.25 * pool_max ** 2 - 1e-15

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            GreedyRule(1.5)
        with pytest.raises(ValueError):
            GreedyRule(0.0)


class TestPools:
    def test_pools_are_prefixes_of_the_model_pool(self):
        rng = np.random.default_rng(1)
        model = identity_model(rng, 4)
        assert FixedPool().size(model, 7) is None
        assert [GrowingPool().size(model, m) for m in range(6)] == [1, 2, 3, 4, 5, 6]
        assert FixedPool().size(DiagonalModel([1.0, 2.0]), 3) is None

    def test_growing_pool_rejects_lazy_model(self):
        model = DiagonalModel([1.0])
        with pytest.raises(ValueError, match="finite"):
            GrowingPool().size(model, 0)

    def test_empty_pool_raises(self):
        model = DiagonalModel({})
        with pytest.raises(ValueError, match="empty greedy pool"):
            select_greedy(model, model.new_state(), GreedyRule(1.0, FixedPool()), 0)


class TestOmegaOptimal:
    def test_zero_direction(self):
        rng = np.random.default_rng(3)
        model = identity_model(rng, 3)
        res = model.step(BlockResidual(1, np.zeros(1), 0.0, 0.0))
        assert omega_optimal(model, res, 0.5) == 0.0

    def test_orthonormal_alpha_one_writes_coefficient(self):
        model = DiagonalModel([0.7, -0.2])
        state = model.new_state()
        res = model.local_residual(state, 1)
        assert omega_optimal(model, res, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_three_point_directional_optimality(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            model = identity_model(rng, 4)
            state = model.new_state()
            state.u = rng.standard_normal(4)
            state.w = model.problem.A @ state.u
            i = int(rng.integers(1, 5))
            res = model.local_residual(state, i)
            alpha = float(rng.uniform(0.3, 1.0))
            w_star = omega_optimal(model, res, alpha)
            d = res.d
            u_exact = model.problem.exact_solution

            def err(w):
                return energy_norm(model.problem, u_exact - alpha * state.u - w * d)

            base = err(w_star)
            for dw in (-1e-3, 1e-3):
                assert err(w_star + dw) >= base - 1e-12 * (1.0 + base)


class TestTwoParam:
    def test_degenerate_gram_falls_back(self):
        rng = np.random.default_rng(5)
        model = identity_model(rng, 3)
        state = model.new_state()  # u = 0 and r = 0: singular Gram matrix
        res = model.step(BlockResidual(1, np.zeros(1), 0.0, 0.0))
        a, w = two_param_update(model, state, res, 4)
        assert a == pytest.approx(1.0 - 1.0 / 6.0, abs=1e-15)
        assert w == 0.0

    def test_parallel_direction_converges_in_one_step(self):
        rng = np.random.default_rng(6)
        A = random_spd(rng, 3)
        p = Problem(A, rng.standard_normal(3))
        comps = [SplittingComponent(1, np.eye(3), A)]
        model = MatrixSchwarzModel(p, FiniteSplitting(p, comps))
        trace = run(model, DeterministicRule([1]), TwoParamRelaxation(), 1)
        assert trace.error[1] <= 1e-10 * trace.error[0]

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = identity_model(rng, 5)
            state = model.new_state()
            state.u = rng.standard_normal(5)
            state.w = model.problem.A @ state.u
            i = int(rng.integers(1, 6))
            res = model.local_residual(state, i)
            a_star, w_star = two_param_update(model, state, res, 0)
            d = res.d
            u_exact = model.problem.exact_solution

            def err(a, w):
                return energy_norm(model.problem, u_exact - a * state.u - w * d)

            best = err(a_star, w_star)
            grid = np.linspace(-2.0, 2.0, 41)
            for a in np.abs(grid):  # alpha >= 0 feasible set
                for w in grid:
                    assert err(a, w) >= best - 1e-9 * (1.0 + best)


class TestRun:
    def test_zero_steps_records_initial_error(self):
        rng = np.random.default_rng(8)
        model = identity_model(rng, 4)
        trace = run(model, cyclic_rule(4), PureRelaxation(), 0)
        assert trace.error.shape == (1,)
        assert trace.error[0] == pytest.approx(
            energy_norm(model.problem, model.problem.exact_solution), abs=1e-12
        )

    def test_single_global_component_converges_in_one_step(self):
        rng = np.random.default_rng(9)
        A = random_spd(rng, 3)
        p = Problem(A, rng.standard_normal(3))
        comps = [SplittingComponent(1, np.eye(3), A)]
        model = MatrixSchwarzModel(p, FiniteSplitting(p, comps))
        trace = run(model, DeterministicRule([1]), PureRelaxation(), 1)
        assert trace.error[1] <= 1e-12 * trace.error[0]

    def test_greedy_pure_eliminates_largest_first(self):
        model = DiagonalModel([1.0, 0.5, 0.25])
        trace = run(model, GreedyRule(1.0, FixedPool()), PureRelaxation(), 3)
        c = np.array([1.0, 0.5, 0.25])
        for m in range(4):
            assert trace.error_sq[m] == pytest.approx((c[m:] ** 2).sum(), abs=1e-14)

    def test_cyclic_pure_is_monotone(self):
        rng = np.random.default_rng(10)
        model = identity_model(rng, 6)
        trace = run(model, cyclic_rule(6), PureRelaxation(), 60)
        assert np.all(np.diff(trace.error) <= 1e-12 * (1.0 + trace.error[0]))

    def test_seeded_runs_are_bitwise_identical(self):
        model = DiagonalModel([0.5, 0.3, 0.2])
        rule = RandomRule(uniform_distribution(3))
        t1 = run(model, rule, GAWRRelaxation(), 64, seed=123)
        t2 = run(model, rule, GAWRRelaxation(), 64, seed=123)
        assert np.array_equal(t1.index, t2.index)
        assert np.array_equal(t1.error, t2.error)

    def test_different_seeds_diverge(self):
        model = DiagonalModel([0.5, 0.3, 0.2])
        rule = RandomRule(uniform_distribution(3))
        t1 = run(model, rule, PureRelaxation(), 64, seed=1)
        t2 = run(model, rule, PureRelaxation(), 64, seed=2)
        assert not np.array_equal(t1.index, t2.index)

    def test_trace_sentinel_row(self):
        model = DiagonalModel([1.0])
        trace = run(model, DeterministicRule([1]), PureRelaxation(), 2)
        assert trace.index[-1] == -1
        assert np.isnan(trace.alpha[-1])
        assert np.isnan(trace.omega[-1])

    def test_point_mass_distribution_always_picks_index_one(self):
        model = DiagonalModel([1.0, 1.0])
        rule = RandomRule(ExplicitDistribution([1.0, 0.0]))
        trace = run(model, rule, PureRelaxation(), 16, seed=0)
        assert np.all(trace.index[:-1] == 1)

    def test_fixed_pool_matches_support_pool_on_dense_embedding(self):
        model = DiagonalModel([0.8, -0.4, 0.2])
        lazy = run(model, GreedyRule(1.0, FixedPool()), GAWRRelaxation(), 40)
        problem, splitting = model.to_dense()
        dense_model = MatrixSchwarzModel(problem, splitting)
        dense = run(dense_model, GreedyRule(1.0, FixedPool()), GAWRRelaxation(), 40)
        assert np.array_equal(lazy.index, dense.index)
        assert np.abs(lazy.error - dense.error).max() < 1e-10


def _reuse_cases():
    rng = np.random.default_rng(11)
    matrix = identity_model(rng, 5)
    diagonal = DiagonalModel([(i + 1) ** -1.5 for i in range(20)])
    return {
        "cyclic": (matrix, cyclic_rule(5)),
        "sequence": (matrix, DeterministicRule([2, 5, 1])),
        "greedy-fixed": (matrix, GreedyRule(1.0, FixedPool())),
        "greedy-growing": (matrix, GreedyRule(1.0, GrowingPool())),
        "random-fixed": (diagonal, RandomRule(uniform_distribution(20))),
        "random-truncated": (
            diagonal, RandomRule(TruncatedSchedule(PowerLawDistribution(1.0), 1.0))
        ),
    }


@pytest.mark.parametrize("case", sorted(_reuse_cases()))
def test_rule_objects_are_reusable_across_runs(case):
    model, rule = _reuse_cases()[case]
    t1 = run(model, rule, GAWRRelaxation(), 30, seed=5)
    t2 = run(model, rule, GAWRRelaxation(), 30, seed=5)
    assert np.array_equal(t1.index, t2.index)
    assert np.array_equal(t1.error, t2.error)


def test_iterate_yields_the_steps_run_records():
    rng = np.random.default_rng(12)
    model = identity_model(rng, 5)
    rule = RandomRule(uniform_distribution(5))
    trace = run(model, rule, GAWRRelaxation(), 25, seed=9)
    seen = 0
    for m, state, res, a, w in iterate(model, rule, GAWRRelaxation(), 25, seed=9):
        assert (res.index, a, w, res.local_norm) == (
            trace.index[m], trace.alpha[m], trace.omega[m], trace.local_norm[m]
        )
        assert model.error(state) == trace.error[m]
        seen += 1
    assert seen == 25
    assert model.error(state) == trace.error[25]
