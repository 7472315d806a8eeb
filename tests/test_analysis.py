import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mschwarz import (
    DiagonalModel,
    ExplicitDistribution,
    GAWRRelaxation,
    GreedyBoundSpec,
    PowerLawDistribution,
    PureRelaxation,
    RandomBoundSpec,
    GreedyDensityBoundSpec,
    RandomRule,
    bruteforce_expected_error,
    chebyshev_tail,
    density_bound,
    exact_expected_error,
    fit_rate,
    greedy_bound,
    lemma3_check,
    lemma3_sweep,
    make_diagonal,
    mc_expected_error,
    pcons_envelope_constant,
    pcons_sum,
    random_bound,
    TruncatedSchedule,
    run,
    uniform_distribution,
)
from mschwarz import analysis
from mschwarz.analysis import _finalize_estimate, _trial_seed
from mschwarz.solver import DeterministicRule


class TestBoundEvaluators:
    def test_greedy_bound_unit_case(self):
        spec = GreedyBoundSpec(norm_a=1.0, lam=1.0, beta=1.0, a1=1.0)
        assert greedy_bound(0, spec) == pytest.approx(4.0, abs=1e-15)

    def test_greedy_bound_quarters(self):
        spec = GreedyBoundSpec(norm_a=0.7, lam=1.3, beta=0.5, a1=2.0)
        for m in [0, 3, 10, 99]:
            assert greedy_bound(4 * m + 3, spec) == pytest.approx(
                greedy_bound(m, spec) / 4.0, rel=1e-14
            )

    def test_greedy_bound_beta_gap(self):
        lam, a1, na = 1.1, 0.8, 0.5
        half = GreedyBoundSpec(norm_a=na, lam=lam, beta=0.5, a1=a1)
        full = GreedyBoundSpec(norm_a=na, lam=lam, beta=1.0, a1=a1)
        m = 7.0
        gap = greedy_bound(m, half) - greedy_bound(m, full)
        assert gap == pytest.approx(2.0 * 3.0 * lam ** 2 * a1 ** 2 / (m + 1.0), rel=1e-13)

    def test_random_bound_unit_case(self):
        spec = RandomBoundSpec(norm_a=1.0, lam=1.0, ainf=1.0)
        assert random_bound(1, spec) == pytest.approx(2.0, abs=1e-15)

    def test_random_bound_zero_norms(self):
        spec = RandomBoundSpec(norm_a=0.0, lam=1.0, ainf=0.0)
        assert random_bound(5, spec) == 0.0

    def test_random_bound_dominates_exact_expectation(self):
        pi = uniform_distribution(8)
        model = make_diagonal(np.full(8, 0.125))
        spec = RandomBoundSpec(norm_a=model.solution_norm(), lam=1.0, ainf=1.0)
        ms = np.arange(1001)
        exact = exact_expected_error(model, pi, ms)
        assert np.all(exact <= random_bound(ms, spec) + 1e-15)

    def test_density_bound_limits(self):
        # h = u: reduces to the pure sqrt(8 ...) (m+1)^{-1/2} term
        spec = GreedyDensityBoundSpec(dist_a=0.0, norm_a=1.0, lam=1.0, beta=1.0, a1_h=1.0)
        assert density_bound(0, spec) == pytest.approx(4.0, abs=1e-14)
        # all class norms zero: only the distance term remains
        far = GreedyDensityBoundSpec(dist_a=1.0, norm_a=0.0, lam=1.0, beta=1.0, a1_h=0.0)
        assert density_bound(0, far) == pytest.approx(2.0, abs=1e-15)


class TestExactExpectation:
    def test_m0_is_squared_norm(self):
        model = make_diagonal([0.6, 0.3, 0.1])
        pi = ExplicitDistribution([0.2, 0.3, 0.5])
        assert exact_expected_error(model, pi, 0) == pytest.approx(
            model.solution_norm() ** 2, abs=1e-15
        )

    def test_single_coefficient_hand_value(self):
        model = make_diagonal({1: 1.0})
        pi = ExplicitDistribution([0.5, 0.5])
        assert exact_expected_error(model, pi, 3) == pytest.approx(0.125, abs=1e-15)

    def test_off_support_mass_never_decays(self):
        model = make_diagonal({1: 0.5, 9: 0.5})
        pi = ExplicitDistribution([1.0])
        assert exact_expected_error(model, pi, 100) == pytest.approx(0.25, abs=1e-15)


class TestBruteForce:
    def test_two_sequences_hand_value(self):
        model = make_diagonal([1.0, 1.0])
        pi = ExplicitDistribution([0.5, 0.5])
        assert bruteforce_expected_error(model, pi, 1) == pytest.approx(1.0, abs=1e-15)

    def test_matches_exact_identity_on_grids(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            c = rng.standard_normal(3)
            p = rng.random(3) + 0.05
            p /= p.sum()
            model = make_diagonal(c)
            pi = ExplicitDistribution(p)
            for m in range(9):
                assert bruteforce_expected_error(model, pi, m) == pytest.approx(
                    exact_expected_error(model, pi, m), abs=1e-12
                )

    def test_size_limits(self):
        model = make_diagonal(np.ones(5) / 5)
        pi = uniform_distribution(5)
        with pytest.raises(ValueError):
            bruteforce_expected_error(model, pi, 2)
        with pytest.raises(ValueError):
            bruteforce_expected_error(make_diagonal([1.0]), uniform_distribution(2), 9)


class TestMonteCarlo:
    def test_deterministic_rule_has_zero_stderr(self):
        model = make_diagonal([0.5, 0.3])
        est = mc_expected_error(model, DeterministicRule([1, 2]), PureRelaxation(), 8, 5, 0)
        assert np.all(est.stderr == 0.0)

    def test_fast_path_matches_generic_loop(self):
        model = make_diagonal([0.5, -0.3, 0.2])
        rules = (RandomRule(uniform_distribution(3)),
                 RandomRule(TruncatedSchedule(PowerLawDistribution(0.5), 1.0)))
        for rule, relax in itertools.product(rules, (PureRelaxation(), GAWRRelaxation())):
            fast = mc_expected_error(model, rule, relax, 24, 40, 99)
            sums = np.zeros(25)
            sumsq = np.zeros(25)
            for t in range(40):
                trace = run(model, rule, relax, 24, seed=[99, t])
                sums += trace.error_sq
                sumsq += trace.error_sq ** 2
            mean = sums / 40
            assert np.abs(fast.mean - mean).max() < 1e-13

    def test_mean_close_to_exact(self):
        model = make_diagonal([0.6, 0.3, 0.1])
        pi = ExplicitDistribution([0.5, 0.4, 0.1])
        est = mc_expected_error(model, RandomRule(pi), PureRelaxation(), 5, 20_000, 4)
        exact = exact_expected_error(model, pi, np.arange(6))
        dev = np.abs(est.mean - exact)
        assert np.all(dev[1:] <= 4.0 * est.stderr[1:])

    def test_stderr_scales_like_inverse_sqrt_k(self):
        model = make_diagonal([0.6, 0.3, 0.1])
        rule = RandomRule(uniform_distribution(3))
        small = mc_expected_error(model, rule, PureRelaxation(), 8, 2000, 7)
        large = mc_expected_error(model, rule, PureRelaxation(), 8, 8000, 7)
        ratio = small.stderr[4] / large.stderr[4]
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_requires_two_trials(self):
        model = make_diagonal([1.0])
        with pytest.raises(ValueError):
            mc_expected_error(model, RandomRule(uniform_distribution(1)),
                              PureRelaxation(), 2, 1, 0)


def _previous_mc_diagonal_fast(model, selection, relaxation, M, K, master_seed, chunk=4096):
    # the kernel before the cache-blocked rewrite, verbatim: the bit oracle
    c = model.coefficients
    d = c.size
    top = int(model.support_indices.max()) if d else 1

    fixed = not callable(selection.schedule)
    dists = None if fixed else [selection.distribution(m) for m in range(M)]
    fixed_dist = selection.distribution(0) if fixed else None
    pure = isinstance(relaxation, PureRelaxation)
    alphas = np.array([relaxation.alpha(m) for m in range(M)])

    sums = np.zeros(M + 1)
    sumsq = np.zeros(M + 1)
    support_table = np.full(top + 2, -1, dtype=np.int64)
    support_table[model.support_indices] = np.arange(d)

    for start in range(0, K, chunk):
        B = min(chunk, K - start)
        U = np.empty((B, M))
        for t in range(B):
            rng = np.random.default_rng(_trial_seed(master_seed, start + t))
            U[t] = rng.random(M)
        # map uniforms to support positions per step (-1: no support coefficient)
        pos = np.empty((B, M), dtype=np.int64)
        if fixed:
            idx = fixed_dist.sample_from_uniform(U)
            pos[:] = np.where(idx <= top, support_table[np.minimum(idx, top)], -1)
        else:
            for m in range(M):
                idx = dists[m].sample_from_uniform(U[:, m])
                pos[:, m] = np.where(idx <= top, support_table[np.minimum(idx, top)], -1)
        state = np.zeros((B, d))
        errs = np.empty((B, M + 1))
        rows = np.arange(B)
        for m in range(M):
            errs[:, m] = ((c - state) ** 2).sum(axis=1)
            hit = pos[:, m] >= 0
            rows_h = rows[hit]
            cols_h = pos[hit, m]
            # residual at u^{(m)}: below the zero threshold the direction is
            # dropped (omega = 0) and the coordinate only scales with alpha
            live = np.abs(c[cols_h] - state[rows_h, cols_h]) > model.zero_tol
            if not pure:
                state *= alphas[m]
            state[rows_h[live], cols_h[live]] = c[cols_h[live]]
        errs[:, M] = ((c - state) ** 2).sum(axis=1)
        sums += errs.sum(axis=0)
        sumsq += (errs ** 2).sum(axis=0)
    return _finalize_estimate(sums, sumsq, K)


def _power_law_coefficients(d):
    return make_diagonal([i ** -1.5 for i in range(1, d + 1)])


def _truncated_rule():
    return RandomRule(TruncatedSchedule(PowerLawDistribution(0.5), 1.0))


def _mixed_rule():
    # a truncated table at even steps, an untruncated series at odd ones
    truncated, series = TruncatedSchedule(PowerLawDistribution(0.5), 1.0), PowerLawDistribution(2.0)
    return RandomRule(lambda m: series if m % 2 else truncated(m))


# (model, rule factory, relaxation, steps, trials); each rule is built fresh
# for each kernel, so both see the same lazily grown tables
KERNEL_CASES = {
    "truncated_gawr": (_power_law_coefficients(30), _truncated_rule, GAWRRelaxation(), 60, 300),
    "truncated_pure": (_power_law_coefficients(30), _truncated_rule, PureRelaxation(), 60, 300),
    "explicit_past_gapped_support": (
        make_diagonal({1: 0.5, 3: -0.25, 7: 0.125}),
        lambda: RandomRule(ExplicitDistribution(np.full(9, 1.0 / 9.0))),
        GAWRRelaxation(), 40, 301),
    # 1500 trials are not a multiple of the 1456-row default block at d=30
    "trials_past_row_block": (_power_law_coefficients(30), _truncated_rule, GAWRRelaxation(), 12, 1500),
    "trials_past_group": (_power_law_coefficients(4), _truncated_rule, GAWRRelaxation(), 5, 5000),
    "no_steps": (_power_law_coefficients(30), _truncated_rule, GAWRRelaxation(), 0, 5000),
    "fixed_power_law": (
        _power_law_coefficients(30), lambda: RandomRule(PowerLawDistribution(2.0)),
        GAWRRelaxation(), 40, 300),
    # index 40 lies past the cutoff of the early steps
    "truncated_gapped_support": (
        make_diagonal({1: 0.5, 3: -0.25, 40: 0.125}), _truncated_rule, GAWRRelaxation(), 60, 300),
    # under the tiny budgets the uniforms-and-errors cap, not the cache
    # budget, sets the row block
    "steps_cap_row_block": (_power_law_coefficients(4), _truncated_rule, GAWRRelaxation(), 200, 300),
    "mixed_schedule": (_power_law_coefficients(30), _mixed_rule, GAWRRelaxation(), 40, 300),
}


class TestMonteCarloKernelOracle:
    """The kernel is bit-identical to its previous version for any budgets."""

    @pytest.mark.parametrize("budgets", ["default", "tiny"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_bit_identical_to_previous_kernel(self, case, budgets, monkeypatch):
        model, make_rule, relax, steps, trials = KERNEL_CASES[case]
        if budgets == "tiny":
            # a few rows per block and a few row blocks per chunk
            monkeypatch.setattr(analysis, "MC_CHUNK_BYTES", 16 << 10)
            monkeypatch.setattr(analysis, "MC_CACHE_BYTES", 4 << 10)
        expected = _previous_mc_diagonal_fast(model, make_rule(), relax, steps, trials, 11)
        got = mc_expected_error(model, make_rule(), relax, steps, trials, 11)
        assert np.array_equal(got.mean, expected.mean)
        assert np.array_equal(got.stderr, expected.stderr)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (218, 200)])
    def test_work_arrays_are_aligned_staggered_and_disjoint(self, shape):
        arrays = analysis._aligned_arrays(3, shape)
        starts = [a.ctypes.data for a in arrays]
        for a in arrays:
            assert a.shape == shape and a.dtype == float and a.flags.c_contiguous
        assert all(p % 64 == 0 for p in starts)
        # staggered: no two start at the same offset within a 4 KiB page
        assert len({p % 4096 for p in starts}) == 3
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)


class TestMonteCarloStepMaps:
    def test_boundary_map_matches_sampling_at_the_boundaries(self):
        # zero probabilities make equal partial sums; the tables end before,
        # at and past the support indices
        tables = [ExplicitDistribution(p) for p in (
            [1.0], [0.5, 0.5], [0.25, 0.0, 0.5, 0.25], [0.0, 0.5, 0.0, 0.0, 0.5],
            np.full(10, 0.1), np.full(50, 0.02))]
        rng = np.random.default_rng(5)
        for support in ({1: 1.0}, {2: 1.0, 3: 1.0}, {1: 1.0, 3: 1.0, 40: 1.0}, {4: 1.0, 5: 1.0, 7: 1.0},
                        {10: 1.0, 11: 1.0}):
            model = make_diagonal(support)
            rule = RandomRule(lambda m: tables[m])
            to_positions = analysis._step_maps(model, rule, len(tables))
            cums = np.concatenate([t._cum for t in tables])
            u = np.unique(np.concatenate([
                cums, np.nextafter(cums, 0.0), np.nextafter(cums, 2.0), [0.0], rng.random(40)]))
            u = u[(u >= 0.0) & (u < 1.0)]
            U = np.tile(u, (len(tables), 1))
            to_positions(U)
            for m, table in enumerate(tables):
                want = model.support_positions(table.sample_from_uniform(u))
                assert np.array_equal(U.view(np.int64)[m], want), (support, m)

    def test_truncated_schedule_builds_no_table_over_two_groups(self, monkeypatch):
        # the step maps read the boundaries off the base's grown prefix
        # (TruncatedSchedule.boundaries); no truncated table is built
        built = []
        init = ExplicitDistribution.__init__
        monkeypatch.setattr(ExplicitDistribution, "__init__",
                            lambda self, probs: built.append(len(probs)) or init(self, probs))
        mc_expected_error(_power_law_coefficients(30), _truncated_rule(), GAWRRelaxation(), 60, 5000, 3)
        assert built == []

    @staticmethod
    def traced_peak(model, steps, trials):
        rule = _truncated_rule()  # built first: its first partial-sum table is not the kernel's
        tracemalloc.start()
        try:
            mc_expected_error(model, rule, GAWRRelaxation(), steps, trials, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_trials(self):
        model = _power_law_coefficients(200)
        small, large = self.traced_peak(model, 400, 2000), self.traced_peak(model, 400, 8000)
        assert large <= small + (16 << 10), (small, large)

    def test_chunk_budget_caps_the_row_block(self, monkeypatch):
        # 40 rows of 500 uniforms and errors would take 320 KiB
        monkeypatch.setattr(analysis, "MC_CHUNK_BYTES", 32 << 10)
        assert self.traced_peak(_power_law_coefficients(4), 500, 40) < 256 << 10


class TestMonteCarloSupportPositions:
    def test_large_index_allocates_by_support_size(self):
        # a lookup array indexed by the coefficient index would take 80 MB
        far = make_diagonal({1: 0.5, 2: -0.25, 10 ** 7: 0.125})
        near = make_diagonal({1: 0.5, 2: -0.25, 4: 0.125})
        rule = RandomRule(ExplicitDistribution([0.5, 0.25, 0.25]))
        tracemalloc.start()
        try:
            got = mc_expected_error(far, rule, GAWRRelaxation(), 20, 50, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # neither index 4 nor 10**7 is ever drawn
        want = mc_expected_error(near, rule, GAWRRelaxation(), 20, 50, 3)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.stderr, want.stderr)


class TestChebyshev:
    def test_large_eps_clamps_to_one(self):
        spec = RandomBoundSpec(norm_a=1.0, lam=1.0, ainf=1.0)
        assert chebyshev_tail(10, spec, eps=1e6) == pytest.approx(1.0)

    def test_hand_value(self):
        # 8(norm^2 + lam^2 ainf^2) = 8, m = 7, eps^2 = 2 -> 1 - 8/(8*2) = 1/2
        spec = RandomBoundSpec(norm_a=1.0, lam=1.0, ainf=0.0)
        assert chebyshev_tail(7, spec, eps=math.sqrt(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_delta_mode_threshold(self):
        spec = RandomBoundSpec(norm_a=1.0, lam=1.0, ainf=0.0)
        thr = chebyshev_tail(7, spec, delta=0.5)
        assert thr == pytest.approx(2.0, abs=1e-14)

    def test_empirical_violation_rate(self):
        # observed violation frequency never exceeds the Chebyshev tail
        # probability plus a 3-sigma binomial slack
        c = np.full(4, 0.25)
        model = make_diagonal(c)
        spec = RandomBoundSpec(norm_a=model.solution_norm(), lam=1.0, ainf=1.0)
        K, m_probe = 10_000, 32
        eps = math.sqrt(0.05)
        rng = np.random.default_rng(31)
        # pure relaxation on the diagonal model: err^2 after m steps is the
        # squared mass of the coefficients never selected (hit-set dynamics)
        picks = rng.integers(0, 4, size=(K, m_probe))
        hit = np.zeros((K, 4), dtype=bool)
        for j in range(4):
            hit[:, j] = (picks == j).any(axis=1)
        err_sq = ((~hit) * c ** 2).sum(axis=1)
        violations = np.mean(err_sq > eps ** 2)
        p_allowed = 1.0 - chebyshev_tail(m_probe, spec, eps=eps)
        slack = 3.0 * math.sqrt(max(p_allowed * (1 - p_allowed), 1e-4) / K)
        assert violations <= p_allowed + slack

    def test_argument_validation(self):
        spec = RandomBoundSpec(norm_a=1.0, lam=1.0, ainf=1.0)
        with pytest.raises(ValueError):
            chebyshev_tail(1, spec)
        with pytest.raises(ValueError):
            chebyshev_tail(1, spec, eps=1.0, delta=0.5)


class TestPcons:
    def test_extremal_equality(self):
        p = np.array([0.5, 0.3, 0.2])
        pi = ExplicitDistribution(p)
        C = 2.0
        model = make_diagonal(C * p)
        ms = np.arange(200)
        lhs = exact_expected_error(model, pi, ms)
        rhs = C ** 2 * pcons_sum(p, ms)
        assert np.abs(lhs - rhs).max() < 1e-14

    def test_envelope_constant_maximizer(self):
        for m in [0, 1, 5, 33, 1000]:
            c = pcons_envelope_constant(m)
            ts = np.linspace(0.0, 1.0, 20001)
            grid = (ts ** 2 * (1.0 - ts) ** m * (m + 1.0) ** 2).max()
            assert c >= grid - 1e-9


class TestRateFit:
    def test_exact_half_power(self):
        m = np.arange(101)
        fit = fit_rate((m + 1.0) ** -0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_scaled_inverse_power(self):
        m = np.arange(101)
        fit = fit_rate(3.0 * (m + 1.0) ** -1.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_exact_convergence_flagged(self):
        errors = np.concatenate([np.geomspace(1.0, 1e-3, 50), np.zeros(51)])
        fit = fit_rate(errors)
        assert fit.converged_exactly

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_rate(np.ones(5), m_range=(0, 1))


class TestLemma3:
    def test_reference_constants(self):
        res = lemma3_check(1.0 / math.sqrt(2.0), A=2.0, steps=100_000)
        assert res.applicable and res.passed
        assert res.max_b <= 2.0

    def test_initial_value_above_a_not_applicable(self):
        res = lemma3_check(0.5, A=1.0, b0=5.0)
        assert not res.applicable

    def test_sweep_passes_for_small_b(self):
        rng = np.random.default_rng(2)
        Bs = rng.uniform(1e-3, 1.0 / math.sqrt(2.0), size=20)
        worst = lemma3_sweep(Bs, steps=20_000)
        assert np.all(worst <= Bs / math.sqrt(2.0) + math.sqrt(2.0))
