"""End-to-end acceptance suite.

Each test prints a single summary line on success; pytest's own FAILED line
is the failure report.  Tolerances and instance sizes are fixed and must not
be loosened.
"""

import math

import numpy as np
import pytest

from mschwarz import (
    DeterministicRule,
    ExplicitDistribution,
    FiniteSplitting,
    GAWRRelaxation,
    GreedyBoundSpec,
    GreedyRule,
    MatrixSchwarzModel,
    Problem,
    PureRelaxation,
    PowerLawDistribution,
    RandomBoundSpec,
    RandomRule,
    SplittingComponent,
    TruncatedSchedule,
    a1_norm,
    bruteforce_expected_error,
    cyclic_rule,
    energy_norm,
    exact_expected_error,
    fit_rate,
    greedy_bound,
    lemma3_check,
    lemma3_sweep,
    make_diagonal,
    make_poisson_1d,
    mc_expected_error,
    omega_optimal,
    pcons_envelope_constant,
    pcons_sum,
    random_bound,
    run,
    select_greedy,
    stability_constants,
    uniform_distribution,
)
from mschwarz.solver import FixedPool


def report(n, message):
    print(f"criterion {n}: PASS — {message}")


@pytest.fixture(scope="module")
def geometric_greedy_runs():
    """Greedy GAWR runs on c_i = 2^{-i}, i <= 50, for criteria 1 and 6."""
    model = make_diagonal({i: 2.0 ** -i for i in range(1, 51)})
    traces = {}
    for beta in (1.0, 0.5):
        rule = GreedyRule(beta, FixedPool())
        traces[beta] = run(model, rule, GAWRRelaxation(), 10_000)
    return model, traces


def test_criterion_1_theorem_1a_bound(geometric_greedy_runs):
    model, traces = geometric_greedy_runs
    ms = np.arange(10_001)
    for beta, trace in traces.items():
        spec = GreedyBoundSpec(
            norm_a=model.solution_norm(), lam=1.0, beta=beta, a1=a1_norm(model)
        )
        bound = greedy_bound(ms, spec)
        assert np.all(trace.error_sq <= bound + 1e-9), f"beta={beta}"
    report(1, "greedy GAWR squared error within the Theorem 1a bound "
              "for beta in {1, 0.5} at every m <= 1e4")


def test_criterion_2_theorem_1b_bound():
    pi = uniform_distribution(8)
    model = make_diagonal(np.full(8, 0.125))  # c = pi: extremal instance
    est = mc_expected_error(model, RandomRule(pi), GAWRRelaxation(), 512, 2000, 20)
    spec = RandomBoundSpec(norm_a=model.solution_norm(), lam=1.0, ainf=1.0)
    bound = random_bound(np.arange(513), spec)
    assert np.all(est.mean <= bound + 3.0 * est.stderr)
    report(2, "randomized GAWR MC mean within the Theorem 1b bound "
              "(K=2000, M=512, 3-sigma slack)")


def test_criterion_3_exact_vs_bruteforce():
    pis = [
        ExplicitDistribution([0.5, 0.3, 0.2]),
        ExplicitDistribution([0.8, 0.1, 0.1]),
        ExplicitDistribution([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
    ]
    rng = np.random.default_rng(33)
    worst = 0.0
    for pi in pis:
        for _ in range(4):
            model = make_diagonal(rng.standard_normal(3))
            for m in range(9):
                diff = abs(
                    exact_expected_error(model, pi, m)
                    - bruteforce_expected_error(model, pi, m)
                )
                worst = max(worst, diff)
    assert worst <= 1e-12
    report(3, f"closed-form expectation matches exhaustive enumeration "
              f"(worst deviation {worst:.2e} <= 1e-12)")


def test_criterion_4_exact_vs_monte_carlo():
    pi = ExplicitDistribution([0.5, 0.4, 0.1])
    model = make_diagonal([0.6, 0.3, 0.1])
    M, K = 64, 100_000
    est = mc_expected_error(model, RandomRule(pi), PureRelaxation(), M, K, 8)
    exact = exact_expected_error(model, pi, np.arange(M + 1))
    dev = np.abs(est.mean - exact)
    within = dev <= 4.0 * est.stderr
    frac = within.mean()
    assert frac >= 0.95
    report(4, f"MC mean within 4 sigma of the exact expectation at "
              f"{100 * frac:.1f}% of steps (K=1e5, M=64)")


def test_criterion_5_pcons_chain():
    p = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
    pi = ExplicitDistribution(p)
    C = 1.7
    model = make_diagonal(C * p)  # ||u||_{A_inf^pi} = C
    ms = np.arange(1001)
    exact = exact_expected_error(model, pi, ms)
    chain = C ** 2 * pcons_sum(p, ms)
    assert np.abs(exact - chain).max() <= 1e-12
    for m in ms:
        assert pcons_sum(p, m) * (m + 1.0) <= 1.0 + pcons_envelope_constant(int(m))
    report(5, "exact expectation equals the (PCONS) sum for c = C pi and the "
              "envelope constant bounds it for all m <= 1e3")


def test_criterion_6_rate_fit(geometric_greedy_runs):
    _, traces = geometric_greedy_runs
    fit = fit_rate(traces[1.0].error, m_range=(1000, 10_000))
    assert fit.slope <= -0.45
    report(6, f"greedy GAWR log-log slope {fit.slope:.3f} <= -0.45 "
              f"over m in [1e3, 1e4]")


def test_criterion_7_truncated_distributions():
    base = PowerLawDistribution(1.0)
    D = 1.0
    schedule = TruncatedSchedule(base, D)
    coeffs = {i: base.prob(i) for i in range(1, 7)}  # c_i <= pi_i, finite support
    model = make_diagonal(coeffs)
    M, K = 1000, 500
    est = mc_expected_error(model, RandomRule(schedule), GAWRRelaxation(), M, K, 12)
    fit = fit_rate(np.sqrt(est.mean))
    assert 2.0 * fit.slope <= -0.8  # squared-error order (m+1)^{-1}
    for m in range(M):
        assert schedule.l1_error(m) <= D / math.sqrt(m + 2.0) + 1e-15
    report(7, f"truncated power-law schedule keeps the (PiError) budget "
              f"exactly and the mean squared error decays with slope "
              f"{2 * fit.slope:.2f} <= -0.8")


def test_criterion_8_lemma3_checker():
    res = lemma3_check(1.0 / math.sqrt(2.0), A=2.0, steps=100_000)
    assert res.applicable and res.passed and res.max_b <= 2.0
    rng = np.random.default_rng(81)
    Bs = rng.uniform(1e-6, 1.0 / math.sqrt(2.0), size=100)
    worst = lemma3_sweep(Bs, steps=100_000)
    assert np.all(worst <= Bs / math.sqrt(2.0) + math.sqrt(2.0))
    report(8, f"recursion stays below A (max b = {res.max_b:.4f} <= 2) and "
              f"the 100-value sweep passes")


def test_criterion_9_lemma_1_properties():
    rng = np.random.default_rng(90)
    for _ in range(1000):
        d = int(rng.integers(1, 11))
        e = rng.standard_normal(d)
        h = rng.standard_normal(d)
        if not np.any(h):
            h[0] = 1.0
        p = rng.random(d) + 1e-3
        p /= p.sum()
        beta = float(rng.uniform(1e-3, 1.0))
        a_eh = float(e @ h)
        # part a: weak greedy pick against the ell^1 class norm of h
        i_star = int(np.argmax(np.abs(e)))
        r_star = beta * np.abs(e).max()  # weakest admissible pick
        assert r_star >= beta * a_eh / np.abs(h).sum() - 1e-9
        assert np.abs(e[i_star]) >= beta * a_eh / np.abs(h).sum() - 1e-9
        # part b: pi-weighted residual sum against the weighted sup norm
        ainf_h = float(np.max(np.abs(h) / p))
        assert float(p @ np.abs(e)) >= a_eh / ainf_h - 1e-9
    report(9, "Lemma 1(a) and 1(b) inequalities hold with slack >= -1e-9 on "
              "1000 random diagonal instances")


def _random_identity_model(rng, n):
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    p = Problem(A, rng.standard_normal(n))
    eye = np.eye(n)
    comps = [SplittingComponent(i + 1, eye[:, [i]], A[[i], :][:, [i]]) for i in range(n)]
    return MatrixSchwarzModel(p, FiniteSplitting(p, comps))


def test_criterion_10_solver_micro_invariants():
    rng = np.random.default_rng(100)

    # omega-optimality three-point test
    for _ in range(100):
        model = _random_identity_model(rng, 4)
        state = model.new_state()
        state.u = rng.standard_normal(4)
        state.w = model.problem.A @ state.u
        i = int(rng.integers(1, 5))
        res = model.local_residual(state, i)
        alpha = float(rng.uniform(0.3, 1.0))
        w_star = omega_optimal(model, res, alpha)
        d = res.d
        u_ex = model.problem.exact_solution

        def err(w):
            return energy_norm(model.problem, u_ex - alpha * state.u - w * d)

        base = err(w_star)
        assert err(w_star - 1e-3) >= base - 1e-12 * (1 + base)
        assert err(w_star + 1e-3) >= base - 1e-12 * (1 + base)

    # (Egreedy2) one-sided recursion for GAWR runs
    for _ in range(100):
        model = make_diagonal(rng.standard_normal(5))
        trace = run(model, GreedyRule(1.0, FixedPool()), GAWRRelaxation(), 30)
        norm_a = model.solution_norm()
        for m in range(30):
            am = 1.0 - 1.0 / (m + 2)
            assert trace.error[m + 1] <= am * trace.error[m] + (1 - am) * norm_a + 1e-12

    # greedy-rule compliance
    for _ in range(100):
        model = make_diagonal(rng.standard_normal(6))
        state = model.new_state()
        state.u = rng.standard_normal(6)
        beta = float(rng.uniform(0.1, 1.0))
        res = select_greedy(model, state, GreedyRule(beta, FixedPool()), 0)
        pool_max = np.abs(model.coefficients - state.u).max()
        assert res.local_norm >= beta * pool_max - 1e-12 * (1 + pool_max)

    # single-component one-step convergence (Pure)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        Q = rng.standard_normal((n, n))
        A = Q @ Q.T + n * np.eye(n)
        p = Problem(A, rng.standard_normal(n))
        comps = [SplittingComponent(1, np.eye(n), A)]
        model = MatrixSchwarzModel(p, FiniteSplitting(p, comps))
        trace = run(model, DeterministicRule([1]), PureRelaxation(), 1)
        assert trace.error[1] <= 1e-10 * max(trace.error[0], 1.0)

    # lazy/dense equivalence on short randomized runs
    for k in range(100):
        model = make_diagonal(rng.standard_normal(4))
        problem, splitting = model.to_dense()
        dense = MatrixSchwarzModel(problem, splitting)
        rule = RandomRule(uniform_distribution(4))
        relax = PureRelaxation() if k % 2 == 0 else GAWRRelaxation()
        lazy = run(model, rule, relax, 12, seed=k)
        ref = run(dense, rule, relax, 12, seed=k)
        assert np.array_equal(lazy.index, ref.index)
        assert np.abs(lazy.error - ref.error).max() < 1e-9

    report(10, "omega optimality, (Egreedy2), greedy compliance, one-step "
               "convergence and lazy/dense equivalence pass on 100+ instances each")


def test_criterion_11_poisson_sanity():
    problem, splitting = make_poisson_1d(
        255, {"kind": "overlapping_blocks", "block_size": 32, "overlap": 8}
    )
    sc = stability_constants(problem, splitting)
    assert sc.lam_min > 0.0
    model = MatrixSchwarzModel(problem, splitting)
    M = 20_000
    rules = {
        "cyclic": cyclic_rule(splitting.N),
        "greedy": GreedyRule(1.0, FixedPool()),
        "random": RandomRule(uniform_distribution(splitting.N)),
    }
    ratios = {}
    for name, rule in rules.items():
        trace = run(model, rule, PureRelaxation(), M, seed=0)
        ratios[name] = trace.error[-1] / trace.error[0]
        assert ratios[name] <= 1e-6, name
    report(11, "cyclic/greedy/random Pure sweeps reach 1e-6 relative error "
               f"within 2e4 steps (ratios {ratios['cyclic']:.1e}, "
               f"{ratios['greedy']:.1e}, {ratios['random']:.1e}); "
               f"lam_min = {sc.lam_min:.4f} > 0")
