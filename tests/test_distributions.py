import collections
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.special
from scipy.special import zeta

from mschwarz import (
    ExplicitDistribution,
    LogFamilyDistribution,
    PowerLawDistribution,
    TruncatedSchedule,
    truncate_distribution,
    uniform_distribution,
)
from mschwarz import distributions
from mschwarz.distributions import _zeta, truncation_cutoff


class Replay:
    """An rng whose scalar draws are given; counts them."""

    def __init__(self, values):
        self.values = collections.deque(values)

    def random(self):
        return self.values.popleft()


class TestExplicit:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitDistribution([0.5, 0.6])
        with pytest.raises(ValueError):
            ExplicitDistribution([-0.1, 1.1])
        with pytest.raises(ValueError):
            ExplicitDistribution([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_probabilities(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ExplicitDistribution([bad, 0.5, 0.5])

    def test_point_mass_always_samples_one(self):
        d = ExplicitDistribution([1.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        draws = d.sample_from_uniform(rng.random(1000))
        assert np.all(draws == 1)

    def test_scalar_sample_is_the_array_sample_of_the_same_draw(self):
        # the partial sums end below 1, so the last index also takes the
        # draws above its partial sum
        d = ExplicitDistribution([0.1, 0.0, 0.1, 0.1, 0.1, 0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        cum = np.cumsum(d.probs)
        assert cum[-1] < 1.0
        u = np.unique(np.concatenate([[0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)]))
        u = u[u < 1.0]
        rng = Replay(u)
        for v in u:
            got = d.sample(rng)
            assert type(got) is int
            assert got == int(d.sample_from_uniform(np.array([v]))[0])
        assert not rng.values
        # one draw per sample: the stream continues as after a size-1 draw
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert ([d.sample(a) for _ in range(50)]
                == [int(d.sample_from_uniform(b.random(1))[0]) for _ in range(50)])
        assert a.random() == b.random()

    @pytest.mark.parametrize("make", [
        *(lambda n=n: uniform_distribution(n) for n in (1, 2, 3, 23, 1000)),
        *(lambda m=m: truncate_distribution(PowerLawDistribution(0.5), m, 1.0) for m in (0, 399)),
        lambda: truncate_distribution(PowerLawDistribution(0.5), 399, 0.1),
        lambda: truncate_distribution(LogFamilyDistribution(), 0, 3.0),
    ], ids=["uniform-1", "uniform-2", "uniform-3", "uniform-23", "uniform-1000",
            "power-law-m0", "power-law-m399", "power-law-m399-D0.1", "log-family"])
    def test_scalar_bisect_is_searchsorted_at_every_boundary(self, make):
        """The scalar path's ``bisect_right`` on the table finds the index
        of ``searchsorted(side="right")`` at every partial sum and at both
        of its float neighbours."""
        d = make()
        cum = d._cum
        u = np.unique(np.concatenate([[0.0], cum, np.nextafter(cum, -np.inf),
                                      np.nextafter(cum, np.inf)]))
        want = np.minimum(np.searchsorted(cum, u, side="right"), d.n - 1) + 1
        rng = Replay(u)
        assert [d.sample(rng) for _ in range(u.size)] == want.tolist()
        assert not rng.values
        assert np.array_equal(d.sample_from_uniform(u), want)

    def test_prob_lookup_is_one_based(self):
        d = ExplicitDistribution([0.2, 0.8])
        assert d.prob(1) == 0.2
        assert d.prob(2) == 0.8
        assert d.prob(0) == 0.0
        assert d.prob(3) == 0.0

    def test_uniform_frequencies_within_binomial_band(self):
        # 1e6 draws from uniform{1..4}: 4-sigma band around 0.25
        d = uniform_distribution(4)
        rng = np.random.default_rng(42)
        draws = d.sample_from_uniform(rng.random(1_000_000))
        for i in range(1, 5):
            freq = np.mean(draws == i)
            assert 0.2485 <= freq <= 0.2515

    def test_tail_mass(self):
        d = ExplicitDistribution([0.5, 0.3, 0.2])
        assert d.tail_mass(0) == 1.0
        assert d.tail_mass(1) == pytest.approx(0.5)
        assert d.tail_mass(3) == 0.0


class TestPowerLaw:
    def test_normalization_constant(self):
        d = PowerLawDistribution(1.0)
        assert d.Z == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
        assert d.prob(1) == pytest.approx(6.0 / math.pi ** 2, rel=1e-12)

    def test_probabilities_sum_to_one(self):
        d = PowerLawDistribution(2.0)
        # zeta(3) tail beyond N decays like N^-2
        assert d.head_mass(100_000) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            PowerLawDistribution(0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_rejects_nonfinite_exponent(self, s):
        with pytest.raises(ValueError, match="finite"):
            PowerLawDistribution(s)

    @pytest.mark.parametrize("s", [1e-300, 1e-16])
    def test_rejects_exponent_whose_constant_is_infinite(self, monkeypatch, s):
        """1 + s rounds to 1, where zeta is infinite: refused before any
        table is built, which would read pi_i = 0 and a tail floor of 0."""
        monkeypatch.setattr(PowerLawDistribution, "_terms", lambda self, i: pytest.fail("table"))
        with pytest.raises(ValueError, match=r"1 \+ s rounds to 1"):
            PowerLawDistribution(s)

    def test_smallest_exponents_with_a_finite_constant(self):
        assert math.isfinite(PowerLawDistribution(2e-16).Z)

    def test_empirical_cdf_matches_analytic(self):
        # Kolmogorov distance < 0.002 at 1e6 draws
        d = PowerLawDistribution(1.0)
        rng = np.random.default_rng(7)
        draws = d.sample_from_uniform(rng.random(1_000_000))
        top = int(draws.max())
        counts = np.bincount(draws, minlength=top + 1)[1:]
        empirical = np.cumsum(counts) / draws.size
        analytic = np.cumsum(d._terms(np.arange(1, top + 1))) / d.Z
        assert np.abs(empirical - analytic).max() < 0.002


def _versions():
    """The message of a test that pins scipy's zeta bits, so that a failure
    after an upgrade reads as one."""
    return f"numpy {np.__version__}, scipy {scipy.__version__}"


def _assert_zeta_matches_scipy(xs):
    got = np.array([_zeta(float(x)) for x in xs])
    want = zeta(np.asarray(xs, dtype=float))
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, (
        f"{bad.size} of {len(xs)} differ, first at x={float(xs[bad[0]])!r}: "
        f"{got[bad[0]]!r} != {want[bad[0]]!r}; {_versions()}")


class TestZetaPort:
    """``_zeta`` is the Cephes arithmetic scipy uses, so it equals
    ``scipy.special.zeta`` bit for bit and the power law's constant, and
    every table built from it, is unchanged."""

    def test_seeded_sweep(self):
        rng = np.random.default_rng(20261019)
        # 1 - u is in (0, 1], so x is in (1, 10]
        _assert_zeta_matches_scipy(1.0 + 9.0 * (1.0 - rng.random(100_000)))

    def test_exponent_grid(self):
        _assert_zeta_matches_scipy([1.0 + s for s in np.round(np.arange(1, 901) * 0.01, 2)])

    def test_integers(self):
        _assert_zeta_matches_scipy(np.arange(2.0, 11.0))

    def test_near_one(self):
        _assert_zeta_matches_scipy([1.0 + 2.0 ** -k for k in range(1, 53)])

    def test_top_of_the_rational_range(self):
        _assert_zeta_matches_scipy([10.0, np.nextafter(10.0, 0.0)])

    def test_pole(self):
        assert _zeta(1.0) == math.inf == float(zeta(1.0)), _versions()

    def test_above_ten_goes_through_scipy(self, monkeypatch):
        above = [np.nextafter(10.0, 11.0), 10.5, 11.0, 17.25, 50.0, 1e3]
        _assert_zeta_matches_scipy(above)
        asked = []
        monkeypatch.setattr(scipy.special, "zeta", lambda x: asked.append(x) or zeta(x))
        for x in [1.0, 1.5, 2.0, np.nextafter(10.0, 0.0), 10.0, *above]:
            _zeta(float(x))
        assert asked == above

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.3, 2.0, 2.5])
    def test_power_law_constant(self, s):
        # the exponents of the demos, the tests and the diagonal_expect benchmark
        assert PowerLawDistribution(s).Z == float(zeta(1.0 + s)), _versions()


def _log_family_constant():
    """Z = sum_i 1/(i log^2(i+1)) by direct summation plus an
    Euler-Maclaurin tail.

    The tail integral is split as 1/(x log^2(x+1)) =
    1/((x+1) log^2(x+1)) + 1/(x(x+1) log^2(x+1)); the first part has the
    exact antiderivative -1/log(x+1) and the remainder decays like x^{-2},
    which numerical quadrature handles reliably (direct quadrature of the
    full integrand over [N, inf) silently loses several digits).
    """
    import mpmath as mp

    N = 1_000_000
    i = np.arange(1, N + 1, dtype=float)
    head = float(np.sum(np.sort(1.0 / (i * np.log(i + 1.0) ** 2))))
    with mp.workdps(40):
        a = mp.mpf(N + 1)
        f = lambda x: 1 / (x * mp.log(x + 1) ** 2)
        integral = 1 / mp.log(a + 1) + mp.quad(
            lambda x: 1 / (x * (x + 1) * mp.log(x + 1) ** 2),
            [a, 10 * a, 1000 * a, mp.inf],
        )
        tail = integral + f(a) / 2 - mp.diff(f, a) / 12
    return head + float(tail)


class TestLogFamily:
    def test_constant_is_its_derivation(self):
        """The stored Z has the bits of its derivation, so every table and
        printed number built from it is the derived constant's."""
        import mpmath

        assert LogFamilyDistribution.Z == _log_family_constant(), (
            f"numpy {np.__version__}, mpmath {mpmath.__version__}")

    def test_normalization_bracketed_by_integral_bounds(self):
        # for the decreasing density f(x) = 1/(x log^2(x+1)) the raw tail sum
        # beyond N is bracketed by integral_{N+1}^inf f and integral_N^inf f;
        # the dominant antiderivative part of both is -1/log(x+1)
        d = LogFamilyDistribution()
        N = 10_000
        tail = d.Z * (1.0 - d.head_mass(N))  # un-normalized tail sum
        lower = 1.0 / math.log(N + 2)
        upper = 1.0 / math.log(N + 1) + 1.0 / (N * math.log(N + 1) ** 2)
        assert lower <= tail <= upper

    def test_probability_formula(self):
        d = LogFamilyDistribution()
        i = 17
        assert d.prob(i) == pytest.approx(
            1.0 / (d.Z * i * math.log(i + 1) ** 2), rel=1e-14
        )

    def test_sampling_heavy_tail(self):
        d = LogFamilyDistribution()
        rng = np.random.default_rng(3)
        draws = d.sample_from_uniform(rng.random(10_000))
        assert draws.min() >= 1
        assert draws.max() > 100  # heavy tail reaches far out


class TestTruncation:
    def test_power_law_m0_budget(self):
        # D = 1, m = 0: ||pi^(0) - pi||_1 <= 1/sqrt(2)
        base = PowerLawDistribution(1.0)
        sched = TruncatedSchedule(base, 1.0)
        assert sched.l1_error(0) <= 1.0 / math.sqrt(2.0)

    def test_budget_respected_along_schedule(self):
        base = PowerLawDistribution(1.0)
        D = 1.0
        sched = TruncatedSchedule(base, D)
        for m in [0, 1, 5, 20, 100, 500]:
            assert sched.l1_error(m) <= D / math.sqrt(m + 2.0) + 1e-15

    def test_support_nondecreasing_and_error_vanishing(self):
        base = PowerLawDistribution(1.0)
        sched = TruncatedSchedule(base, 1.0)
        sizes = [sched(m).n for m in [0, 4, 16, 64, 256]]
        assert sizes == sorted(sizes)
        assert sched.l1_error(256) < sched.l1_error(0)

    def test_finite_base_eventually_untouched(self):
        base = ExplicitDistribution([0.6, 0.3, 0.1])
        sched = TruncatedSchedule(base, 1.0)
        d = sched(1000)
        assert d.n == 3
        assert np.allclose(d.probs, base.probs)
        assert sched.l1_error(1000) == 0.0

    def test_truncation_renormalizes(self):
        base = PowerLawDistribution(1.0)
        d = truncate_distribution(base, 0, 1.0)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            truncate_distribution(PowerLawDistribution(1.0), 0, 0.0)

    def test_cutoff_is_table_size(self):
        sched = TruncatedSchedule(PowerLawDistribution(0.5), 1.0)
        for m in [0, 3, 50, 399]:
            assert sched.cutoff(m) == sched(m).n
            assert sched.l1_error(m) == 2.0 * sched.base.tail_mass(sched(m).n)

    def test_schedule_keeps_only_latest_table(self):
        # cutoffs 2, 2, 2, 3, ...: one table per cutoff, and only the latest
        sched = TruncatedSchedule(PowerLawDistribution(1.0), 1.0)
        first = sched(0)
        assert sched(1) is first and sched(2) is first
        released = weakref.ref(first)
        del first
        assert sched(3).n == 3
        gc.collect()
        assert released() is None


class TestCutoffSearches:
    def test_one_search_per_call_and_one_build_per_cutoff(self, monkeypatch):
        base, D, steps = PowerLawDistribution(0.5), 1.0, 300
        want = [truncate_distribution(base, m, D).probs.tobytes() for m in range(steps)]
        cutoffs = [truncation_cutoff(base, m, D) for m in range(steps)]
        searches, builds = [], []
        search = distributions._search_cutoff
        build = distributions.truncate_distribution
        # each search records where it starts
        monkeypatch.setattr(distributions, "_search_cutoff",
                            lambda *a: searches.append(a[2]) or search(*a))
        monkeypatch.setattr(distributions, "truncate_distribution",
                            lambda *a, **k: builds.append(a[1]) or build(*a, **k))
        sched = TruncatedSchedule(PowerLawDistribution(0.5), D)
        for m in range(steps):
            assert sched(m).probs.tobytes() == want[m]
            # one search per call, from the last cutoff after the first
            assert searches == [1 if m == 0 else cutoffs[m - 1]]
            searches.clear()
        assert builds == [m for m in range(steps) if m == 0 or cutoffs[m] != cutoffs[m - 1]]


def reference_cutoff(base, m, D):
    """truncation_cutoff before the galloping search, verbatim: doubling
    from 1, then bisection."""
    budget = 0.5 * D / math.sqrt(m + 2)
    bound = base.support_bound()
    hi = 1
    while base.tail_mass(hi) > budget:
        if bound is not None and hi >= bound:
            break
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if base.tail_mass(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi if bound is None else min(hi, bound)


GALLOP_BASES = {
    "power-law-0.5": (lambda: PowerLawDistribution(0.5), 1.0, 3000),
    "power-law-2": (lambda: PowerLawDistribution(2.0), 1.0, 3000),
    # D = 1.5 keeps the table at 2^17 entries; at D = 1 m = 800 needs 2^25
    "log-family": (LogFamilyDistribution, 1.5, 800),
    # the cutoff reaches the support bound 50 from m = 624 on
    "uniform-50": (lambda: uniform_distribution(50), 1.0, 3000),
    # cutoffs 2, 3, 4, where the tail is already 0 below the support bound 16
    "zero-tail": (lambda: ExplicitDistribution([0.5, 0.25, 0.125, 0.125] + [0.0] * 12),
                  1.0, 3000),
}


def cutoff_or_inf(search):
    """The cutoff ``search()`` returns, or inf where it fails at the table
    limit (as the config's refusal reads it)."""
    try:
        return search()
    except ValueError:
        return math.inf


class TestCutoffPast:
    """``truncation_cutoff(..., past=N)`` decides N_m > N as the full
    search does, with a table no larger than the first power of two >= N."""

    @pytest.mark.parametrize("name", sorted(GALLOP_BASES))
    def test_decides_like_the_full_search(self, name):
        make, _, _ = GALLOP_BASES[name]
        for D in (0.25, 1.0, 4.0):
            for m in (0, 1, 2, 7, 100, 1000):
                full = cutoff_or_inf(lambda: truncation_cutoff(make(), m, D))
                for N in (1, 2, 5, 63, 64, 65, 100, 1000, 4096):
                    base = make()
                    got = cutoff_or_inf(lambda: truncation_cutoff(base, m, D, past=N))
                    assert (got > N) == (full > N), (D, m, N)
                    if full <= N:
                        assert got == full, (D, m, N)
                    if base.support_bound() is None:
                        assert base._cum.size <= max(64, 1 << (N - 1).bit_length()), (D, m, N)

    def test_table_bits_match_the_full_search(self):
        """The doubling order is the full search's, so a cutoff it finds
        within ``past`` compares tails of the same bits."""
        full, capped = PowerLawDistribution(0.5), PowerLawDistribution(0.5)
        want = truncation_cutoff(full, 3000, 1.0)
        assert truncation_cutoff(capped, 3000, 1.0, past=want) == want
        assert capped._cum.tobytes() == full._cum[:capped._cum.size].tobytes()


class TestGallopingCutoff:
    """The schedule's cutoff searched up from the last one is the integer of
    a search from scratch, and a series base grows its partial-sum table to
    the same bits."""

    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    @pytest.mark.parametrize("case", sorted(GALLOP_BASES))
    def test_cutoff_is_the_search_from_scratch(self, case, order):
        make, D, top = GALLOP_BASES[case]
        ms = np.arange(top + 1)
        if order == "reverse":
            ms = ms[::-1]
        elif order == "shuffled":
            ms = np.random.default_rng(5).permutation(ms)
        sched, scratch, reference = TruncatedSchedule(make(), D), make(), make()
        for m in ms.tolist():
            want = reference_cutoff(reference, m, D)
            assert sched.cutoff(m) == want, m
            assert truncation_cutoff(scratch, m, D) == want, m
        if hasattr(reference, "_cum"):
            assert sched.base._cum.tobytes() == reference._cum.tobytes()
            assert scratch._cum.tobytes() == reference._cum.tobytes()

    def test_finite_base_reaches_its_support_bound(self):
        make, D, top = GALLOP_BASES["uniform-50"]
        sched = TruncatedSchedule(make(), D)
        cutoffs = [sched.cutoff(m) for m in range(top + 1)]
        assert cutoffs[623] < 50 and cutoffs[624:] == [50] * (top - 623)

    def test_search_probes_few_tails(self, monkeypatch):
        # N_m ~ 2.3 m moves by a step or two per call: a few tail probes each,
        # against the two dozen of a search from scratch at N ~ 7000
        base = PowerLawDistribution(0.5)
        sched = TruncatedSchedule(base, 1.0)
        sched.cutoff(2000)
        probes = []
        tail = base.tail_mass
        monkeypatch.setattr(base, "tail_mass", lambda N: probes.append(N) or tail(N))
        per_call = []
        for m in range(2001, 3001):
            sched.cutoff(m)
            per_call.append(len(probes))
            probes.clear()
        assert max(per_call) <= 4
        reference_cutoff(base, 3000, 1.0)
        assert len(probes) >= 20


def _per_index_truncation(base, m, D):
    # the table built one prob(i) call at a time, as before head_probs
    N = truncation_cutoff(base, m, D)
    probs = np.array([base.prob(i) for i in range(1, N + 1)])
    return probs / probs.sum()


class TestHeadProbs:
    """head_probs(N) is bit for bit the prob(i) loop, so tables built from it
    are unchanged."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_power_law_matches_prob_loop(self, s):
        d = PowerLawDistribution(s)
        loop = np.array([d.prob(i) for i in range(1, 5001)])
        for N in [*range(1, 1200), 4095, 4096, 5000]:
            assert np.array_equal(d.head_probs(N), loop[:N])

    def test_log_family_matches_prob_loop(self):
        d = LogFamilyDistribution()
        N = 100_000
        loop = np.array([d.prob(i) for i in range(1, N + 1)])
        for n in [1, 7, 64, 1000, 65_537, N]:
            assert np.array_equal(d.head_probs(n), loop[:n])

    def test_explicit_matches_prob_loop(self):
        d = ExplicitDistribution([0.4, 0.0, 0.35, 0.25])
        for N in range(1, 5):
            assert np.array_equal(d.head_probs(N), [d.prob(i) for i in range(1, N + 1)])

    @pytest.mark.parametrize("make_base", [
        lambda: PowerLawDistribution(0.5),
        lambda: PowerLawDistribution(1.3),
        LogFamilyDistribution,
        lambda: ExplicitDistribution([0.5, 0.2, 0.2, 0.1]),
    ], ids=["power_law_0.5", "power_law_1.3", "log_family", "explicit"])
    def test_truncation_tables_match_per_index_construction(self, make_base):
        base = make_base()
        for m in [0, 1, 17, 399]:
            table = truncate_distribution(base, m, 1.0)
            assert np.array_equal(table.probs, _per_index_truncation(base, m, 1.0))


def _fresh_head(base, N):
    """head_probs(N) of a base that has grown no prefix: one ``_terms``
    call over 1..N."""
    return base._terms(np.arange(1, N + 1, dtype=float)) / base.Z


SERIES_BASES = {
    "power_law_0.5": lambda: PowerLawDistribution(0.5),
    "power_law_2.0": lambda: PowerLawDistribution(2.0),
    "log_family": LogFamilyDistribution,
}


class TestGrownPrefix:
    """head_probs(N) is a slice of one vector grown by doubling, with the
    bits of a head computed on its own: in its values, in its sum and in
    the renormalized partial sums a truncated table is built from."""

    @pytest.mark.parametrize("make_base", SERIES_BASES.values(), ids=SERIES_BASES.keys())
    def test_slices_equal_fresh_heads(self, make_base):
        base = make_base()
        # every N <= 2e4 in increasing order, so that the prefix grows
        # through every power of two, then sampled N up to 2.3e5, the
        # growth boundaries among them
        sampled = np.random.default_rng(3).integers(20_001, 230_000, 24)
        edges = [n + k for n in (1 << 15, 1 << 16, 1 << 17) for k in (-1, 0, 1)]
        bad = []
        for N in [*range(1, 20_001), *sorted({*sampled.tolist(), *edges, 230_000})]:
            got, want = base.head_probs(N), _fresh_head(base, N)
            total, want_total = got.sum(), want.sum()
            # the partial sums the step maps read (support indices up to
            # 256) at every N; all of them at the sampled N
            k = N if N > 20_000 else min(N, 256)
            if not (np.array_equal(got, want) and total == want_total and np.array_equal(
                    np.cumsum(got[:k] / total), np.cumsum(want[:k] / want_total))):
                bad.append(N)
        assert not bad, f"{len(bad)} N differ, first {bad[:5]}; numpy {np.__version__}"

    def test_slices_are_read_only(self):
        base = PowerLawDistribution(0.5)
        head = base.head_probs(100)
        with pytest.raises(ValueError):
            head[0] = 1.0
        assert base.head_probs(1000)[0] == base.prob(1)

    @pytest.mark.parametrize("make_base", [
        *SERIES_BASES.values(), lambda: ExplicitDistribution([0.5, 0.0, 0.3, 0.2])],
        ids=[*SERIES_BASES.keys(), "explicit"])
    def test_probs_at_is_the_prob_loop(self, make_base):
        base = make_base()
        indices = np.array([1, 2, 3, 4, 5, 7, 64, 65, 10 ** 6, 10 ** 12])
        want = [base.prob(int(i)) for i in indices]  # past an explicit support: 0
        assert np.array_equal(base.probs_at(indices), want)
        assert base.probs_at(indices).tobytes() == np.array(want).tobytes()


def _boundary_positions(support):
    """The ks of ``analysis._step_maps``: the sorted distinct positive k in
    support - 1 and support."""
    support = np.asarray(support)
    ks = np.unique(np.concatenate((support - 1, support)))
    return ks[ks > 0]


def table_boundaries(table, ks):
    """The boundaries of an ``ExplicitDistribution`` at the sorted positions
    ``ks`` >= 1, read off its partial sums ``_cum``: boundary k is the sum
    of the first k probabilities below the table's size n, +inf from n on."""
    return np.array([table._cum[k - 1] if k < table.n else np.inf for k in ks])


class TestScheduleBoundaries:
    """TruncatedSchedule.boundaries(m, ks) returns the boundaries of the
    table self(m) without building the table."""

    @pytest.mark.parametrize("D", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("make_base", [
        lambda: PowerLawDistribution(0.5), lambda: PowerLawDistribution(2.0),
        lambda: ExplicitDistribution(np.full(300, 1.0 / 300.0))],
        ids=["power_law_0.5", "power_law_2.0", "explicit"])
    def test_equal_to_the_tables_boundaries(self, D, make_base):
        # index 20000 lies past N_m at every step of the power laws; 300 and
        # 400 lie at and past the explicit support
        ks = _boundary_positions([1, 2, 3, 5, 8, 40, 41, 199, 300, 400, 1000, 4096, 20_000])
        tables, direct = TruncatedSchedule(make_base(), D), TruncatedSchedule(make_base(), D)
        below = 0
        for m in range(2000):
            want = table_boundaries(tables(m), ks)
            assert np.array_equal(direct.boundaries(m, ks), want), m
            below += direct.cutoff(m) < ks[-1]
        assert below > 0

    @pytest.mark.parametrize("probs", [
        [math.nan, 1.0], [-0.25, 1.25], [math.inf, 1.0], [1e308, 1e308], [0.0, 0.0]],
        ids=["nan", "negative", "inf", "sum_overflows", "zero"])
    def test_refuses_as_the_table_does(self, probs):
        ks = np.array([1, 2])
        errors = []
        for call in (lambda s: s(5), lambda s: s.boundaries(5, ks)):
            base = ExplicitDistribution([0.5, 0.5])
            base.probs[:] = probs  # after the checks of the base's own constructor
            with pytest.raises(ValueError) as exc, np.errstate(all="ignore"):
                call(TruncatedSchedule(base, 1.0))
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def search_without_limit_check(base, budget):
    """The cutoff search as it ran before the table-limit check, on ``base``:
    the cutoff, or the error the table growth raised."""
    base.check_table_fits = lambda budget: None
    try:
        return distributions._search_cutoff(base, budget, 1)
    except ValueError as exc:
        return str(exc)


class TestTableLimitFailsFast:
    """A cutoff past the table limit raises before any table grows, and
    every budget whose search fits under the limit is still searched."""

    @pytest.mark.parametrize("make", [
        lambda: PowerLawDistribution(0.5),
        lambda: PowerLawDistribution(2.0),
        LogFamilyDistribution,
    ], ids=["power-law-0.5", "power-law-2", "log-family"])
    @pytest.mark.parametrize("limit", [1000, 5000, 1 << 13])
    def test_same_outcome_and_cutoffs_as_the_unchecked_search(self, monkeypatch, make, limit):
        monkeypatch.setattr(distributions._SeriesDistribution, "_table_limit", limit)
        floor = make()._tail_floor(limit)
        budgets = np.concatenate([floor * np.geomspace(0.25, 4.0, 81),
                                  np.geomspace(1e-12, 0.5, 60)])
        raised = early = 0
        for budget in budgets.tolist():
            want = search_without_limit_check(make(), budget)
            base = make()
            try:
                got = distributions._search_cutoff(base, budget, 1)
            except ValueError as exc:
                got = str(exc)
            assert got == want, budget
            raised += isinstance(want, str)
            # a budget clearly below the floor at the limit fails at once
            if budget < 0.99 * floor:
                assert isinstance(got, str) and base._cum.size == base._table_start, budget
                early += 1
        assert 0 < early <= raised < budgets.size

    @pytest.mark.parametrize("make", [
        lambda: PowerLawDistribution(0.5),
        lambda: PowerLawDistribution(2.0),
        LogFamilyDistribution,
    ], ids=["power-law-0.5", "power-law-2", "log-family"])
    def test_floor_is_taken_at_the_largest_reachable_table(self, monkeypatch, make):
        """At a limit of 1000 the doubling search builds at most 512
        entries, so the floor is taken there: every budget the unchecked
        search runs gets its cutoff, and every budget the floor at 512
        clears by the slack raises before the table grows."""
        monkeypatch.setattr(distributions._SeriesDistribution, "_table_limit", 1000)
        base = make()
        floor, floor_at_limit = base._tail_floor(512), base._tail_floor(1000)
        budgets = np.concatenate([floor * np.geomspace(0.25, 4.0, 81),
                                  np.geomspace(1e-12, 0.5, 60)])
        searched = early = between = 0
        for budget in budgets.tolist():
            want = search_without_limit_check(make(), budget)
            base = make()
            try:
                got = distributions._search_cutoff(base, budget, 1)
            except ValueError as exc:
                got = str(exc)
            assert got == want, budget
            searched += not isinstance(want, str)
            if floor > budget * (1.0 + distributions._FLOOR_REL_SLACK) + distributions._FLOOR_ABS_SLACK:
                assert isinstance(got, str) and base._cum.size == base._table_start, budget
                early += 1
                # a floor at the limit itself would have let the table grow
                between += budget >= floor_at_limit
        assert searched > 0 and early > 0 and between > 0

    @pytest.mark.parametrize("make", [
        lambda: PowerLawDistribution(2.0),
        lambda: PowerLawDistribution(9.0),
        LogFamilyDistribution,
    ], ids=["power-law-2", "power-law-9", "log-family"])
    def test_budget_below_the_tail_resolution_raises_before_the_table_grows(self, make):
        """A computed tail 1 - cum is 0 or at least 2^-53, so a smaller
        budget is met only where the tail rounds off to 0: at s = 2 past
        31 million entries."""
        base = make()
        with pytest.raises(ValueError, match=r"below 2\^-53, the resolution of a computed tail"):
            TruncatedSchedule(base, 1e-300).cutoff(0)
        with pytest.raises(ValueError, match=r"below 2\^-53"):
            distributions._search_cutoff(base, np.nextafter(2.0 ** -53, 0.0), 1)
        assert base._cum.size == 64

    def test_budget_at_the_tail_resolution_is_searched(self):
        base = PowerLawDistribution(9.0)
        N = distributions._search_cutoff(base, 2.0 ** -53, 1)
        assert base.tail_mass(N) <= 2.0 ** -53 < base.tail_mass(N - 1)

    def test_log_family_at_d_001_raises_before_the_table_grows(self):
        base = LogFamilyDistribution()
        with pytest.raises(ValueError, match="partial-sum table would exceed 50000000 entries"):
            TruncatedSchedule(base, 0.01).cutoff(0)
        assert base._cum.size == 64

    @pytest.mark.parametrize("make", [lambda: PowerLawDistribution(0.7), LogFamilyDistribution],
                             ids=["power-law", "log-family"])
    def test_floor_is_below_the_tail(self, make):
        base = make()
        for N in (1, 10, 100, 1000, 10_000, 100_000):
            assert base._tail_floor(N) <= base.tail_mass(N)
