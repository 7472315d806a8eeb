"""Discrete probability distributions over the natural numbers (1-based).

Explicit finite vectors, the power-law family pi_i = c_s i^{-(1+s)}, the
slowly decaying family pi_i = c / (i log^2(i+1)), and step-dependent
truncations of any of them.  Sampling uses inverse-CDF lookup over partial
sums; analytic families extend their tables on demand.
"""

import bisect
import math

import numpy as np

_NORMALIZATION_TOL = 1e-12

# Slack of the table-limit check before a cutoff search (see
# _SeriesDistribution.check_table_fits).  The search compares computed
# tails, 1 minus a partial sum of the table, which can lie below the true
# tail by a relative rounding error of the sum and the constant Z and by
# some ulps of 1; the check raises only when the closed-form floor clears
# the budget by both, so no search that ends under the limit is refused.
_FLOOR_REL_SLACK = 1e-6
_FLOOR_ABS_SLACK = 1e-12


class ExplicitDistribution:
    """A finite distribution on indices 1..n."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be a nonempty 1-d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.probs = p
        self.n = p.size
        self._cum = np.cumsum(p)

    def prob(self, i):
        return float(self.probs[i - 1]) if 1 <= i <= self.n else 0.0

    def head_probs(self, N):
        """The vector (pi_1, ..., pi_N) for N <= n."""
        return self.probs[:N]

    def probs_at(self, indices):
        """pi_i at each index of ``indices`` >= 1: 0 past the support."""
        indices = np.asarray(indices, dtype=np.int64)
        out = np.zeros(indices.shape)
        inside = indices <= self.n
        out[inside] = self.probs[indices[inside] - 1]
        return out

    def sample(self, rng):
        # the draw and the index of sample_from_uniform, on a scalar:
        # bisect_right on the table is searchsorted(side="right") without
        # numpy's call overhead, and reads the array itself, no copy
        pos = bisect.bisect_right(self._cum, rng.random())
        return min(pos, self.n - 1) + 1

    def sample_from_uniform(self, u):
        pos = np.searchsorted(self._cum, u, side="right")
        return np.minimum(pos, self.n - 1).astype(np.int64) + 1

    def boundaries(self, ks):
        """The table boundaries at the sorted positions ``ks`` >= 1.

        ``sample_from_uniform`` draws index j from u exactly when boundary
        j-1 <= u < boundary j, where boundary k is the partial sum
        pi_1 + ... + pi_k for 1 <= k < n and +inf from n on (index n also
        takes every u above its partial sum), and boundary 0 is -inf.
        """
        out = np.full(len(ks), np.inf)
        below = np.searchsorted(ks, self.n)
        out[:below] = self._cum[ks[:below] - 1]
        return out

    def head_mass(self, N):
        if N <= 0:
            return 0.0
        if N >= self.n:
            return 1.0  # the full support carries the whole mass by definition
        return float(self._cum[N - 1])

    def tail_mass(self, N):
        return max(1.0 - self.head_mass(N), 0.0)

    def support_bound(self):
        return self.n


def uniform_distribution(n):
    """The uniform distribution on {1, ..., n}."""
    return ExplicitDistribution(np.full(n, 1.0 / n))


class _SeriesDistribution:
    """Base for analytic families: pi_i = Z^{-1} term(i) with known Z.

    Subclasses provide ``_terms`` (vectorized) and the constant ``Z``; partial
    sums are tabulated lazily and grown on demand for sampling.
    """

    _table_start = 64
    _table_limit = 50_000_000

    def __init__(self):
        self._cum = np.cumsum(self._terms(np.arange(1, self._table_start + 1))) / self.Z
        # (pi_1, ..., pi_n) for the largest n any head_probs call asked for,
        # grown by doubling; read-only, since head_probs hands out its slices
        self._head = np.empty(0)

    def _extend_to(self, N):
        n = self._cum.size
        if N <= n:
            return
        if N > self._table_limit:
            raise self._limit_error()
        new = self._terms(np.arange(n + 1, N + 1)) / self.Z
        self._cum = np.concatenate([self._cum, self._cum[-1] + np.cumsum(new)])

    def _limit_error(self):
        return ValueError(f"partial-sum table would exceed {self._table_limit} entries")

    def check_table_fits(self, budget):
        """Refuse a budget below 2^-53, the resolution of a computed tail,
        and raise the table-limit error at once if the smallest N with a
        tail of at most ``budget`` lies past ``_table_limit``.

        ``_tail_floor(N)``, a closed-form lower bound on the tail beyond N,
        is then above the budget at the limit; the cutoff search would
        otherwise grow the table up to the limit before it failed.  The
        floor is taken at the largest power of two at or below the limit:
        the search doubles its probes from powers of two (see
        ``_search_cutoff``), so it never builds a larger table, and a tail
        above the budget there already sends its next probe past the limit.
        """
        # a computed tail 1 - cum is 0 or at least 2^-53 (Sterbenz), so
        # only a tail rounded off to 0 would meet a smaller budget
        if budget < 2.0 ** -53:
            raise ValueError(f"tail budget {budget:.3g} is below 2^-53, the resolution "
                             "of a computed tail 1 - (pi_1 + ... + pi_N)")
        floor = self._tail_floor(1 << (self._table_limit.bit_length() - 1))
        if floor > budget * (1.0 + _FLOOR_REL_SLACK) + _FLOOR_ABS_SLACK:
            raise self._limit_error()

    def prob(self, i):
        if i < 1:
            return 0.0
        return float(self.probs_at([i])[0])

    def head_probs(self, N):
        """The vector (pi_1, ..., pi_N), equal bit for bit to ``prob`` index by
        index: a read-only slice of one vector grown by doubling.

        Each entry is ``_terms(i) / Z`` computed elementwise, so its bits do
        not depend on the sizes the vector grew through.
        """
        n = self._head.size
        if N > n:
            grown = max(N, 2 * n)
            new = self._terms(np.arange(n + 1, grown + 1, dtype=float)) / self.Z
            self._head = np.concatenate((self._head, new))
            self._head.flags.writeable = False
        return self._head[:N]

    def probs_at(self, indices):
        """pi_i at each index of ``indices`` >= 1, equal bit for bit to ``prob``
        index by index; sized by the indices, not by the largest of them."""
        return self._terms(np.asarray(indices, dtype=float)) / self.Z

    def head_mass(self, N):
        if N <= 0:
            return 0.0
        self._extend_to(N)
        return float(self._cum[N - 1])

    def tail_mass(self, N):
        return max(1.0 - self.head_mass(N), 0.0)

    def support_bound(self):
        return None

    def sample(self, rng):
        return int(self.sample_from_uniform(rng.random())[0])

    def sample_from_uniform(self, u):
        u = np.atleast_1d(u)
        top = float(u.max())
        while self._cum[-1] <= top:
            self._extend_to(2 * self._cum.size)
        return np.searchsorted(self._cum, u, side="right").astype(np.int64) + 1


# Cephes zetac (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), as scipy.special.zeta evaluates it: the values of
# zeta(2..10) and the rational coefficients for 1 < x <= 10.
_ZETA_INTEGERS = (
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
    1.03692775514337, 1.0173430619844492, 1.008349277381923,
    1.0040773561979444, 1.0020083928260821, 1.000994575127818,
)
_ZETA_P = (
    5.85746514569725319540E11, 2.57534127756102572888E11,
    4.87781159567948256438E10, 5.15399538023885770696E9,
    3.41646073514754094281E8, 1.60837006880656492731E7,
    5.92785467342109522998E5, 1.51129169964938823117E4,
    2.01822444485997955865E2,
)
_ZETA_Q = (
    3.90497676373371157516E11, 5.22858235368272161797E10,
    5.64451517271280543351E9, 3.39006746015350418834E8,
    1.79410371500126453702E7, 5.66666825131384797029E5,
    1.60382976810944131506E4, 1.96436237223387314144E2,
)


def _zeta(x):
    """The Riemann zeta value at x >= 1, bit for bit ``scipy.special.zeta(x)``.

    For x <= 10 this is the arithmetic of Cephes ``zetac(x) + 1``: inf at
    x = 1, a table at the integers 2..10, and otherwise
    1 + x P(1/x) / (2^x (x - 1) Q(1/x)) by Horner's rule, where Q is monic.
    Above 10 Cephes takes other tabulated coefficients, so the value comes
    from scipy itself and only then is ``scipy.special`` imported.
    """
    if x == 1.0:
        return math.inf
    if x > 10.0:
        from scipy.special import zeta

        return float(zeta(x))
    if x == math.floor(x):
        return _ZETA_INTEGERS[int(x) - 2]
    w = 1.0 / x
    p = _ZETA_P[0]
    for c in _ZETA_P[1:]:
        p = p * w + c
    q = w + _ZETA_Q[0]
    for c in _ZETA_Q[1:]:
        q = q * w + c
    return 1.0 + (x * p) / (2.0 ** x * (x - 1.0) * q)


class PowerLawDistribution(_SeriesDistribution):
    """pi_i = c_s i^{-(1+s)} with c_s = 1/zeta(1+s), s > 0 finite.

    The constant comes from ``_zeta``, which equals scipy's value bit for
    bit and imports ``scipy.special`` only for s > 9.
    """

    def __init__(self, s):
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"power-law exponent s={s} must be positive and finite")
        self.s = float(s)
        self.Z = _zeta(1.0 + self.s)
        if not math.isfinite(self.Z):
            raise ValueError(f"power-law exponent s={s} is too small: 1 + s rounds to 1, "
                             "where the normalizing zeta(1 + s) is infinite")
        super().__init__()

    def _terms(self, i):
        return np.asarray(i, dtype=float) ** (-(1.0 + self.s))

    def _tail_floor(self, N):
        """(N+1)^{-s} / (s Z) <= tail(N): the tail's sum is at least the
        integral of x^{-(1+s)} / Z from N + 1 on."""
        return (N + 1.0) ** -self.s / (self.s * self.Z)


class LogFamilyDistribution(_SeriesDistribution):
    """pi_i = c / (i log^2(i+1)); heavy-tailed, in every ell^1 neighborhood.

    Z = 1/c = sum_i 1/(i log^2(i+1)) is stored as a float; a test derives
    it again (a direct sum plus an Euler-Maclaurin tail) and compares the
    bits.
    """

    Z = 3.387735531952002

    def _terms(self, i):
        i = np.asarray(i, dtype=float)
        return 1.0 / (i * np.log(i + 1.0) ** 2)

    def _tail_floor(self, N):
        """1 / (Z log(N+2)) <= tail(N): the tail's sum is at least the
        integral of 1/(x log^2(x+1)) / Z from N + 1 on, which is at least
        that of 1/((x+1) log^2(x+1)) / Z."""
        return 1.0 / (self.Z * math.log(N + 2.0))

    _sample_table_cap = 1 << 20

    def sample_from_uniform(self, u):
        """Inverse-CDF sampling with an asymptotic far-tail branch.

        The quantile of u grows like exp(1/(Z(1-u))), so exact table
        inversion is infeasible near u = 1; beyond the table the index is
        taken from the asymptotic tail law tail(N) ~ 1/(Z log N), saturating
        at the largest representable integer.  The approximation only affects
        draws in the extreme tail (far outside any finite support).
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self._cum.size < self._sample_table_cap:
            self._extend_to(self._sample_table_cap)
        out = np.searchsorted(self._cum, u, side="right").astype(np.int64) + 1
        beyond = u >= self._cum[-1]
        if np.any(beyond):
            expo = np.minimum(
                1.0 / (self.Z * np.maximum(1.0 - u[beyond], 1e-300)), 43.0
            )
            far = np.exp(expo)
            far = np.minimum(far, float(np.iinfo(np.int64).max // 2))
            out[beyond] = np.maximum(far.astype(np.int64), self._cum.size + 1)
        return out


def _cutoff_budget(m, D):
    """The tail mass 0.5 D (m+2)^{-1/2} that the cutoff N_m may leave out."""
    if D <= 0:
        raise ValueError("truncation budget D must be positive")
    return 0.5 * D / math.sqrt(m + 2)


def truncation_cutoff(base, m, D, past=None):
    """The smallest head size N_m with ||pi^{(m)} - pi||_1 <= D (m+2)^{-1/2},
    capped at the support of a finite base.

    The ell^1 distance of truncate-and-renormalize equals exactly twice the
    tail mass of the base distribution beyond the cutoff.  With ``past``,
    a cutoff beyond ``past`` may be returned as a smaller N that is still
    beyond it (see ``_search_cutoff``), so whether N_m > past is decided
    without a table much larger than ``past``.
    """
    return _search_cutoff(base, _cutoff_budget(m, D), 1, past)


def _search_cutoff(base, budget, start, past=None):
    """The smallest N >= ``start`` with tail(N) <= budget, capped at the
    support bound of a finite base.

    Every N below ``start`` must have a tail above ``budget``.  The tail is
    nonincreasing in N, so the result is the smallest such N overall; from
    ``start`` = 1 the search doubles from 1 and bisects.  The cutoff N_m is
    nondecreasing in m, so a search for m may start from the cutoff of a
    smaller m: it gallops up from ``start`` below the smallest power of two
    >= ``start``, which the search for ``start`` probed, and doubles only
    past that power.  A series base thus grows its partial-sum table to the
    same sizes in the same order from any start, and the table's bits depend
    on that order.  A series base first checks that the cutoff fits under
    its table limit, so that an unreachable budget fails before any table
    grows.

    With ``past``, the doubling stops at the first probe hi >= ``past``
    whose tail is above the budget and returns hi + 1: the result is then
    beyond ``past`` exactly when the cutoff is, and the table grows no
    further than the smallest power of two >= ``past``, in the order of
    the full search, so the tails it compares have the same bits.
    """
    bound = base.support_bound()
    if bound is None:
        base.check_table_fits(budget)
    if base.tail_mass(start) <= budget:
        return start
    # tail(lo) > budget; tail(hi) <= budget unless hi reached the bound
    lo, hi = start, 1 << (start - 1).bit_length()
    step = 1
    while lo + step < hi and base.tail_mass(lo + step) > budget:
        lo, step = lo + step, 2 * step
    if lo + step < hi:
        hi = lo + step
    else:
        while base.tail_mass(hi) > budget:
            if bound is not None and hi >= bound:
                break
            if past is not None and hi >= past:
                return hi + 1
            lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if base.tail_mass(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi if bound is None else min(hi, bound)


def truncate_distribution(base, m, D, cutoff=None):
    """Truncate-and-renormalize ``base`` to the head {1..N_m} of
    ``truncation_cutoff``; ``cutoff`` passes an N_m already searched."""
    if cutoff is None:
        cutoff = truncation_cutoff(base, m, D)
    probs = base.head_probs(cutoff)
    return ExplicitDistribution(probs / probs.sum())


class TruncatedSchedule:
    """Step-dependent schedule m -> truncated version of a base distribution.

    Keeps only the latest truncation, keyed by its cutoff, so memory does not
    grow with the number of steps; exposes the exact ell^1 deviation for
    verification against the D (m+2)^{-1/2} budget.

    A call with m at or above the last call's searches the cutoff upward
    from the last cutoff (see ``_search_cutoff``); a smaller m searches from 1.
    """

    def __init__(self, base, D):
        self.base = base
        self.D = float(D)
        self._latest = None
        # (m, N_m) of the last cutoff search
        self._last_cutoff = None

    def cutoff(self, m):
        last = self._last_cutoff
        start = 1 if last is None or m < last[0] else last[1]
        N = _search_cutoff(self.base, _cutoff_budget(m, self.D), start)
        self._last_cutoff = (m, N)
        return N

    def __call__(self, m):
        N = self.cutoff(m)
        if self._latest is None or self._latest.n != N:
            self._latest = truncate_distribution(self.base, m, self.D, cutoff=N)
        return self._latest

    def boundaries(self, m, ks):
        """``self(m).boundaries(ks)``, without building the table.

        The table's bits come from four operations: the head
        ``base.head_probs(N_m)``, its pairwise ``sum``, the division by it
        and a sequential ``cumsum``.  They are taken here in that order, the
        ``cumsum`` only up to the largest k < N_m, since a prefix of a
        sequential ``cumsum`` is the ``cumsum`` of the prefix.  The
        normalized head passes the checks of ``ExplicitDistribution``
        exactly when its minimum is >= 0 (NaN fails) and its sum is within
        the tolerance of 1 (an inf fails); otherwise that constructor raises
        its own error.
        """
        N = self.cutoff(m)
        head = self.base.head_probs(N)
        p = head / head.sum()
        if not (p.min() >= 0.0 and abs(float(p.sum()) - 1.0) <= _NORMALIZATION_TOL):
            ExplicitDistribution(p)
        out = np.full(len(ks), np.inf)
        below = np.searchsorted(ks, N)
        if below:
            out[:below] = np.cumsum(p[:ks[below - 1]])[ks[:below] - 1]
        return out

    def l1_error(self, m):
        return 2.0 * self.base.tail_mass(self.cutoff(m))
