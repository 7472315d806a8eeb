"""Convergence-bound evaluators, expectation oracles, and rate diagnostics.

Covers the a-priori squared-error bounds for greedy and randomized runs, the
exact expected-error identity of the orthonormal model with its brute-force
enumeration cross-check, seeded Monte Carlo estimation of the expected
squared error, Markov-Chebyshev tail bounds, log-log rate fitting, and the
worst-case simulation of the two-inequality recursion used in the density
convergence argument.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagonal import DiagonalModel
from .distributions import ExplicitDistribution, TruncatedSchedule
from .solver import GAWRRelaxation, PureRelaxation, RandomRule, run


# ---------------------------------------------------------------------------
# bound specifications and evaluators

@dataclass(frozen=True)
class GreedyBoundSpec:
    norm_a: float
    lam: float
    beta: float
    a1: float


@dataclass(frozen=True)
class RandomBoundSpec:
    norm_a: float
    lam: float
    ainf: float


@dataclass(frozen=True)
class GreedyDensityBoundSpec:
    dist_a: float       # ||u - h||_a
    norm_a: float       # ||u||_a
    lam: float
    beta: float
    a1_h: float         # ell^1 class norm of h


@dataclass(frozen=True)
class RandomDensityBoundSpec:
    dist_a: float
    norm_a: float
    lam: float
    ainf_h: float


def _bound_constant(norm_a, scale, h_norm):
    """norm_a^2 + scale^2 h_norm^2, the constant of every bound below; inf
    when a square overflows (a float's ``**`` raises where ``*`` gives inf)."""
    try:
        return norm_a ** 2 + scale ** 2 * h_norm ** 2
    except OverflowError:
        return math.inf


def greedy_bound(m, spec):
    """Squared-error bound 2(||u||_a^2 + (Lam/beta)^2 ||u||_1^2) / (m+1)."""
    m = np.asarray(m, dtype=float)
    return 2.0 * _bound_constant(spec.norm_a, spec.lam / spec.beta, spec.a1) / (m + 1.0)


def random_bound(m, spec):
    """Expected squared-error bound 2(||u||_a^2 + Lam^2 ||u||_pi^2) / (m+1)."""
    m = np.asarray(m, dtype=float)
    return 2.0 * _bound_constant(spec.norm_a, spec.lam, spec.ainf) / (m + 1.0)


def density_bound(m, spec):
    """Error bound 2||u-h||_a + sqrt(8(||u||_a^2 + C_h^2)) (m+1)^{-1/2}
    with C_h = (Lam/beta)||h||_1 (greedy) or Lam ||h||_pi (random)."""
    m = np.asarray(m, dtype=float)
    if isinstance(spec, GreedyDensityBoundSpec):
        const = _bound_constant(spec.norm_a, spec.lam / spec.beta, spec.a1_h)
    elif isinstance(spec, RandomDensityBoundSpec):
        const = _bound_constant(spec.norm_a, spec.lam, spec.ainf_h)
    else:
        raise TypeError(f"not a density bound spec: {spec!r}")
    return 2.0 * spec.dist_a + np.sqrt(8.0 * const) / np.sqrt(m + 1.0)


def chebyshev_tail(m, spec, eps=None, delta=None):
    """Markov-Chebyshev bounds for randomized runs.

    With ``eps``: lower bound on P(error^2 <= eps^2), clamped to [0, 1].
    With ``delta``: the squared-error threshold guaranteed with
    probability >= 1 - delta.
    """
    mbar8 = 8.0 * _bound_constant(spec.norm_a, spec.lam, spec.ainf)
    if (eps is None) == (delta is None):
        raise ValueError("pass exactly one of eps or delta")
    m = np.asarray(m, dtype=float)
    if eps is not None:
        if eps <= 0:
            raise ValueError("error threshold eps must be positive")
        return np.clip(1.0 - mbar8 / ((m + 1.0) * eps ** 2), 0.0, 1.0)
    if not 0.0 < delta <= 1.0:
        raise ValueError("confidence delta must lie in (0, 1]")
    return mbar8 / ((m + 1.0) * delta)


# ---------------------------------------------------------------------------
# exact expectation and its brute-force cross-check (orthonormal model, pure)

def exact_expected_error(model, pi, m):
    """E ||u - u^{(m)}||^2 = sum_i |c_i|^2 (1 - pi_i)^m for pure relaxation.

    Coefficients outside the support of pi are never hit and contribute
    |c_i|^2 at every m.  ``m`` may be a scalar or an array.
    """
    probs = pi.probs_at(model.support_indices)
    c_sq = model.coefficients ** 2
    m = np.asarray(m, dtype=float)
    vals = (c_sq[:, None] * (1.0 - probs[:, None]) ** m.reshape(1, -1)).sum(axis=0)
    return float(vals[0]) if m.ndim == 0 else vals.reshape(m.shape)


def bruteforce_expected_error(model, pi, m):
    """Exhaustive enumeration of all length-m index sequences.

    Each sequence is weighted by its sampling probability and the pure
    relaxation dynamics are replayed exactly: a visited coefficient is
    matched, everything else is untouched.  Limited to |support(pi)| <= 4 and
    m <= 8.
    """
    n = pi.support_bound()
    if n is None or n > 4:
        raise ValueError("brute force needs an explicit distribution on <= 4 indices")
    if m > 8:
        raise ValueError("brute force limited to m <= 8")
    c_sq = {int(i): float(v) ** 2 for i, v in zip(model.support_indices, model.coefficients)}
    total = 0.0
    for seq in itertools.product(range(1, n + 1), repeat=m):
        prob = 1.0
        for i in seq:
            prob *= pi.prob(i)
        visited = set(seq)
        err_sq = sum(v for i, v in c_sq.items() if i not in visited)
        total += prob * err_sq
    return total


# ---------------------------------------------------------------------------
# Monte Carlo estimation

@dataclass
class ExpectationEstimate:
    """Per-step sample mean and standard error of the squared energy error."""

    mean: np.ndarray
    stderr: np.ndarray
    trials: int


def _trial_seed(master_seed, trial):
    return np.random.SeedSequence([int(master_seed), int(trial)])


def mc_expected_error(model, selection, relaxation, steps, trials, master_seed):
    """Estimate E(error_m^2) over ``trials`` independently seeded runs.

    Trial t draws its RNG stream from (master_seed, t), so the estimate is
    deterministic in the master seed.  Diagonal-model randomized runs with
    pure or fixed-schedule relaxation take a vectorized path that replays the
    exact per-step dynamics; it is stream-identical to the generic loop.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if (
        isinstance(model, DiagonalModel)
        and isinstance(selection, RandomRule)
        and isinstance(relaxation, (PureRelaxation, GAWRRelaxation))
    ):
        return _mc_diagonal_fast(model, selection, relaxation, steps, trials, master_seed)
    sums = np.zeros(steps + 1)
    sumsq = np.zeros(steps + 1)
    for t in range(trials):
        trace = run(model, selection, relaxation, steps, seed=[int(master_seed), t])
        e2 = trace.error_sq
        sums += e2
        sumsq += e2 ** 2
    return _finalize_estimate(sums, sumsq, trials)


def _finalize_estimate(sums, sumsq, K):
    mean = sums / K
    second = sumsq / K
    var = np.maximum(second - mean ** 2, 0.0) * (K / (K - 1.0))
    # the streaming E[x^2] - E[x]^2 formula carries cancellation noise of
    # order eps * E[x^2]; anything below that is indistinguishable from zero
    var[var <= 64.0 * np.finfo(float).eps * second] = 0.0
    return ExpectationEstimate(mean=mean, stderr=np.sqrt(var / K), trials=K)


# Trials are summed in groups of this many rows, in row order; row blocks only
# tile a group, so the sums do not depend on the budgets below.
_MC_GROUP = 4096
# Cap on the bytes of one row block's uniforms (overwritten by the support
# positions they map to) and per-step errors, which grow with the step count.
MC_CHUNK_BYTES = 16 << 20
# Bytes for one row block of the recursion: its state, the error scratch and
# the tiled coefficients, sized to stay in a core's L2 cache.
MC_CACHE_BYTES = 1 << 20


def _step_maps(model, selection, M):
    """The map of every step from a block of uniforms (steps x trials) to
    the support positions of the indices they draw (-1: off the support),
    built once per run; it overwrites the block in place with the int64
    positions.

    A fixed distribution maps the whole block through its own
    ``sample_from_uniform``.  A step-dependent schedule keeps, for each step
    whose table is an ``ExplicitDistribution``, only the table boundaries
    (see ``ExplicitDistribution.boundaries``) that open or close the interval
    of a support index: a ``searchsorted`` finds the interval of each
    uniform, and a label per interval, the same at every step, gives its
    position.  A ``TruncatedSchedule`` gives those boundaries without a
    table (``TruncatedSchedule.boundaries``).  A step with any other
    distribution samples from it.
    """
    if not callable(selection.schedule):
        dist = selection.schedule

        def to_positions(U):
            U.view(np.int64)[:] = model.support_positions(dist.sample_from_uniform(U))

        return to_positions

    support = model.support_indices
    # boundary k closes the interval of index k and opens that of index k+1;
    # ks is the sorted distinct positive k in support - 1 and support (the
    # support is sorted and distinct, so 0 can only lead).  np.union1d
    # gives the same but loads numpy.ma for its masked-array check.
    ks = np.sort(np.concatenate((support - 1, support)))
    ks = ks[np.diff(ks, prepend=0) > 0]
    # the uniforms that ``searchsorted`` puts at c lie between boundaries
    # lo[c] and hi[c] (the last has none above); they draw a single index
    # exactly when hi[c] == lo[c] + 1
    lo = np.concatenate(([0], ks))
    one = lo + 1
    labels = np.where(np.append(ks, 0) == one, model.support_positions(one), -1)
    bounds = np.empty((M, ks.size))
    sampled = {}
    schedule = selection.schedule
    for m in range(M):
        if isinstance(schedule, TruncatedSchedule):
            bounds[m] = schedule.boundaries(m, ks)
        elif isinstance(dist := schedule(m), ExplicitDistribution):
            bounds[m] = dist.boundaries(ks)
        else:
            sampled[m] = dist

    def to_positions(U):
        pos = U.view(np.int64)
        for m in range(M):
            if m in sampled:
                pos[m] = model.support_positions(sampled[m].sample_from_uniform(U[m]))
            else:
                np.take(labels, np.searchsorted(bounds[m], U[m], side="right"), out=pos[m])

    return to_positions


def _mc_diagonal_fast(model, selection, relaxation, M, K, master_seed):
    """The diagonal-model Monte Carlo kernel: one row block of trials at a time.

    Trial t replays ``run`` on its own stream from (master_seed, t), so the
    result is stream-identical to the generic loop.  Each step's sampling map
    is built once per run (``_step_maps``).  A row block of trials, about
    MC_CACHE_BYTES of recursion state and at most MC_CHUNK_BYTES of uniforms
    and errors, draws its uniforms, maps them to support positions, runs the
    M-step recursion and folds its errors into the sums of its group.  The
    bits of ``mean`` and ``stderr`` do not depend on either budget, because
    every per-trial operation is elementwise or a reduction along one row,
    and the per-step sums over trials are taken in row order within groups
    of _MC_GROUP trials.
    """
    c = model.coefficients
    if M == 0:
        # a single error column is summed pairwise by numpy, so its group is
        # never split; it costs 8 bytes a trial
        rows = min(_MC_GROUP, K)
    else:
        # three arrays of d + 1 doubles a row (see _diagonal_recursion)
        cache_rows = MC_CACHE_BYTES // (24 * (c.size + 1))
        rows = max(1, min(_MC_GROUP, K, cache_rows, MC_CHUNK_BYTES // (8 * (2 * M + 1))))
    # one row per step and one column per trial; allocated first, so that a
    # step count no machine can hold fails before the per-step tables grow
    U_buf = np.empty((M, rows))
    # after the first row block of a group, row 0 carries the group's partial
    # sum, so the sum over rows continues it in row order
    errs_buf = np.empty((1 + rows, M + 1))
    alphas = None if isinstance(relaxation, PureRelaxation) else np.array(
        [relaxation.alpha(m) for m in range(M)])
    to_positions = _step_maps(model, selection, M)

    sums = np.zeros(M + 1)
    sumsq = np.zeros(M + 1)
    for group in range(0, K, _MC_GROUP):
        group_end = min(group + _MC_GROUP, K)
        gsum = gsumsq = None
        for start in range(group, group_end, rows):
            B = min(rows, group_end - start)
            U = U_buf[:, :B]
            lead = 0 if gsum is None else 1
            errs = errs_buf[:lead + B]
            if M:
                for t in range(B):
                    U[:, t] = np.random.default_rng(_trial_seed(master_seed, start + t)).random(M)
                to_positions(U)
                _diagonal_recursion(c, U.view(np.int64), alphas, model.zero_tol, errs[lead:])
            else:  # every trial's only error is that of u = 0
                errs[lead:] = np.add.reduce(c * c)
            if lead:
                errs[0] = gsum
            gsum = errs.sum(axis=0)
            np.square(errs[lead:], out=errs[lead:])
            if lead:
                errs[0] = gsumsq
            gsumsq = errs.sum(axis=0)
        sums += gsum
        sumsq += gsumsq
    return _finalize_estimate(sums, sumsq, K)


def _aligned_arrays(count, shape):
    """``count`` float arrays of ``shape`` cut from one buffer, each starting
    on a 64-byte boundary and each 64 bytes further into a 4 KiB page than
    a packed layout would put it.

    Separate allocations start where the heap's history puts them, which
    any earlier allocation moves, down to a module's docstrings.  The
    recursion's elementwise passes on a 218 x 200 block took about 26 us
    with its three arrays 64-byte aligned against 41-67 us at other
    offsets (one thread).
    """
    size = math.prod(shape)
    stride = size + (-size % 8) + 8
    buf = np.empty(count * stride + 8)
    start = (-buf.ctypes.data % 64) // 8
    return [buf[start + k * stride:start + k * stride + size].reshape(shape) for k in range(count)]


def _diagonal_recursion(c, pos, alphas, zero_tol, errs):
    """Run the M-step recursion of every trial (column of ``pos``), writing
    trial t's squared error before step m to ``errs[t, m]`` and after the
    last step to ``errs[t, M]``.

    Trial t's state is row t of a block with d + 1 columns.  Column 0 is a
    dummy coordinate with coefficient 0 that takes the draws off the
    support (position -1): its residual stays 0, never above the zero
    threshold, so it is never set.  ``pos`` is overwritten in place with
    flat indices into the block, so that each step reads and sets the
    drawn coordinates with ``take`` and ``put``.  The errors sum columns
    1..d of each row.
    """
    M, B = pos.shape
    width = c.size + 1
    C, state, tmp = _aligned_arrays(3, (B, width))
    C[:, 0] = 0.0
    C[:, 1:] = c
    state[:] = 0.0
    # row t's position p lies at flat index t * width + p + 1; a step's row
    # of ``pos`` is shifted there in place, since a broadcast add over the
    # whole buffer allocates the iterator's buffers
    starts = np.arange(1, B * width, width)
    flat_C, flat_state, flat_tmp = C.reshape(-1), state.reshape(-1), tmp.reshape(-1)
    for m in range(M + 1):
        np.subtract(C, state, out=tmp)  # the residual at u^{(m)}
        if m < M:
            drawn = pos[m]
            drawn += starts
            # below the zero threshold the direction is dropped
            # (omega = 0) and the coordinate only scales with alpha
            live = drawn[np.abs(flat_tmp.take(drawn)) > zero_tol]
        np.multiply(tmp, tmp, out=tmp)
        np.add.reduce(tmp[:, 1:], axis=1, out=errs[:, m])
        if m == M:
            break
        if alphas is not None:
            state *= alphas[m]
        flat_state.put(live, flat_C.take(live))


# ---------------------------------------------------------------------------
# the sharp expectation chain for c_i proportional to pi_i

def pcons_sum(pi_probs, m):
    """sum_i pi_i^2 (1 - pi_i)^m over an explicit probability vector."""
    p = np.asarray(pi_probs, dtype=float)
    m = np.asarray(m, dtype=float)
    vals = (p[:, None] ** 2 * (1.0 - p[:, None]) ** m.reshape(1, -1)).sum(axis=0)
    return float(vals[0]) if m.ndim == 0 else vals.reshape(m.shape)


def pcons_envelope_constant(m):
    """c(m) = max_{t in [0,1]} t^2 (1-t)^m (m+1)^2; the maximizer is
    t = 2/(m+2)."""
    t = min(2.0 / (m + 2.0), 1.0)
    return t ** 2 * (1.0 - t) ** m * (m + 1.0) ** 2


# ---------------------------------------------------------------------------
# rate fitting

@dataclass
class RateFit:
    slope: float
    intercept: float
    residual: float
    converged_exactly: bool = False


def fit_rate(errors, m_range=None):
    """Least-squares fit of log(error_m) against log(m+1).

    ``m_range`` is an inclusive (lo, hi) window; the default is the upper
    decade [M/10, M].  Exact zeros in the window are reported as converged
    instead of fitted.
    """
    errors = np.asarray(errors, dtype=float)
    M = errors.size - 1
    if m_range is None:
        m_range = (M // 10, M)
    lo, hi = int(m_range[0]), int(m_range[1])
    ms = np.arange(max(lo, 0), min(hi, M) + 1)
    if ms.size < 3:
        raise ValueError("rate fit needs at least 3 points")
    y = errors[ms]
    if np.any(y <= 0.0):
        return RateFit(slope=float("nan"), intercept=float("nan"),
                       residual=0.0, converged_exactly=True)
    x = np.log(ms + 1.0)
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    resid = float(np.sqrt(np.mean((logy - (slope * x + intercept)) ** 2)))
    return RateFit(slope=float(slope), intercept=float(intercept), residual=resid)


# ---------------------------------------------------------------------------
# recursion checker

@dataclass
class Lemma3Result:
    applicable: bool
    passed: bool
    max_b: float


def lemma3_check(B, A=None, steps=100_000, b0=None):
    """Simulate the pointwise-maximal sequence admitted by the recursion

        b_{m+1} <= sqrt(alpha_m) b_m + B (m+2)^{-1/2}
        b_{m+1} <= sqrt(alpha_m) (b_m + 1/((m+1) b_m))   (when b_m > 0)

    with alpha_m = (m+1)/(m+2), and report whether it stays below A.  The
    maximal sequence dominates every admissible one, so a pass certifies the
    bound for all of them.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if A is None:
        A = B / math.sqrt(2.0) + math.sqrt(2.0)
    b = B if b0 is None else float(b0)
    if b > A:
        return Lemma3Result(applicable=False, passed=False, max_b=b)
    worst = b
    for m in range(steps):
        root = math.sqrt((m + 1.0) / (m + 2.0))
        nxt = root * b + B / math.sqrt(m + 2.0)
        if b > 0.0:
            nxt = min(nxt, root * (b + 1.0 / ((m + 1.0) * b)))
        b = nxt
        if b > worst:
            worst = b
    return Lemma3Result(applicable=True, passed=worst <= A, max_b=worst)


def lemma3_sweep(Bs, steps=100_000):
    """Vectorized worst-case simulation for a batch of B values with the
    default A = B/sqrt(2) + sqrt(2); returns the per-B maxima."""
    b = np.asarray(Bs, dtype=float).copy()
    if np.any(b <= 0):
        raise ValueError("all B must be positive")
    B = b.copy()
    worst = b.copy()
    for m in range(steps):
        root = math.sqrt((m + 1.0) / (m + 2.0))
        e2 = root * b + B / math.sqrt(m + 2.0)
        e1 = np.where(b > 0.0, root * (b + 1.0 / ((m + 1.0) * np.maximum(b, 1e-300))), np.inf)
        b = np.minimum(e2, e1)
        worst = np.maximum(worst, b)
    return worst
