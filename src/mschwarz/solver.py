"""The multiplicative Schwarz iteration with relaxation.

One step picks a component (deterministically, greedily, or at random),
solves its local subproblem for the partial residual r_i, and updates

    u^{(m+1)} = alpha_m u^{(m)} + omega_m R_i r_i,

with alpha_m from the relaxation rule and omega_m minimizing the energy
error along the chosen direction.
"""

import random
import sys
import types
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# pool policies for greedy selection

class FixedPool:
    """The model's whole pool at every step: all components of a finite
    splitting, the support of the target coefficients on the diagonal
    model.  Off the support the residual coefficients vanish, so there the
    finite scan realizes the exact supremum over the whole countable index
    set.  (A config spells it ``fixed`` or ``support_union``.)
    """

    def size(self, model, m):
        return None


class GrowingPool:
    """The nested finite pools I_m = {1, ..., m+1} of a finite splitting."""

    def size(self, model, m):
        if model.component_count() is None:
            raise ValueError("growing pools need a finite splitting")
        return m + 1


def _import_numpy_random():
    """Import ``numpy.random`` without ``secrets``, ``hmac`` and OpenSSL.

    ``numpy.random.bit_generator`` runs ``from secrets import randbits``,
    which loads ``hmac`` and OpenSSL's ``_hashlib`` (3.5 MB of RSS), and
    calls ``randbits`` only to seed a ``SeedSequence`` given no entropy.
    Unless ``numpy.random`` or ``secrets`` is already loaded, the import
    runs with a stand-in ``secrets`` in ``sys.modules`` whose one attribute
    is ``random.SystemRandom().getrandbits``, the object ``secrets.py``
    binds as ``randbits``, so an unseeded ``SeedSequence()`` still draws
    from ``os.urandom``.  The stand-in is removed afterwards; a thread that
    imports ``secrets`` during this one import would get it.  If numpy
    refuses it (an ``ImportError``, say for a name it lacks), the import
    runs again with the real module.
    """
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        import numpy.random  # noqa: F401
        return
    stand_in = _secrets_stand_in()
    sys.modules["secrets"] = stand_in
    try:
        import numpy.random  # noqa: F401
        return
    except ImportError:
        pass
    finally:
        if sys.modules.get("secrets") is stand_in:
            del sys.modules["secrets"]
    import numpy.random  # noqa: F401, E811


def _secrets_stand_in():
    """A module ``secrets`` whose one attribute, ``randbits``, is bound as
    ``secrets.py`` binds it."""
    module = types.ModuleType("secrets")
    module.randbits = random.SystemRandom().getrandbits
    return module


# ---------------------------------------------------------------------------
# selection rules: select(model, state, m, rng) -> the step's BlockResidual;
# only a RandomRule reads rng, the others get None

class DeterministicRule:
    """A fixed index sequence: a callable m -> index or a list cycled over."""

    def __init__(self, sequence):
        if callable(sequence):
            self._fn = sequence
        else:
            seq = [int(i) for i in sequence]
            if not seq:
                raise ValueError("empty index sequence")
            self._fn = lambda m: seq[m % len(seq)]

    def select(self, model, state, m, rng):
        return model.local_residual(state, self._fn(m))


def cyclic_rule(n_components):
    """The classical cyclic sweep 1, 2, ..., N, 1, ... (indices are 1-based)."""
    return DeterministicRule(lambda m: m % n_components + 1)


class GreedyRule:
    """Weak greedy pick: local norm within a factor beta of the pool maximum."""

    def __init__(self, beta=1.0, pool=None):
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"weakness parameter beta={beta} outside (0, 1]")
        self.beta = beta
        self.pool = pool if pool is not None else FixedPool()

    def select(self, model, state, m, rng):
        return select_greedy(model, state, self, m)


class RandomRule:
    """Random pick from a distribution schedule (fixed or step-dependent)."""

    def __init__(self, schedule):
        # numpy loads numpy.random on first use; a rule that draws loads it
        # here, in the set-up, so that the one-time import stays out of the
        # first step and runs that draw nothing never load it
        _import_numpy_random()
        self.schedule = schedule

    def distribution(self, m):
        if callable(self.schedule):
            return self.schedule(m)
        return self.schedule

    def select(self, model, state, m, rng):
        return model.local_residual(state, self.distribution(m).sample(rng))


def select_greedy(model, state, rule, m):
    """Pick an index satisfying the weak greedy criterion over the pool.

    The pool is the first ``rule.pool.size(model, m)`` (None: all) entries
    of the model's ascending pool order.  Returns the first, so smallest,
    pool index whose squared local norm reaches beta^2 times the pool
    maximum; for beta = 1 the exact maximizer with smallest-index
    tie-breaking.  The winner's record comes from the scan, which solved it.
    """
    size = rule.pool.size(model, m)
    norms, residual = model.pool_local_norms(state)
    norms_sq = norms[:size] ** 2
    if norms_sq.size == 0:
        raise ValueError("empty greedy pool")
    k = int(np.argmax(norms_sq >= rule.beta ** 2 * norms_sq.max()))
    return residual(int(model.default_pool_indices()[k]))


# ---------------------------------------------------------------------------
# relaxation

class Relaxation:
    """Base relaxation; subclasses fix how (alpha_m, omega_m) are chosen."""

    def alpha(self, m):
        raise NotImplementedError

    def parameters(self, model, state, res, m):
        a = self.alpha(m)
        return a, omega_optimal(model, res, a)


class GAWRRelaxation(Relaxation):
    """alpha_m = 1 - (m+2)^{-1} with omega minimizing the step error."""

    def alpha(self, m):
        return 1.0 - 1.0 / (m + 2)


class PureRelaxation(Relaxation):
    """alpha_m = 1 with omega optimal (pure greedy / exact local step)."""

    def alpha(self, m):
        return 1.0


class TwoParamRelaxation(Relaxation):
    """Joint minimization over alpha >= 0 and omega."""

    def parameters(self, model, state, res, m):
        return two_param_update(model, state, res, m)


def omega_optimal(model, res, alpha):
    """The error-minimizing relaxation weight along the direction d = R_i r
    of the step record ``res``.

    omega = (alpha * a_i(r, r) + (1 - alpha) * F(R_i r)) / ||R_i r||_a^2,
    computed from b, A and the current iterate only; a_i(r, r) is the
    record's local energy.  A direction of negligible energy norm gets
    omega = 0.
    """
    d2 = model.dir_energy_sq(res)
    if d2 <= model.zero_tol ** 2:
        return 0.0
    return (alpha * res.local_energy + (1.0 - alpha) * model.dir_functional(res)) / d2


def two_param_update(model, state, res, m):
    """Minimize ||u - alpha u^{(m)} - omega R_i r||_a over alpha >= 0, omega.

    Solves the 2x2 normal equations (right-hand sides use a(u, .) = F(.)),
    clamps alpha at 0 and re-minimizes omega when the unconstrained minimizer
    is infeasible, and falls back to the one-parameter rule at the fixed
    alpha schedule when the Gram matrix is degenerate.
    """
    guu = model.current_energy_sq(state)
    gdd = model.dir_energy_sq(res)
    gud = model.dir_inner_current(state, res)
    fu = model.current_functional(state)
    fd = model.dir_functional(res)
    scale = max(guu, gdd, 1e-300)
    det = guu * gdd - gud * gud
    if det <= 1e-28 * scale ** 2:
        alpha = 1.0 - 1.0 / (m + 2)
        return alpha, omega_optimal(model, res, alpha)
    alpha = (fu * gdd - fd * gud) / det
    omega = (fd * guu - fu * gud) / det
    if alpha < 0.0:
        alpha = 0.0
        omega = fd / gdd if gdd > model.zero_tol ** 2 else 0.0
    return float(alpha), float(omega)


# ---------------------------------------------------------------------------
# iteration trace and the main loop

@dataclass
class IterationTrace:
    """Per-step record of a run; row m also carries the step taken from m.

    ``index``, ``alpha``, ``omega`` and ``local_norm`` at the final row are
    sentinels (-1 / NaN): no step leaves the last recorded state.
    """

    index: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    local_norm: np.ndarray
    error: np.ndarray

    @property
    def steps(self):
        return len(self.error) - 1

    @property
    def error_sq(self):
        return self.error ** 2


def iterate(model, selection, relaxation, steps, seed=None):
    """The multiplicative Schwarz iteration from u^{(0)} = 0, one step at a time.

    Yields ``(m, state, res, alpha, omega)`` for m = 0 .. steps-1 before
    step m is applied, with ``res`` the step's :class:`BlockResidual` (the
    component is ``res.index``).  ``state`` is a single object updated in place, so once
    the generator is exhausted it holds u^{(steps)}.  A :class:`RandomRule`
    draws from a PCG64 stream derived from ``seed`` alone; every other rule
    draws nothing and ignores ``seed``.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    rng = None
    if isinstance(selection, RandomRule):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = model.new_state()
    for m in range(int(steps)):
        res = selection.select(model, state, m, rng)
        a, w = relaxation.parameters(model, state, res, m)
        yield m, state, res, a, w
        model.apply_update(state, res, a, w)


def run(model, selection, relaxation, steps, seed=None):
    """Run :func:`iterate` to the end and record its trace.

    Identical (model, rules, steps, seed) inputs produce bitwise-identical
    traces; a rule that draws nothing ignores ``seed``.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    M = int(steps)
    index = np.full(M + 1, -1, dtype=np.int64)
    alpha = np.full(M + 1, np.nan)
    omega = np.full(M + 1, np.nan)
    local_norm = np.full(M + 1, np.nan)
    error = np.empty(M + 1)
    state = model.new_state()  # u^{(0)}; replaced by iterate()'s state when M > 0
    for m, state, res, a, w in iterate(model, selection, relaxation, M, seed):
        index[m] = res.index
        alpha[m] = a
        omega[m] = w
        local_norm[m] = res.local_norm
        error[m] = model.error(state)
    error[M] = model.error(state)
    return IterationTrace(
        index=index,
        alpha=alpha,
        omega=omega,
        local_norm=local_norm,
        error=error,
    )
