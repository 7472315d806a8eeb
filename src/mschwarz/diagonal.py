"""Lazily-indexed orthonormal diagonal model.

The target u = sum_i c_i psi_i has finitely many nonzero coefficients in a
complete orthonormal system; the splitting consists of the one-dimensional
coordinate injections with unit local forms, so every local solve returns the
coefficient mismatch c_i - u_i directly and the uniform bound is 1.  Iterates
stay supported inside the support of c, which keeps all operations finite even
though the index set is the whole of the natural numbers.
"""

import math

import numpy as np

from .problems import BlockResidual, FiniteSplitting, Problem, SplittingComponent


class DiagonalState:
    __slots__ = ("u", "steps")

    def __init__(self, d):
        self.u = np.zeros(d)
        self.steps = 0


class DiagonalModel:
    """Orthonormal diagonal problem/splitting pair with finite support.

    A step record's ``r`` is the scalar c_i - u_i and its local energy r^2,
    which is also d.Ad; the record needs no ``d`` or ``Ad``.
    """

    def __init__(self, coefficients):
        if isinstance(coefficients, dict):
            items = sorted((int(i), float(v)) for i, v in coefficients.items())
        else:
            arr = np.asarray(coefficients, dtype=float)
            items = [(i + 1, float(v)) for i, v in enumerate(arr)]
        if any(i < 1 for i, _ in items):
            raise ValueError("diagonal model indices must be >= 1")
        self.support_indices = np.array([i for i, _ in items], dtype=np.int64)
        self.coefficients = np.array([v for _, v in items])
        self._pos = {i: k for k, i in enumerate(self.support_indices)}
        with np.errstate(over="ignore"):
            self._solution_norm = float(np.linalg.norm(self.coefficients))
        if self._solution_norm == math.inf:  # a step's r ** 2 could overflow
            raise ValueError("coefficients are too large: their sum of squares overflows")
        self.zero_tol = 1e-14 * (1.0 + self._solution_norm)

    # -- solver interface ---------------------------------------------------

    def component_count(self):
        return None

    def default_pool_indices(self):
        return self.support_indices

    def new_state(self):
        return DiagonalState(self.coefficients.size)

    def local_residual(self, state, i):
        pos = self._pos.get(int(i))
        if pos is None:
            return BlockResidual(int(i), 0.0, 0.0, 0.0)
        r = float(self.coefficients[pos] - state.u[pos])
        return BlockResidual(int(i), r, abs(r), r ** 2)

    def support_positions(self, indices):
        """Position of each index in the sorted support, -1 off it.

        A search of the support, not a lookup array indexed by the
        coefficient index, which would be sized by the largest index.
        """
        indices = np.asarray(indices, dtype=np.int64)
        support = self.support_indices
        if support.size == 0:
            return np.full(indices.shape, -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(support, indices), support.size - 1)
        return np.where(support[pos] == indices, pos, -1)

    def pool_local_norms(self, state):
        # the local norms over the support, in the order of support_indices
        return np.abs(self.coefficients - state.u), lambda i: self.local_residual(state, i)

    def dir_energy_sq(self, res):
        return res.local_energy

    def dir_functional(self, res):
        pos = self._pos.get(res.index)
        return float(self.coefficients[pos]) * res.r if pos is not None else 0.0

    def dir_inner_current(self, state, res):
        pos = self._pos.get(res.index)
        return float(state.u[pos]) * res.r if pos is not None else 0.0

    def current_energy_sq(self, state):
        return float(state.u @ state.u)

    def current_functional(self, state):
        return float(self.coefficients @ state.u)

    def apply_update(self, state, res, alpha, omega):
        state.u = alpha * state.u
        pos = self._pos.get(res.index)
        if pos is not None:
            state.u[pos] += omega * res.r
        state.steps += 1

    def error(self, state):
        return float(np.linalg.norm(self.coefficients - state.u))

    def solution_norm(self):
        return self._solution_norm

    # -- conversions --------------------------------------------------------

    def to_dense(self):
        """Dense embedding on R^n, n the largest support index, with A = I
        and coordinate components."""
        n = int(self.support_indices.max()) if self.support_indices.size else 1
        b = np.zeros(n)
        b[self.support_indices - 1] = self.coefficients
        problem = Problem(np.eye(n), b)
        components = [SplittingComponent(i + 1, np.eye(n, 1, -i), np.eye(1)) for i in range(n)]
        return problem, FiniteSplitting(problem, components)


def make_diagonal(coefficients):
    """Build the orthonormal diagonal model from a coefficient map or array."""
    return DiagonalModel(coefficients)


def a1_norm(model):
    """The ell^1 coefficient norm; for the orthonormal one-dimensional
    splitting the infimum over representations is attained coordinatewise."""
    return float(np.abs(model.coefficients).sum())


def sup_norm_over_pi(indices, norms, pi):
    """sup_i norm_i / pi_i over indices and their norms >= 0, skipping zero
    norms; infinite when a nonzero norm sits where pi has no mass.  pi is
    read once, at the indices of the nonzero norms (``probs_at``)."""
    norms = np.asarray(norms, dtype=float)
    nonzero = norms != 0.0
    probs = pi.probs_at(np.asarray(indices)[nonzero])
    if np.any(probs == 0.0):
        return math.inf
    return float(np.max(norms[nonzero] / probs, initial=0.0))


def ainfty_pi_norm(model, pi):
    """sup_i |c_i| / pi_i; infinite when c has mass where pi has none."""
    return sup_norm_over_pi(model.support_indices, np.abs(model.coefficients), pi)
