"""SPD variational problems, finite space splittings, and local subproblem solves.

A problem is the finite-dimensional realization of the variational equation
a(u, v) = F(v) with an SPD matrix A and right-hand side vector b.  A splitting
decomposes the space through restriction operators R_i with local SPD forms
A_i; the local solve computes the subproblem operator applied to the current
error, r_i = T_i e, from the global residual alone.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh


class UnstableSplittingError(ValueError):
    """Raised when a finite splitting fails to span the full space."""


def _as_matrix(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


class Problem:
    """An SPD form A, functional b, and the direct-solve reference solution."""

    def __init__(self, A, b, exact_solution=None):
        A = _as_matrix(A)
        b = np.asarray(b, dtype=float)
        n = A.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        sym_defect = np.abs(A - A.T).max()
        scale = max(np.abs(A).max(), 1e-300)
        if sym_defect > 1e-12 * scale:
            raise ValueError(f"A is not symmetric: defect {sym_defect:.3e}")
        A = 0.5 * (A + A.T)
        try:
            self._chol = cho_factor(A, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("A is not positive definite") from exc
        self.A = A
        self.b = b
        self.n = n
        if exact_solution is None:
            exact_solution = cho_solve(self._chol, b)
        else:
            exact_solution = np.asarray(exact_solution, dtype=float)
        self.exact_solution = exact_solution
        # residual measured in the dual norm, i.e. as the energy norm of the
        # solution error it induces (the A-norm of the raw residual vector is
        # not reachable in float64 once A is ill-conditioned)
        res = A @ exact_solution - b
        sol_norm = energy_norm(self, exact_solution)
        if energy_norm(self, cho_solve(self._chol, res)) > 1e-10 * max(sol_norm, 1e-300):
            raise ValueError("supplied exact solution does not solve A u = b")

    def solve(self, rhs):
        return cho_solve(self._chol, rhs)


def energy_norm(problem, v):
    """Energy norm sqrt(v^T A v) of a vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({problem.n},)")
    return float(np.sqrt(max(v @ (problem.A @ v), 0.0)))


@dataclass
class BlockResidual:
    """Local solution r_i = T_i e with its local energy norm."""

    index: int
    r: np.ndarray
    local_norm: float


class SplittingComponent:
    """One component of a splitting: restriction R_i and local SPD form A_i."""

    def __init__(self, index, R, A_local):
        R = np.asarray(R, dtype=float)
        if R.ndim == 1:
            R = R[:, None]
        A_local = _as_matrix(A_local)
        d = R.shape[1]
        if d < 1 or A_local.shape[0] != d:
            raise ValueError(
                f"component {index}: R has {d} columns, A_i is {A_local.shape[0]}x{A_local.shape[1]}"
            )
        if not np.any(np.abs(R).max(axis=0) > 0.0):
            raise ValueError(f"component {index}: R has trivial range")
        A_local = 0.5 * (A_local + A_local.T)
        try:
            self._chol = cho_factor(A_local, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"component {index}: A_i is not positive definite") from exc
        self.index = index
        self.R = R
        self.A_local = A_local
        self.dim = d

    def solve_local(self, rhs):
        return cho_solve(self._chol, rhs)

    def local_inner(self, v, w):
        return float(v @ (self.A_local @ w))


class FiniteSplitting:
    """A finite family of components whose stacked ranges span the full space."""

    def __init__(self, problem, components):
        if not components:
            raise ValueError("splitting needs at least one component")
        self.components = list(components)
        self.N = len(components)
        self._by_index = {}
        for c in self.components:
            if c.index in self._by_index:
                # duplicated indices are allowed (redundant splittings); keep
                # them addressable positionally through iteration only
                continue
            self._by_index[c.index] = c
        stacked = np.hstack([c.R for c in components])
        if np.linalg.matrix_rank(stacked) < problem.n:
            raise UnstableSplittingError(
                "component ranges do not span the space (rank-deficient splitting)"
            )
        self._lambda = None

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self._by_index[i]

    def indices(self):
        return np.array([c.index for c in self.components], dtype=np.int64)


def local_solve(problem, component, g):
    """Solve the local variational subproblem A_i r_i = R_i^T g.

    ``g`` is the current global residual b - A u, so r_i = T_i e for the
    current error e without knowledge of the exact solution.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (problem.n,):
        raise ValueError(f"residual has shape {g.shape}, expected ({problem.n},)")
    rhs = component.R.T @ g
    if not np.any(rhs):
        r = np.zeros(component.dim)
        return BlockResidual(component.index, r, 0.0)
    r = component.solve_local(rhs)
    return BlockResidual(
        component.index, r, float(np.sqrt(max(component.local_inner(r, r), 0.0)))
    )


def _component_lambda(problem, component):
    G = component.R.T @ (problem.A @ component.R)
    w = eigh(0.5 * (G + G.T), component.A_local, eigvals_only=True)
    return float(np.sqrt(max(w[-1], 0.0)))


def uniform_bound_lambda(problem, splitting):
    """Smallest constant with ||R_i v||_a <= Lambda ||v||_{a_i} for all i."""
    stored = getattr(splitting, "uniform_bound", None)
    if stored is not None:
        return float(stored)
    if splitting._lambda is None:
        splitting._lambda = max(_component_lambda(problem, c) for c in splitting)
    return splitting._lambda


@dataclass(frozen=True)
class StabilityConstants:
    lam_min: float
    lam_max: float
    kappa: float

    @property
    def stable(self):
        return np.isfinite(self.kappa)


def additive_schwarz_sum(problem, splitting):
    """The symmetric part sum_i R_i A_i^{-1} R_i^T of the additive operator."""
    n = problem.n
    S = np.zeros((n, n))
    for c in splitting:
        S += c.R @ c.solve_local(c.R.T)
    return S


def stability_constants(problem, splitting, rank_tol=1e-10):
    """Stability constants (lam_min, lam_max, kappa) of a finite splitting.

    The spectrum of the additive Schwarz operator P = sum_i R_i A_i^{-1} R_i^T A
    is computed from the congruent symmetric form L^T (sum_i R_i A_i^{-1} R_i^T) L
    with A = L L^T.  A rank-deficient splitting is reported with kappa = inf
    rather than raised.
    """
    L = cholesky(problem.A, lower=True)
    S = additive_schwarz_sum(problem, splitting)
    M = L.T @ S @ L
    w = eigh(0.5 * (M + M.T), eigvals_only=True)
    lam_min = float(w[0])
    lam_max = float(w[-1])
    if lam_min <= rank_tol * max(lam_max, 1.0):
        return StabilityConstants(lam_min, lam_max, float("inf"))
    return StabilityConstants(lam_min, lam_max, lam_max / lam_min)


def _min_energy_representation(problem, splitting, u):
    """The representation u = sum_i R_i v_i minimizing sum_i a_i(v_i, v_i),
    via the KKT system of the equality-constrained quadratic program."""
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
    sol = np.linalg.solve(kkt, rhs)
    v = sol[:total]
    blocks = []
    off = 0
    for d in dims:
        blocks.append(v[off : off + d])
        off += d
    return v, B, blocks


def representation_norm_sq(problem, splitting, u):
    """|||u|||^2 = min sum_i a_i(v_i, v_i) over representations u = sum_i R_i v_i.

    Serves as an independent cross-check of the spectral route used by
    :func:`stability_constants`.
    """
    v, B, _ = _min_energy_representation(problem, splitting, u)
    return float(v @ (B @ v))


def representation_block_norms(problem, splitting, u):
    """Per-component local energy norms ||v_i||_{a_i} of one explicit
    representation of ``u`` (the minimum-energy one).

    Their sum is an upper estimate of the ell^1-type class norm of ``u``,
    since that norm is an infimum over all representations.
    """
    _, _, blocks = _min_energy_representation(problem, splitting, u)
    return np.array(
        [
            np.sqrt(max(c.local_inner(v, v), 0.0))
            for c, v in zip(splitting, blocks)
        ]
    )


class MatrixSchwarzState:
    """Iteration state for a matrix problem: u and the cached product w = A u."""

    __slots__ = ("u", "w", "steps")

    def __init__(self, n):
        self.u = np.zeros(n)
        self.w = np.zeros(n)
        self.steps = 0


class MatrixSchwarzModel:
    """Solver-facing view of a (Problem, FiniteSplitting) pair.

    The cached product w = A u is updated incrementally and recomputed from
    scratch every ``refresh_every`` steps to cap floating-point drift.
    """

    refresh_every = 1000

    def __init__(self, problem, splitting):
        self.problem = problem
        self.splitting = splitting
        self.zero_tol = 1e-14 * (1.0 + float(np.linalg.norm(problem.b)))
        self._solution_norm = energy_norm(problem, problem.exact_solution)

    def component_count(self):
        return self.splitting.N

    def default_pool_indices(self):
        return self.splitting.indices()

    def new_state(self):
        return MatrixSchwarzState(self.problem.n)

    def local_residual(self, state, i):
        g = self.problem.b - state.w
        return local_solve(self.problem, self.splitting[i], g)

    def pool_local_norms(self, state, indices):
        g = self.problem.b - state.w
        out = np.empty(len(indices))
        for k, i in enumerate(indices):
            out[k] = local_solve(self.problem, self.splitting[i], g).local_norm
        return out

    def direction(self, i, r):
        return self.splitting[i].R @ r

    def dir_energy_sq(self, i, r):
        d = self.direction(i, r)
        return float(max(d @ (self.problem.A @ d), 0.0))

    def local_inner_sq(self, i, r):
        return float(max(self.splitting[i].local_inner(r, r), 0.0))

    def dir_functional(self, i, r):
        return float(self.problem.b @ self.direction(i, r))

    def dir_inner_current(self, state, i, r):
        return float(state.w @ self.direction(i, r))

    def current_energy_sq(self, state):
        return float(max(state.u @ state.w, 0.0))

    def current_functional(self, state):
        return float(self.problem.b @ state.u)

    def apply_update(self, state, i, r, alpha, omega):
        d = self.direction(i, r)
        state.u = alpha * state.u + omega * d
        state.steps += 1
        if state.steps % self.refresh_every == 0:
            state.w = self.problem.A @ state.u
        else:
            state.w = alpha * state.w + omega * (self.problem.A @ d)

    def error(self, state):
        e = self.problem.exact_solution - state.u
        return float(np.sqrt(max(e @ (self.problem.A @ e), 0.0)))

    def solution_norm(self):
        return self._solution_norm
