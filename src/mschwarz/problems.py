"""SPD variational problems, finite space splittings, and local subproblem solves.

A problem is the finite-dimensional realization of the variational equation
a(u, v) = F(v) with an SPD matrix A and right-hand side vector b.  A splitting
decomposes the space through restriction operators R_i with local SPD forms
A_i; the local solve computes the subproblem operator applied to the current
error, r_i = T_i e, from the global residual alone.
"""

from dataclasses import dataclass

import numpy as np

# The LAPACK and CSR kernels come from _kernels, which loads the two
# compiled modules of scipy that hold them, scipy.linalg._flapack and
# scipy.sparse._sparsetools, without importing the scipy.linalg and
# scipy.sparse packages: their __init__ costs about 0.3 s and 30 MB, a
# third of a Poisson run's wall time at n = 1024.  _kernels is imported
# inside the set-up functions that use it, never in a per-step one, so
# that a run loads it only when its config needs it (the diagonal model
# never does)


# Right-hand-side entries per multi-column local solve in the greedy scan.
# OpenBLAS runs a triangular solve with 1024 or more entries on its thread
# pool, and on a few cores that pool and numpy's contend (about 10 ms per
# call measured on 2 vCPUs, against 10 us single-threaded); a factor group is
# therefore solved in column blocks below that size.  The bits of a column do
# not depend on the block it is solved in.
SOLVE_BLOCK_ENTRIES = 1023

# Column piece of OpenBLAS's dgemv.  It sums a row of A @ d in pieces of this
# many columns and adds the pieces' sums, so a tile of A d (see
# MatrixSchwarzModel) whose columns cross a multiple of it would round its
# rows differently from the full product (rows 2047 and 2048 mismatched at
# every n > 2048); such a tile spans all columns instead.
DGEMV_COLUMN_PIECE = 2048

# The column multiple a tile of A d starts and ends on.  So aligned, every
# term of a row falls in the SIMD lane it has in the full row: in 40 random
# dense products at n = 1024, windows aligned to 1 or 2 columns mismatched
# and windows aligned to 4 or more matched; on the Poisson band at n in
# {1000, 1024, 2100, 4096}, 60 vectors each, alignments 4 to 64 all kept
# every bit, sign bits too.  16 leaves a margin over 4 and reads half the
# entries 64 does (96,256 against 188,416 for the band at n = 1024).
TILE_COLUMN_ALIGN = 16

# Rows per tile of A d: a tile then reads little more than the band of A.
TILE_ROWS = 64

# Width unit of a slab of the set-up's n x n products (see _slabs): slabs
# are multiples of it, about n / 8 wide.  Narrower slabs cost time, not
# bits: OpenBLAS packs the whole other factor again on every call (64-wide
# slabs made the n = 4096 stability pass 40% slower than the full products,
# 512-wide ones as fast).
SLAB_MIN = 64

# The n that split into slabs are multiples of this.  OpenBLAS computes the
# last n mod 8 columns of a product with edge kernels whose rounding depends
# on how the product is blocked (at n = 300, slabs of the last 172 or 256
# columns rounded those 4 columns differently from the full product), so
# any other n is one slab: the full product.
SLAB_N_MULTIPLE = 8

# stability_constants reports kappa = inf when lam_min is at most this
# fraction of max(lam_max, 1): the splitting is numerically rank-deficient.
RANK_TOL = 1e-10


class UnstableSplittingError(ValueError):
    """Raised when a finite splitting fails to span the full space."""


def _as_matrix(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def _symmetry_defect(A):
    """max |A - A.T| (nan or inf if an entry of A is not finite), over
    pairs of slabs (I, J >= I) so that no n x n temporary exists.  The
    caller tells a non-finite entry from an overflow, so neither warns."""
    slabs = _slabs(A.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        return np.max([np.abs(A[I, J] - A[J, I].T).max() for k, I in enumerate(slabs) for J in slabs[k:]])


def _band_block(band, r, c):
    """The rows ``r`` and columns ``c`` (slices) of the banded matrix whose
    tiles ``(rows, cols, tile)`` are ``band``, as a dense array: zero off the
    tiles."""
    out = np.zeros((r.stop - r.start, c.stop - c.start))
    for rows, cols, tile in band:
        lo, hi = max(rows.start, r.start), min(rows.stop, r.stop)
        left, right = max(cols.start, c.start), min(cols.stop, c.stop)
        if lo < hi and left < right:
            out[lo - r.start:hi - r.start, left - c.start:right - c.start] = \
                tile[lo - rows.start:hi - rows.start, left - cols.start:right - cols.start]
    return out


class Problem:
    """An SPD form A, functional b, and the direct-solve reference solution.

    A is given dense or as an object whose ``toarray()`` returns a new
    dense array (a scipy sparse matrix), and stored as its band: the
    contiguous copies of the row tiles :func:`image_tiles` finds from the
    CSR arrays ``_A_csr = (indptr, indices, data)`` of A, which are kept
    too (the bytes of scipy's ``csr_array(A)``, see
    :func:`mschwarz._kernels.csr_arrays`).  Every product with A is a
    band product (:meth:`_matvec`), which has the bits of the dense
    ``A @ v`` row by row (see :func:`image_tiles`).  ``A`` builds a dense
    copy on each access, for tests and outside callers; no library path
    reads it.

    The build holds one n x n array: its own C-ordered copy of A.  A
    non-finite entry is refused.  An exactly symmetric input is taken as
    it is; any other is checked and symmetrized in place, with the bits of
    ``0.5 * (A + A.T)``, and refused if that overflows.  The band is cut from the copy, and then the copy
    is factored in place, ``potrf(buf.T, overwrite_a=True)``:
    A is exactly symmetric, so ``buf.T`` is the Fortran-ordered matrix
    ``dpotrf`` would get as the copy ``cholesky(A, lower=True)`` makes, and
    the factor has its bits.  The solution and the residual check are
    solved with it; ``dpotrs`` reads only its lower triangle, so the solves
    have the bits they have on ``cho_factor``'s factor.  Then the clean
    lower factor L is kept as tiles ``_L_band`` over the tiles of A's band
    (Cholesky adds no fill outside the profile of A, and a tile spans its
    rows' profile and diagonal) and the copy is freed.  :func:`stability_constants`
    multiplies with L's column slabs rebuilt from those tiles instead of
    factoring A again.  The band, b and the solution are copies: the
    problem never aliases the caller's arrays.
    """

    def __init__(self, A, b, exact_solution=None):
        from ._kernels import csr_arrays, potrf, potrs

        buf = _as_matrix(A.toarray() if hasattr(A, "toarray") else np.array(A, dtype=float, order="C"))
        b = np.array(b, dtype=float)
        n = buf.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        if not np.isfinite(b).all():
            raise ValueError("b must be finite")
        # the defect is nan or inf if an entry is; it is inf too if a
        # difference of finite entries overflows, which is no symmetric A
        sym_defect = _symmetry_defect(buf)
        if not np.isfinite(sym_defect) and not all(np.isfinite(buf[r]).all() for r in _slabs(n)):
            raise ValueError("A must be finite")
        if sym_defect != 0.0:
            scale = max(-buf.min(), buf.max(), 1e-300)
            if sym_defect > 1e-12 * scale:
                raise ValueError(f"A is not symmetric: defect {sym_defect:.3e}")
            _symmetrize_in_place(buf)
            # 0.5 * (a + b) overflows if a + b does (entries above 8.9e307)
            if not all(np.isfinite(buf[r]).all() for r in _slabs(n)):
                raise ValueError("A is too large: symmetrizing it overflows")
        self._A_csr = csr_arrays(buf)
        tiles = image_tiles(*self._A_csr[:2])
        # copies, never views: a view would keep the whole n x n buffer alive
        self._band = [(rows, cols, buf[rows, cols].copy()) for rows, cols in tiles]
        # A is finite (checked above), so potrf skips the check that would
        # scan it again with an n x n boolean temporary
        try:
            L = potrf(buf.T, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError("A is not positive definite") from exc
        self.b = b
        self.n = n
        # b and the solution are checked here, so that the solves skip
        # potrs' check, which would also scan L with an n x n boolean
        # temporary
        if exact_solution is None:
            exact_solution = potrs(L, b, check_finite=False)
        else:
            exact_solution = np.array(exact_solution, dtype=float)
        if not np.isfinite(exact_solution).all():
            raise ValueError("exact solution must be finite")
        self.exact_solution = exact_solution
        # residual measured in the dual norm, i.e. as the energy norm of the
        # solution error it induces (the A-norm of the raw residual vector is
        # not reachable in float64 once A is ill-conditioned); a residual
        # that overflowed fails too
        res = self._matvec(exact_solution) - b
        sol_norm = energy_norm(self, exact_solution)
        if not np.isfinite(res).all() or energy_norm(
                self, potrs(L, res, check_finite=False)) > 1e-10 * max(sol_norm, 1e-300):
            raise ValueError("supplied exact solution does not solve A u = b")
        self._L_band = [(rows, cols, L[rows, cols].copy()) for rows, cols in tiles]

    @property
    def A(self):
        """A dense copy of A, built from the band on each access."""
        return self._rows(slice(0, self.n))

    def _band_tiles(self, lo, hi):
        """The band tiles that cover the rows [lo, hi): tile k starts at row
        k * TILE_ROWS, and the last one may hold one row more."""
        last = len(self._band)
        return self._band[min(lo // TILE_ROWS, last - 1):min(-(-hi // TILE_ROWS), last)]

    def _matvec(self, v, tiles=None):
        """A @ v from the band ``tiles`` (all of them by default), each
        ``tile @ v[cols]``; rows outside the tiles are +0.0.  ``np.dot``
        writes each tile's rows in place with the ``dgemv`` call of
        ``tile @ v[cols]``, so with its bits and no temporary."""
        out = np.zeros(self.n)
        for rows, cols, tile in self._band if tiles is None else tiles:
            np.dot(tile, v[cols], out=out[rows])
        return out

    def _rows(self, r, c=None):
        """The rows ``r`` and columns ``c`` (slices; all columns by default)
        of A as a dense array."""
        return _band_block(self._band_tiles(r.start, r.stop), r, c or slice(0, self.n))


def energy_norm(problem, v):
    """Energy norm sqrt(v^T A v) of a vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({problem.n},)")
    return float(np.sqrt(max(v @ problem._matvec(v), 0.0)))


@dataclass
class BlockResidual:
    """The record of one step: the local solution r_i = T_i e of component
    ``index``, its local energy, and the direction d = R_i r with its image.

    ``local_energy`` is max(r . A_i r, 0), the square under ``local_norm``,
    as the solve or the scan computed it.  ``d`` and ``Ad`` = A d are None
    until :meth:`MatrixSchwarzModel.step` fills them; the relaxation
    parameters and the update read them from here.
    """

    index: int
    r: np.ndarray
    local_norm: float
    local_energy: float
    d: np.ndarray = None
    Ad: np.ndarray = None


class SplittingComponent:
    """One component of a splitting: restriction R_i and local SPD form A_i.

    R_i is stored as ``rows``, the slice [lo, hi) from its first nonzero
    row to its last, and ``block``, those rows of R_i as a dense array, or
    None for the identity (a :class:`CoordinateBlock`); the dense n-row R
    is built only on request.  Prolongation has the bits of ``R @ r``.  So
    has restriction, unless R has several nonzeros in a column and [lo, hi)
    is not all of R^n: it then sums over [lo, hi) alone, which may round
    the last bits of ``R.T @ g`` differently.
    """

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
        nonzero = np.flatnonzero(R.any(axis=1))
        self.n = R.shape[0]
        self.rows = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        # a copy in R's layout: the products round as R's, and R is not kept
        self.block = R[self.rows].copy(order="K")
        self._set_local_form(index, A_local)

    def _set_local_form(self, index, A_local):
        from ._kernels import flapack, potrf

        A_local = 0.5 * (A_local + A_local.T)
        try:
            self._chol = potrf(A_local, clean=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"component {index}: A_i is not positive definite") from exc
        # the LAPACK routine cho_solve calls: a local solve is one direct
        # call instead of the checks of cho_solve or _kernels.potrs
        self._potrs = flapack.dpotrs
        self.index = index
        self.A_local = A_local
        self.dim = A_local.shape[0]

    @property
    def R(self):
        R = np.zeros((self.n, self.dim))
        R[self.rows] = np.eye(self.dim) if self.block is None else self.block
        return R

    def restrict(self, g):
        """R_i^T g."""
        return g[self.rows] if self.block is None else self.block.T @ g[self.rows]

    def prolong(self, r):
        """R_i r, a dense block's rows written in place as in :meth:`Problem._matvec`."""
        d = np.zeros(self.n)
        if self.block is None:
            d[self.rows] = r
        else:
            np.dot(self.block, r, out=d[self.rows])
        return d

    def galerkin(self, problem):
        """R_i^T A R_i from A[rows, rows], for a dense block with A R_i in
        the row slabs of :func:`_slabs`: on all rows the bits of
        ``R.T @ (A @ R)`` without the dense A."""
        if self.block is None:
            return problem._rows(self.rows, self.rows)
        lo = self.rows.start
        AR = np.empty(self.block.shape)
        for r in _slabs(len(AR)):
            AR[r] = problem._rows(slice(lo + r.start, lo + r.stop), self.rows) @ self.block
        return self.block.T @ AR

    def solve_local(self, rhs):
        x, info = self._potrs(self._chol, rhs, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    def local_inner(self, v, w):
        return float(v @ (self.A_local @ w))

    def local_energies(self, xs):
        """max(x . A_i x, 0) for every row x of ``xs``.

        The two stacked products run, row by row, the same matrix-vector
        and dot products as ``local_inner(x, x)``, so each value has its bits.
        """
        Ax = np.matmul(self.A_local, xs[:, :, None])
        return np.maximum(np.matmul(xs[:, None, :], Ax)[:, 0, 0], 0.0)


class CoordinateBlock(SplittingComponent):
    """The component R = I[:, start:stop] of R^n: ``rows`` [start, stop)
    and ``block`` None.  Restriction is a slice and prolongation a scatter,
    exactly the values of R^T g and R r, so a run on blocks is
    bit-identical to one on the dense R.
    """

    def __init__(self, index, n, start, stop, A_local):
        if not 0 <= start < stop <= n:
            raise ValueError(f"component {index}: coordinates {start}..{stop - 1} outside 0..{n - 1}")
        A_local = _as_matrix(A_local)
        if A_local.shape[0] != stop - start:
            raise ValueError(
                f"component {index}: {stop - start} coordinates, A_i is "
                f"{A_local.shape[0]}x{A_local.shape[1]}"
            )
        self.n = n
        self.rows = slice(start, stop)
        self.block = None
        self._set_local_form(index, A_local)


class FiniteSplitting:
    """A finite family of components whose stacked ranges span the full space.

    The components are numbered 1..N in order: component i is
    ``components[i - 1]``, and any other numbering is a ``ValueError``.  So
    is asking for a component outside 1..N; a config whose rule could ask
    is refused when it is built (see ``ExperimentConfig.build_selection``).

    Components whose local forms are byte-equal (the overlapping blocks of
    a uniform grid) are given one shared copy of the form and its factor.

    Nothing computed from a (problem, splitting) pair is kept on the
    splitting: each set-up function computes from the pair it is given,
    and builds the additive Schwarz sum it needs and consumes it (see
    :func:`additive_schwarz_sum`).
    """

    def __init__(self, problem, components):
        if not components:
            raise ValueError("splitting needs at least one component")
        self.components = list(components)
        self.N = len(components)
        for k, c in enumerate(self.components, 1):
            if c.index != k:
                raise ValueError(f"component {k} of the splitting has index {c.index}: "
                                 f"components must be numbered 1..{self.N} in order")
        # equal forms factor alike, so one copy of each serves them all
        forms = {}
        for c in self.components:
            c.A_local, c._chol = forms.setdefault(c.A_local.tobytes(), (c.A_local, c._chol))
        covered = np.zeros(problem.n, dtype=bool)
        for c in self.components:
            if c.n != problem.n:
                raise ValueError(f"component {c.index} acts on R^{c.n}, the problem on R^{problem.n}")
            if c.block is None:
                covered[c.rows] = True
        # coordinate blocks covering every coordinate span the space by
        # themselves; otherwise the stacked ranges need a rank check
        if not covered.all() and np.linalg.matrix_rank(
            np.hstack([c.R for c in self.components])
        ) < problem.n:
            raise UnstableSplittingError(
                "component ranges do not span the space (rank-deficient splitting)"
            )
        self.n = problem.n

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        if not 1 <= i <= self.N:
            raise ValueError(f"no component {i}: the splitting has components 1..{self.N}")
        return self.components[i - 1]

    def indices(self):
        return np.arange(1, self.N + 1)


def local_solve(problem, component, g):
    """Solve the local variational subproblem A_i r_i = R_i^T g.

    ``g`` is the current global residual b - A u, so r_i = T_i e for the
    current error e without knowledge of the exact solution.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (problem.n,):
        raise ValueError(f"residual has shape {g.shape}, expected ({problem.n},)")
    rhs = component.restrict(g)
    if not rhs.any():
        r = np.zeros(component.dim)
        return BlockResidual(component.index, r, 0.0, 0.0)
    r = component.solve_local(rhs)
    energy = max(component.local_inner(r, r), 0.0)
    return BlockResidual(component.index, r, float(np.sqrt(energy)), float(energy))


def _component_lambda(G, A_local):
    """sqrt of the largest eigenvalue of the pencil (sym(G), A_local)."""
    from ._kernels import eigvalsh_pencil

    w = eigvalsh_pencil(0.5 * (G + G.T), A_local)
    return float(np.sqrt(max(w[-1], 0.0)))


def uniform_bound_lambda(problem, splitting):
    """Smallest constant with ||R_i v||_a <= Lambda ||v||_{a_i} for all i.

    The generalized eigenproblem is solved once per distinct byte-equal
    (Galerkin block, local form) pair: the overlapping blocks of a uniform
    grid share one, and equal inputs give equal eigenvalues.
    """
    lams = {}
    for c in splitting:
        G = c.galerkin(problem)
        key = (G.tobytes(), c.A_local.tobytes())
        if key not in lams:
            lams[key] = _component_lambda(G, c.A_local)
    return max(lams.values())


@dataclass(frozen=True)
class StabilityConstants:
    lam_min: float
    lam_max: float
    kappa: float


def _slabs(n):
    """The slices of [0, n) in slabs of about n / 8, for the slab products
    of :func:`additive_schwarz_sum` and :func:`_congruence_in_place`.

    The width is n / 8 rounded up to a multiple of SLAB_MIN, so slabs start
    on multiples of it (at n = 1560, 195-wide slabs mismatched).  A
    remainder narrower than SLAB_MIN joins the slab before it: numpy
    computes a product with one row or column with ``dgemv``, and OpenBLAS
    one with 8, 16 or 32 on a small matrix with a kernel of its own
    (n = 136 mismatched with an 8-row remainder).  An n that is not a
    multiple of SLAB_N_MULTIPLE is one slab.  Then each entry of a slab
    product is the same ``dgemm`` sum as in the full product, so it has its
    bits: a property of the BLAS that tests pin, as for the tiles of A d.
    """
    if n % SLAB_N_MULTIPLE:
        return [slice(0, n)]
    width = SLAB_MIN * -(-n // (8 * SLAB_MIN))
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] < SLAB_MIN:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def additive_schwarz_sum(problem, splitting):
    """The symmetric part S = sum_i R_i A_i^{-1} R_i^T of the additive operator.

    A new n x n array, not kept: the caller consumes it in place.  Each
    term is added on its rows and columns [lo, hi), ``S[rows, rows]``: the
    inverse A_i^{-1} for the identity block, and for a dense block B the
    product B X with X = A_i^{-1} B^T, in row slabs of B, which over all
    of R^n has the bits of ``S += R @ X`` without its n x n temporary.
    """
    n = problem.n
    S = np.zeros((n, n))
    for c in splitting:
        term = S[c.rows, c.rows]
        if c.block is None:
            term += c.solve_local(np.eye(c.dim))
        else:
            X = c.solve_local(c.block.T)
            for r in _slabs(len(term)):
                term[r] += c.block[r] @ X
    return S


def _congruence_in_place(L_band, S):
    """Overwrite S with M = L^T S L for the lower triangular L whose tiles
    are ``L_band`` (see :func:`_band_block`), with one column slab of L
    rebuilt at a time: no second n x n array exists unless n is one slab
    (see :func:`_slabs`).

    L^T S goes in row slabs r of the result in increasing order, each
    written back into S: ``S[r] = L[:, r].T @ S``.  L^T is upper
    triangular, so the rows of S a later slab reads once they were
    overwritten meet only the exact zeros of L's clean upper triangle, and
    0 x changes no sum of finite values.  (L^T S) L goes in column slabs c
    in increasing order, ``M[:, c] = M @ L[:, c]``, by the same argument.
    Each slab product is taken in the two halves of its other dimension,
    runs of about half the slabs, so the temporary is half a slab; every
    piece is a block of the full product on slab boundaries, so it has its
    bits.  Smaller pieces cost time, as OpenBLAS packs both factors again
    on every call: at n = 4096 with one thread, pieces one slab wide took
    the congruence 9.6 s, halves 6.0 s, whole slabs 6.1 s and the two full
    products 5.6 s.
    """
    n = S.shape[0]
    slabs, whole = _slabs(n), slice(0, n)
    k = -(-len(slabs) // 2)
    halves = [slice(g[0].start, g[-1].stop) for g in (slabs[:k], slabs[k:]) if g]
    for r in slabs:
        Lr = _band_block(L_band, whole, r)
        for c in halves:
            S[r, c] = Lr.T @ S[:, c]
        del Lr  # freed before the next slab is rebuilt
    for c in slabs:
        Lc = _band_block(L_band, whole, c)
        for r in halves:
            S[r, c] = S[r] @ Lc
        del Lc
    return S


def _transpose_in_place(M):
    """Overwrite M with M.T, over pairs of slabs (I, J >= I)."""
    slabs = _slabs(M.shape[0])
    for k, I in enumerate(slabs):
        for J in slabs[k:]:
            t = M[I, J].copy()
            M[I, J] = M[J, I].T
            M[J, I] = t.T
    return M


def _symmetrize_in_place(M):
    """Overwrite M with 0.5 * (M + M.T), over pairs of slabs (I, J >= I).

    ``np.add(M, M.T, out=M)`` would buffer a copy of M.T; the bits are
    those of 0.5 * (M + M.T) because a + b == b + a in floating point.
    """
    slabs = _slabs(M.shape[0])
    for k, I in enumerate(slabs):
        for J in slabs[k:]:
            t = M[I, J] + M[J, I].T
            t *= 0.5
            M[I, J] = t
            M[J, I] = t.T
    return M


def stability_constants(problem, splitting):
    """Stability constants (lam_min, lam_max, kappa) of a finite splitting.

    The spectrum of the additive Schwarz operator P = sum_i R_i A_i^{-1} R_i^T A
    is computed from the congruent symmetric form L^T (sum_i R_i A_i^{-1} R_i^T) L
    with A = L L^T.  L is the factor the problem stores
    as tiles; its column slabs are rebuilt one at a time.  The whole
    computation lives in one n x n buffer: S is built, overwritten with the
    form in slabs (:func:`_congruence_in_place`, :func:`_symmetrize_in_place`)
    and handed to ``eigvalsh`` to overwrite.  A
    rank-deficient splitting (see RANK_TOL) is reported with kappa = inf
    rather than raised.
    """
    from ._kernels import eigvalsh

    M = _congruence_in_place(problem._L_band, additive_schwarz_sum(problem, splitting))
    _symmetrize_in_place(M)
    # M is exactly symmetric, so its Fortran-ordered view M.T is the same
    # matrix, and dsyevr works on it in place instead of on a copy
    w = eigvalsh(M.T)
    lam_min, lam_max = float(w[0]), float(w[-1])
    if lam_min <= RANK_TOL * max(lam_max, 1.0):
        return StabilityConstants(lam_min, lam_max, float("inf"))
    return StabilityConstants(lam_min, lam_max, lam_max / lam_min)


def representation_block_norms(problem, splitting, u):
    """Per-component local energy norms ||v_i||_{a_i} of one explicit
    representation of ``u`` (the minimum-energy one).

    Their sum is an upper estimate of the ell^1-type class norm of ``u``,
    since that norm is an infimum over all representations.  The minimizer
    is v_i = A_i^{-1} R_i^T S^{-1} u with the additive Schwarz sum S (the
    stationarity condition of the quadratic program), so one n x n solve
    replaces the KKT system of size sum_i d_i + n.

    S is transposed in place, so that its Fortran-ordered view is S, and
    factored in place: it is the one n x n array of the computation,
    and ``dpotrf`` gets the matrix it would get as the copy ``cho_factor``
    makes of a C-ordered S.  (Building S Fortran-ordered costs more than
    the transposition: numpy adds the C-ordered products into it slowly.)
    """
    from ._kernels import potrf, potrs

    S = _transpose_in_place(additive_schwarz_sum(problem, splitting)).T
    y = potrs(potrf(S, overwrite_a=True, clean=False), np.asarray(u, dtype=float))
    norms = []
    for c in splitting:
        v = c.solve_local(c.restrict(y))
        norms.append(np.sqrt(max(c.local_inner(v, v), 0.0)))
    return np.array(norms)


def image_tiles(indptr, indices):
    """The tiles ``(rows, cols)`` of the rows of the n x n matrix A, whose
    CSR pattern is ``indptr`` and ``indices``, for a tiled A @ d.

    Rows go in tiles of TILE_ROWS; a one-row remainder joins the tile
    before it, because numpy computes a one-row product with ``ddot``, not
    ``dgemv``.  A tile's columns are the stored columns of its rows, widened
    out to multiples of TILE_COLUMN_ALIGN (or to n), and to all columns when
    they cross a multiple of DGEMV_COLUMN_PIECE.  Then, row by row,
    ``A[rows, cols] @ d[cols]`` has the bits of ``A @ d``, on a strided view
    of A as on a contiguous copy of the tile.  ``A @ d`` here is the
    one-thread product: a BLAS thread whose share ends on fewer than 4 rows
    rounds them with another kernel.  The tiles are the band a
    :class:`Problem` stores.
    """
    n = len(indptr) - 1
    starts = list(range(0, n, TILE_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    tiles = []
    for start, stop in zip(starts, starts[1:] + [n]):
        cols = indices[indptr[start]:indptr[stop]]
        first = int(cols.min()) // TILE_COLUMN_ALIGN * TILE_COLUMN_ALIGN
        last = min(-(-(int(cols.max()) + 1) // TILE_COLUMN_ALIGN) * TILE_COLUMN_ALIGN, n)
        if first // DGEMV_COLUMN_PIECE != (last - 1) // DGEMV_COLUMN_PIECE:
            first, last = 0, n
        tiles.append((slice(start, stop), slice(first, last)))
    return tiles


class MatrixSchwarzState:
    """Iteration state for a matrix problem: u and the cached product w = A u.

    :meth:`MatrixSchwarzModel.apply_update` overwrites u and w in place (w
    is replaced by a fresh array on a refresh), so a caller that keeps
    either across a step keeps a copy.
    """

    __slots__ = ("u", "w", "steps")

    def __init__(self, n):
        self.u = np.zeros(n)
        self.w = np.zeros(n)
        self.steps = 0


class MatrixSchwarzModel:
    """Solver-facing view of a (Problem, FiniteSplitting) pair.

    The cached product w = A u is updated incrementally and recomputed from
    scratch every ``refresh_every`` steps to cap floating-point drift.

    Every product that feeds omega, alpha, u or w (A d, b.d, w.d, d.Ad) has
    the bits of the dense one, so a run's picks do not depend on how A is
    stored: on splittings with exactly tied local norms rounding decides
    the pick.  A is the problem's band of row tiles (see :class:`Problem`
    and :func:`image_tiles`).  A d for d = R_i r multiplies the band tiles
    that cover the rows [lo, hi) of A that R_i reaches, found once per
    component from the problem's CSR pattern, ``Ad[rows] = tile @ d[cols]``;
    every other row, and every row of those tiles that R_i does not reach,
    is the +0.0 the full product gives.  Each tiled row is the same BLAS
    ``dgemv`` over the same nonzero terms as in the one-thread A @ d (see
    :func:`image_tiles`), so the same bits, by three properties of the BLAS
    and numpy that tests pin: the columns start and end on multiples of
    TILE_COLUMN_ALIGN (or at n), so every term keeps its SIMD lane; a tile
    whose columns would cross a multiple of DGEMV_COLUMN_PIECE, where the
    full product starts a new piece of its row sums, spans all columns; and
    no tile has a single row, which numpy would hand to ``ddot``.  The two-level coarse component reaches every row but
    is multiplied on little more than the band of A.  The refresh of w is
    the product with the whole band: still a recompute of A u from scratch.
    The reported error uses the problem's CSR arrays of A: ``A e`` is
    scipy's ``csr_matvec`` kernel called directly on a zeroed output, which
    is what scipy's ``csr_array @ e`` runs after its dispatch (a test pins
    the two).  e and A e go into two buffers the model owns, which hold
    nothing between calls, so one model can still drive several runs at
    once.

    The greedy pool scan works on factor groups: components that restrict
    alike (all identity blocks or all dense ones) and whose local forms and
    stored Cholesky factors are byte-equal (all overlapping blocks of a
    uniform Poisson grid) share one.  Per group a scan gathers the local
    right-hand sides as the columns of one matrix, solves them with one
    ``potrs`` call per column block of fewer than SOLVE_BLOCK_ENTRIES
    entries and takes the local norms with two stacked ``matmul`` calls.  Column by column this is the computation of
    :func:`local_solve`: that a multi-column ``potrs`` and a stacked
    ``matmul`` round each column as the single-column calls do is a
    property of the BLAS, which the tests pin against the per-component
    loop.  A one-member group goes through the same code.

    A step's quantities live on its :class:`BlockResidual`, not on the
    model: :meth:`step` fills the record's d = R_i r and A d once, and the
    relaxation parameters and :meth:`apply_update` read them there.  The
    scan hands back, with the norms, a function that builds the winner's
    record from the scan's own solution, so the winner is not solved again.
    The scan plan is fixed when the model is built, for all N components,
    and a run changes no attribute of the model, so one model can drive
    several runs at once.
    """

    refresh_every = 1000

    def __init__(self, problem, splitting):
        if splitting.n != problem.n:
            raise ValueError(f"the splitting acts on R^{splitting.n}, the problem on R^{problem.n}")
        self.problem = problem
        self.splitting = splitting
        self.zero_tol = 1e-14 * (1.0 + float(np.linalg.norm(problem.b)))
        self._solution_norm = energy_norm(problem, problem.exact_solution)
        # the rows of A that A R_i r can reach: R_i r vanishes off the rows
        # [lo, hi) of R_i and A is symmetric, so they are the stored columns
        # of those rows of A, O(nnz)
        indptr, indices, _ = problem._A_csr
        reached = [indices[indptr[c.rows.start]:indptr[c.rows.stop]] for c in splitting]
        self._tiles = [problem._band_tiles(int(cols.min()), int(cols.max()) + 1) for cols in reached]
        # the scan plan of all components: per column block of a factor
        # group its component positions, its components and the coordinate
        # gather array (None for dense blocks); per component its (block, row)
        groups = {}
        for k, c in enumerate(splitting):
            key = (c.block is None, c.A_local.tobytes(), c._chol.tobytes())
            groups.setdefault(key, []).append(k)
        self._blocks, self._where = [], [None] * splitting.N
        for ks in groups.values():
            dim = splitting.components[ks[0]].dim
            width = max(1, SOLVE_BLOCK_ENTRIES // dim)
            for b in range(0, len(ks), width):
                block = ks[b:b + width]
                comps = [splitting.components[k] for k in block]
                gather = (np.array([c.rows.start for c in comps])[:, None] + np.arange(dim)
                          if comps[0].block is None else None)
                for j, k in enumerate(block):
                    self._where[k] = (len(self._blocks), j)
                self._blocks.append((np.array(block), comps, gather))
        # the work buffers of error(), e and A e, and its CSR kernel
        from ._kernels import csr_matvec

        self._e = np.empty(problem.n)
        self._Ae = np.empty(problem.n)
        self._csr_matvec = csr_matvec

    def component_count(self):
        return self.splitting.N

    def default_pool_indices(self):
        return self.splitting.indices()

    def new_state(self):
        return MatrixSchwarzState(self.problem.n)

    def local_residual(self, state, i):
        return self.step(local_solve(self.problem, self.splitting[i], self.problem.b - state.w))

    def pool_local_norms(self, state):
        """The local norms of components 1..N at ``state``, in that order,
        and a function that builds the step record of component i from the
        scan's solution (valid until ``state`` changes).  A greedy pool of
        the first k components reads the first k norms."""
        g = self.problem.b - state.w
        if g.shape != (self.problem.n,):
            raise ValueError(f"residual has shape {g.shape}, expected ({self.problem.n},)")
        out = np.empty(self.splitting.N)
        solved = []
        for ks, comps, gather in self._blocks:
            # one column per member: its local right-hand side R_i^T g
            if gather is not None:
                rhs = g[gather].T
            else:
                rhs = np.array([c.restrict(g) for c in comps]).T
            xs = comps[0].solve_local(rhs).T
            nonzero = rhs.any(axis=0)
            if not nonzero.all():
                xs[~nonzero] = 0.0
            energies = comps[0].local_energies(xs)
            norms = np.sqrt(energies)
            out[ks] = norms
            solved.append((xs, norms, energies))

        def residual(i):
            p, j = self._where[int(i) - 1]
            xs, norms, energies = solved[p]
            return self.step(BlockResidual(int(i), xs[j], float(norms[j]), float(energies[j])))

        return out, residual

    def step(self, res):
        """Fill the record's direction d = R_i r and its tiled image A d."""
        res.d = self.splitting[res.index].prolong(res.r)
        res.Ad = self.problem._matvec(res.d, self._tiles[res.index - 1])
        return res

    def dir_energy_sq(self, res):
        return float(max(res.d @ res.Ad, 0.0))

    def dir_functional(self, res):
        return float(self.problem.b @ res.d)

    def dir_inner_current(self, state, res):
        return float(state.w @ res.d)

    def current_energy_sq(self, state):
        return float(max(state.u @ state.w, 0.0))

    def current_functional(self, state):
        return float(self.problem.b @ state.u)

    def apply_update(self, state, res, alpha, omega):
        """u <- alpha u + omega d and w <- alpha w + omega A d, in place:
        each entry is rounded as in the expression ``alpha * u + omega * d``."""
        np.multiply(state.u, alpha, out=state.u)
        state.u += omega * res.d
        state.steps += 1
        if state.steps % self.refresh_every == 0:
            state.w = self.problem._matvec(state.u)
        else:
            np.multiply(state.w, alpha, out=state.w)
            state.w += omega * res.Ad

    def error(self, state):
        e, Ae = self._e, self._Ae
        np.subtract(self.problem.exact_solution, state.u, out=e)
        Ae.fill(0.0)
        self._csr_matvec(self.problem.n, self.problem.n, *self.problem._A_csr, e, Ae)
        return float(np.sqrt(max(e @ Ae, 0.0)))

    def solution_norm(self):
        return self._solution_norm
