"""Finite-difference 1D Poisson test problems with block splittings.

A = (n+1)^2 tridiag(-1, 2, -1) on the interior grid points of (0, 1), right
hand side from f = 1 sampled on the grid.  Splittings are overlapping
coordinate blocks (exact local forms A_i = R_i^T A R_i, stored as their row
range with no block), optionally augmented with a coarse linear-interpolation
component, whose hats leave no row zero: its block is all of R.
"""

from types import SimpleNamespace

import numpy as np

from .problems import CoordinateBlock, FiniteSplitting, Problem, SplittingComponent

# largest grid: the set-up holds one dense n x n array at a time (A while
# the problem factors it in place, then the additive Schwarz sum S), so
# n = 4096 already takes 128 MB for it
MAX_GRID = 4096


def poisson_matrix(n):
    h_inv_sq = (n + 1) ** 2
    A = np.zeros((n, n))
    np.fill_diagonal(A, 2.0 * h_inv_sq)
    idx = np.arange(n - 1)
    A[idx, idx + 1] = -h_inv_sq
    A[idx + 1, idx] = -h_inv_sq
    return A


def overlapping_blocks(n, block_size, overlap):
    """Start offsets and extents of overlapping blocks covering 0..n-1."""
    if not 0 < block_size <= n:
        raise ValueError(f"block size {block_size} outside 1..{n}")
    if not 0 <= overlap < block_size:
        raise ValueError(f"overlap {overlap} must be in 0..{block_size - 1}")
    stride = block_size - overlap
    starts = list(range(0, max(n - block_size, 0) + 1, stride))
    if starts[-1] + block_size < n:
        starts.append(n - block_size)
    return [(s, min(block_size, n - s)) for s in starts]


def coarse_interpolation(n, stride):
    """Linear interpolation from coarse points {stride, 2 stride, ...}."""
    coarse = np.arange(stride, n + 1, stride)
    coarse = coarse[coarse <= n]
    if coarse.size == 0:
        raise ValueError(f"coarse stride {stride} leaves no coarse points for n={n}")
    nodes = np.concatenate([[0], coarse, [n + 1]])  # boundary points included
    R = np.zeros((n, coarse.size))
    grid = np.arange(1, n + 1)
    for k, c in enumerate(coarse):
        left, right = nodes[k], nodes[k + 2]
        hat = np.zeros(n)
        rising = (grid >= left) & (grid <= c)
        falling = (grid > c) & (grid <= right)
        hat[rising] = (grid[rising] - left) / (c - left)
        hat[falling] = (right - grid[falling]) / (right - c)
        R[:, k] = hat
    return R


def make_poisson_1d(n, splitting_spec):
    """Build the Poisson problem and a splitting described by ``splitting_spec``.

    ``splitting_spec`` is a dict: {"kind": "overlapping_blocks", "block_size": b,
    "overlap": o} or {"kind": "two_level", "coarse_stride": s, "block_size": b,
    "overlap": o} (the two-level variant adds one coarse interpolation
    component to the blocks).
    """
    if n < 1 or n > MAX_GRID:
        raise ValueError(f"grid size n={n} outside 1..{MAX_GRID}")
    kind = splitting_spec.get("kind")
    if kind not in ("overlapping_blocks", "two_level"):
        raise ValueError(f"unknown splitting kind {kind!r}")
    block_size = int(splitting_spec.get("block_size", n))
    overlap = int(splitting_spec.get("overlap", 0))
    A = poisson_matrix(n)
    components = []
    for start, extent in overlapping_blocks(n, block_size, overlap):
        stop = start + extent
        components.append(
            CoordinateBlock(len(components) + 1, n, start, stop, A[start:stop, start:stop])
        )
    if kind == "two_level":
        R = coarse_interpolation(n, int(splitting_spec["coarse_stride"]))
        components.append(SplittingComponent(len(components) + 1, R, R.T @ A @ R))
    # the local forms are copies, so the dense A goes before the problem
    # builds and factors its own, which toarray hands over without a copy:
    # one n x n array at a time
    del A
    problem = Problem(SimpleNamespace(toarray=lambda: poisson_matrix(n)), np.ones(n))
    return problem, FiniteSplitting(problem, components)
