"""Greedy convergence on a geometric coefficient sequence.

Runs the weak greedy iteration with the averaged relaxation schedule on the
orthonormal diagonal model with c_i = 2^{-i}, compares the squared energy
error against its a-priori O(1/m) bound, and fits the observed rate.
"""

import numpy as np

from mschwarz import (
    FixedPool,
    GAWRRelaxation,
    GreedyBoundSpec,
    GreedyRule,
    a1_norm,
    fit_rate,
    greedy_bound,
    make_diagonal,
    run,
)


def main():
    model = make_diagonal({i: 2.0 ** -i for i in range(1, 31)})
    M = 5000
    print(f"target: 30 geometric coefficients, ||u||_a = {model.solution_norm():.6f}, "
          f"||u||_A1 = {a1_norm(model):.6f}")
    for beta in (1.0, 0.5):
        trace = run(model, GreedyRule(beta, FixedPool()), GAWRRelaxation(), M)
        spec = GreedyBoundSpec(
            norm_a=model.solution_norm(), lam=1.0, beta=beta, a1=a1_norm(model)
        )
        ms = np.arange(M + 1)
        bound = greedy_bound(ms, spec)
        margin = (bound - trace.error_sq).min()
        fit = fit_rate(trace.error, m_range=(M // 10, M))
        print(f"beta = {beta}:")
        print(f"  final squared error  {trace.error_sq[-1]:.3e}")
        print(f"  bound at m = {M}      {bound[-1]:.3e}  (min margin {margin:.3e})")
        print(f"  fitted log-log slope {fit.slope:+.3f}  "
              f"(theory guarantees at most -1/2 for the error)")


if __name__ == "__main__":
    main()
