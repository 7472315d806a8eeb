"""Greedy and randomized multiplicative Schwarz iterations over space splittings."""

from .analysis import (
    ExpectationEstimate,
    GreedyBoundSpec,
    GreedyDensityBoundSpec,
    Lemma3Result,
    RandomBoundSpec,
    RandomDensityBoundSpec,
    RateFit,
    bruteforce_expected_error,
    chebyshev_tail,
    density_bound,
    exact_expected_error,
    fit_rate,
    greedy_bound,
    lemma3_check,
    lemma3_sweep,
    mc_expected_error,
    pcons_envelope_constant,
    pcons_sum,
    random_bound,
)
from .config import ConfigError, ExperimentConfig, parse_config, serialize
from .diagonal import DiagonalModel, a1_norm, ainfty_pi_norm, make_diagonal
from .distributions import (
    ExplicitDistribution,
    LogFamilyDistribution,
    PowerLawDistribution,
    TruncatedSchedule,
    truncate_distribution,
    uniform_distribution,
)
from .poisson import make_poisson_1d
from .problems import (
    BlockResidual,
    CoordinateBlock,
    FiniteSplitting,
    MatrixSchwarzModel,
    Problem,
    SplittingComponent,
    StabilityConstants,
    energy_norm,
    local_solve,
    representation_block_norms,
    stability_constants,
    uniform_bound_lambda,
)
from .solver import (
    DeterministicRule,
    FixedPool,
    GAWRRelaxation,
    GreedyRule,
    GrowingPool,
    IterationTrace,
    PureRelaxation,
    RandomRule,
    TwoParamRelaxation,
    cyclic_rule,
    iterate,
    omega_optimal,
    run,
    select_greedy,
    two_param_update,
)

__version__ = "0.1.0"
