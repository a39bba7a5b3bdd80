"""peerspot: audit-rate thresholds and equilibrium analysis for peer evaluation games.

The package models a population of evaluators who can either invest costly
effort to observe an informative signal about each object or coordinate on a
free shared observation, a zoo of universal peer mechanisms that reward
reports against other reports, and a spot-checking wrapper that audits
reports against trusted draws with some probability.  Exact expectation
engines and exhaustive symmetric-equilibrium search then answer the core
design question: how often must reports be audited before truth-telling is
dominant, coordination equilibria die, and the truthful equilibrium is the
best one on offer.
"""

from .errors import (
    ConfigError,
    EnumerationBudgetExceeded,
    InvalidDistribution,
    LogOfZero,
    NonBinaryLabelSpace,
    NotEnoughObjects,
    PeerSpotError,
    ShapeMismatch,
    TooFewAgents,
)
from .signals import (
    Channel,
    Distribution,
    Environment,
    LabelSpace,
    reference_environment,
)
from .scoring import (
    LOGARITHMIC,
    QUADRATIC,
    LogarithmicRule,
    QuadraticRule,
    ScoringRule,
    check_symmetry,
    divergence,
    rule_from_name,
    score,
)
from .strategies import (
    Effort,
    Strategy,
    StrategyProfile,
    enumerate_pure_strategies,
    low_identity_strategy,
    truthful_strategy,
)
from .mechanisms import (
    MechanismKind,
    MechanismSpec,
    analytic_unchecked_value,
)
from ._sampling import UtilityEstimate, simulate_utilities
from ._expectations import expected_spot_reward
from .equilibrium import (
    NOT_ACHIEVABLE,
    NOT_APPLICABLE,
    NOT_FOUND,
    EquilibriumRecord,
    NotAttained,
    PayoffTable,
    ThresholdReport,
    check_pareto_bound_condition,
    check_worthwhile_effort,
    compute_payoff_table,
    compute_thresholds,
    construct_dominated_environment,
    enumerate_symmetric_pure_equilibria,
    is_symmetric_equilibrium,
    solve_p_ds,
    solve_p_ds_bisection,
    solve_p_el,
    solve_p_ex,
    solve_p_pareto,
    threshold_float,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    emit_report,
    example_config_path,
    generate_environments,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
