"""streambandit: resource-exact simulation lab for streaming best-arm identification."""

from .algorithms import (
    AlgorithmConfig,
    InconclusiveError,
    PassCapExceededError,
    default_passes,
    doubling_gap_elimination,
    resolve_delta2,
    single_pass_keepbest,
    stream_elimination,
    stream_elimination_re,
)
from .bench import (
    AlgorithmSummary,
    ExperimentSpec,
    TrialRecord,
    aggregate,
    derive_seed,
    emit_plot_data,
    emit_results_csv,
    emit_summary_csv,
    parse_results_csv,
    run_experiment,
)
from .events import ConcentrationReport, check_concentration_event, replay_prefix_means
from .generators import (
    HardInstanceMeta,
    HardInstanceParams,
    chi_recursion,
    chi_separated,
    default_gamma,
    gen_arithmetic,
    gen_cluster,
    gen_hard_batched,
    gen_uniform,
)
from .infotheory import (
    BernoulliMeanPair,
    KlBoundReport,
    bound_check_grid,
    check_bernoulli_kl_bounds,
    kl_bernoulli,
    mle_distinguish_success,
    tvd_bernoulli,
    tvd_discrete,
)
from .instances import (
    AmbiguousBestError,
    BanditInstance,
    GapProfile,
    gap_profile,
    hardness_budget,
    load_instance,
    save_instance,
)
from .schedules import (
    BudgetOverflowError,
    EliminationSchedule,
    elimination_level,
    epsilon_schedule,
    pull_budget,
    pull_budget_re,
)
from .session import END_OF_PASS, IllegalAccessError, SessionClosedError, StreamSession
from .trial import TrialResult, run_trial

__version__ = "0.1.0"
