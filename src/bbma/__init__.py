"""Exact Monte Carlo for branching Brownian motion killed at the origin.

Particles diffuse with constant drift toward an absorbing barrier at zero,
branch at a constant rate into iid offspring counts, and are removed the
instant they touch the barrier.  Every sampled quantity is drawn from its
exact law (no time discretization), and the closed-form/quadrature oracles
in :mod:`bbma.oracles` give independent moment predictions against which
the simulator is tested.
"""
from .model import (
    IntervalSet,
    ModelParams,
    OffspringLaw,
    Regime,
    classify_regime,
    ground_state_h,
    nu_cdf,
    nu_measure,
    offspring_moments,
    parse_offspring,
)
from .kernel import (
    asymptotic_error_bounds,
    first_passage_density,
    killed_cdf,
    killed_density,
    sample_hitting_time,
    sample_killed_steps_batch,
    survival_prefactor_error,
    survival_probability,
)
from .engine import (
    Census,
    EventRecorder,
    MartingaleTrace,
    ReplicateResult,
    run_replicate,
    spawn_rng_stream,
    truncation_flags_for,
)
from .oracles import (
    expected_count,
    expected_count_asymptotic,
    extinction_probability,
    mean_one_check,
    second_moment_exact,
    spine_second_moment_mc,
)
from .experiments import (
    ExperimentReport,
    experiment_empirical_qsd,
    experiment_kesten,
    experiment_martingale,
    experiment_phase_diagram,
    experiment_truncation,
    load_thresholds,
    tk_schedule,
    tk_schedule_report,
    verify_samplers,
)
from .cli import RunConfig, main, parse_config

__version__ = "0.1.0"

__all__ = [
    "IntervalSet", "ModelParams", "OffspringLaw", "Regime",
    "classify_regime", "ground_state_h", "nu_cdf", "nu_measure",
    "offspring_moments", "parse_offspring",
    "asymptotic_error_bounds", "first_passage_density",
    "killed_cdf", "killed_density", "sample_hitting_time",
    "sample_killed_steps_batch",
    "survival_prefactor_error", "survival_probability",
    "Census", "EventRecorder", "MartingaleTrace",
    "ReplicateResult", "run_replicate", "spawn_rng_stream",
    "truncation_flags_for",
    "expected_count", "expected_count_asymptotic", "extinction_probability",
    "mean_one_check", "second_moment_exact", "spine_second_moment_mc",
    "ExperimentReport", "experiment_empirical_qsd", "experiment_kesten",
    "experiment_martingale", "experiment_phase_diagram",
    "experiment_truncation", "load_thresholds", "tk_schedule",
    "tk_schedule_report", "verify_samplers",
    "RunConfig", "main", "parse_config",
    "__version__",
]
