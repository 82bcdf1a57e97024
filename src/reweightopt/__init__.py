"""Loss-reweighted stochastic gradient methods and verification oracles.

The library trains small models with per-sample importance weights
derived from clipped loss transforms, provides tilted and moving-average
baselines, exact worst-case-distribution solvers over finite supports,
deterministic synthetic dataset generators, and a CLI harness for
experiments, sweeps, and verification suites.
"""

from .datagen import (
    Dataset,
    flip_labels,
    gaussian_mixture_classification,
    long_tailed_counts,
    rare_feature_regression,
    split,
    subsample_long_tailed,
)
from .dro import (
    DiscreteDistribution,
    DroInstance,
    DroSolution,
    chi2_dro_value,
    divergence_value,
    kl_dro_dual,
    kl_dro_primal,
    optimal_weight_form_check,
    revkl_dro_value,
    simplex_bruteforce,
)
from .experiment import (
    Trace,
    TraceRecord,
    accuracy,
    direction_l2,
    export_trace,
    mse,
    parse_trace,
    run_experiment,
)
from .models import (
    Batch,
    ModelKind,
    ModelState,
    finite_diff_grad,
    per_sample_loss,
    weighted_grad,
)
from .optim import (
    BaselineState,
    OptimizerState,
    Schedule,
    TrainConfig,
    TrainingDivergenceError,
    adam_step,
    lr_at,
    ma_exp_step,
    rgd_step,
    sgd_step,
    term_objective,
)
from .sweep import SweepSpec, sweep
from .weighting import (
    Divergence,
    WeightingRule,
    batch_weights,
    weight_chi2,
    weight_kl,
    weight_revkl,
    weighted_objective,
)

__version__ = "0.1.0"
