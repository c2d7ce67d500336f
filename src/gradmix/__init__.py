"""gradmix: mixed training with stochastic gradient surgery at desk scale.

A multi-distribution few-shot training toolkit: train one model on a
high-resource source distribution pooled with K-shot samples of several
target distributions, optionally projecting each training-batch gradient
off the conflicting component of a sampled target's oracle gradient, and
compare against the zero-shot / target-adapting baselines under seeded,
bit-reproducible experiment runs.
"""

__version__ = "0.1.0"

from .analysis import (
    SimMatrix,
    aggregate_runs,
    conflict_fraction,
    language_gradient,
    micro_f1,
    overfit_flags,
    similarity_matrix,
)
from .corpora import (
    LanguageCorpus,
    LanguageProfile,
    MixedDataset,
    OracleBank,
    ShotBank,
    Split,
    SyntheticProfile,
    batch_iter,
    build_mixed_dataset,
    build_oracle_bank,
    build_shot_bank,
    default_benchmark,
    default_profile,
    gen_synthetic_family,
    ingest_tsv,
    sample_k_shots,
    sample_n_way_k_shot,
)
from .models import (
    GradReport,
    ModelSpec,
    ModelState,
    init_params,
    load_checkpoint,
    loss_and_grad,
    predict,
    save_checkpoint,
    sgd_step,
)
from .numcore import (
    ContractViolation,
    ParamVec,
    RngStreams,
    cosine_similarity,
    dot,
)
from .surgery import (
    SurgeryPolicy,
    TraceEntry,
    is_conflicting,
    project_gradient,
    sgs_step,
)
from .trainer import (
    Task,
    TrainPlan,
    evaluate,
    run_mixed_training,
    run_source_training,
    run_strategy,
    run_target_adapting,
    select_model,
)

__all__ = [
    "__version__",
    "ContractViolation",
    "ParamVec",
    "RngStreams",
    "dot",
    "cosine_similarity",
    "ModelSpec",
    "ModelState",
    "GradReport",
    "init_params",
    "loss_and_grad",
    "sgd_step",
    "predict",
    "save_checkpoint",
    "load_checkpoint",
    "LanguageCorpus",
    "Split",
    "LanguageProfile",
    "SyntheticProfile",
    "ShotBank",
    "OracleBank",
    "MixedDataset",
    "gen_synthetic_family",
    "default_benchmark",
    "default_profile",
    "ingest_tsv",
    "sample_k_shots",
    "sample_n_way_k_shot",
    "build_shot_bank",
    "build_oracle_bank",
    "build_mixed_dataset",
    "batch_iter",
    "SurgeryPolicy",
    "TraceEntry",
    "is_conflicting",
    "project_gradient",
    "sgs_step",
    "Task",
    "TrainPlan",
    "run_source_training",
    "run_target_adapting",
    "run_mixed_training",
    "run_strategy",
    "evaluate",
    "select_model",
    "micro_f1",
    "language_gradient",
    "similarity_matrix",
    "conflict_fraction",
    "aggregate_runs",
    "overfit_flags",
    "SimMatrix",
]
