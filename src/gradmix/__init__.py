"""gradmix: mixed training with stochastic gradient surgery at desk scale.

A multi-distribution few-shot training toolkit: train one model on a
high-resource source distribution pooled with K-shot samples of several
target distributions, optionally projecting each training-batch gradient
off the conflicting component of a sampled target's oracle gradient, and
compare against the zero-shot / target-adapting baselines under seeded,
bit-reproducible experiment runs.
"""

__version__ = "0.1.0"

from .analysis import (SimMatrix, aggregate_runs, conflict_fraction, language_gradient, micro_f1,
                       overfit_flags, similarity_matrix)
from .corpora import (OUTSIDE_LABEL, LanguageCorpus, Split, batch_iter, build_mixed_dataset,
                      build_oracle_bank, build_shot_bank, default_benchmark, default_profile,
                      gen_synthetic_family, ingest_tsv, sample_k_shots, sample_n_way_k_shot)
from .models import (GradReport, ModelSpec, ModelState, init_params, load_checkpoint,
                     loss_and_grad, predict, save_checkpoint, sgd_step)
from .numcore import ContractViolation, ParamVec, RngStreams, cosine_similarity, dot
from .surgery import TraceEntry, sgs_step
from .trainer import (Task, TrainPlan, evaluate, run_mixed_training, run_source_training,
                      run_strategy, run_target_adapting)
