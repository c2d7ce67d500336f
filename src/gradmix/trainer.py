"""Training strategies, model selection, and evaluation.

Five strategies around one shared loop:

  zero_shot            source training only, evaluated everywhere
  ord_fs / ord_fs_dev  source training, then per-language fine-tuning on
                       that language's shots (dev variant selects per-language
                       best epochs; plain variant takes the last checkpoint)
  mix_ft               source training, then one fine-tune on all targets'
                       shots concatenated
  naive_mix_train      one-step training on source data pooled with every
                       target's shots
  gradient_mix_train   naive_mix_train plus stochastic gradient surgery

Every trained model is a chain of states, epoch 0 first: the state that
training started from (the initialization, or the selected source model for
an adapted model), then one state per epoch end. Selecting epoch e of a
model is `chain[e]`, and `cli` writes each distinct chain to one
checkpoint file.

The cells of one seed repeat work: zero_shot and every two-step cell train
the same source chain, and ord_fs and ord_fs_dev train the same adapted
chains and differ only in selection. `run_strategy` takes an optional
`Stages` dict through which such cells share a trained phase (a `Stage`),
looked up by a key that names everything the phase depends on.

One-step strategies select their epoch on the source dev set only, so one
model serves every target, including one without a dev split. Target dev
data is consumed solely by the target_dev policy (ord_fs_dev, or a one-step
run that opts in with unrealistic_target_dev), since realistically-sized
target dev sets would be smaller than the training shots themselves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import analysis
from .corpora import (
    LanguageCorpus,
    MixedDataset,
    OracleBank,
    ShotBank,
    batch_iter,
    build_mixed_dataset,
    build_oracle_bank,
    build_shot_bank,
)
from .models import (
    ModelSpec,
    ModelState,
    init_params,
    loss_and_grad,
    predict,
    sgd_step,
)
from .numcore import ContractViolation, RngStreams
from .surgery import SurgeryPolicy, TraceEntry, sgs_step

STRATEGIES = (
    "zero_shot",
    "ord_fs",
    "ord_fs_dev",
    "mix_ft",
    "naive_mix_train",
    "gradient_mix_train",
)
ONE_STEP = ("naive_mix_train", "gradient_mix_train")
TWO_STEP = ("ord_fs", "ord_fs_dev", "mix_ft")
SELECTIONS = ("source_dev", "target_dev", "last_checkpoint")

StepHook = Callable[[int, ModelState], None]


def _default_selection(strategy: str) -> str:
    if strategy in ("zero_shot",) + ONE_STEP:
        return "source_dev"
    if strategy == "ord_fs_dev":
        return "target_dev"
    return "last_checkpoint"


@dataclass(frozen=True)
class TrainPlan:
    strategy: str
    seed: int
    k: int = 0
    alpha: float = 1.0
    source_epochs: int = 10
    adapt_epochs: int = 10
    batch_size: int = 32
    adapt_batch_size: Optional[int] = None  # None -> k
    lr: float = 0.5
    language_subset: Optional[Tuple[str, ...]] = None
    selection: Optional[str] = None  # None -> strategy default
    shot_mode: str = "k_shot"
    unrealistic_target_dev: bool = False
    lazy_surgery: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ContractViolation(f"unknown strategy {self.strategy!r}")
        if self.strategy == "zero_shot" and self.k != 0:
            raise ContractViolation("zero_shot requires k = 0")
        if self.strategy != "zero_shot" and self.k < 1:
            raise ContractViolation(f"{self.strategy} requires k >= 1")
        if self.selection is None:
            object.__setattr__(self, "selection", _default_selection(self.strategy))
        if self.selection not in SELECTIONS:
            raise ContractViolation(f"unknown selection {self.selection!r}")
        if self.strategy in TWO_STEP and self.selection == "source_dev":
            raise ContractViolation(
                "two-step strategies cannot select the adapted model on the source dev set"
            )
        if self.strategy == "ord_fs_dev" and self.selection != "target_dev":
            raise ContractViolation("ord_fs_dev is defined by target_dev selection")
        if (
            self.strategy in ("zero_shot",) + ONE_STEP
            and self.selection == "target_dev"
            and not self.unrealistic_target_dev
        ):
            raise ContractViolation(
                "one-step strategies use the source dev set; pass "
                "unrealistic_target_dev=True to override"
            )
        if self.language_subset is not None:
            object.__setattr__(self, "language_subset", tuple(self.language_subset))
        for name in ("source_epochs", "adapt_epochs"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractViolation("alpha must be in [0, 1]")

    def effective_adapt_batch(self) -> int:
        return self.adapt_batch_size if self.adapt_batch_size is not None else max(self.k, 1)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.language_subset is not None:
            d["language_subset"] = list(self.language_subset)
        return d


@dataclass(frozen=True)
class Task:
    """One benchmark: a model family plus one source and >= 1 target corpora."""

    spec: ModelSpec
    source: LanguageCorpus
    targets: Tuple[LanguageCorpus, ...]

    @staticmethod
    def from_corpora(spec: ModelSpec, corpora: Sequence[LanguageCorpus]) -> "Task":
        sources = [c for c in corpora if c.role == "source"]
        if len(sources) != 1:
            raise ContractViolation(f"need exactly one source corpus, got {len(sources)}")
        ids = [c.lang_id for c in corpora]
        if len(set(ids)) != len(ids):
            raise ContractViolation("language ids must be unique")
        targets = tuple(c for c in corpora if c.role == "target")
        return Task(spec=spec, source=sources[0], targets=targets)

    def subset(self, lang_ids: Optional[Sequence[str]]) -> Tuple[LanguageCorpus, ...]:
        if lang_ids is None:
            return self.targets
        keep = set(lang_ids)
        unknown = keep - {c.lang_id for c in self.targets}
        if unknown:
            raise ContractViolation(f"unknown target languages: {sorted(unknown)}")
        return tuple(c for c in self.targets if c.lang_id in keep)


@dataclass
class RunResult:
    """Everything a strategy run produced, before serialization."""

    record: dict
    checkpoints: Dict[str, List[ModelState]]  # model key -> chain, epoch 0 first
    trace: Optional[List[TraceEntry]]

    def selected_model(self, lang_id: str) -> ModelState:
        key = self.record["model_key_of"][lang_id]
        return self.checkpoints[key][self.record["selected_epochs"][lang_id]]


# --- core loop ---------------------------------------------------------------


def _train_loop(
    state0: ModelState,
    md: MixedDataset,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: RngStreams,
    scope: str,
    oracle: Optional[OracleBank] = None,
    policy: Optional[SurgeryPolicy] = None,
    step_hook: Optional[StepHook] = None,
) -> Tuple[List[ModelState], Optional[List[TraceEntry]]]:
    """Fixed-epoch SGD over per-epoch reshuffles of the pool; returns the
    chain [state0, state after epoch 1, ..., after epoch `epochs`]. With an
    oracle and policy, every step runs the stochastic surgery decision
    between backprop and the update."""
    state = state0
    chain = [state0]
    trace: Optional[List[TraceEntry]] = [] if policy is not None else None
    step = 0
    for epoch in range(1, epochs + 1):
        for batch in batch_iter(md, batch_size, epoch, rng, scope=scope):
            grad = loss_and_grad(state, batch).grad
            if policy is not None:
                assert oracle is not None
                grad, entry = sgs_step(grad, oracle, state, policy, rng, step=step)
                trace.append(entry)
            state = sgd_step(state, grad, lr)
            step += 1
            if step_hook is not None:
                step_hook(step, state)
        chain.append(state)
    return chain, trace


# --- spec operations ----------------------------------------------------------


def run_source_training(
    plan: TrainPlan,
    source: LanguageCorpus,
    rng: Optional[RngStreams] = None,
    state0: Optional[ModelState] = None,
    spec: Optional[ModelSpec] = None,
    step_hook: Optional[StepHook] = None,
) -> List[ModelState]:
    """Fine-tune on the source language alone; returns the chain, epoch 0
    (the initial state) first."""
    if rng is None:
        rng = RngStreams(plan.seed)
    if state0 is None:
        if spec is None:
            raise ContractViolation("need a ModelSpec when no initial state is given")
        state0 = init_params(spec, rng)
    md = build_mixed_dataset(source, [], None)
    chain, _ = _train_loop(
        state0, md, plan.source_epochs, plan.batch_size, plan.lr, rng, scope="pool",
        step_hook=step_hook,
    )
    return chain


def run_target_adapting(
    source_model: ModelState,
    shots: ShotBank,
    plan: TrainPlan,
    targets: Sequence[LanguageCorpus],
    rng: Optional[RngStreams] = None,
) -> Dict[str, List[ModelState]]:
    """Fine-tune the source-trained model on target shots; every returned
    chain starts from `source_model` at epoch 0.

    ord_fs(+dev): one adapted model per language, trained on its own shots.
    mix_ft: a single model trained on all targets' shots concatenated.
    """
    if not shots.lang_ids:
        raise ContractViolation("target adapting requires a non-empty shot bank")
    if rng is None:
        rng = RngStreams(plan.seed)
    batch = plan.effective_adapt_batch()
    out: Dict[str, List[ModelState]] = {}
    if plan.strategy in ("ord_fs", "ord_fs_dev"):
        for corpus in targets:
            md = build_mixed_dataset(None, [corpus], shots)
            out[corpus.lang_id], _ = _train_loop(
                source_model, md, plan.adapt_epochs, batch, plan.lr, rng,
                scope=f"adapt:{corpus.lang_id}",
            )
    elif plan.strategy == "mix_ft":
        md = build_mixed_dataset(None, targets, shots)
        out["adapted"], _ = _train_loop(
            source_model, md, plan.adapt_epochs, batch, plan.lr, rng, scope="adapt:all"
        )
    else:
        raise ContractViolation(f"{plan.strategy} has no target-adapting phase")
    return out


def run_mixed_training(
    plan: TrainPlan,
    source: LanguageCorpus,
    targets: Sequence[LanguageCorpus],
    shots: Optional[ShotBank],
    rng: Optional[RngStreams] = None,
    state0: Optional[ModelState] = None,
    spec: Optional[ModelSpec] = None,
    step_hook: Optional[StepHook] = None,
) -> Tuple[List[ModelState], Optional[List[TraceEntry]]]:
    """One-step training on the pooled source + shots dataset; returns the
    chain, epoch 0 first, and the surgery trace. The gradient strategy adds
    the per-step stochastic surgery decision."""
    if plan.strategy not in ONE_STEP:
        raise ContractViolation(f"{plan.strategy} is not a one-step strategy")
    if rng is None:
        rng = RngStreams(plan.seed)
    if state0 is None:
        if spec is None:
            raise ContractViolation("need a ModelSpec when no initial state is given")
        state0 = init_params(spec, rng)
    oracle = policy = None
    if plan.strategy == "gradient_mix_train":
        if not targets or shots is None or not shots.lang_ids:
            raise ContractViolation("gradient_mix_train requires at least one target language")
        oracle = build_oracle_bank(shots, targets)
        policy = SurgeryPolicy(alpha=plan.alpha, lazy=plan.lazy_surgery)
    md = build_mixed_dataset(source, targets, shots)
    return _train_loop(
        state0, md, plan.source_epochs, plan.batch_size, plan.lr, rng, scope="pool",
        oracle=oracle, policy=policy, step_hook=step_hook,
    )


def evaluate(model: ModelState, corpus: LanguageCorpus, split: str) -> float:
    """Accuracy for classification; token-level micro-F1 (excluding the
    outside label) for tagging. One forward pass over the whole split.
    Pure: identical inputs, identical value."""
    data = corpus.split(split)
    if len(data) == 0:
        raise ContractViolation(f"split {split!r} of {corpus.lang_id} is empty")
    pred = predict(model, data.X)
    if corpus.task == "classification":
        return int((pred == data.y).sum()) / len(data)
    return analysis.micro_f1(pred, data.y, outside_label=corpus.outside_label)


def select_model(
    curves: Dict[str, List[float]],
    policy: str,
    epochs: int,
    source_lang: Optional[str] = None,
    langs: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Map each language of `langs` (default: those with a curve) to its
    selected epoch (0 = the state training started from).

    source_dev: argmax of the source language's dev curve, shared by all.
    target_dev: per-language argmax of that language's own dev curve.
    last_checkpoint: the final epoch for everyone. Ties break earliest.
    A language without a dev curve gets the shared epoch of source_dev and
    last_checkpoint; target_dev refuses it.
    """
    for lang, curve in curves.items():
        if len(curve) != epochs:
            raise ContractViolation(
                f"dev curve for {lang} has {len(curve)} entries, expected {epochs}"
            )
    langs = list(curves) if langs is None else list(langs)
    if policy == "last_checkpoint":
        return {lang: epochs for lang in langs}
    if policy == "source_dev":
        if source_lang is None or source_lang not in curves:
            raise ContractViolation("source_dev selection needs the source dev curve")
        epoch = analysis.argmax_earliest(curves[source_lang]) if epochs > 0 else 0
        return {lang: epoch for lang in langs}
    if policy == "target_dev":
        for lang in langs:
            if lang not in curves:
                raise ContractViolation(
                    f"target_dev selection needs a dev split, but {lang} has none"
                )
        return {
            lang: (analysis.argmax_earliest(curves[lang]) if epochs > 0 else 0)
            for lang in langs
        }
    raise ContractViolation(f"unknown selection policy {policy!r}")


# --- full strategy runs ---------------------------------------------------------


class Stage(NamedTuple):
    """A trained phase that cells of one seed can share: its chains by
    model key, and the dev curve of each of its languages that has a dev
    split. States are immutable, so sharing a chain is safe; a cell copies
    the curves into its own record."""

    chains: Dict[str, List[ModelState]]
    curves: Dict[str, List[float]]


# A seed group's stages: source-stage key or adapt-stage key -> Stage. One
# dict serves one Task; its keys name everything else a stage depends on.
Stages = Dict[tuple, Stage]


def _staged(stages: Optional[Stages], key: tuple, train: Callable[[], Stage]) -> Stage:
    """The stage under `key`, trained by `train` on a miss; no sharing
    without a dict."""
    if stages is None:
        return train()
    if key not in stages:
        stages[key] = train()
    return stages[key]


def _dev_curves(
    chain: List[ModelState], corpora: Sequence[LanguageCorpus]
) -> Dict[str, List[float]]:
    """Dev curve over epochs 1..E of a chain, for each corpus with a dev split."""
    return {
        c.lang_id: [evaluate(m, c, "dev") for m in chain[1:]] for c in corpora if len(c.dev) > 0
    }


def run_strategy(
    plan: TrainPlan,
    task: Task,
    step_hook: Optional[StepHook] = None,
    stages: Optional[Stages] = None,
) -> RunResult:
    """Execute one (strategy, k, seed) cell and assemble its run record.

    With a `stages` dict, cells share trained phases through it instead of
    training them again: the source stage, keyed by (seed, source_epochs,
    batch_size, lr, spec), serves zero_shot and every two-step cell; the
    adapt stage adds (family, k, shot_mode, adapt_epochs, adapt batch,
    resolved target ids) to that key, where ord_fs and ord_fs_dev are one
    family that differs only in selection. Every draw after the
    initialization comes from a `derived` stream, so a shared stage is the
    one this cell would have trained. A zero_shot cell with a `step_hook`
    trains its own chain so the hook sees every step. Without `stages`
    every phase is trained here; that path is the reference.
    """
    rng = RngStreams(plan.seed)
    targets = task.subset(plan.language_subset)
    source = task.source
    all_langs = [source.lang_id] + [c.lang_id for c in targets]

    shots: Optional[ShotBank] = None
    if plan.strategy != "zero_shot":
        shots = build_shot_bank(targets, plan.k, plan.shot_mode, rng)

    record: dict = {
        "format_version": 1,
        "strategy": plan.strategy,
        "k": plan.k,
        "seed": plan.seed,
        "plan": plan.to_dict(),
        "source_lang": source.lang_id,
        "languages": all_langs,
        "shot_indices": {lang: list(shots.indices(lang)) for lang in shots.lang_ids}
        if shots
        else {},
    }
    checkpoints: Dict[str, List[ModelState]] = {}
    trace: Optional[List[TraceEntry]] = None

    if plan.strategy in ONE_STEP:
        chain, trace = run_mixed_training(
            plan, source, targets, shots, rng=rng, spec=task.spec, step_hook=step_hook
        )
        curves = _dev_curves(chain, [source] + list(targets))
    else:
        hook = step_hook if plan.strategy == "zero_shot" else None

        def train_source() -> Stage:
            src_chain = run_source_training(plan, source, rng=rng, spec=task.spec, step_hook=hook)
            return Stage({"source": src_chain}, _dev_curves(src_chain, [source]))

        src_key = (plan.seed, plan.source_epochs, plan.batch_size, plan.lr, task.spec)
        src = _staged(stages if hook is None else None, src_key, train_source)
        chain = src.chains["source"]
        curves = {lang: list(curve) for lang, curve in src.curves.items()}

    if plan.strategy in TWO_STEP:
        if source.lang_id not in curves and plan.source_epochs > 0:
            raise ContractViolation(
                f"two-step strategies select the source model on its dev split, "
                f"but {source.lang_id} has none"
            )
        src_curve = curves.get(source.lang_id, [])
        src_epoch = analysis.argmax_earliest(src_curve) if plan.source_epochs > 0 else 0
        checkpoints["source"] = chain
        record["source_selected_epoch"] = src_epoch
        record["source_dev_curve"] = src_curve

        model_key_of = {
            c.lang_id: "adapted" if plan.strategy == "mix_ft" else c.lang_id for c in targets
        }

        def train_adapted() -> Stage:
            chains = run_target_adapting(chain[src_epoch], shots, plan, targets, rng=rng)
            adapted_curves: Dict[str, List[float]] = {}
            for c in targets:
                adapted_curves.update(_dev_curves(chains[model_key_of[c.lang_id]], [c]))
            return Stage(chains, adapted_curves)

        family = "mix_ft" if plan.strategy == "mix_ft" else "ord_fs"
        adapt_key = src_key + (
            family, plan.k, plan.shot_mode, plan.adapt_epochs, plan.effective_adapt_batch(),
            tuple(c.lang_id for c in targets),
        )
        adapted = _staged(stages, adapt_key, train_adapted)
        checkpoints.update(adapted.chains)
        epochs = plan.adapt_epochs
        curves = {lang: list(curve) for lang, curve in adapted.curves.items()}
        selected = select_model(curves, plan.selection, epochs, langs=list(model_key_of))
        model_key_of[source.lang_id] = "source"
        selected[source.lang_id] = src_epoch
        record["pool_size"] = sum(shots.size(lang) for lang in shots.lang_ids)

    else:  # zero_shot and the one-step strategies: one model for every language
        if plan.strategy == "zero_shot":
            curves.update(_dev_curves(chain, targets))
        checkpoints["model"] = chain
        epochs = plan.source_epochs
        selected = select_model(
            curves, plan.selection, epochs, source_lang=source.lang_id, langs=all_langs
        )
        model_key_of = {lang: "model" for lang in all_langs}
        record["pool_size"] = len(source.train) + (
            sum(shots.size(lang) for lang in shots.lang_ids) if shots else 0
        )

    record["epochs"] = epochs
    record["dev_curves"] = curves
    record["selected_epochs"] = selected
    record["model_key_of"] = model_key_of

    result = RunResult(record=record, checkpoints=checkpoints, trace=trace)
    test_metrics = {}
    for c in [source] + list(targets):
        if len(c.test) == 0:
            continue
        test_metrics[c.lang_id] = evaluate(result.selected_model(c.lang_id), c, "test")
    record["test_metrics"] = test_metrics
    target_vals = [test_metrics[c.lang_id] for c in targets if c.lang_id in test_metrics]
    record["macro_target_test"] = (
        sum(target_vals) / len(target_vals) if target_vals else None
    )
    if trace is not None:
        record["surgery_stats"] = {
            "steps": len(trace),
            "conflicted": sum(1 for t in trace if t.conflicted),
            "applied": sum(1 for t in trace if t.applied),
        }
    return result
