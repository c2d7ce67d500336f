"""Training strategies, model selection, and evaluation.

Five strategies around one training loop, `train_lockstep`:

  zero_shot            source training only, evaluated everywhere
  ord_fs / ord_fs_dev  source training, then per-language fine-tuning on
                       that language's shots (dev variant selects per-language
                       best epochs; plain variant takes the last checkpoint)
  mix_ft               source training, then one fine-tune on all targets'
                       shots concatenated
  naive_mix_train      one-step training on source data pooled with every
                       target's shots
  gradient_mix_train   naive_mix_train plus stochastic gradient surgery

Every trained model is a `models.Chain`, one read-only (E+1, P) array of
states, epoch 0 first: the state that training started from (the
initialization, or the selected source model for an adapted model), then
one state per epoch end. Selecting epoch e of a model is `chain.state(e)`,
and `cli` writes each distinct chain to one checkpoint file.

The cells of one seed repeat work: zero_shot and every two-step cell train
the same source chain, and ord_fs and ord_fs_dev train the same adapted
chains and differ only in selection. So a cell's trained phases (each a
`Stage`) and its shot bank live in a `Stages` dict, each under a key that
names everything it depends on, and `prefill` is the one maker of them;
`run_strategy` only looks them up and assembles the record.

The runs of one grid column (the seeds of one (strategy, K); for the
ord_fs family every seed and target language) are independent, and at
this model size a step costs numpy call overhead, not arithmetic. So
`prefill` trains them together in `train_lockstep`: one stacked
forward/backward, surgery decision and update per step, giving each run
the bits it gets alone. The same loop trains, one run at a time, what does
not stack (ragged tagger pools); a stack that raises is trained again job
by job.

Every strategy trains on all of the task's targets, and one rule picks each
language's epoch (`_best_epoch`, on the dev curve the strategy names):
zero_shot and the one-step strategies pick on the source's only, so one
model serves every target, including one without a dev split; ord_fs and
mix_ft take the last checkpoint. Target dev data is consumed solely by
ord_fs_dev, since realistically-sized target dev sets would be smaller than
the training shots themselves.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from types import TracebackType
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import analysis
from .corpora import (
    OUTSIDE_LABEL,
    ROLES,
    SHOT_MODES,
    SPLITS,
    LanguageCorpus,
    Shots,
    Split,
    batch_iter,
    build_mixed_dataset,
    build_oracle_bank,
    build_shot_bank,
    epoch_order,
)
from .models import Chain, ModelSpec, ModelState, check_batch, init_params, predict, stack_grads
from .models import loss_and_grad, sgd_step  # noqa: F401  (traced by name in perfbench/tracing.py)
from .numcore import REQUIRED, ContractViolation, RngStreams, frozen, read_object
from .surgery import TraceEntry, decide, pick
from .surgery import sgs_step  # noqa: F401  (traced by name in perfbench/tracing.py)

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
    shot_mode: str = "k_shot"

    def __post_init__(self) -> None:
        read_object(vars(self), "", PLAN_KEYS)
        if (self.k == 0) != (self.strategy == "zero_shot"):  # the one rule across fields
            want = "0" if self.strategy == "zero_shot" else "an integer >= 1"
            raise ContractViolation(f"k: {self.k!r} is not {want} for {self.strategy}")

    def effective_adapt_batch(self) -> int:
        return self.adapt_batch_size if self.adapt_batch_size is not None else max(self.k, 1)


# TrainPlan's key table (see `numcore.read_object`): each field's kind, and
# its default; `cli` reads a config's `plan` object against it too.
_PLAN_KINDS = dict(strategy=STRATEGIES, seed="an integer >= 0", k="an integer >= 0",
                   alpha="a number in [0, 1]", source_epochs="an integer >= 0",
                   adapt_epochs="an integer >= 0", batch_size="an integer >= 1",
                   adapt_batch_size="an integer >= 1 or null", lr="a finite number >= 0",
                   shot_mode=SHOT_MODES)
PLAN_KEYS = {f.name: (_PLAN_KINDS[f.name], REQUIRED if f.default is MISSING else f.default)
             for f in fields(TrainPlan)}


@dataclass(frozen=True)
class Task:
    """One benchmark: a source and any number of target corpora, and the one
    model trained on them all. Its `ModelSpec` owns the data's shape: the
    family fixes the layout (sequence offsets or none), and every example
    must fit the width and class count. Construction checks each split
    that holds examples against it and names the language and split."""

    spec: ModelSpec
    source: LanguageCorpus
    targets: Tuple[LanguageCorpus, ...]

    def __post_init__(self) -> None:
        for corpus in (self.source, *self.targets):
            for name in SPLITS:
                try:
                    if corpus.split(name).y.size:
                        check_batch(self.spec, corpus.split(name))
                except ContractViolation as exc:
                    raise ContractViolation(f"{corpus.lang_id} {name}: {exc}") from None

    @staticmethod
    def from_corpora(spec: ModelSpec, corpora: Sequence[LanguageCorpus], path: str = "") -> "Task":
        """The task of `corpora`: one source and unique ids, else refused by
        `path`, the place of the language list (`cli` passes its config path)."""
        where = f"{path}: " if path else ""
        for c in corpora:
            if c.role not in ROLES:
                raise ContractViolation(f"{where}{c.lang_id}: unknown role {c.role!r}")
        sources = [c for c in corpora if c.role == "source"]
        if len(sources) != 1:
            raise ContractViolation(f"{where}need exactly one source corpus, got "
                                    f"{[c.lang_id for c in sources]}")
        ids = [c.lang_id for c in corpora]
        repeated = [lang for i, lang in enumerate(ids) if lang in ids[:i]]
        if repeated:
            raise ContractViolation(f"{where}language id {repeated[0]!r} is not unique")
        targets = tuple(c for c in corpora if c.role == "target")
        return Task(spec=spec, source=sources[0], targets=targets)


@dataclass
class RunResult:
    """Everything a strategy run produced, before serialization."""

    record: dict
    checkpoints: Dict[str, Chain]  # by model key
    trace: Optional[List[TraceEntry]]

    def selected_model(self, lang_id: str) -> ModelState:
        key = self.record["model_key_of"][lang_id]
        return self.checkpoints[key].state(self.record["selected_epochs"][lang_id])


# --- core loop ---------------------------------------------------------------


class Run(NamedTuple):
    """The inputs of one training loop: SGD from `state0` over per-epoch
    reshuffles of the pool (drawn under `scope`), with the surgery decision
    (probability `alpha`) on every step when oracle batches are given."""

    state0: ModelState
    pool: Split
    epochs: int
    batch_size: int
    lr: float
    rng: RngStreams
    scope: str
    oracle: Optional[Dict[str, Split]] = None
    alpha: float = 1.0


Trained = Tuple[Chain, Optional[List[TraceEntry]]]  # a chain and its trace


def stackable(runs: Sequence[Run]) -> bool:
    """Whether `train_lockstep` trains these runs as one stack: one run of
    either layout, or two or more trained alike (spec, epochs, batch size,
    lr, surgery or none, alpha) on dense pools of one size. Their oracle
    batches then have one size too: one K and shot mode give every language
    the same number of shots."""
    if len(runs) <= 1:
        return len(runs) == 1
    like = {(run.state0.spec, run.epochs, run.batch_size, run.lr, run.oracle is None, run.alpha,
             len(run.pool)) for run in runs}
    if len(like) > 1 or any(run.pool.offsets is not None for run in runs):
        return False
    return len({len(batch) for run in runs if run.oracle is not None
                for batch in run.oracle.values()}) <= 1


def train_lockstep(runs: Sequence[Run]) -> List[Trained]:
    """The one training loop: fixed-epoch SGD of any runs, each over
    per-epoch reshuffles of its pool (`corpora.epoch_order`), returning each
    run's chain [state0, state after epoch 1, ..., after epoch `epochs`] and
    its surgery trace, in the order of `runs`. Runs that are `stackable`
    train as one stack, and runs that are not train one at a time. A step
    stacks every run's batch for one forward/backward (`models.stack_grads`);
    with surgery, each run draws (`surgery.pick`), the picked languages'
    oracle gradients are one more stack, and `surgery.decide` decides for
    all runs; then one update of the (S, P) parameters, each row copied at
    each epoch end into its run's chain. Each run gets the bits it gets
    alone. A single run, a ragged (tagger) pool among them, trains on its
    `batch_iter` batches, gathered once per epoch and cut at the batch
    bounds. Every pool and oracle batch is checked once, every slice's loss
    and gradient and every update is checked finite, lr must be
    non-negative and a batch must hold tokens."""
    if not stackable(runs):  # each run alone: a single run always stacks
        return [trained for run in runs for trained in train_lockstep([run])]
    r0 = runs[0]
    spec, surgery, size, n = r0.state0.spec, r0.oracle is not None, r0.batch_size, len(r0.pool)
    if r0.lr < 0:
        raise ContractViolation("lr must be non-negative")
    for run in runs:
        check_batch(spec, run.pool)
    # A single run takes each batch and oracle batch as a [None] view (a
    # tagger's differ in token count); a stack gathers from the stacked
    # pools and indexes the stacked oracle batches.
    one = len(runs) == 1
    if not one:
        X, y = (np.stack([getattr(run.pool, name) for run in runs]) for name in "Xy")
    if surgery:  # every oracle batch, and its row per (run, language)
        pairs = [(i, lang) for i, run in enumerate(runs) for lang in run.oracle]
        batches = [runs[i].oracle[lang] for i, lang in pairs]
        for batch in batches:
            check_batch(spec, batch)
        row_of = {pair: row for row, pair in enumerate(pairs)}
        if not one:
            OX, Oy = np.stack([b.X for b in batches]), np.stack([b.y for b in batches])
    theta = np.stack([run.state0.theta for run in runs])
    # One array per run: freeing one (S, E+1, P) block would raise glibc's
    # mmap threshold, and grid-default's peak RSS by 1 MB.
    chains = [np.repeat(run.state0.theta[None], r0.epochs + 1, axis=0) for run in runs]
    traces = [[] if surgery else None for _ in runs]
    at = np.arange(len(runs))[:, None]
    step = 0
    for epoch in range(1, r0.epochs + 1):
        if one:
            cuts = [(X1[None], y1[None])
                    for X1, y1 in batch_iter(r0.pool, size, epoch, r0.rng, scope=r0.scope)]
        else:
            keys = np.stack([epoch_order(n, size, epoch, run.rng, run.scope) for run in runs])
            Xe, ye = X[at, keys], y[at, keys]
            cuts = [(Xe[:, a : a + size], ye[:, a : a + size]) for a in range(0, n, size)]
        for Xb, yb in cuts:
            if Xb.shape[1] == 0:
                raise ContractViolation("batch contains no tokens")
            G = stack_grads(spec, theta, Xb, yb)
            if surgery:
                picks = [pick(run.oracle, run.rng) for run in runs]
                rows = [row_of[i, lang] for i, (lang, _) in enumerate(picks)]
                if one:
                    O = stack_grads(spec, theta, batches[rows[0]].X[None], batches[rows[0]].y[None])
                else:
                    O = stack_grads(spec, theta, OX[rows], Oy[rows])
                G, entries = decide(G, O, picks, step, r0.alpha)
                for trace, entry in zip(traces, entries):
                    trace.append(entry)
            theta = theta - r0.lr * G
            if not np.isfinite(theta).all():
                raise ContractViolation("non-finite parameters after an update")
            step += 1
        for chain, row in zip(chains, theta):
            chain[epoch] = row
    return [(Chain(spec, frozen(chain)), trace) for chain, trace in zip(chains, traces)]


# --- spec operations ----------------------------------------------------------


def run_source_training(plan: TrainPlan, source: LanguageCorpus, spec: ModelSpec) -> Chain:
    """Fine-tune a model of `spec`, from `init_params` of the plan's seed, on
    the source language alone; returns the chain, epoch 0 first."""
    [(chain, _)] = train_lockstep([_pool_run(plan, source, [], None, spec)])
    return chain


def _adapt_corpora(plan: TrainPlan,
                   targets: Sequence[LanguageCorpus]) -> Dict[str, List[LanguageCorpus]]:
    """The targets each adapted model trains on, by model key: one model
    per language (ord_fs family) or one on every target's shots (mix_ft)."""
    if ADAPT_FAMILY.get(plan.strategy) == "ord_fs":
        return {c.lang_id: [c] for c in targets}
    if plan.strategy == "mix_ft":
        return {"adapted": list(targets)}
    raise ContractViolation(f"{plan.strategy} has no target-adapting phase")


def _adapt_runs(source_model: ModelState, shots: Shots, plan: TrainPlan,
                targets: Sequence[LanguageCorpus], rng: RngStreams) -> Dict[str, Run]:
    """The runs of the target-adapting phase, by model key, each starting
    from `source_model`."""
    if not shots:
        raise ContractViolation("target adapting requires a non-empty shot bank")
    batch, mix = plan.effective_adapt_batch(), plan.strategy == "mix_ft"
    return {key: Run(source_model, build_mixed_dataset(None, corpora, shots), plan.adapt_epochs,
                     batch, plan.lr, rng, "adapt:all" if mix else f"adapt:{key}")
            for key, corpora in _adapt_corpora(plan, targets).items()}


def run_target_adapting(
    source_model: ModelState,
    shots: Shots,
    plan: TrainPlan,
    targets: Sequence[LanguageCorpus],
    rng: Optional[RngStreams] = None,
) -> Dict[str, Chain]:
    """Fine-tune the source-trained model on target shots; every returned
    chain starts from `source_model` at epoch 0.

    ord_fs(+dev): one adapted model per language, trained on its own shots.
    mix_ft: a single model trained on all targets' shots concatenated.
    """
    runs = _adapt_runs(source_model, shots, plan, targets, rng or RngStreams(plan.seed))
    return {key: train_lockstep([run])[0][0] for key, run in runs.items()}


def _pool_run(plan: TrainPlan, source: LanguageCorpus, targets: Sequence[LanguageCorpus],
              shots: Optional[Shots], spec: ModelSpec) -> Run:
    """The run, from `init_params`, on the source pooled with the targets'
    shots (none for source training), with surgery for gradient_mix_train;
    it draws from a fresh `RngStreams` of the plan's seed."""
    rng = RngStreams(plan.seed)
    oracle = None
    if plan.strategy == "gradient_mix_train":
        if not targets or not shots:
            raise ContractViolation("gradient_mix_train requires at least one target language")
        oracle = build_oracle_bank(shots, targets)
    pool = build_mixed_dataset(source, targets, shots)
    return Run(init_params(spec, rng), pool, plan.source_epochs, plan.batch_size, plan.lr,
               rng, "pool", oracle, plan.alpha)


def run_mixed_training(plan: TrainPlan, source: LanguageCorpus,
                       targets: Sequence[LanguageCorpus], shots: Optional[Shots],
                       spec: ModelSpec) -> Trained:
    """One-step training of a model of `spec`, from `init_params` of the
    plan's seed, on the pooled source + shots dataset (with surgery for
    gradient_mix_train); returns the chain, epoch 0 first, and the trace."""
    if plan.strategy not in ONE_STEP:
        raise ContractViolation(f"{plan.strategy} is not a one-step strategy")
    return train_lockstep([_pool_run(plan, source, targets, shots, spec)])[0]


def evaluate(model: ModelState, corpus: LanguageCorpus, split: str) -> float:
    """The split's metric, by its layout: accuracy for classification
    examples, token-level micro-F1 (leaving out `OUTSIDE_LABEL`) for token
    sequences. One forward pass over the whole split. Pure: identical
    inputs, identical value."""
    data = corpus.split(split)
    if len(data) == 0:
        raise ContractViolation(f"split {split!r} of {corpus.lang_id} is empty")
    pred = predict(model, data.X)
    if data.offsets is None:
        return int((pred == data.y).sum()) / len(data)
    return analysis.micro_f1(pred, data.y, outside_label=OUTSIDE_LABEL)


# --- stages and prefill ---------------------------------------------------------


class Stage(NamedTuple):
    """A trained phase that cells can share: its chains by model key, the
    dev curve of each of its languages that has a dev split, and (one-step
    stages) the surgery trace. States are immutable, so sharing a chain is
    safe; a cell copies the curves into its own record."""

    chains: Dict[str, Chain]
    curves: Dict[str, List[float]]
    trace: Optional[List[TraceEntry]] = None


class Failed(NamedTuple):
    """An entry that could not be made: the exception it raised, and the
    traceback `prefill` caught it with."""

    exc: Exception
    tb: Optional[TracebackType]


# One dict serves one Task and holds, by `stage_keys`, shot banks and stages,
# or how an entry failed when it was made.
Stages = Dict[tuple, Union[Stage, Shots, Failed]]

# Strategies that train the same adapted chains: ord_fs and ord_fs_dev
# differ only in selection.
ADAPT_FAMILY = {"ord_fs": "ord_fs", "ord_fs_dev": "ord_fs", "mix_ft": "mix_ft"}


def stage_keys(plan: TrainPlan, task: Task) -> Dict[str, tuple]:
    """The keys, by kind, under which `run_strategy(plan, task, stages=...)`
    looks up its shot bank ("shots") and the stages it shares ("source",
    "adapt", "one_step"). A key starts with its kind and names everything
    its entry depends on."""
    src = (plan.seed, plan.source_epochs, plan.batch_size, plan.lr, task.spec)
    keys = {} if plan.strategy == "zero_shot" else {
        "shots": ("shots", plan.seed, plan.k, plan.shot_mode)}
    if plan.strategy in ONE_STEP:
        keys["one_step"] = ("one_step", plan.strategy, plan.alpha) + src + (plan.k, plan.shot_mode)
    else:
        keys["source"] = ("source",) + src
    if plan.strategy in TWO_STEP:
        keys["adapt"] = ("adapt",) + src + (ADAPT_FAMILY[plan.strategy], plan.k, plan.shot_mode,
                                            plan.adapt_epochs, plan.effective_adapt_batch())
    return keys


def _lookup(stages: Stages, key: tuple):
    """The entry under `key`; an entry that could not be made raises its
    exception with the traceback `prefill` caught, not the last raise's."""
    entry = stages[key]
    if isinstance(entry, Failed):
        raise entry.exc.with_traceback(entry.tb)
    return entry


def _dev_curves(chain: Chain, corpora: Sequence[LanguageCorpus]) -> Dict[str, List[float]]:
    """Dev curve over epochs 1..E of a chain, for each corpus with a dev split."""
    models = [chain.state(e) for e in range(1, len(chain.states))]
    return {c.lang_id: [evaluate(m, c, "dev") for m in models] for c in corpora if len(c.dev) > 0}


def _best_epoch(curves: Dict[str, List[float]], lang: str, epochs: int) -> int:
    """The earliest peak of `lang`'s dev curve over `epochs` epochs, or 0
    (the state training started from) when there are none."""
    if epochs == 0:
        return 0
    if lang not in curves:
        raise ContractViolation(f"picking one of {epochs} epochs needs a dev split, "
                                f"but {lang} has none")
    return analysis.argmax_earliest(curves[lang])


def _job(kind: str, plan: TrainPlan, task: Task, stages: Stages
         ) -> Tuple[Dict[str, Run], Dict[str, Sequence[LanguageCorpus]]]:
    """The job of the plan's stage of `kind`: its runs and the corpora its
    dev curves cover, by model key. Its draws come from a fresh
    `RngStreams` of the seed, so a job is the same whatever ran before."""
    source, targets = task.source, task.targets
    keys = stage_keys(plan, task)
    if kind == "source":
        return {"source": _pool_run(plan, source, [], None, task.spec)}, {"source": [source]}
    shots = _lookup(stages, keys["shots"])
    if kind == "one_step":
        run = _pool_run(plan, source, targets, shots, task.spec)
        return {"model": run}, {"model": [source, *targets]}
    src = _lookup(stages, keys["source"])
    epoch = _best_epoch(src.curves, source.lang_id, plan.source_epochs)
    runs = _adapt_runs(src.chains["source"].state(epoch), shots, plan, targets,
                       RngStreams(plan.seed))
    return runs, _adapt_corpora(plan, targets)


def _made(kind: str, plans: Dict[tuple, TrainPlan], task: Task,
          stages: Stages) -> Dict[tuple, Union[Stage, Shots]]:
    """The entry of `kind` of each plan, by key: a shot bank, or a stage
    with each chain's dev curves. The runs of every job are made afresh and
    trained in one `train_lockstep` call."""
    if kind == "shots":
        return {key: build_shot_bank(task.targets, plan.k, plan.shot_mode, task.spec.num_classes,
                                     RngStreams(plan.seed))
                for key, plan in plans.items()}
    jobs = {}
    for key, plan in plans.items():  # a loop, so a failure's innermost frames name `_made`
        jobs[key] = _job(kind, plan, task, stages)
    results = iter(train_lockstep([run for job_runs, _ in jobs.values()
                                   for run in job_runs.values()]))
    made = {}
    for key, (job_runs, dev) in jobs.items():
        trained = {name: next(results) for name in job_runs}
        curves = {lang: curve for name, (chain, _) in trained.items()
                  for lang, curve in _dev_curves(chain, dev[name]).items()}
        traces = [trace for _, trace in trained.values() if trace is not None]
        made[key] = Stage({name: chain for name, (chain, _) in trained.items()}, curves,
                          *traces[:1])
    return made


def prefill(plans: Sequence[TrainPlan], task: Task, stages: Stages) -> None:
    """Make every entry that the cells of `plans` (one column: the seeds of a
    (strategy, K), ord_fs and ord_fs_dev at one K together) look up
    (`stage_keys`) and `stages` lacks, kind by kind: shot banks, then
    source, adapt and one-step stages, the runs of each kind across seeds
    and (ord_fs family) target languages trained in one `train_lockstep`
    call (`_made`); a kind with nothing to make is skipped. If that raises,
    each entry is made again alone. Never raises: an entry that cannot be
    made is stored as `Failed`, with the exception it raised alone, which
    every cell that looks it up raises."""
    for kind in ("shots", "source", "adapt", "one_step"):
        todo: Dict[tuple, TrainPlan] = {}
        for plan in plans:
            key = stage_keys(plan, task).get(kind)
            if key is not None and key not in stages:
                todo.setdefault(key, plan)
        if not todo:
            continue
        try:
            stages.update(_made(kind, todo, task, stages))
        except Exception:
            for key, plan in todo.items():
                try:
                    stages.update(_made(kind, {key: plan}, task, stages))
                except Exception as exc:
                    stages[key] = Failed(exc, exc.__traceback__)


# --- full strategy runs ---------------------------------------------------------


def run_strategy(plan: TrainPlan, task: Task, stages: Optional[Stages] = None) -> RunResult:
    """Execute one (strategy, k, seed) cell and assemble its run record
    from the shot bank and stages it looks up in `stages`, which `prefill`
    fills with what is missing. Cells given one dict share through it the
    shot bank, the source stage (zero_shot and every two-step cell), the
    adapt stage (ord_fs and ord_fs_dev) and the one-step stage; a stage
    trained in lockstep with other seeds is bitwise the one this cell
    trains alone. Without `stages`, the cell uses a fresh dict.
    """
    if stages is None:
        stages = {}
    prefill([plan], task, stages)
    targets = task.targets
    keys = stage_keys(plan, task)
    source = task.source
    all_langs = [source.lang_id] + [c.lang_id for c in targets]
    shots: Optional[Shots] = _lookup(stages, keys["shots"]) if "shots" in keys else None

    record: dict = {
        "format_version": 1,
        "strategy": plan.strategy,
        "k": plan.k,
        "seed": plan.seed,
        "plan": asdict(plan),
        "source_lang": source.lang_id,
        "languages": all_langs,
        "shot_indices": {lang: list(idx) for lang, idx in (shots or {}).items()},
    }
    checkpoints: Dict[str, Chain] = {}

    stage = _lookup(stages, keys["one_step" if plan.strategy in ONE_STEP else "source"])
    chain = stage.chains["model" if plan.strategy in ONE_STEP else "source"]
    trace = stage.trace
    curves = {lang: list(curve) for lang, curve in stage.curves.items()}

    if plan.strategy in TWO_STEP:
        src_epoch = _best_epoch(curves, source.lang_id, plan.source_epochs)
        checkpoints["source"] = chain
        record["source_selected_epoch"] = src_epoch
        record["source_dev_curve"] = curves.get(source.lang_id, [])
        model_key_of = {c.lang_id: key for key, corpora in _adapt_corpora(plan, targets).items()
                        for c in corpora}
        adapted = _lookup(stages, keys["adapt"])
        checkpoints.update(adapted.chains)
        epochs = plan.adapt_epochs
        curves = {lang: list(curve) for lang, curve in adapted.curves.items()}
        selected = {lang: _best_epoch(curves, lang, epochs) if plan.strategy == "ord_fs_dev"
                    else epochs for lang in model_key_of}
        model_key_of[source.lang_id] = "source"
        selected[source.lang_id] = src_epoch
        record["pool_size"] = sum(map(len, shots.values()))

    else:  # zero_shot and the one-step strategies: one model for every language
        if plan.strategy == "zero_shot":
            curves.update(_dev_curves(chain, targets))
        checkpoints["model"] = chain
        epochs = plan.source_epochs
        selected = dict.fromkeys(all_langs, _best_epoch(curves, source.lang_id, epochs))
        model_key_of = {lang: "model" for lang in all_langs}
        record["pool_size"] = len(source.train) + sum(map(len, (shots or {}).values()))

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
