"""Lockstep training against the per-run reference: `prefill` followed by
`run_strategy` gives every cell the record, chains and surgery trace that
the cell gets alone, trained run by run by `oracles.train_loop`, bit for
bit."""

import dataclasses
import json
import traceback

import numpy as np
import pytest

import oracles
from gradmix import trainer
from gradmix.cli import failure_entry
from gradmix.corpora import (
    LanguageCorpus,
    Split,
    build_mixed_dataset,
    build_shot_bank,
    gen_synthetic_family,
)
from gradmix.models import ModelSpec, ModelState, init_params
from gradmix.numcore import ContractViolation, RngStreams
from gradmix.surgery import decide
from gradmix.trainer import (
    STRATEGIES,
    Run,
    Task,
    TrainPlan,
    prefill,
    run_strategy,
    stackable,
    stage_keys,
    train_lockstep,
)

from conftest import tiny_profile


@pytest.fixture(scope="module")
def corpora():
    return gen_synthetic_family(tiny_profile(n_targets=3, train=45))[0]


def make_task(corpora, hidden):
    return Task.from_corpora(ModelSpec("softmax_classifier", 2, hidden, 3), corpora)


def column(strategy, k, seeds, **kw):
    """The plans of one grid column."""
    kw = dict(dict(source_epochs=3, adapt_epochs=3, batch_size=8, lr=0.4, alpha=0.6), **kw)
    return [TrainPlan(strategy=strategy, seed=seed, k=0 if strategy == "zero_shot" else k,
                      **kw) for seed in seeds]


def chain_bytes(chain):
    return chain.states.tobytes()


def trace_text(trace):
    return None if trace is None else json.dumps([dataclasses.asdict(e) for e in trace])


def check_column(task, plans, monkeypatch):
    """Prefill the column, each kind of stage in one stack, then compare
    each cell with the reference."""
    stages, stacks = {}, []
    with monkeypatch.context() as m:
        lockstep = trainer.train_lockstep
        m.setattr(trainer, "train_lockstep",
                  lambda runs, step_hook=None: stacks.append(runs) or lockstep(runs, step_hook))
        prefill(plans, task, stages)
    kinds = {kind for plan in plans for kind in stage_keys(plan, task)} - {"shots"}
    assert len(stacks) == len(kinds)  # no run trained alone, no stack trained again
    for plan in plans:
        # every stage the cell shares came from the stack
        assert not [key for key in stage_keys(plan, task).values()
                    if isinstance(stages[key], trainer.Failed)]
        got = run_strategy(plan, task, stages=stages)
        with monkeypatch.context() as m:
            m.setattr(trainer, "train_lockstep", oracles.train_one_by_one)
            want = run_strategy(plan, task)
        assert json.dumps(got.record) == json.dumps(want.record)
        assert {k: chain_bytes(c) for k, c in got.checkpoints.items()} == {
            k: chain_bytes(c) for k, c in want.checkpoints.items()}
        assert trace_text(got.trace) == trace_text(want.trace)
    return stages


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("hidden", [0, 6])
@pytest.mark.parametrize("k, shot_mode",
                         [(1, "k_shot"), (1, "n_way_k_shot"), (3, "n_way_k_shot")])
def test_every_strategy_equals_per_run(corpora, monkeypatch, strategy, hidden, k, shot_mode):
    # K=1 k_shot adapts on one-row batches; n-way K=3 on batches of 3 of 9 rows.
    plans = column(strategy, k, (1, 2, 3), shot_mode=shot_mode)
    check_column(make_task(corpora, hidden), plans, monkeypatch)


@pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("n_way", [False, True])  # n-way: K shots of each class per language
@pytest.mark.parametrize("hidden", [0, 6])
def test_surgery_equals_per_run(corpora, monkeypatch, alpha, n_way, hidden):
    plans = column("gradient_mix_train", 2, (4, 5, 6), alpha=alpha, batch_size=5,
                   shot_mode="n_way_k_shot" if n_way else "k_shot")
    stages = check_column(make_task(corpora, hidden), plans, monkeypatch)
    traces = [stage.trace for key, stage in stages.items() if key[0] == "one_step"]
    entries = [entry for trace in traces for entry in trace]
    if alpha > 0:
        assert any(entry.applied for entry in entries)
    assert all(entry.cos_before is not None for entry in entries)  # every oracle measured


@pytest.mark.parametrize("n_seeds", [2, 3, 4, 5])
@pytest.mark.parametrize("strategy", ["ord_fs", "mix_ft", "gradient_mix_train"])
def test_stacks_of_two_to_five_seeds(corpora, monkeypatch, n_seeds, strategy):
    check_column(make_task(corpora, 6), column(strategy, 2, range(1, n_seeds + 1)),
                 monkeypatch)


@pytest.mark.parametrize("strategy", ["ord_fs_dev", "mix_ft", "naive_mix_train",
                                      "gradient_mix_train"])
def test_language_subset(corpora, monkeypatch, strategy):
    # training on some targets is a task of those targets, in the order given
    task = make_task([corpora[0], corpora[3], corpora[1]], 6)
    check_column(task, column(strategy, 2, (1, 2)), monkeypatch)
    record = run_strategy(column(strategy, 2, (1,))[0], task).record
    assert record["languages"] == ["s", "t2", "t0"]
    assert list(record["shot_indices"]) == ["t2", "t0"]


def test_ord_fs_family_stacks_every_seed_and_language(corpora, monkeypatch):
    task = make_task(corpora, 6)
    sizes = []
    lockstep = trainer.train_lockstep
    monkeypatch.setattr(trainer, "train_lockstep", lambda runs, step_hook=None:
                        sizes.append(len(runs)) or lockstep(runs, step_hook))
    stages = check_column(task, column("ord_fs", 2, (1, 2)), monkeypatch)
    assert sizes == [2, 2 * 3]  # the source of 2 seeds, then 2 seeds x 3 targets
    assert sum(key[0] == "adapt" for key in stages) == 2
    # ord_fs_dev shares the stage and trains nothing more
    for plan in column("ord_fs_dev", 2, (1, 2)):
        run_strategy(plan, task, stages=stages)
    assert sizes == [2, 2 * 3]
    assert sum(key[0] == "adapt" for key in stages) == 2


def test_columns_differing_in_one_plan_field_share_nothing(corpora, monkeypatch):
    task = make_task(corpora, 6)
    for strategy in ("ord_fs", "gradient_mix_train"):
        stages = {}
        for lr in (0.4, 0.2):
            plans = column(strategy, 2, (1, 2), lr=lr)
            prefill(plans, task, stages)
            for plan in plans:
                got = run_strategy(plan, task, stages=stages)
                assert json.dumps(got.record) == json.dumps(run_strategy(plan, task).record)


def test_single_seed_stages_made_by_prefill(corpora, monkeypatch):
    task = make_task(corpora, 6)
    stages = check_column(task, column("gradient_mix_train", 2, (1,)), monkeypatch)
    assert sorted(key[0] for key in stages) == ["one_step", "shots"]
    # the ord_fs family stacks its 3 targets
    stages = check_column(task, column("ord_fs", 2, (1,)), monkeypatch)
    assert sorted(key[0] for key in stages) == ["adapt", "shots", "source"]


def innermost(exc):
    """The innermost three frames of an exception raised from a test, the
    test's own frame left out."""
    return [(f.name, f.lineno) for f in traceback.extract_tb(exc.__traceback__)[1:]][-3:]


def test_prefill_never_raises_and_cells_raise_what_it_could_not_make(corpora):
    task = make_task(corpora, 6)
    stages = {}
    task = Task(task.spec, task.source, ())
    failing = {  # no targets: no oracle bank, nothing to adapt on
        "requires at least one target language": column("gradient_mix_train", 2, (1, 2)),
        "target adapting requires a non-empty shot bank": column("ord_fs", 2, (1, 2)),
    }
    for plans in failing.values():
        prefill(plans, task, stages)
    assert {(key[0], type(entry).__name__) for key, entry in stages.items()} == {
        ("shots", "dict"), ("source", "Stage"),
        ("one_step", "Failed"), ("adapt", "Failed")}
    for match, plans in failing.items():
        for plan in plans:
            with pytest.raises(ContractViolation, match=match) as stored:
                run_strategy(plan, task, stages=stages)
            with pytest.raises(ContractViolation, match=match) as alone:
                run_strategy(plan, task)
            assert str(stored.value) == str(alone.value)
            assert innermost(stored.value) == innermost(alone.value)


def test_a_stored_error_raises_the_same_frames_every_time(corpora):
    task = make_task(corpora[:1], 6)  # no targets
    stages = {}
    plans = column("ord_fs", 2, (1,))
    prefill(plans, task, stages)
    raised = []
    for _ in range(4):
        with pytest.raises(ContractViolation, match="non-empty shot bank") as stored:
            run_strategy(plans[0], task, stages=stages)
        raised.append((len(traceback.extract_tb(stored.value.__traceback__)),
                       failure_entry("cell", stored.value)))
    assert raised == raised[:1] * 4


def token_corpus(lang_id, role, rng):
    lens = rng.integers(1, 5, size=12)
    split = Split(rng.normal(size=(lens.sum(), 2)), rng.integers(3, size=lens.sum()),
                  offsets=np.concatenate([[0], np.cumsum(lens)]))
    return LanguageCorpus(lang_id=lang_id, script_tag="x", role=role, train=split, dev=split,
                          test=split)


def source_runs(corpora, seeds, spec=ModelSpec("softmax_classifier", 2, 6, 3), **kw):
    plan = TrainPlan(strategy="zero_shot", seed=0, source_epochs=2, batch_size=8)
    runs = []
    for seed in seeds:
        rng = RngStreams(seed)
        pool = build_mixed_dataset(corpora[0], [], None)
        run = Run(init_params(spec, rng), pool, plan.source_epochs, plan.batch_size, plan.lr,
                  rng, "pool")
        runs.append(run._replace(**kw))
    return runs


def tagger_task(rng):
    return Task.from_corpora(ModelSpec("mlp_token_tagger", 2, 4, 3), [
        token_corpus("s", "source", rng), token_corpus("t", "target", rng)])


class TestStackable:
    def test_dense_pools_of_one_size_stack(self, corpora):
        runs = source_runs(corpora, (1, 2))
        assert stackable(runs)
        got = train_lockstep(runs)
        want = [oracles.train_loop(run) for run in source_runs(corpora, (1, 2))]
        assert [chain_bytes(c) for c, _ in got] == [chain_bytes(c) for c, _ in want]

    def test_chains_are_read_only(self, corpora):
        runs = source_runs(corpora, (1, 2))
        for (chain, _), run in zip(train_lockstep(runs), runs):
            assert chain.states.shape == (run.epochs + 1, run.state0.spec.param_dim)
            assert not chain.states.flags.writeable
            with pytest.raises(ValueError):
                chain.states[-1, 0] = 0.0
            assert chain.states[0].tobytes() == run.state0.theta.tobytes()

    def test_one_run_of_either_layout_stacks(self, corpora):
        tagger = tagger_task(np.random.default_rng(0))
        for spec, corpus in ((ModelSpec("softmax_classifier", 2, 6, 3), corpora[0]),
                             (tagger.spec, tagger.source)):
            [run] = source_runs([corpus], (1,), spec=spec, batch_size=3)
            assert stackable([run])
            seen, ref = [], []
            [(chain, _)] = train_lockstep([run], lambda i, st: seen.append(st.theta.tobytes()))
            want, _ = oracles.train_loop(source_runs([corpus], (1,), spec=spec, batch_size=3)[0],
                                         lambda i, st: ref.append(st.theta.tobytes()))
            assert chain_bytes(chain) == chain_bytes(want)
            assert seen == ref and len(seen) > 2 * 2

    def test_a_step_hook_needs_one_run(self, corpora):
        with pytest.raises(ContractViolation, match="a step hook needs a stack of one run"):
            train_lockstep(source_runs(corpora, (1, 2)), lambda i, st: None)

    def test_ragged_batch_without_tokens_refused(self):
        # sequences without tokens: with one sequence per batch, some batch holds none
        rng = np.random.default_rng(3)
        lens = np.array([0, 2, 0, 3, 1, 0])
        split = Split(rng.normal(size=(lens.sum(), 2)), rng.integers(3, size=lens.sum()),
                      offsets=np.concatenate([[0], np.cumsum(lens)]))
        corpus = LanguageCorpus(lang_id="s", script_tag="x", role="source", train=split)
        runs = source_runs([corpus], (1,), spec=ModelSpec("mlp_token_tagger", 2, 4, 3),
                           batch_size=1)
        with pytest.raises(ContractViolation, match="batch contains no tokens"):
            train_lockstep(runs)

    def test_what_does_not_stack(self, corpora):
        runs = source_runs(corpora, (1, 2))
        shots = build_shot_bank(corpora[1:2], 2, "k_shot", 3, RngStreams(0))
        tagger = tagger_task(np.random.default_rng(0))
        ragged = source_runs([tagger.source], (1, 2), spec=tagger.spec)
        cases = {
            "no run": [],
            "ragged tagger pools": ragged,
            "pools of two sizes": [runs[0], runs[1]._replace(
                pool=build_mixed_dataset(corpora[0], corpora[1:2], shots))],
            "two learning rates": [runs[0], runs[1]._replace(lr=0.1)],
            "two epoch counts": [runs[0], runs[1]._replace(epochs=1)],
        }
        for name, case in cases.items():
            assert not stackable(case), name
            with pytest.raises(ContractViolation, match="lockstep training needs"):
                train_lockstep(case)

    def test_checks_of_the_per_run_path_stay(self, corpora):
        runs = source_runs(corpora, (1, 2))
        with pytest.raises(ContractViolation, match="lr must be non-negative"):
            train_lockstep([run._replace(lr=-0.1) for run in runs])
        wrong = source_runs(corpora, (1, 2), spec=ModelSpec("softmax_classifier", 2, 6, 2))
        with pytest.raises(ContractViolation, match="out of range"):
            train_lockstep(wrong)
        narrow = source_runs(corpora, (1, 2), spec=ModelSpec("softmax_classifier", 3, 6, 3))
        with pytest.raises(ContractViolation, match="features have dim 2, expected 3"):
            train_lockstep(narrow)


class TestDecide:
    """`surgery.decide` on hand-made stacks."""

    def test_coin_equal_to_alpha_does_not_apply(self):
        G = np.array([[1.0, -2.0], [1.0, -2.0]])
        out, entries = decide(G, -G, [("t", 0.5), ("t", 0.25)], 7, 0.5)
        assert [(e.conflicted, e.applied) for e in entries] == [(True, False), (True, True)]
        assert out[0].tobytes() == G[0].tobytes() and not out[1].any()
        assert entries[0].cos_before == entries[0].cos_after < -0.999  # measured, not applied
        assert all(e.step == 7 for e in entries)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestNonFinite:
    def test_non_finite_loss_of_one_slice_raises(self, corpora):
        runs = source_runs(corpora, (1, 2))
        huge = runs[1].state0.theta * 0 + 1.5e308
        runs[1] = runs[1]._replace(state0=ModelState(runs[1].state0.spec, huge))
        with pytest.raises(ContractViolation, match="non-finite loss"):
            train_lockstep(runs)

    def test_non_finite_update_raises(self, corpora):
        # Huge features with a linear model: loss and gradient stay finite,
        # lr times the gradient does not.
        source = corpora[0]
        huge = dataclasses.replace(source, train=Split(source.train.X * 1e300, source.train.y))
        runs = source_runs([huge], (1, 2), spec=ModelSpec("softmax_classifier", 2, 0, 3),
                           lr=1e10)
        for stack in (runs[:1], runs):
            with pytest.raises(ContractViolation, match="non-finite parameters"):
                train_lockstep(stack)
