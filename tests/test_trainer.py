from collections import Counter

import numpy as np
import pytest

from gradmix.analysis import argmax_earliest
from gradmix.corpora import (
    LanguageCorpus,
    Split,
    build_shot_bank,
    gen_synthetic_family,
)
from gradmix.models import ModelSpec, init_params, loss_and_grad
from gradmix.numcore import ContractViolation, RngStreams
from gradmix.trainer import (
    Task,
    TrainPlan,
    evaluate,
    run_mixed_training,
    run_source_training,
    run_strategy,
    run_target_adapting,
)

from conftest import tiny_profile
from oracles import class_counts, evaluate_per_example

SPEC = ModelSpec("softmax_classifier", 2, 8, 3)


@pytest.fixture(scope="module")
def tiny_task():
    corpora, _ = gen_synthetic_family(tiny_profile())
    return Task.from_corpora(SPEC, corpora)


def first_best(curve):
    """The 1-based epoch of a dev curve's maximum, the earliest on ties."""
    return max(range(len(curve)), key=lambda i: (curve[i], -i)) + 1


def selection_record(strategy, task):
    return run_strategy(plan(strategy, source_epochs=6, adapt_epochs=6), task).record


def plan(strategy, seed=1, **kw):
    base = dict(
        strategy=strategy, seed=seed, k=0 if strategy == "zero_shot" else 4,
        lr=0.3, source_epochs=3, adapt_epochs=3, batch_size=16,
    )
    base.update(kw)
    return TrainPlan(**base)


class TestTrainPlan:
    def test_zero_shot_requires_k_zero(self):
        with pytest.raises(ContractViolation):
            TrainPlan(strategy="zero_shot", seed=1, k=5)

    # The selection policy follows from the strategy; no plan field sets it.
    # Over 6 epochs, t1's own dev curve peaks at an epoch other than the one
    # source-dev selection and the last checkpoint pick.

    def test_two_step_forbids_source_dev(self, tiny_task):
        for strategy in ("ord_fs", "mix_ft"):  # last checkpoint
            rec = selection_record(strategy, tiny_task)
            assert rec["selected_epochs"] == {"t0": 6, "t1": 6, "s": rec["source_selected_epoch"]}
        with pytest.raises(TypeError, match="selection"):
            TrainPlan(strategy="ord_fs", seed=1, k=5, selection="source_dev")

    def test_one_step_forbids_target_dev_without_flag(self, tiny_task):
        for strategy in ("naive_mix_train", "gradient_mix_train"):
            rec = selection_record(strategy, tiny_task)
            curves = rec["dev_curves"]
            assert first_best(curves["t1"]) != first_best(curves["s"])
            assert rec["selected_epochs"] == dict.fromkeys(("s", "t0", "t1"),
                                                           first_best(curves["s"]))
        with pytest.raises(TypeError, match="unrealistic_target_dev"):
            TrainPlan(strategy="naive_mix_train", seed=1, k=5, unrealistic_target_dev=True)

    def test_defaults_per_strategy(self, tiny_task):
        rec = selection_record("zero_shot", tiny_task)  # source dev, like the one-step ones
        assert rec["selected_epochs"] == dict.fromkeys(("s", "t0", "t1"),
                                                       first_best(rec["dev_curves"]["s"]))
        assert "selection" not in rec["plan"]

    def test_ord_fs_dev_selection_pinned(self, tiny_task):
        rec = selection_record("ord_fs_dev", tiny_task)  # each target's own dev curve
        curves = rec["dev_curves"]
        assert first_best(curves["t1"]) != 6
        assert rec["selected_epochs"] == {"t0": first_best(curves["t0"]),
                                          "t1": first_best(curves["t1"]),
                                          "s": rec["source_selected_epoch"]}

    def test_bare_plan_uses_shipped_defaults(self):
        p = TrainPlan(strategy="zero_shot", seed=1)
        assert (p.lr, p.source_epochs, p.adapt_epochs, p.batch_size) == (0.5, 10, 10, 32)

    @pytest.mark.parametrize("field, value", [("adapt_batch_size", 0), ("adapt_batch_size", -3),
                                              ("batch_size", 0)])
    def test_batch_sizes_below_one_refused_by_name(self, field, value):
        with pytest.raises(ContractViolation, match=f"^{field}: {value} is not an integer >= 1"):
            TrainPlan(strategy="ord_fs", seed=1, k=2, **{field: value})

    def test_adapt_batch_defaults_to_k(self):
        assert TrainPlan(strategy="ord_fs", seed=1, k=7).effective_adapt_batch() == 7
        assert TrainPlan(
            strategy="ord_fs", seed=1, k=7, adapt_batch_size=3
        ).effective_adapt_batch() == 3


class TestTask:
    """The spec owns the data's shape: building a Task checks every split
    that holds examples against its layout, width and class count."""

    @pytest.mark.parametrize("spec, error", [
        (ModelSpec("mlp_token_tagger", 2, 4, 3),
         "s train: mlp_token_tagger cannot take a batch of this layout (without sequence offsets)"),
        (ModelSpec("softmax_classifier", 3, 4, 3), "s train: features have dim 2, expected 3"),
        (ModelSpec("softmax_classifier", 2, 4, 2), "s train: label 2 out of range [0, 2)"),
    ], ids=["layout", "width", "classes"])
    def test_spec_that_disagrees_with_the_corpora_refused(self, spec, error):
        corpora, _ = gen_synthetic_family(tiny_profile())
        for build in (lambda: Task.from_corpora(spec, corpora),
                      lambda: Task(spec, corpora[0], tuple(corpora[1:]))):
            with pytest.raises(ContractViolation) as refused:
                build()
            assert str(refused.value) == error


class TestSourceTraining:
    def test_zero_epochs_returns_initial(self, tiny_task):
        p = plan("zero_shot", source_epochs=0)
        chain = run_source_training(p, tiny_task.source, spec=SPEC)
        assert len(chain) == 1
        assert chain[0].theta.bitwise_equal(init_params(SPEC, RngStreams(p.seed)).theta)

    def test_same_seed_identical_checkpoints(self, tiny_task):
        p = plan("zero_shot")
        a = run_source_training(p, tiny_task.source, spec=SPEC)
        b = run_source_training(p, tiny_task.source, spec=SPEC)
        assert len(a) == len(b) == p.source_epochs + 1
        for ca, cb in zip(a, b):
            assert ca.theta.bitwise_equal(cb.theta)

    def test_training_reduces_source_loss(self, bench):
        corpora, _ = bench
        spec = ModelSpec("softmax_classifier", 2, 64, 3)
        task = Task.from_corpora(spec, corpora)
        p = TrainPlan(strategy="zero_shot", seed=1, source_epochs=5)  # default lr
        chain = run_source_training(p, task.source, spec=spec)
        batch = task.source.train
        initial = loss_and_grad(chain[0], batch).loss
        final = loss_and_grad(chain[-1], batch).loss
        assert final < initial


class TestTargetAdapting:
    def test_ord_fs_one_model_per_language(self, tiny_task):
        p = plan("ord_fs")
        rng = RngStreams(p.seed)
        source_model = init_params(SPEC, rng)
        shots = build_shot_bank(tiny_task.targets, p.k, p.shot_mode, SPEC.num_classes, rng)
        adapted = run_target_adapting(source_model, shots, p, tiny_task.targets, rng=rng)
        assert set(adapted.keys()) == {"t0", "t1"}
        for chain in adapted.values():
            assert len(chain) == p.adapt_epochs + 1
            assert chain[0] is source_model
        assert not adapted["t0"][-1].theta.bitwise_equal(adapted["t1"][-1].theta)

    def test_mix_ft_single_model(self, tiny_task):
        p = plan("mix_ft")
        rng = RngStreams(p.seed)
        source_model = init_params(SPEC, rng)
        shots = build_shot_bank(tiny_task.targets, p.k, p.shot_mode, SPEC.num_classes, rng)
        adapted = run_target_adapting(source_model, shots, p, tiny_task.targets, rng=rng)
        assert set(adapted.keys()) == {"adapted"}
        assert len(adapted["adapted"]) == p.adapt_epochs + 1
        assert adapted["adapted"][0] is source_model

    def test_adapt_zero_epochs_keeps_source_model(self, tiny_task):
        res = run_strategy(plan("ord_fs", adapt_epochs=0), tiny_task)
        zs = run_strategy(plan("zero_shot"), tiny_task)
        for lang in ("t0", "t1"):
            assert res.selected_model(lang).theta.bitwise_equal(
                zs.selected_model(lang).theta
            )
            assert res.record["test_metrics"][lang] == zs.record["test_metrics"][lang]


class TestMixedTraining:
    def test_alpha_zero_matches_naive_bitwise_per_step(self, tiny_task):
        trajs = {}
        for strategy, alpha in (("naive_mix_train", 0.0), ("gradient_mix_train", 0.0)):
            steps = []
            run_strategy(
                plan(strategy, alpha=alpha),
                tiny_task,
                step_hook=lambda i, st: steps.append(st.theta.tobytes()),
            )
            trajs[strategy] = steps
        assert trajs["naive_mix_train"] == trajs["gradient_mix_train"]
        assert len(trajs["naive_mix_train"]) > 0

    def test_surgery_changes_trajectory_when_applied(self, tiny_task):
        naive = run_strategy(plan("naive_mix_train"), tiny_task)
        grad = run_strategy(plan("gradient_mix_train", alpha=1.0), tiny_task)
        assert grad.record["surgery_stats"]["applied"] > 0
        assert not grad.checkpoints["model"][-1].theta.bitwise_equal(
            naive.checkpoints["model"][-1].theta
        )

    def test_zero_targets_matches_source_only_bitwise(self, tiny_task):
        no_targets = Task(SPEC, tiny_task.source, ())
        naive_steps = []
        run_strategy(plan("naive_mix_train"), no_targets,
                     step_hook=lambda i, st: naive_steps.append(st.theta.tobytes()))
        src_steps = []
        p2 = plan("zero_shot")
        run_strategy(p2, tiny_task, step_hook=lambda i, st: src_steps.append(st.theta.tobytes()))
        assert naive_steps == src_steps

    def test_gradient_requires_targets(self, tiny_task):
        with pytest.raises(ContractViolation, match="target"):
            run_strategy(plan("gradient_mix_train"), Task(SPEC, tiny_task.source, ()))

    def test_language_subset_restricts_pool(self, tiny_task):
        # training on some targets is a task of those targets
        t0_only = Task(SPEC, tiny_task.source, tiny_task.targets[:1])
        res = run_strategy(plan("gradient_mix_train"), t0_only)
        assert res.record["pool_size"] == len(tiny_task.source.train) + 4
        assert set(res.record["shot_indices"].keys()) == {"t0"}

    def test_run_mixed_training_rejects_two_step(self, tiny_task):
        with pytest.raises(ContractViolation):
            run_mixed_training(plan("ord_fs"), tiny_task.source, tiny_task.targets, None)


class TestEvaluate:
    def test_perfect_predictor(self, tiny_task):
        model = init_params(SPEC, RngStreams(0))
        corpus = tiny_task.source
        from gradmix.models import predict

        relabeled = LanguageCorpus(
            lang_id="self", script_tag="x", role="target",
            test=Split(corpus.test.X, [predict(model, x) for x in corpus.test.X]),
        )
        assert evaluate(model, relabeled, "test") == 1.0

    def test_constant_predictor_on_balanced_split(self):
        corpora, _ = gen_synthetic_family(tiny_profile())
        corpus = corpora[0]
        spec = ModelSpec("softmax_classifier", 2, 0, 3)
        theta = np.zeros(spec.param_dim)
        theta[-3] = 100.0  # bias strongly favoring class 0
        from gradmix.models import ModelState
        from gradmix.numcore import ParamVec

        model = ModelState(spec=spec, theta=ParamVec(theta))
        acc = evaluate(model, corpus, "dev")
        counts = class_counts(corpus, "dev")
        assert acc == counts[0] / counts.sum()

    def test_pure(self, tiny_task):
        model = init_params(SPEC, RngStreams(1))
        a = evaluate(model, tiny_task.source, "dev")
        b = evaluate(model, tiny_task.source, "dev")
        assert a == b

    def test_empty_split_rejected(self):
        corpus = LanguageCorpus(lang_id="e", script_tag="x", role="target")
        model = init_params(ModelSpec("softmax_classifier", 2, 0, 2), RngStreams(0))
        with pytest.raises(ContractViolation, match="empty"):
            evaluate(model, corpus, "test")

    def test_token_corpus_micro_f1(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec("mlp_token_tagger", 2, 4, 3)
        model = init_params(spec, RngStreams(5))
        from gradmix.models import predict

        seqs = [rng.normal(size=(4, 2)) for _ in range(5)]
        corpus = LanguageCorpus(
            lang_id="tok", script_tag="x", role="target",
            test=Split(np.concatenate(seqs), np.concatenate([predict(model, x) for x in seqs]),
                       offsets=np.arange(0, 21, 4)),
        )
        assert evaluate(model, corpus, "test") == 1.0

    def test_matches_per_example_reference_classifier(self, bench):
        corpora, _ = bench
        task = Task.from_corpora(ModelSpec("softmax_classifier", 2, 64, 3), corpora)
        res = run_strategy(
            TrainPlan(strategy="naive_mix_train", seed=2, k=5, lr=0.5, source_epochs=3),
            task,
        )
        chain = res.checkpoints["model"]
        assert len(chain) == 4
        for model in chain:
            for corpus in corpora:
                for split in ("train", "dev", "test"):
                    got = evaluate(model, corpus, split)
                    assert got == evaluate_per_example(model, corpus, split)

    def test_matches_per_example_reference_ragged_tagger(self):
        rng = np.random.default_rng(4)
        spec = ModelSpec("mlp_token_tagger", 3, 6, 4)
        lens = rng.integers(1, 9, size=40)
        corpus = LanguageCorpus(
            lang_id="tok", script_tag="x", role="target",
            test=Split(rng.normal(size=(lens.sum(), 3)), rng.integers(4, size=lens.sum()),
                       offsets=np.concatenate([[0], np.cumsum(lens)])),
        )
        for seed in range(5):
            model = init_params(spec, RngStreams(seed))
            assert evaluate(model, corpus, "test") == evaluate_per_example(model, corpus, "test")


class TestEpochSelection:
    """One rule picks every selected epoch: the earliest peak of one dev
    curve (`argmax_earliest`, 1-based), or epoch 0 when there are no
    epochs to pick from."""

    @pytest.mark.parametrize("curve, epoch", [
        ([0.1, 0.2, 0.3], 3), ([0.9, 0.5, 0.4], 1), ([0.2, 0.7, 0.4], 2), ([0.5, 0.5, 0.5], 1),
        ([0.1, 0.6, 0.6, 0.2], 2),
    ], ids=["rising-selects-last", "peak-then-fall", "peak-inside", "all-equal-selects-first",
            "tie-selects-earliest"])
    def test_earliest_peak(self, curve, epoch):
        assert argmax_earliest(curve) == epoch

    @pytest.mark.parametrize("strategy", ["ord_fs", "ord_fs_dev", "mix_ft"])
    def test_source_epoch_starts_every_adapted_chain(self, tiny_task, strategy):
        res = run_strategy(plan(strategy, source_epochs=6, adapt_epochs=2), tiny_task)
        rec = res.record
        src_epoch = rec["source_selected_epoch"]
        assert src_epoch == first_best(rec["source_dev_curve"]) == rec["selected_epochs"]["s"]
        start = res.checkpoints["source"][src_epoch]
        for key in set(rec["model_key_of"].values()) - {"source"}:
            assert res.checkpoints[key][0].theta.bitwise_equal(start.theta)

    # With no epochs to pick from, no dev curve is needed: each case runs
    # on a corpus without a dev split and selects epoch 0.
    @pytest.mark.parametrize("strategy, epochs, bare, zero", [
        ("zero_shot", {"source_epochs": 0}, "s", ("s", "t0", "t1")),
        ("naive_mix_train", {"source_epochs": 0}, "s", ("s", "t0", "t1")),
        ("ord_fs", {"source_epochs": 0}, "s", ("s",)),
        ("ord_fs_dev", {"adapt_epochs": 0}, "t0", ("t0", "t1")),
    ], ids=["zero_shot", "naive_mix_train", "ord_fs", "ord_fs_dev"])
    def test_zero_epochs_select_epoch_zero_without_a_dev_split(self, strategy, epochs, bare,
                                                                zero):
        corpora, _ = gen_synthetic_family(tiny_profile())
        corpora = [LanguageCorpus(c.lang_id, c.script_tag, c.role, train=c.train, test=c.test)
                   if c.lang_id == bare else c for c in corpora]
        rec = run_strategy(plan(strategy, **epochs), Task.from_corpora(SPEC, corpora)).record
        assert bare not in rec["dev_curves"]
        assert {lang: rec["selected_epochs"][lang] for lang in zero} == dict.fromkeys(zero, 0)


class TestRunStrategy:
    @pytest.mark.parametrize(
        "strategy", ["zero_shot", "ord_fs", "ord_fs_dev", "mix_ft",
                     "naive_mix_train", "gradient_mix_train"],
    )
    def test_record_shape(self, tiny_task, strategy):
        res = run_strategy(plan(strategy), tiny_task)
        rec = res.record
        epochs = rec["epochs"]
        for lang, curve in rec["dev_curves"].items():
            assert len(curve) == epochs
        for lang, e in rec["selected_epochs"].items():
            assert 0 <= e <= max(epochs, rec.get("source_selected_epoch", epochs))
        assert set(rec["test_metrics"]) == {"s", "t0", "t1"}
        assert rec["macro_target_test"] == pytest.approx(
            (rec["test_metrics"]["t0"] + rec["test_metrics"]["t1"]) / 2
        )

    def test_same_shots_across_strategies(self, tiny_task):
        records = [
            run_strategy(plan(s), tiny_task).record
            for s in ("ord_fs", "mix_ft", "naive_mix_train", "gradient_mix_train")
        ]
        shots = [r["shot_indices"] for r in records]
        assert all(s == shots[0] for s in shots)

    def test_different_seeds_different_shots(self, tiny_task):
        a = run_strategy(plan("ord_fs", seed=1), tiny_task).record["shot_indices"]
        b = run_strategy(plan("ord_fs", seed=2), tiny_task).record["shot_indices"]
        assert a != b

    def test_ord_fs_dev_needs_dev_split(self):
        corpora, _ = gen_synthetic_family(tiny_profile())
        src = corpora[0]
        bare = LanguageCorpus(lang_id="t0", script_tag="x", role="target",
                              train=corpora[1].train, test=corpora[1].test)
        task = Task.from_corpora(SPEC, [src, bare])
        with pytest.raises(ContractViolation, match="t0 has none"):
            run_strategy(plan("ord_fs_dev"), task)

    def test_two_step_needs_source_dev_split(self):
        corpora, _ = gen_synthetic_family(tiny_profile())
        src = corpora[0]
        bare = LanguageCorpus(
            lang_id="s", script_tag="sc0", role="source", train=src.train, test=src.test,
        )
        task = Task.from_corpora(SPEC, [bare] + list(corpora[1:]))
        with pytest.raises(ContractViolation, match="s has none"):
            run_strategy(plan("mix_ft"), task, stages={})

    def test_identical_distributions_zero_shot_parity(self):
        corpora, _ = gen_synthetic_family(tiny_profile(identical=True, train=200))
        task = Task.from_corpora(SPEC, corpora)
        res = run_strategy(
            TrainPlan(strategy="zero_shot", seed=1, lr=0.3, source_epochs=6), task
        )
        tm = res.record["test_metrics"]
        for lang in ("t0", "t1"):
            assert abs(tm[lang] - tm["s"]) <= 0.12


class TestDevFreeTarget:
    """A target with train and test splits but no dev split."""

    @pytest.fixture(scope="class")
    def devfree_task(self):
        corpora, _ = gen_synthetic_family(tiny_profile())
        bare = LanguageCorpus(lang_id="t0", script_tag="x", role="target",
                              train=corpora[1].train, test=corpora[1].test)
        return Task.from_corpora(SPEC, [corpora[0], bare, corpora[2]])

    @pytest.mark.parametrize(
        "strategy", ["zero_shot", "ord_fs", "mix_ft", "naive_mix_train", "gradient_mix_train"],
    )
    def test_shared_selection_scores_target(self, devfree_task, strategy):
        res = run_strategy(plan(strategy), devfree_task)
        rec = res.record
        assert "t0" not in rec["dev_curves"]
        assert rec["selected_epochs"]["t0"] == rec["selected_epochs"]["t1"]
        assert set(rec["test_metrics"]) == {"s", "t0", "t1"}
        bare = devfree_task.targets[0]
        assert rec["test_metrics"]["t0"] == evaluate(res.selected_model("t0"), bare, "test")


def kinds(stages):
    """How many entries of each kind (the first item of a key) a stages dict holds."""
    return dict(Counter(key[0] for key in stages))


class TestStages:
    """Cells of one seed sharing trained phases through one stages dict."""

    STRATEGIES = ("zero_shot", "ord_fs", "ord_fs_dev", "mix_ft", "naive_mix_train",
                  "gradient_mix_train")

    @pytest.mark.parametrize("adapt_batch_size", [None, 2])
    def test_grouped_cells_equal_reference(self, tiny_task, adapt_batch_size):
        for seed in (1, 2):
            stages = {}
            for strategy in self.STRATEGIES:
                for k in ((0,) if strategy == "zero_shot" else (2, 4)):
                    p = plan(strategy, seed=seed, k=k, adapt_batch_size=adapt_batch_size)
                    got = run_strategy(p, tiny_task, stages=stages)
                    want = run_strategy(p, tiny_task)
                    assert got.record == want.record
                    assert list(got.checkpoints) == list(want.checkpoints)
                    for key, chain in want.checkpoints.items():
                        assert len(got.checkpoints[key]) == len(chain)
                        for a, b in zip(got.checkpoints[key], chain):
                            assert a.theta.bitwise_equal(b.theta)
            # one source stage; per K: one shot bank, one ord_fs-family and one
            # mix_ft adapt stage, and one naive and one gradient one-step stage
            assert kinds(stages) == {"shots": 2, "source": 1, "adapt": 2 * 2, "one_step": 2 * 2}

    def test_zero_shot_shares_the_two_step_source_chain(self, tiny_task):
        stages = {}
        zs = run_strategy(plan("zero_shot"), tiny_task, stages=stages)
        two = run_strategy(plan("mix_ft"), tiny_task, stages=stages)
        assert zs.checkpoints["model"] is two.checkpoints["source"]

    def test_step_hook_sees_every_step_of_a_shared_source(self, tiny_task):
        stages = {}
        run_strategy(plan("ord_fs"), tiny_task, stages=stages)
        steps = []
        run_strategy(plan("zero_shot"), tiny_task, stages=stages,
                     step_hook=lambda i, st: steps.append(i))
        ref = []
        run_strategy(plan("zero_shot"), tiny_task, step_hook=lambda i, st: ref.append(i))
        assert steps == ref and steps
