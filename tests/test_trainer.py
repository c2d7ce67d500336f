from collections import Counter

import numpy as np
import pytest

from gradmix.corpora import (
    LanguageCorpus,
    Split,
    build_shot_bank,
    gen_synthetic_family,
)
from gradmix.models import ModelSpec, init_params, loss_and_grad
from gradmix.numcore import ContractViolation, RngStreams
from gradmix.trainer import (
    Failed,
    Task,
    TrainPlan,
    evaluate,
    run_mixed_training,
    run_source_training,
    run_strategy,
    run_target_adapting,
    select_model,
)

from conftest import tiny_profile
from oracles import class_counts, evaluate_per_example

SPEC = ModelSpec("softmax_classifier", 2, 8, 3)


@pytest.fixture(scope="module")
def tiny_task():
    corpora, _ = gen_synthetic_family(tiny_profile())
    return Task.from_corpora(SPEC, corpora)


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

    def test_two_step_forbids_source_dev(self):
        with pytest.raises(ContractViolation, match="source dev"):
            TrainPlan(strategy="ord_fs", seed=1, k=5, selection="source_dev")

    def test_one_step_forbids_target_dev_without_flag(self):
        with pytest.raises(ContractViolation, match="unrealistic_target_dev"):
            TrainPlan(strategy="naive_mix_train", seed=1, k=5, selection="target_dev")
        TrainPlan(
            strategy="naive_mix_train", seed=1, k=5, selection="target_dev",
            unrealistic_target_dev=True,
        )

    def test_defaults_per_strategy(self):
        assert TrainPlan(strategy="zero_shot", seed=1).selection == "source_dev"
        assert TrainPlan(strategy="ord_fs", seed=1, k=5).selection == "last_checkpoint"
        assert TrainPlan(strategy="ord_fs_dev", seed=1, k=5).selection == "target_dev"
        assert TrainPlan(strategy="gradient_mix_train", seed=1, k=5).selection == "source_dev"

    def test_ord_fs_dev_selection_pinned(self):
        with pytest.raises(ContractViolation):
            TrainPlan(strategy="ord_fs_dev", seed=1, k=5, selection="last_checkpoint")

    def test_bare_plan_uses_shipped_defaults(self):
        p = TrainPlan(strategy="zero_shot", seed=1)
        assert (p.lr, p.source_epochs, p.adapt_epochs, p.batch_size) == (0.5, 10, 10, 32)

    def test_language_subset_rendered_as_given(self):
        def rendered(subset):
            p = TrainPlan(strategy="zero_shot", seed=1, language_subset=subset)
            return p.to_dict()["language_subset"]

        assert rendered(()) == []
        assert rendered(None) is None
        assert rendered(("t1",)) == ["t1"]

    @pytest.mark.parametrize("field, value", [("adapt_batch_size", 0), ("adapt_batch_size", -3),
                                              ("batch_size", 0)])
    def test_batch_sizes_below_one_refused_by_name(self, field, value):
        with pytest.raises(ContractViolation, match=f"^{field} must be >= 1"):
            TrainPlan(strategy="ord_fs", seed=1, k=2, **{field: value})

    def test_adapt_batch_defaults_to_k(self):
        assert TrainPlan(strategy="ord_fs", seed=1, k=7).effective_adapt_batch() == 7
        assert TrainPlan(
            strategy="ord_fs", seed=1, k=7, adapt_batch_size=3
        ).effective_adapt_batch() == 3


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
        shots = build_shot_bank(tiny_task.targets, p.k, p.shot_mode, rng)
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
        shots = build_shot_bank(tiny_task.targets, p.k, p.shot_mode, rng)
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
        p = plan("naive_mix_train", language_subset=())
        naive_steps = []
        run_strategy(p, tiny_task, step_hook=lambda i, st: naive_steps.append(st.theta.tobytes()))
        src_steps = []
        p2 = plan("zero_shot")
        run_strategy(p2, tiny_task, step_hook=lambda i, st: src_steps.append(st.theta.tobytes()))
        assert naive_steps == src_steps

    def test_gradient_requires_targets(self, tiny_task):
        with pytest.raises(ContractViolation, match="target"):
            run_strategy(plan("gradient_mix_train", language_subset=()), tiny_task)

    def test_lazy_surgery_same_trajectory(self, tiny_task):
        a, b = [], []
        run_strategy(
            plan("gradient_mix_train", alpha=0.4),
            tiny_task, step_hook=lambda i, st: a.append(st.theta.tobytes()),
        )
        run_strategy(
            plan("gradient_mix_train", alpha=0.4, lazy_surgery=True),
            tiny_task, step_hook=lambda i, st: b.append(st.theta.tobytes()),
        )
        assert a == b

    def test_language_subset_restricts_pool(self, tiny_task):
        res = run_strategy(plan("gradient_mix_train", language_subset=("t0",)), tiny_task)
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
            lang_id="self", script_tag="x", role="target", task="classification",
            num_classes=3, input_dim=2,
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
        corpus = LanguageCorpus(
            lang_id="e", script_tag="x", role="target", task="classification",
            num_classes=2, input_dim=2,
        )
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
            lang_id="tok", script_tag="x", role="target", task="token_tags",
            num_classes=3, input_dim=2,
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
            lang_id="tok", script_tag="x", role="target", task="token_tags",
            num_classes=4, input_dim=3,
            test=Split(rng.normal(size=(lens.sum(), 3)), rng.integers(4, size=lens.sum()),
                       offsets=np.concatenate([[0], np.cumsum(lens)])),
        )
        for seed in range(5):
            model = init_params(spec, RngStreams(seed))
            assert evaluate(model, corpus, "test") == evaluate_per_example(model, corpus, "test")


class TestSelectModel:
    def test_monotone_curve_selects_last(self):
        sel = select_model({"s": [0.1, 0.2, 0.3]}, "source_dev", 3, source_lang="s")
        assert sel["s"] == 3

    def test_peak_then_fall_selects_peak(self):
        sel = select_model({"s": [0.9, 0.5, 0.4]}, "source_dev", 3, source_lang="s")
        assert sel["s"] == 1

    def test_all_equal_selects_first(self):
        sel = select_model({"s": [0.5, 0.5, 0.5]}, "source_dev", 3, source_lang="s")
        assert sel["s"] == 1

    def test_last_checkpoint(self):
        sel = select_model({"a": [0.9, 0.1], "b": [0.1, 0.2]}, "last_checkpoint", 2)
        assert sel == {"a": 2, "b": 2}

    def test_target_dev_per_language(self):
        sel = select_model({"a": [0.9, 0.1], "b": [0.1, 0.2]}, "target_dev", 2)
        assert sel == {"a": 1, "b": 2}

    def test_curve_length_validated(self):
        with pytest.raises(ContractViolation, match="dev curve"):
            select_model({"s": [0.5]}, "last_checkpoint", 3)


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
        bare = LanguageCorpus(
            lang_id="t0", script_tag="x", role="target", task="classification",
            num_classes=3, input_dim=2, train=corpora[1].train, test=corpora[1].test,
        )
        task = Task.from_corpora(SPEC, [src, bare])
        with pytest.raises(ContractViolation, match="t0 has none"):
            run_strategy(plan("ord_fs_dev"), task)

    def test_two_step_needs_source_dev_split(self):
        corpora, _ = gen_synthetic_family(tiny_profile())
        src = corpora[0]
        bare = LanguageCorpus(
            lang_id="s", script_tag="sc0", role="source", task="classification",
            num_classes=3, input_dim=2, train=src.train, test=src.test,
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

    def test_unrealistic_target_dev_selection(self, tiny_task):
        res = run_strategy(
            plan("naive_mix_train", selection="target_dev", unrealistic_target_dev=True),
            tiny_task,
        )
        sel = res.record["selected_epochs"]
        curves = res.record["dev_curves"]
        for lang in ("t0", "t1"):
            best = max(range(len(curves[lang])), key=lambda i: (curves[lang][i], -i)) + 1
            assert sel[lang] == best


class TestDevFreeTarget:
    """A target with train and test splits but no dev split."""

    @pytest.fixture(scope="class")
    def devfree_task(self):
        corpora, _ = gen_synthetic_family(tiny_profile())
        bare = LanguageCorpus(
            lang_id="t0", script_tag="x", role="target", task="classification",
            num_classes=3, input_dim=2, train=corpora[1].train, test=corpora[1].test,
        )
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

    def test_one_step_target_dev_selection_names_target(self, devfree_task):
        p = plan("naive_mix_train", selection="target_dev", unrealistic_target_dev=True)
        with pytest.raises(ContractViolation, match="t0 has none"):
            run_strategy(p, devfree_task)


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

    @pytest.mark.parametrize("strategy", ["ord_fs", "mix_ft"])
    def test_empty_subset_never_shares_the_all_targets_stage(self, tiny_task, strategy):
        stages = {}
        run_strategy(plan(strategy), tiny_task, stages=stages)
        shared = dict(stages)
        with pytest.raises(ContractViolation, match="non-empty shot bank"):
            run_strategy(plan(strategy, language_subset=()), tiny_task, stages=stages)
        subset = plan(strategy, language_subset=("t1",))
        got = run_strategy(subset, tiny_task, stages=stages)
        assert got.record == run_strategy(subset, tiny_task).record
        # the empty subset's adapt entry is the error it raised, t1's adapt
        # stage is new, and so are the empty subset's shot bank and t1's
        [failed] = [key for key, entry in stages.items() if isinstance(entry, Failed)]
        assert failed[0] == "adapt" and failed[-1] == ()
        assert kinds(stages) == dict(kinds(shared), adapt=3, shots=3)
        # the same targets named in another order resolve to the same stages
        run_strategy(plan(strategy, language_subset=("t1", "t0")), tiny_task, stages=stages)
        assert kinds(stages) == dict(kinds(shared), adapt=3, shots=3)
