"""The lean hot path against the per-step path it replaced (tests/oracles.py):
chains, surgery traces, batches and language gradients equal bit for bit.
The training loop's reference is `oracles.train_loop`, one run at a time."""

import json
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from gradmix import analysis, surgery, trainer
from gradmix.analysis import language_gradient, similarity_matrix
from gradmix.corpora import (
    LanguageCorpus,
    Split,
    batch_iter,
    build_mixed_dataset,
    build_oracle_bank,
    build_shot_bank,
    gen_synthetic_family,
)
from gradmix.models import ModelSpec, ModelState, init_params
from gradmix.numcore import ContractViolation, RngStreams, dot, frozen
from gradmix.surgery import sgs_step
from gradmix.trainer import STRATEGIES, Task, TrainPlan, run_mixed_training, run_strategy

from conftest import tiny_profile

def token_corpus(lang_id, role, n_seqs, rng):
    def split(n):
        lens = rng.integers(1, 7, size=n)
        return Split(rng.normal(size=(lens.sum(), 3)), rng.integers(4, size=lens.sum()),
                     offsets=np.concatenate([[0], np.cumsum(lens)]))

    return LanguageCorpus(lang_id=lang_id, script_tag="x", role=role, train=split(n_seqs),
                          dev=split(6), test=split(6))


@pytest.fixture(scope="module")
def tasks():
    corpora, _ = gen_synthetic_family(tiny_profile(train=50))
    rng = np.random.default_rng(12)
    tokens = [token_corpus("s", "source", 40, rng)]
    tokens += [token_corpus(f"t{i}", "target", 20, rng) for i in range(2)]
    return {
        "classifier": Task.from_corpora(ModelSpec("softmax_classifier", 2, 8, 3), corpora),
        "linear": Task.from_corpora(ModelSpec("softmax_classifier", 2, 0, 3), corpora),
        "tagger": Task.from_corpora(ModelSpec("mlp_token_tagger", 3, 5, 4), tokens),
    }


def on_both_paths(monkeypatch, run):
    """run() on the trainer as it is, then with `trainer.train_lockstep`
    replaced by the per-run reference loop."""
    new = run()
    trained = []
    with monkeypatch.context() as m:
        m.setattr(trainer, "train_lockstep", lambda runs: trained.extend(runs)
                  or oracles.train_one_by_one(runs))
        ref = run()
    assert trained  # the reference trained every run
    return new, ref


def chain_bytes(chain):
    return chain.states.tobytes()


def trace_text(trace):
    return json.dumps([asdict(entry) for entry in trace])


class TestTrainingPath:
    @pytest.mark.parametrize("family", ["classifier", "linear", "tagger"])
    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("one_shot", [False, True])  # K=1: one-example oracle batches
    def test_chain_and_trace_equal_reference(self, tasks, monkeypatch, family, alpha, one_shot):
        task = tasks[family]
        plan = TrainPlan(strategy="gradient_mix_train", seed=3, k=1 if one_shot else 3,
                         alpha=alpha, source_epochs=3, batch_size=7, lr=0.3)
        shots = build_shot_bank(task.targets, plan.k, plan.shot_mode, task.spec.num_classes,
                                RngStreams(plan.seed))
        (chain, trace), (ref_chain, ref_trace) = on_both_paths(monkeypatch, lambda: (
            run_mixed_training(plan, task.source, task.targets, shots, spec=task.spec)))
        assert chain_bytes(chain) == chain_bytes(ref_chain)
        assert trace_text(trace) == trace_text(ref_trace)
        if alpha > 0:
            assert any(entry.applied for entry in trace)
        assert all(entry.cos_before is not None for entry in trace)  # every oracle measured

    def test_step_hook_sees_the_same_states(self, tasks, monkeypatch):
        plan = TrainPlan(strategy="gradient_mix_train", seed=1, k=3, alpha=0.6,
                         source_epochs=2, batch_size=16, lr=0.5)
        # 2 epochs of ceil((50 + 2 * 3) / 16) steps; of ceil((40 + 2 * 3) / 16) for the tagger
        for family, steps in (("classifier", 2 * 4), ("tagger", 2 * 3)):
            task = tasks[family]
            shots = build_shot_bank(task.targets, plan.k, plan.shot_mode, task.spec.num_classes,
                                RngStreams(plan.seed))

            def run():
                return run_mixed_training(plan, task.source, task.targets, shots, spec=task.spec)

            with monkeypatch.context() as m:
                seen = oracles.record_steps(m)
                chain, _ = run()
            ref = []
            with monkeypatch.context() as m:
                m.setattr(trainer, "train_lockstep", lambda runs: oracles.train_one_by_one(
                    runs, lambda step, state: ref.append((step, state.theta.tobytes()))))
                ref_chain, _ = run()
            assert [step for step, _ in ref] == list(range(steps))
            assert seen == [theta for _, theta in ref]
            assert chain_bytes(chain) == chain_bytes(ref_chain)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_records_and_chains_equal_reference(self, tasks, monkeypatch, strategy):
        # ragged tagger pools train one run at a time; the classifier's ord_fs targets stack
        for family in ("classifier", "tagger"):
            task = tasks[family]
            plan = TrainPlan(strategy=strategy, seed=2, k=0 if strategy == "zero_shot" else 3,
                             source_epochs=2, adapt_epochs=2, batch_size=9, lr=0.4, alpha=0.6)
            new, ref = on_both_paths(monkeypatch, lambda: run_strategy(plan, task))
            assert json.dumps(new.record) == json.dumps(ref.record)
            assert {k: chain_bytes(c) for k, c in new.checkpoints.items()} == {
                k: chain_bytes(c) for k, c in ref.checkpoints.items()}
            assert trace_text(new.trace or []) == trace_text(ref.trace or [])


class TestBatches:
    @pytest.mark.parametrize("family", ["classifier", "tagger"])
    @pytest.mark.parametrize("size", [1, 7, 16, 50, 300])
    def test_batches_equal_per_batch_gather(self, tasks, family, size):
        pool = build_mixed_dataset(tasks[family].source, [], None)
        for epoch in (1, 2):
            got = batch_iter(pool, size, epoch, RngStreams(4))
            ref = oracles.batch_iter(pool, size, epoch, RngStreams(4))
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                for x, y in zip(a, (b.X, b.y)):
                    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    assert not x.flags.writeable


class TestSurgeryDots:
    def count_dots(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return dot(a, b)

        monkeypatch.setattr(surgery, "dot", counting)
        return calls

    def test_applied_step_takes_five_dots_else_three(self, tasks, monkeypatch):
        task = tasks["classifier"]
        shots = build_shot_bank(task.targets, 3, "k_shot", task.spec.num_classes, RngStreams(1))
        bank = build_oracle_bank(shots, task.targets)
        calls = self.count_dots(monkeypatch)
        applied = skipped = 0
        for seed in range(30):
            model = init_params(task.spec, RngStreams(seed))
            g = frozen(np.random.default_rng(seed).normal(size=task.spec.param_dim))
            for alpha in (0.0, 1.0):
                del calls[:]
                out, entry = sgs_step(g, bank, model, alpha, RngStreams(seed))
                ref_out, ref_entry = oracles.sgs_step(
                    g, bank, model, alpha, RngStreams(seed))
                assert out.tobytes() == ref_out.tobytes()
                assert trace_text([entry]) == trace_text([ref_entry])
                assert len(calls) == (5 if entry.applied else 3)
                applied += entry.applied
                skipped += not entry.applied
        assert applied and skipped

    def test_zero_norms_and_identical_bytes(self):
        spec = ModelSpec("softmax_classifier", 1, 0, 2)
        t = LanguageCorpus(lang_id="t", script_tag="x", role="target",
                           train=Split(np.zeros((1, 1)), [0]))
        bank = build_oracle_bank(build_shot_bank([t], 1, "k_shot", 2, RngStreams(0)), [t])
        # Bias 1000 on the gold class: softmax is exactly one-hot, the oracle
        # gradient exactly zero.
        certain = ModelState(spec=spec, theta=np.array([0.0, 0.0, 1000.0, 0.0]))
        model = init_params(spec, RngStreams(0))
        oracle = surgery.oracle_gradient(model, bank, "t")
        cases = [(certain, frozen(np.array([1.0, -2.0, 3.0, -4.0])), None, None),
                 (model, oracle, 1.0, 1.0),  # identical bytes
                 (model, frozen(-oracle), "antiparallel", None)]  # projects to 0
        for state, g, cos_before, cos_after in cases:
            out, entry = sgs_step(g, bank, state, 1.0, RngStreams(0))
            ref_out, ref_entry = oracles.sgs_step(g, bank, state, 1.0,
                                                  RngStreams(0))
            assert out.tobytes() == ref_out.tobytes()
            assert trace_text([entry]) == trace_text([ref_entry])
            if cos_before == "antiparallel":
                assert entry.applied and entry.cos_before < -0.999
            else:
                assert entry.cos_before == cos_before
            assert entry.cos_after == cos_after


class TestSourceGradient:
    @pytest.mark.parametrize("family", ["classifier", "linear", "tagger"])
    # 23 and 12 batches are not multiples of the stack size; 500 rows exceed
    # every train split, so each batch is the whole split.
    @pytest.mark.parametrize("batch_size, n_batches", [(8, 23), (16, 10), (7, 1), (500, 12)])
    def test_equals_per_batch_loop(self, tasks, family, batch_size, n_batches):
        task = tasks[family]
        model = init_params(task.spec, RngStreams(5))
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = language_gradient(model, task.source, "source", rng=rng,
                                batch_size=batch_size, n_batches=n_batches)
        ref = oracles.source_gradient(model, task.source, ref_rng, batch_size, n_batches)
        assert got.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()  # the same draws were made

    def test_bad_labels_refused_by_name(self, tasks):
        task = tasks["classifier"]
        model = init_params(ModelSpec("softmax_classifier", 2, 8, 2), RngStreams(5))
        with pytest.raises(ContractViolation, match="label 2 out of range"):
            language_gradient(model, task.source, "source", rng=np.random.default_rng(0))
        tagger = init_params(tasks["tagger"].spec, RngStreams(5))
        with pytest.raises(ContractViolation, match="cannot take a batch of this layout"):
            language_gradient(tagger, task.source, "source", rng=np.random.default_rng(0))

    @pytest.mark.parametrize("family", ["classifier", "tagger"])
    def test_similarity_matrix_equals_reference(self, tasks, monkeypatch, family):
        task = tasks[family]
        corpora = [task.source] + list(task.targets)
        shots = build_shot_bank(task.targets, 3, "k_shot", task.spec.num_classes, RngStreams(1))
        models = [init_params(task.spec, RngStreams(s)) for s in (1, 2)]

        def run():
            return similarity_matrix(models, corpora, shots, np.random.default_rng(0),
                                     batch_size=8, n_source_batches=13).values

        got = run()
        target_gradient = analysis.language_gradient

        def reference_gradient(model, data, role, rng=None, batch_size=32, n_batches=100):
            if role == "source":
                return oracles.source_gradient(model, data, rng, batch_size, n_batches)
            return target_gradient(model, data, role)

        monkeypatch.setattr(analysis, "language_gradient", reference_gradient)
        monkeypatch.setattr(analysis, "cosine_from_dots",
                            lambda a, b, aa, ab, bb: oracles.cosine_similarity(a, b))
        assert repr(got) == repr(run())
