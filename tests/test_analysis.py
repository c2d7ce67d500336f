import numpy as np
import pytest

from gradmix.analysis import (
    SimMatrix,
    aggregate_runs,
    conflict_fraction,
    language_gradient,
    micro_f1,
    overfit_flags,
    similarity_matrix,
    write_sim_matrix_csv,
)
from gradmix.corpora import (
    LanguageCorpus,
    Split,
    build_shot_bank,
    gen_synthetic_family,
)
from gradmix.models import ModelSpec, ModelState, init_params, loss_and_grad
from gradmix.numcore import ContractViolation, RngStreams
from conftest import tiny_profile
from oracles import bitwise_equal, examples_of, micro_f1_loop, read_sim_matrix_csv, stack_batch


class TestMicroF1:
    def test_perfect_predictions(self):
        gold = np.array([1, 0, 2, 1])
        assert micro_f1(gold, gold, outside_label=0) == 1.0

    def test_all_outside_predictions_zero_recall(self):
        gold = np.array([1, 2, 0])
        pred = np.array([0, 0, 0])
        assert micro_f1(pred, gold, outside_label=0) == 0.0

    def test_hand_case_two_thirds(self):
        # TP=2, FP=1, FN=1 -> P=R=2/3 -> F1=2/3
        gold = np.array([1, 1, 0, 2])
        pred = np.array([1, 1, 2, 0])
        assert micro_f1(pred, gold, outside_label=0) == pytest.approx(2 / 3, abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gold = rng.integers(0, 4, size=20)
            pred = rng.integers(0, 4, size=20)
            f1 = micro_f1(pred, gold, outside_label=0)
            assert 0.0 <= f1 <= 1.0

    def test_equals_accuracy_without_outside(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gold = rng.integers(1, 4, size=30)  # outside label 0 never appears
            pred = rng.integers(1, 4, size=30)
            acc = float(np.mean(pred == gold))
            assert micro_f1(pred, gold, outside_label=0) == pytest.approx(acc, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation, match="predictions"):
            micro_f1(np.array([1, 2]), np.array([1]), outside_label=0)

    def test_sequence_lists(self):
        gold = [np.array([1, 0]), np.array([2])]
        pred = [np.array([1, 0]), np.array([2])]
        assert micro_f1(pred, gold, outside_label=0) == 1.0

    @pytest.mark.parametrize("outside", [0, 2])
    def test_equals_token_loop_on_random_labels(self, outside):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 50, 400):
            gold = rng.integers(0, 4, size=n)
            pred = np.where(rng.random(n) < 0.5, gold, rng.integers(0, 4, size=n))
            assert micro_f1(pred, gold, outside) == micro_f1_loop(pred, gold, outside)

    def test_equals_token_loop_on_edge_cases(self):
        cases = [
            (np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)),  # all outside
            (np.array([1, 2, 3, 1]), np.array([2, 3, 1, 0])),  # no matches
            (np.array([0, 0, 0]), np.array([1, 2, 3])),  # nothing tagged
            (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),  # no tokens
        ]
        for pred, gold in cases:
            assert micro_f1(pred, gold, 0) == micro_f1_loop(pred, gold, 0)
        assert micro_f1(*cases[0], 0) == 0.0 and micro_f1(*cases[1], 0) == 0.0

    def test_equals_token_loop_on_sequence_lists(self):
        rng = np.random.default_rng(6)
        lens = rng.integers(0, 9, size=30)
        gold = [rng.integers(0, 5, size=n) for n in lens]
        pred = [np.where(rng.random(n) < 0.6, g, rng.integers(0, 5, size=n))
                for n, g in zip(lens, gold)]
        got = micro_f1(pred, gold, 0)
        assert got == micro_f1_loop(pred, gold, 0)
        assert got == micro_f1(np.concatenate(pred), np.concatenate(gold), 0)
        assert micro_f1([], [], 0) == micro_f1_loop([], [], 0) == 0.0


@pytest.fixture(scope="module")
def small_world():
    corpora, _ = gen_synthetic_family(tiny_profile(n_targets=2, train=80))
    spec = ModelSpec("softmax_classifier", 2, 6, 3)
    model = init_params(spec, RngStreams(7))
    targets = [c for c in corpora if c.role == "target"]
    shots = build_shot_bank(targets, 3, "k_shot", 3, RngStreams(7))
    return corpora, model, shots


class TestLanguageGradient:
    def test_target_gradient_matches_loss_and_grad(self, small_world):
        corpora, model, shots = small_world
        target = corpora[1]
        shot_data = target.train.take(shots[target.lang_id])
        expected = loss_and_grad(model, stack_batch(examples_of(shot_data))).grad
        got = language_gradient(model, shot_data, "target")
        assert bitwise_equal(got, expected)

    def test_source_estimate_approximates_full_gradient(self, small_world):
        corpora, model, _ = small_world
        source = corpora[0]
        est = language_gradient(
            model, source, "source", rng=np.random.default_rng(3), batch_size=16,
            n_batches=100,
        )
        full = loss_and_grad(model, source.train).grad
        from gradmix.numcore import cosine_similarity

        assert cosine_similarity(est, full) > 0.99

    def test_deterministic_under_rng_seed(self, small_world):
        corpora, model, _ = small_world
        a = language_gradient(model, corpora[0], "source", rng=np.random.default_rng(5))
        b = language_gradient(model, corpora[0], "source", rng=np.random.default_rng(5))
        assert bitwise_equal(a, b)

    def test_empty_data_rejected(self, small_world):
        _, model, _ = small_world
        with pytest.raises(ContractViolation):
            language_gradient(model, [], "target")


class TestSimilarityMatrix:
    def test_identical_corpora_fully_similar(self):
        corpora, _ = gen_synthetic_family(tiny_profile(n_targets=2, identical=True, seed=9))
        src, t0, t1 = corpora
        # two byte-identical target corpora with identical shots
        t1_clone = LanguageCorpus(
            lang_id="t1", script_tag=t0.script_tag, role="target",
            train=t0.train, dev=t0.dev, test=t0.test,
        )
        spec = ModelSpec("softmax_classifier", 2, 4, 3)
        model = init_params(spec, RngStreams(1))
        targets = [t0, t1_clone]
        shots = build_shot_bank(targets, 3, "k_shot", 3, RngStreams(1))
        # force identical shot indices for the clone
        shots["t1"] = shots["t0"]
        m = similarity_matrix([model], targets, shots, np.random.default_rng(0))
        assert m.value("t0", "t1") == 1.0

    def test_bitwise_symmetric(self, small_world):
        corpora, model, shots = small_world
        m = similarity_matrix([model], corpora, shots, np.random.default_rng(2))
        n = len(m.lang_ids)
        for i in range(n):
            for j in range(n):
                assert m.values[i][j] == m.values[j][i]

    def test_diagonal_is_one(self, small_world):
        corpora, model, shots = small_world
        m = similarity_matrix([model], corpora, shots, np.random.default_rng(2))
        for i in range(len(m.lang_ids)):
            assert m.values[i][i] == 1.0

    def test_zero_gradient_language_is_missing(self):
        spec = ModelSpec("softmax_classifier", 2, 0, 3)
        theta = np.zeros(spec.param_dim)
        theta[6] = 1000.0  # class 0's bias: the softmax is exactly one-hot
        model = ModelState(spec=spec, theta=theta)
        rng = np.random.default_rng(0)

        def corpus(lang_id, role, y):
            return LanguageCorpus(lang_id=lang_id, script_tag="x", role=role,
                                  train=Split(rng.normal(size=(len(y), 2)), y))

        # t's labels are all 0, so its gradient is exactly zero.
        corpora = [corpus("s", "source", [0, 1, 2] * 10), corpus("t", "target", [0] * 10),
                   corpus("u", "target", [1, 2] * 5)]
        shots = build_shot_bank(corpora[1:], 2, "k_shot", 3, RngStreams(0))
        m = similarity_matrix([model], corpora, shots, np.random.default_rng(1),
                              batch_size=4, n_source_batches=3)
        assert [m.value("t", lang) for lang in ("s", "t", "u")] == [None, None, None]
        assert m.value("s", "s") == m.value("u", "u") == 1.0
        assert m.value("s", "u") is not None

    def test_requires_checkpoints(self, small_world):
        corpora, _, shots = small_world
        with pytest.raises(ContractViolation):
            similarity_matrix([], corpora, shots, np.random.default_rng(0))

    def test_csv_round_trip(self, small_world, tmp_path):
        corpora, model, shots = small_world
        m = similarity_matrix([model], corpora, shots, np.random.default_rng(2))
        path = tmp_path / "sim.csv"
        write_sim_matrix_csv(m, path)
        again = read_sim_matrix_csv(path)
        assert again.lang_ids == m.lang_ids
        assert again.values == m.values

    def test_missing_serialized_as_empty_cell(self, tmp_path):
        m = SimMatrix(lang_ids=("a", "b"), values=((1.0, None), (None, 1.0)))
        path = tmp_path / "sim.csv"
        write_sim_matrix_csv(m, path)
        text = path.read_text()
        assert "a,1.0,\n" in text
        assert read_sim_matrix_csv(path).value("a", "b") is None


class TestConflictFraction:
    def test_all_positive(self):
        m = SimMatrix(("a", "b"), ((1.0, 0.5), (0.5, 1.0)))
        assert conflict_fraction(m) == 0.0

    def test_single_negative_pair(self):
        m = SimMatrix(("a", "b"), ((1.0, -0.2), (-0.2, 1.0)))
        assert conflict_fraction(m) == 1.0

    def test_one_of_three(self):
        vals = (
            (1.0, -0.1, 0.2),
            (-0.1, 1.0, 0.3),
            (0.2, 0.3, 1.0),
        )
        assert conflict_fraction(SimMatrix(("a", "b", "c"), vals)) == pytest.approx(1 / 3)

    def test_single_language_is_error(self):
        m = SimMatrix(("a",), ((1.0,),))
        with pytest.raises(ContractViolation):
            conflict_fraction(m)

    def test_all_missing_is_error(self):
        m = SimMatrix(("a", "b"), ((1.0, None), (None, 1.0)))
        with pytest.raises(ContractViolation):
            conflict_fraction(m)


def fake_record(strategy, k, seed, metrics, source="s"):
    langs = [source] + [l for l in metrics if l != source]
    targets = [l for l in langs if l != source]
    return {
        "strategy": strategy,
        "k": k,
        "seed": seed,
        "source_lang": source,
        "languages": langs,
        "test_metrics": metrics,
        "macro_target_test": sum(metrics[l] for l in targets) / len(targets),
        "dev_curves": {},
        "epochs": 0,
    }


class TestAggregateRuns:
    def test_identical_records_zero_sd(self):
        recs = [fake_record("ord_fs", 5, s, {"s": 0.9, "t": 0.5}) for s in range(5)]
        report = aggregate_runs(recs)
        cell = report["grid"][0]
        assert cell["languages"]["t"]["sd"] == 0.0
        assert cell["macro"]["sd"] == 0.0

    def test_mean_and_sample_sd(self):
        recs = [
            fake_record("ord_fs", 5, s, {"s": 0.9, "t": v})
            for s, v in enumerate([1.0, 2.0, 3.0])
        ]
        cell = aggregate_runs(recs)["grid"][0]
        assert cell["languages"]["t"]["mean"] == 2.0
        assert cell["languages"]["t"]["sd"] == 1.0

    def test_source_excluded_from_macro(self):
        recs = [fake_record("ord_fs", 5, 1, {"s": 0.0, "t1": 0.6, "t2": 0.8})]
        cell = aggregate_runs(recs)["grid"][0]
        assert cell["macro"]["mean"] == pytest.approx(0.7)
        assert cell["single_seed"] is True

    def test_order_invariant(self):
        recs = [
            fake_record("ord_fs", 5, s, {"s": 0.9, "t": 0.1 * s}) for s in range(5)
        ]
        a = aggregate_runs(recs)
        b = aggregate_runs(list(reversed(recs)))
        assert a == b

    def test_groups_by_strategy_and_k(self):
        recs = [
            fake_record("ord_fs", 1, 1, {"s": 0.9, "t": 0.5}),
            fake_record("ord_fs", 5, 1, {"s": 0.9, "t": 0.6}),
            fake_record("mix_ft", 1, 1, {"s": 0.9, "t": 0.7}),
        ]
        report = aggregate_runs(recs)
        keys = [(c["strategy"], c["k"]) for c in report["grid"]]
        assert keys == [("mix_ft", 1), ("ord_fs", 1), ("ord_fs", 5)]


class TestOverfitFlags:
    def make_record(self, curves):
        return {"source_lang": "s", "dev_curves": curves}

    def test_strictly_decreasing_flags(self):
        rec = self.make_record({"s": [0.9, 0.9], "t": [0.9, 0.8, 0.7]})
        assert overfit_flags(rec) == {"t": True}

    def test_strictly_increasing_not_flagged(self):
        rec = self.make_record({"t": [0.1, 0.2, 0.3]})
        assert overfit_flags(rec) == {"t": False}

    def test_tie_at_peak_counts_as_first_epoch(self):
        rec = self.make_record({"t": [0.5, 0.5, 0.5]})
        assert overfit_flags(rec) == {"t": True}

    def test_source_excluded(self):
        rec = self.make_record({"s": [0.9, 0.1], "t": [0.1, 0.9]})
        assert "s" not in overfit_flags(rec)
