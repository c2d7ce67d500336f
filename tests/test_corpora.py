import json

import numpy as np
import pytest

from gradmix.corpora import (
    LanguageCorpus,
    Split,
    batch_iter,
    build_mixed_dataset,
    build_oracle_bank,
    build_shot_bank,
    default_benchmark,
    default_profile,
    epoch_order,
    gen_synthetic_family,
    ingest_tsv,
    sample_k_shots,
    sample_n_way_k_shot,
)
from gradmix.models import ModelSpec, init_params, loss_and_grad, stack_grads
from gradmix.numcore import ContractViolation, RngStreams
from gradmix.trainer import Task

from conftest import language
from oracles import distant_lang_ids, examples_of, stack_batch


def small_profile(**overrides):
    kwargs = dict(
        languages=(
            language("s", "scr-0", "source", 0.0, (0.0, 0.0), 40, 10, 10),
            language("t1", "scr-1", "target", 30.0, (1.0, 0.0), 30, 10, 10),
            language("t2", "scr-1", "target", 30.0, (0.0, 1.0), 30, 10, 10),
        ),
        num_classes=3,
        input_dim=2,
        mean_radius=2.0,
        noise_sd=1.0,
        seed=11,
    )
    kwargs.update(overrides)
    return dict(kwargs, languages=list(kwargs["languages"]))


def make_cls_corpus(lang_id="t", n_train=20, num_classes=3, dim=2, seed=0, role="target"):
    rng = np.random.default_rng(seed)
    train = Split(rng.normal(size=(n_train, dim)), np.arange(n_train) % num_classes)
    return LanguageCorpus(lang_id=lang_id, script_tag="scr", role=role, train=train)


class TestSyntheticGeneration:
    def test_deterministic(self):
        a, _ = gen_synthetic_family(small_profile())
        b, _ = gen_synthetic_family(small_profile())
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.train.X, cb.train.X)
            assert np.array_equal(ca.train.y, cb.train.y)

    def test_shared_script_means_differ_only_by_translation(self):
        _, manifest = gen_synthetic_family(small_profile())
        langs = {l["lang_id"]: l for l in manifest["languages"]}
        m1 = np.array([[float(v) for v in row] for row in langs["t1"]["class_means"]])
        m2 = np.array([[float(v) for v in row] for row in langs["t2"]["class_means"]])
        deltas = m2 - m1
        assert np.allclose(deltas, deltas[0], atol=1e-12)

    def test_zero_rotation_means_identical_up_to_translation_zero(self):
        profile = small_profile(
            languages=(
                language("s", "a", "source", 0.0, (0.0, 0.0), 20, 5, 5),
                language("t", "b", "target", 0.0, (0.0, 0.0), 20, 5, 5),
            )
        )
        _, manifest = gen_synthetic_family(profile)
        langs = {l["lang_id"]: l for l in manifest["languages"]}
        ms = np.array([[float(v) for v in r] for r in langs["s"]["class_means"]])
        mt = np.array([[float(v) for v in r] for r in langs["t"]["class_means"]])
        assert np.array_equal(ms, mt)

    def test_degenerate_identical_languages_allowed(self):
        profile = small_profile(
            languages=(
                language("s", "a", "source", 0.0, (0.0, 0.0), 10, 2, 2),
                language("t1", "a", "target", 0.0, (0.0, 0.0), 10, 2, 2),
                language("t2", "a", "target", 0.0, (0.0, 0.0), 10, 2, 2),
            )
        )
        corpora, _ = gen_synthetic_family(profile)
        assert len(corpora) == 3

    def test_negative_counts_rejected(self):
        profile = small_profile(
            languages=(
                language("s", "a", "source", 0.0, (0.0, 0.0), -1, 2, 2),
                language("t", "b", "target", 0.0, (0.0, 0.0), 10, 2, 2),
            )
        )
        with pytest.raises(ContractViolation,
                           match=r"^languages\[0\]\.sizes\.train: -1 is not an integer >= 0$"):
            gen_synthetic_family(profile)

    def test_translation_wider_than_the_input_rejected(self):
        profile = small_profile(
            languages=(
                language("s", "a", "source", 0.0, (0.0, 0.0, 1.0), 10, 2, 2),
                language("t", "b", "target", 0.0, (0.0, 0.0), 10, 2, 2),
            )
        )
        with pytest.raises(ContractViolation) as refused:
            gen_synthetic_family(profile)
        assert str(refused.value) == ("languages[0].translation: [0.0, 0.0, 1.0] has more "
                                      "values than input_dim (2)")

    def test_shared_script_requires_shared_angle(self):
        profile = small_profile(
            languages=(
                language("s", "a", "source", 0.0, (0.0, 0.0), 10, 2, 2),
                language("t1", "b", "target", 10.0, (0.0, 0.0), 10, 2, 2),
                language("t2", "b", "target", 20.0, (0.0, 0.0), 10, 2, 2),
            )
        )
        with pytest.raises(ContractViolation, match="share the rotation"):
            gen_synthetic_family(profile)

    def test_duplicate_ids_rejected(self):
        profile = small_profile(
            languages=(
                language("s", "a", "source", 0.0, (0.0, 0.0), 10, 2, 2),
                language("s", "b", "target", 0.0, (0.0, 0.0), 10, 2, 2),
            )
        )
        corpora, _ = gen_synthetic_family(profile)  # ids and roles are the Task's to check
        with pytest.raises(ContractViolation, match="unique"):
            Task.from_corpora(ModelSpec("softmax_classifier", 2, 0, 3), corpora)

    def test_manifest_round_trip(self):
        """A manifest is a profile that reads to itself: the same manifest
        bytes and bitwise the same corpora."""
        for profile in (small_profile(), default_profile()):
            corpora, manifest = gen_synthetic_family(profile)
            again, manifest_again = gen_synthetic_family(manifest)
            assert json.dumps(manifest_again).encode() == json.dumps(manifest).encode()
            assert len(again) == len(corpora)
            for ca, cb in zip(corpora, again):
                assert (ca.lang_id, ca.script_tag, ca.role) == (cb.lang_id, cb.script_tag,
                                                                cb.role)
                for split in ("train", "dev", "test"):
                    a, b = ca.split(split), cb.split(split)
                    assert a.X.tobytes() == b.X.tobytes() and a.y.tobytes() == b.y.tobytes()

    def test_default_benchmark_shape(self, bench):
        corpora, manifest = bench
        assert len(corpora) == 7
        source = [c for c in corpora if c.role == "source"]
        assert len(source) == 1 and source[0].lang_id == "src"
        assert len(source[0].train) == 500
        for c in corpora:
            assert len(c.dev) == 100 and len(c.test) == 100
        assert distant_lang_ids(manifest) == ("far-a", "far-b", "far-c")


class TestShotSampling:
    def test_k_equals_train_size_gives_all_indices(self):
        corpus = make_cls_corpus(n_train=8)
        picked = sample_k_shots(corpus, 8, RngStreams(1))
        assert sorted(picked) == list(range(8))

    def test_distinct_indices(self):
        corpus = make_cls_corpus(n_train=50)
        picked = sample_k_shots(corpus, 10, RngStreams(2))
        assert len(set(picked)) == 10

    def test_same_seed_same_shots(self):
        corpus = make_cls_corpus()
        assert sample_k_shots(corpus, 5, RngStreams(3)) == sample_k_shots(
            corpus, 5, RngStreams(3)
        )

    def test_different_seeds_differ(self):
        corpus = make_cls_corpus(n_train=200)
        a = sample_k_shots(corpus, 5, RngStreams(1))
        b = sample_k_shots(corpus, 5, RngStreams(2))
        assert a != b

    def test_insensitive_to_other_stream_consumption(self):
        corpus = make_cls_corpus()
        r = RngStreams(4)
        r.shuffle.random(100)
        r.lang_pick.integers(0, 5, size=33)
        assert sample_k_shots(corpus, 5, r) == sample_k_shots(corpus, 5, RngStreams(4))

    def test_k_too_large(self):
        corpus = make_cls_corpus(n_train=4)
        with pytest.raises(ContractViolation, match="exceeds"):
            sample_k_shots(corpus, 5, RngStreams(0))

    def test_n_way_cardinality(self):
        corpus = make_cls_corpus(n_train=30, num_classes=3)
        picked = sample_n_way_k_shot(corpus, 1, 3, RngStreams(5))
        assert len(picked) == 3
        labels = sorted(int(corpus.train.y[i]) for i in picked)
        assert labels == [0, 1, 2]

    def test_n_way_histogram_uniform(self):
        for seed in range(10):
            corpus = make_cls_corpus(n_train=40, num_classes=4, seed=seed)
            picked = sample_n_way_k_shot(corpus, 3, 4, RngStreams(seed))
            counts = np.zeros(4, dtype=int)
            for i in picked:
                counts[int(corpus.train.y[i])] += 1
            assert np.all(counts == 3)
            assert len(set(picked)) == len(picked)

    def test_n_way_insufficient_class_names_the_class(self):
        # class 1 has 4 examples, ask for 5
        train = Split(np.zeros((9, 2)), [0] * 5 + [1] * 4)
        corpus = LanguageCorpus(lang_id="t", script_tag="s", role="target", train=train)
        with pytest.raises(ContractViolation, match=r"class 1: 4 < 5"):
            sample_n_way_k_shot(corpus, 5, 2, RngStreams(0))

    def test_bank_identical_across_strategy_agnostic_calls(self):
        targets = [make_cls_corpus(lang_id=f"t{i}", seed=i, n_train=30) for i in range(4)]
        banks = [build_shot_bank(targets, 5, "k_shot", 3, RngStreams(7)) for _ in range(3)]
        assert banks[0] == banks[1] == banks[2]


class TestOracleBank:
    def test_oracle_equals_shots_index_for_index(self):
        targets = [make_cls_corpus(lang_id=f"t{i}", seed=i) for i in range(3)]
        shots = build_shot_bank(targets, 4, "k_shot", 3, RngStreams(1))
        oracle = build_oracle_bank(shots, targets)
        by_id = {c.lang_id: c for c in targets}
        assert list(oracle) == list(shots)
        for lang, idx in shots.items():
            idx = sorted(idx)
            batch = oracle[lang]
            assert np.array_equal(batch.X, by_id[lang].train.X[idx])
            assert np.array_equal(batch.y, by_id[lang].train.y[idx])

    def test_empty_target_set_gives_empty_bank(self):
        shots = build_shot_bank([], 5, "k_shot", 3, RngStreams(0))
        oracle = build_oracle_bank(shots, [])
        assert len(oracle) == 0

    def test_views_are_immutable(self):
        targets = [make_cls_corpus()]
        shots = build_shot_bank(targets, 3, "k_shot", 3, RngStreams(2))
        oracle = build_oracle_bank(shots, targets)
        with pytest.raises(ValueError):
            oracle["t"].X[0, 0] = 99.0
        assert isinstance(shots["t"], tuple)


class TestMixedDataset:
    def test_zero_targets_degenerates_to_source(self):
        source = make_cls_corpus(lang_id="s", role="source", n_train=12)
        pool = build_mixed_dataset(source, [], None)
        assert len(pool) == 12
        assert np.array_equal(pool.X, source.train.X)
        assert np.array_equal(pool.y, source.train.y)

    def test_pool_size_arithmetic(self, bench):
        corpora, _ = bench
        source = next(c for c in corpora if c.role == "source")
        targets = [c for c in corpora if c.role == "target"]
        shots = build_shot_bank(targets, 5, "k_shot", 3, RngStreams(1))
        pool = build_mixed_dataset(source, targets, shots)
        assert len(pool) == 500 + 6 * 5

    def test_same_seed_epoch_identical_batches(self):
        a = epoch_order(20, 8, epoch=3, rng=RngStreams(5))
        b = epoch_order(20, 8, epoch=3, rng=RngStreams(5))
        assert np.array_equal(a, b)
        source = make_cls_corpus(lang_id="s", role="source", n_train=20)
        pool = build_mixed_dataset(source, [], None)
        assert len(batch_iter(pool, 8, epoch=3, rng=RngStreams(5))) == 3  # short final batch kept

    def test_epoch_batches_partition_pool(self):
        for epoch in (1, 2, 5):
            keys = epoch_order(23, 4, epoch=epoch, rng=RngStreams(9))
            assert sorted(keys.tolist()) == list(range(23))
            for a in range(0, 23, 4):  # each batch's keys sorted
                assert keys[a : a + 4].tolist() == sorted(keys[a : a + 4].tolist())

    def test_different_epochs_differ(self):
        a = epoch_order(40, 8, 1, RngStreams(5))
        b = epoch_order(40, 8, 2, RngStreams(5))
        assert a.tolist() != b.tolist()

    def test_empty_pool_rejected(self):
        with pytest.raises(ContractViolation, match="empty"):
            build_mixed_dataset(None, [], None)

    def test_mixed_tasks_rejected(self):
        source = make_cls_corpus(lang_id="s", role="source", n_train=6)
        tokens = LanguageCorpus(
            lang_id="t", script_tag="x", role="target",
            train=Split(np.zeros((4, 2)), [0, 1, 2, 0], offsets=[0, 1, 4]),
        )
        shots = build_shot_bank([tokens], 1, "k_shot", 3, RngStreams(0))
        with pytest.raises(ContractViolation, match="cannot pool"):
            build_mixed_dataset(source, [tokens], shots)

    def test_shots_dataset_subset(self):
        targets = [make_cls_corpus(lang_id=f"t{i}", seed=i) for i in range(3)]
        shots = build_shot_bank(targets, 2, "k_shot", 3, RngStreams(1))
        pool = build_mixed_dataset(None, [targets[1]], shots)
        assert len(pool) == 2
        idx = list(shots["t1"])
        assert np.array_equal(pool.X, targets[1].train.X[idx])
        assert np.array_equal(pool.y, targets[1].train.y[idx])

    def test_pool_concatenates_source_and_shots(self):
        source = make_cls_corpus(lang_id="s", role="source", n_train=12)
        targets = [make_cls_corpus(lang_id=f"t{i}", seed=i + 1) for i in range(2)]
        shots = build_shot_bank(targets, 3, "k_shot", 3, RngStreams(4))
        pool = build_mixed_dataset(source, targets, shots)
        for name in ("X", "y"):
            parts = [getattr(source.train, name)] + [
                getattr(t.train, name)[list(shots[t.lang_id])] for t in targets]
            assert np.array_equal(getattr(pool, name), np.concatenate(parts))

    def test_gathered_batches_match_tuple_stacking(self, tmp_path):
        """Classifier and ragged tagger pools: every batch of an epoch gives
        the loss and gradient of the same examples stacked as tuples."""
        source = make_cls_corpus(lang_id="s", role="source", n_train=30)
        p = tmp_path / "tok.tsv"
        rng = np.random.default_rng(3)
        lines = []
        for _ in range(25):
            for _ in range(int(rng.integers(1, 6))):
                lines.append(f"{rng.normal()}\t{rng.normal()}\t{int(rng.integers(3))}")
            lines.append("")
        p.write_text("\n".join(lines), encoding="utf-8")
        tagger = LanguageCorpus("tok", "", "source", ingest_tsv(p, "token_tags", num_classes=3))
        for corpus, family in ((source, "softmax_classifier"), (tagger, "mlp_token_tagger")):
            state = init_params(ModelSpec(family, 2, 5, 3), RngStreams(2))
            pool = build_mixed_dataset(corpus, [], None)
            examples = examples_of(pool)
            keys = epoch_order(len(pool), 7, 1, RngStreams(6))
            batches = batch_iter(pool, 7, epoch=1, rng=RngStreams(6))
            starts = range(0, len(pool), 7)
            assert len(batches) == len(starts)
            for a, (X, y) in zip(starts, batches):
                batch_keys = keys[a : a + 7][::-1]
                ref = stack_batch([examples[k] for k in batch_keys], batch_keys)
                assert np.array_equal(X, ref.X) and np.array_equal(y, ref.y)
                got = stack_grads(state.spec, state.theta.values, X[None], y[None])
                want = loss_and_grad(state, ref)
                assert got[0].tobytes() == want.grad.tobytes()


class TestIngestTsv:
    def test_empty_file_is_valid(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("", encoding="utf-8")
        split = ingest_tsv(p, "classification")
        assert len(split) == 0 and split.X.shape == (0, 0) and split.offsets is None

    def test_three_rows_dim_two(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("1.0\t2.0\t0\n3.0\t4.0\t1\n5.0\t6.0\t2\n", encoding="utf-8")
        split = ingest_tsv(p, "classification")
        assert len(split) == 3
        assert split.X.shape == (3, 2)
        assert np.array_equal(split.X[1], [3.0, 4.0])
        assert split.y[2] == 2

    def test_crlf_equals_lf(self, tmp_path):
        lf = tmp_path / "lf.tsv"
        crlf = tmp_path / "crlf.tsv"
        lf.write_text("1.0\t0\n2.0\t1\n", encoding="utf-8")
        crlf.write_bytes(b"1.0\t0\r\n2.0\t1\r\n")
        a = ingest_tsv(lf, "classification")
        b = ingest_tsv(crlf, "classification")
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_ragged_row_reports_line_number(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("1.0\t2.0\t0\n1.0\t1\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="line 2"):
            ingest_tsv(p, "classification")

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("1.0\tcat\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="unknown label 'cat'"):
            ingest_tsv(p, "classification")

    def test_label_above_num_classes(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("1.0\t5\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="unknown label"):
            ingest_tsv(p, "classification", num_classes=3)

    def test_token_tags_sequences(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text(
            "1.0\t0.0\t1\n0.0\t1.0\t0\n\n2.0\t2.0\t2\n",
            encoding="utf-8",
        )
        split = ingest_tsv(p, "token_tags")
        assert len(split) == 2
        assert split.offsets.tolist() == [0, 2, 3]
        assert split.X.tolist() == [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]
        assert split.y.tolist() == [1, 0, 2]


class TestLanguageCorpus:
    def test_splits_are_read_only_copies(self):
        X = np.zeros((3, 2))
        corpus = make_cls_corpus()
        split = Split(X, [0, 1, 2])
        X[0, 0] = 5.0
        assert split.X[0, 0] == 0.0
        with pytest.raises(ValueError):
            corpus.train.y[0] = 1

    @pytest.mark.parametrize(
        "task, split, match",
        [
            ("classification", Split(np.zeros((2, 3)), [0, 1]), "dim 3"),
            ("classification", Split(np.zeros((2, 2)), [0, 4]), "label 4 out of range"),
            ("classification", Split(np.zeros((2, 2)), [0, 1], [0, 1, 2]), "offsets"),
            ("token_tags", Split(np.zeros((2, 2)), [0, 1]), "offsets"),
        ],
    )
    def test_malformed_split_rejected(self, task, split, match):
        # the task's spec owns layout, width and classes; the error names language and split
        family = "softmax_classifier" if task == "classification" else "mlp_token_tagger"
        spec = ModelSpec(family, 2, 0, 3)
        fine = Split(np.zeros((2, 2)), [0, 1], None if task == "classification" else [0, 2])
        source = LanguageCorpus("s", "s", "source", train=fine)
        with pytest.raises(ContractViolation, match=f"^x dev: .*{match}"):
            Task.from_corpora(spec, [source, LanguageCorpus("x", "s", "target", fine, split)])
