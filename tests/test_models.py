import base64
import hashlib
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from gradmix.corpora import LanguageCorpus, Split, build_oracle_bank
from gradmix.models import (
    Chain,
    ModelSpec,
    ModelState,
    chain_digest,
    init_params,
    load_checkpoint,
    loss_and_grad,
    predict,
    save_checkpoint,
    sgd_step,
    write_atomic,
)
from gradmix.numcore import ContractViolation, RngStreams, frozen

from conftest import fail_writes_half_way
from oracles import bitwise_equal, finite_diff_grad, predict_proba, stack_batch, to_arrays

CLS = ModelSpec(family="softmax_classifier", input_dim=4, hidden_dim=0, num_classes=3)
CLS_MLP = ModelSpec(family="softmax_classifier", input_dim=4, hidden_dim=6, num_classes=3)
TAG = ModelSpec(family="mlp_token_tagger", input_dim=3, hidden_dim=5, num_classes=4)


def random_state(spec, seed):
    rng = np.random.default_rng(seed)
    return ModelState(spec=spec, theta=rng.normal(scale=0.7, size=spec.param_dim))


def random_examples(spec, seed, n=6):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        if spec.family == "softmax_classifier":
            x = rng.normal(size=spec.input_dim)
            y = int(rng.integers(spec.num_classes))
        else:
            length = int(rng.integers(1, 5))
            x = rng.normal(size=(length, spec.input_dim))
            y = rng.integers(spec.num_classes, size=length)
        examples.append((x, y))
    return examples


def random_batch(spec, seed, n=6):
    return Split(*to_arrays(random_examples(spec, seed, n)))


class TestModelSpec:
    def test_param_counting_linear(self):
        assert CLS.param_dim == 4 * 3 + 3

    def test_param_counting_mlp(self):
        assert CLS_MLP.param_dim == 6 * 4 + 6 + 3 * 6 + 3

    def test_invalid_specs(self):
        with pytest.raises(ContractViolation):
            ModelSpec("softmax_classifier", 0, 0, 3)
        with pytest.raises(ContractViolation):
            ModelSpec("softmax_classifier", 4, 0, 1)
        with pytest.raises(ContractViolation):
            ModelSpec("rnn", 4, 0, 3)


class TestInitParams:
    def test_deterministic_under_seed(self):
        a = init_params(CLS_MLP, RngStreams(42))
        b = init_params(CLS_MLP, RngStreams(42))
        assert bitwise_equal(a.theta, b.theta)

    def test_param_dim(self):
        st = init_params(CLS, RngStreams(0))
        assert st.theta.shape == (15,) and not st.theta.flags.writeable

    def test_unaffected_by_other_substreams(self):
        r1 = RngStreams(42)
        r1.shuffle.random(100)
        r1.shot_sample.integers(0, 10, size=50)
        a = init_params(CLS_MLP, r1)
        b = init_params(CLS_MLP, RngStreams(42))
        assert bitwise_equal(a.theta, b.theta)

    def test_biases_zero_weights_bounded(self):
        st = init_params(CLS, RngStreams(3))
        W = st.theta[:12]
        b = st.theta[12:]
        assert np.all(b == 0.0)
        assert np.all(np.abs(W) <= 1.0 / math.sqrt(4))


class TestLossAndGrad:
    @pytest.mark.parametrize("spec", [CLS, CLS_MLP, TAG])
    def test_zero_weights_uniform_loss(self, spec):
        st = ModelState(spec=spec, theta=np.zeros(spec.param_dim))
        rep = loss_and_grad(st, random_batch(spec, 5))
        assert abs(rep.loss - math.log(spec.num_classes)) <= 1e-12

    @pytest.mark.parametrize("spec", [CLS, CLS_MLP, TAG])
    def test_gradient_matches_finite_differences(self, spec):
        worst = 0.0
        for trial in range(20):
            st = random_state(spec, 100 + trial)
            batch = random_batch(spec, 200 + trial)
            analytic = loss_and_grad(st, batch).grad

            def loss_fn(theta, _spec=spec, _batch=batch):
                return loss_and_grad(ModelState(spec=_spec, theta=theta), _batch).loss

            fd = finite_diff_grad(loss_fn, st.theta)
            num = np.linalg.norm(analytic - fd)
            den = max(np.linalg.norm(analytic), 1e-12)
            worst = max(worst, num / den)
        assert worst <= 1e-6

    def test_duplicating_batch_leaves_mean_unchanged(self):
        st = random_state(CLS_MLP, 1)
        batch = random_batch(CLS_MLP, 2)
        doubled = Split(np.concatenate([batch.X, batch.X]), np.concatenate([batch.y, batch.y]))
        a = loss_and_grad(st, batch)
        b = loss_and_grad(st, doubled)
        assert abs(a.loss - b.loss) <= 1e-12 * (1 + abs(a.loss))
        assert np.allclose(a.grad, b.grad, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("spec", [CLS, TAG])
    def test_bitwise_permutation_invariance(self, spec):
        # An oracle batch is the same whatever order its shots were drawn in.
        st = random_state(spec, 3)
        train = Split(*to_arrays(random_examples(spec, 4, n=8)))
        corpus = LanguageCorpus(lang_id="t", script_tag="x", role="target", train=train)
        perm = tuple(np.random.default_rng(9).permutation(8).tolist())
        shuffled = build_oracle_bank({"t": perm}, [corpus])["t"]
        a = loss_and_grad(st, train)
        b = loss_and_grad(st, shuffled)
        assert a.loss == b.loss
        assert bitwise_equal(a.grad, b.grad)

    @pytest.mark.parametrize("spec", [CLS_MLP, TAG])
    def test_take_matches_tuple_stacking(self, spec):
        st = random_state(spec, 6)
        examples = random_examples(spec, 7, n=9)
        keys = np.random.default_rng(8).permutation(9) + 100
        pool = Split(*to_arrays(examples))
        a = loss_and_grad(st, pool.take(np.argsort(keys)))
        b = loss_and_grad(st, stack_batch(examples, keys))
        assert a.loss == b.loss
        assert bitwise_equal(a.grad, b.grad)

    def test_empty_batch_rejected(self):
        st = random_state(CLS, 1)
        empty = Split(np.empty((0, 4)), np.empty(0, dtype=np.int64))
        with pytest.raises(ContractViolation, match="empty batch"):
            loss_and_grad(st, empty)

    def test_label_out_of_range(self):
        st = random_state(CLS, 1)
        batch = Split(np.zeros((1, 4)), [7])
        with pytest.raises(ContractViolation, match="label 7 out of range"):
            loss_and_grad(st, batch)

    def test_feature_dim_mismatch(self):
        st = random_state(CLS, 1)
        with pytest.raises(ContractViolation, match="features have dim 5, expected 4"):
            loss_and_grad(st, Split(np.zeros((1, 5)), [0]))

    def test_layout_must_match_family(self):
        tokens = Split(np.zeros((3, 4)), [0, 1, 2], offsets=[0, 1, 3])
        with pytest.raises(ContractViolation, match="layout"):
            loss_and_grad(random_state(CLS, 1), tokens)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((np.zeros(4), [0]), "2-D"),
            ((np.zeros((2, 4)), [0]), "labels"),
            ((np.zeros((3, 4)), [0, 1, 2], [0, 2]), "offsets"),
        ],
    )
    def test_split_rejects_malformed_arrays(self, args, match):
        with pytest.raises(ContractViolation, match=match):
            Split(*args)


class TestSgdStep:
    def test_lr_zero_is_identity(self):
        st = random_state(CLS, 1)
        g = frozen(np.ones(st.theta.size))
        assert bitwise_equal(sgd_step(st, g, 0.0).theta, st.theta)

    def test_hand_case(self):
        spec = ModelSpec("softmax_classifier", 1, 0, 2)  # dim 4; use first two coords
        st = ModelState(spec=spec, theta=np.array([1.0, 1.0, 0.0, 0.0]))
        g = frozen(np.array([1.0, -1.0, 0.0, 0.0]))
        out = sgd_step(st, g, 0.5)
        assert out.theta[0] == 0.5
        assert out.theta[1] == 1.5

    def test_two_steps_equal_one_double_step_for_constant_grad(self):
        st = random_state(CLS_MLP, 2)
        g = frozen(np.random.default_rng(0).normal(size=st.theta.size))
        lr = 0.1
        twice = sgd_step(sgd_step(st, g, lr), g, lr)
        expected = st.theta - 2 * lr * g
        assert np.allclose(twice.theta, expected, rtol=0, atol=1e-15)

    def test_nonfinite_grad_unrepresentable(self):
        with pytest.raises(ContractViolation):
            sgd_step(random_state(CLS, 1), np.r_[np.ones(CLS.param_dim - 1), np.nan], 0.1)

    def test_dim_mismatch(self):
        st = random_state(CLS, 1)
        with pytest.raises(ContractViolation):
            sgd_step(st, frozen(np.ones(3)), 0.1)


class TestPredict:
    def test_zero_weights_tie_breaks_to_class_zero(self):
        st = ModelState(spec=CLS, theta=np.zeros(CLS.param_dim))
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=4)
            assert predict(st, x) == 0

    def test_constructed_weights_favor_class_two(self):
        theta = np.zeros(CLS.param_dim)
        theta[2 * 4 : 3 * 4] = 10.0  # weight row of class 2
        st = ModelState(spec=CLS, theta=theta)
        assert predict(st, np.ones(4)) == 2

    def test_tagger_preserves_length(self):
        st = random_state(TAG, 5)
        x = np.random.default_rng(1).normal(size=(7, 3))
        out = predict(st, x)
        assert out.shape == (7,)

    def test_probabilities_sum_to_one(self):
        st = random_state(CLS_MLP, 8)
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=4) * 5
            p = predict_proba(st, x)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.argmax(p) == predict(st, x)


def sgd_chain(spec, seed, epochs=3):
    """A chain as the trainer builds one: epoch 0, then one state per epoch."""
    states = [random_state(spec, seed)]
    for e in range(epochs):
        grad = loss_and_grad(states[-1], random_batch(spec, seed + 100 + e)).grad
        states.append(sgd_step(states[-1], grad, 0.3))
    return Chain(spec, frozen(np.stack([s.theta for s in states])))


def split_file(path):
    """A checkpoint file's header, read as JSON, and the bytes after its newline."""
    head, _, body = path.read_bytes().partition(b"\n")
    return json.loads(head), body


def rewrite(path, body=None, **changes):
    """Rewrite a checkpoint file with some header keys changed (None:
    removed) and, if given, another body."""
    header, old = split_file(path)
    header.update(changes)
    header = {k: v for k, v in header.items() if v is not None}
    path.write_bytes(json.dumps(header).encode() + b"\n" + (old if body is None else body))


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        chain = sgd_chain(CLS_MLP, 11)
        path = tmp_path / "model.json"
        save_checkpoint(chain, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == chain.spec
        assert loaded.states.shape == (4, CLS_MLP.param_dim)
        assert bitwise_equal(loaded.states, chain.states)
        assert not loaded.states.flags.writeable

    def test_round_trip_preserves_metrics(self, tmp_path):
        chain = sgd_chain(TAG, 12)
        batch = random_batch(TAG, 13)
        path = tmp_path / "model.json"
        save_checkpoint(chain, path)
        loaded = load_checkpoint(path)
        assert len(loaded.states) == len(chain.states)
        for e in range(len(chain.states)):
            got, want = loaded.state(e), chain.state(e)
            assert bitwise_equal(got.theta, want.theta)
            before, after = loss_and_grad(want, batch), loss_and_grad(got, batch)
            assert before.loss == after.loss
            assert bitwise_equal(before.grad, after.grad)

    def test_pinned_digest_and_file_bytes(self, tmp_path):
        """A fixed two-state chain keeps the store name it had when a chain
        was a list of per-state objects, and its version-4 file these bytes."""
        s0 = init_params(CLS_MLP, RngStreams(7))
        s1 = sgd_step(s0, np.linspace(-1.0, 1.0, CLS_MLP.param_dim), 0.25)
        chain = Chain(CLS_MLP, frozen(np.stack([s0.theta, s1.theta])))
        assert chain_digest(chain) == "b31c6a8222ebf5eb"
        path = tmp_path / "model.chain"
        save_checkpoint(chain, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5c3ecd34270ad5befb55522bae60166fc8c7926c0f2a3e4ec8f5237ceef29106")
        assert bitwise_equal(load_checkpoint(path).states, chain.states)

    def test_version_1_file_refused(self, tmp_path):
        state = random_state(CLS, 14)
        path = tmp_path / "epoch_0003.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "model-checkpoint", "spec": asdict(CLS),
            "epoch": 3, "strategy": "zero_shot",
            "theta": [repr(v) for v in state.theta.tolist()],
        }), encoding="utf-8")
        with pytest.raises(ContractViolation, match=f"{re.escape(str(path))}.*version-1"):
            load_checkpoint(path)

    def test_version_2_file_refused(self, tmp_path):
        state = random_state(CLS, 15)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": 2, "kind": "model-chain", "spec": asdict(CLS),
            "strategy": "zero_shot",
            "thetas": [[repr(v) for v in state.theta.tolist()]],
        }), encoding="utf-8")
        with pytest.raises(ContractViolation, match=f"{re.escape(str(path))}.*version-2"):
            load_checkpoint(path)

    def test_file_is_a_header_line_and_raw_rows(self, tmp_path):
        chain = sgd_chain(CLS, 16, epochs=2)
        path = tmp_path / "model.chain"
        save_checkpoint(chain, path)
        header = {"format_version": 4, "kind": "model-chain", "spec": asdict(CLS), "states": 3}
        assert path.read_bytes() == (json.dumps(header, separators=(",", ":")).encode() + b"\n"
                                     + chain.states.astype("<f8").tobytes())

    def test_version_3_file_refused(self, tmp_path):
        """A file in the layout of version 3: one JSON line, a base64 string
        per state."""
        chain = sgd_chain(CLS, 17, epochs=1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format_version": 3, "kind": "model-chain", "spec": asdict(CLS),
            "states": [base64.b64encode(row.astype("<f8").tobytes()).decode()
                       for row in chain.states],
        }, separators=(",", ":")) + "\n", encoding="utf-8")
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: a version-3 checkpoint; expected version 4"

    @pytest.mark.parametrize("cut, extra", [(8, b""), (0, b"\0")], ids=["short", "trailing"])
    def test_body_of_another_length_refused_by_path(self, tmp_path, cut, extra):
        path = tmp_path / "model.chain"
        save_checkpoint(sgd_chain(CLS, 17, epochs=1), path)
        _, body = split_file(path)
        rewrite(path, body=body[:len(body) - cut] + extra)
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        size, want = 16 * CLS.param_dim - cut + len(extra), 16 * CLS.param_dim
        assert str(refused.value) == (f"{path}: the states take {size} bytes; 2 states of "
                                      f"{CLS.param_dim} f64 values take {want}")

    @pytest.mark.parametrize("value, error", [
        (2.9, "spec.input_dim: 2.9 is not an integer >= 1"),
        ("x", "spec.input_dim: 'x' is not an integer >= 1"),
    ], ids=["float", "string"])
    def test_spec_read_through_its_table(self, tmp_path, value, error):
        path = tmp_path / "model.chain"
        save_checkpoint(sgd_chain(CLS, 17, epochs=1), path)
        header, _ = split_file(path)
        rewrite(path, spec=dict(header["spec"], input_dim=value))
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: {error}"

    def test_nonfinite_state_refused_by_path(self, tmp_path):
        path = tmp_path / "model.chain"
        chain = sgd_chain(CLS, 17, epochs=1)
        save_checkpoint(chain, path)
        states = np.array(chain.states)
        states[1, 2] = np.nan
        rewrite(path, body=states.astype("<f8").tobytes())
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: non-finite entry at index 1, 2"

    @pytest.mark.parametrize("states, error", [
        (0, "states: 0 is not an integer >= 1"),
        ("x", "states: 'x' is not an integer >= 1"),
        (None, "states: None is not an integer >= 1"),
    ], ids=["empty", "string", "missing"])
    def test_malformed_states_refused_by_path(self, tmp_path, states, error):
        path = tmp_path / "model.chain"
        save_checkpoint(sgd_chain(CLS, 17, epochs=1), path)
        rewrite(path, states=states)
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: {error}"

    @pytest.mark.parametrize("text, error", [
        ("[]", "checkpoint: [] is not a JSON object"),
        ("{", "Expecting property name enclosed in double quotes"),
    ], ids=["list", "not-json"])
    def test_file_of_no_json_object_refused_by_path(self, tmp_path, text, error):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        assert str(refused.value).startswith(f"{path}: {error}")

    @pytest.mark.parametrize("data, error", [
        (b"[4, 2]\n" + bytes(8), "checkpoint: [4, 2] is not a JSON object"),
        (bytes(range(11, 256)), "'utf-8' codec can't decode byte 0x80"),  # no newline
    ], ids=["header-list", "binary"])
    def test_header_of_no_json_object_refused_by_path(self, tmp_path, data, error):
        path = tmp_path / "model.chain"
        path.write_bytes(data)
        with pytest.raises(ContractViolation) as refused:
            load_checkpoint(path)
        assert str(refused.value).startswith(f"{path}: {error}")

    def test_digest_names_equal_chains_alike(self):
        chain = sgd_chain(CLS_MLP, 18)
        copy = Chain(chain.spec, chain.states.copy())
        assert chain_digest(chain) == chain_digest(copy)
        assert len(chain_digest(chain)) == 16
        assert chain_digest(chain) != chain_digest(Chain(chain.spec, chain.states[:-1]))
        assert chain_digest(chain) != chain_digest(sgd_chain(CLS_MLP, 19))

    def test_malformed_chain_rejected(self):
        with pytest.raises(ContractViolation, match="empty"):
            frozen(np.empty((0, CLS.param_dim)))
        chain = Chain(CLS, frozen(np.zeros((2, CLS_MLP.param_dim))))  # states of another spec
        with pytest.raises(ContractViolation, match=r"theta has shape \(51,\), not \(15,\)"):
            chain.state(0)


class TestWriteAtomic:
    def test_failure_mid_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        write_atomic(old, b"whole old content\n")
        fail_writes_half_way(monkeypatch)
        for path in (old, new):
            with pytest.raises(OSError, match="no space"):
                write_atomic(path, b"a replacement that is never finished\n")
        assert old.read_bytes() == b"whole old content\n"
        assert not new.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    def test_checkpoint_failure_mid_write(self, tmp_path, monkeypatch):
        fail_writes_half_way(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(sgd_chain(CLS, 20), tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []
