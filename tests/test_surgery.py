import numpy as np
import pytest

from gradmix.corpora import LanguageCorpus, Split, build_oracle_bank, build_shot_bank
from gradmix.models import ModelSpec, ModelState, loss_and_grad
from gradmix.numcore import ContractViolation, ParamVec, RngStreams, dot
from gradmix.surgery import TraceEntry, decide, oracle_gradient, sgs_step

from oracles import decide_one, examples_of, norm, stack_batch


def vec(*xs):
    return ParamVec(np.array(xs, dtype=np.float64))


def conflicting(g_s, g_t):
    return decide_one(g_s, g_t)[1].conflicted


class TestIsConflicting:
    """The conflict test of `surgery.decide`."""

    def test_orthogonal_is_not_conflicting(self):
        assert not conflicting(vec(1, 0), vec(0, 1))

    def test_negative_dot(self):
        assert conflicting(vec(2, 1), vec(-1, -3))

    def test_self_is_not_conflicting(self):
        a = vec(0.3, -0.7, 2.0)
        assert not conflicting(a, a)

    def test_zero_norm_is_not_conflicting(self):
        assert not conflicting(vec(0, 0), vec(1, -1))


class TestProjectGradient:
    """The projection of `surgery.decide`, on a conflict with alpha 1."""

    def test_hand_case(self):
        out, entry = decide_one(vec(1, -1), vec(0, 1))
        assert entry.applied
        assert out.values.tolist() == [1.0, 0.0]

    def test_orthogonal_unchanged(self):
        g_s, g_t = vec(1, 0), vec(0, 2)
        out, _ = decide_one(g_s, g_t)
        assert out.values.tolist() == [1.0, 0.0]

    def test_antiparallel_annihilates(self):
        g = vec(1.5, -2.0, 0.5)
        out, _ = decide_one(g, ParamVec(-g.values))
        assert np.all(out.values == 0.0)

    def test_zero_target_rejected(self):
        # A zero oracle gradient never conflicts, so nothing is projected onto it.
        g = vec(1, 1)
        out, entry = decide_one(g, vec(0, 0))
        assert out is g
        assert not entry.conflicted and entry.cos_before is None

    @pytest.mark.parametrize("dim", [2, 10, 1000])
    def test_projection_properties(self, dim):
        rng = np.random.default_rng(31337 + dim)
        pairs = 1000
        for _ in range(pairs):
            g_s = ParamVec(rng.normal(size=dim))
            g_t = ParamVec(rng.normal(size=dim))
            out, entry = decide_one(g_s, g_t)
            if entry.conflicted:
                # orthogonality after surgery
                assert abs(dot(out, g_t)) <= 1e-9 * norm(g_s) * norm(g_t)
                # idempotence
                again, _ = decide_one(out, g_t)
                assert norm(ParamVec((again.values - out.values) + 0.0)) <= 1e-12 * max(
                    norm(g_s), 1.0
                ) or np.array_equal(again.values, out.values)
                # norm contraction
                assert norm(out) <= norm(g_s)
            else:
                # bitwise no-op, same object
                assert out is g_s


def make_oracle(num_targets=2, k=3, seed=0, dim=2, num_classes=3):
    rng = np.random.default_rng(seed)
    targets = []
    for i in range(num_targets):
        train = Split(rng.normal(size=(10, dim)), np.arange(10) % num_classes)
        targets.append(
            LanguageCorpus(lang_id=f"t{i}", script_tag="s", role="target", train=train)
        )
    shots = build_shot_bank(targets, k, "k_shot", num_classes, RngStreams(seed))
    return build_oracle_bank(shots, targets), targets


def make_model(dim=2, num_classes=3, seed=1):
    spec = ModelSpec("softmax_classifier", dim, 0, num_classes)
    theta = np.random.default_rng(seed).normal(size=spec.param_dim)
    return ModelState(spec=spec, theta=ParamVec(theta))


class TestSgsStep:
    def test_alpha_zero_never_applies(self):
        oracle, _ = make_oracle()
        model = make_model()
        g = ParamVec(np.random.default_rng(5).normal(size=model.theta.dim))
        rng = RngStreams(3)
        for step in range(20):
            out, entry = sgs_step(g, oracle, model, 0.0, rng, step)
            assert out is g
            assert not entry.applied

    def test_alpha_one_antiparallel_oracle_zeroes_gradient(self):
        oracle, _ = make_oracle(num_targets=1)
        model = make_model()
        g_oracle = oracle_gradient(model, oracle, "t0")
        g_train = ParamVec(-g_oracle.values)
        out, entry = sgs_step(g_train, oracle, model, 1.0, RngStreams(0))
        assert entry.applied and entry.conflicted
        assert np.all(out.values == 0.0)

    def test_alpha_one_nonconflicting_is_noop(self):
        oracle, _ = make_oracle(num_targets=1)
        model = make_model()
        g_oracle = oracle_gradient(model, oracle, "t0")
        g_train = ParamVec(g_oracle.values * 2.0)  # aligned, positive dot
        out, entry = sgs_step(g_train, oracle, model, 1.0, RngStreams(0))
        assert out is g_train
        assert not entry.applied
        assert entry.cos_after == entry.cos_before

    def test_empty_oracle_bank_rejected(self):
        oracle, _ = make_oracle(num_targets=0)
        model = make_model()
        g = ParamVec(np.ones(model.theta.dim))
        with pytest.raises(ContractViolation, match="empty"):
            sgs_step(g, oracle, model, 1.0, RngStreams(0))

    def test_two_draws_per_step_regardless_of_outcome(self):
        oracle, _ = make_oracle()
        model = make_model()
        g = ParamVec(np.random.default_rng(2).normal(size=model.theta.dim))
        consumed = RngStreams(11)
        for step in range(7):
            sgs_step(g, oracle, model, 0.5, consumed, step)
        fresh = RngStreams(11)
        fresh.lang_pick.integers(2, size=7)
        fresh.surgery_p.random(7)
        # both streams now at identical positions
        assert consumed.lang_pick.integers(1000) == fresh.lang_pick.integers(1000)
        assert consumed.surgery_p.random() == fresh.surgery_p.random()

    def test_oracle_gradient_matches_loss_and_grad_on_shots(self):
        oracle, targets = make_oracle(num_targets=1, k=4, seed=3)
        model = make_model(seed=3)
        idx = build_shot_bank(targets, 4, "k_shot", 3, RngStreams(3))["t0"]
        pool = examples_of(targets[0].train)
        batch = stack_batch([pool[i] for i in idx], keys=idx)
        expected = loss_and_grad(model, batch).grad
        assert oracle_gradient(model, oracle, "t0").bitwise_equal(expected)

    def test_trace_invariant_enforced(self):
        with pytest.raises(ContractViolation):
            TraceEntry(
                step=0, picked_lang="x", p_value=0.5, conflicted=False,
                applied=True, cos_before=0.1, cos_after=0.0,
            )

    def test_policy_alpha_range(self):
        G = O = np.ones((1, 3))
        for alpha in (1.5, -0.1):
            with pytest.raises(ContractViolation, match="alpha must be in"):
                decide(G, O, [("t", 0.0)], 0, alpha)
