import math
import struct

import numpy as np
import pytest

from gradmix.numcore import (
    SUBSTREAM_IDS,
    ContractViolation,
    RngStreams,
    cosine_from_dots,
    cosine_similarity,
    dot,
    frozen,
)

from oracles import dot_loop, finite_diff_grad, norm
from oracles import cosine_similarity as cosine_reference


def vec(*xs):
    return frozen(xs)


class TestFrozen:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ContractViolation):
            vec(1.0, float("nan"))
        with pytest.raises(ContractViolation, match="index 2$"):
            vec(1.0, 2.0, float("inf"))
        with pytest.raises(ContractViolation, match="index 1, 0$"):  # a chain: (epoch, entry)
            frozen(np.array([[1.0, 2.0], [np.nan, 3.0]]))

    def test_immutable(self):
        v = vec(1.0, 2.0)
        with pytest.raises(ValueError):
            v[0] = 5.0

    def test_freezes_without_copy_and_keeps_checks(self):
        arr = np.array([1.0, 2.0])
        assert frozen(arr) is arr and not arr.flags.writeable
        with pytest.raises(ContractViolation, match="^an empty array of parameters$"):
            frozen(np.empty(0))
        with pytest.raises(ContractViolation, match="^an empty array of parameters$"):
            frozen(np.empty((0, 3)))
        with pytest.raises(ContractViolation, match="index 1"):
            frozen(np.array([0.0, np.inf]))


class TestDot:
    def test_orthogonal(self):
        assert dot(vec(1, 0), vec(0, 1)) == 0.0

    def test_hand_value(self):
        # (2,1).(-1,-3) = -2 - 3 = -5
        assert dot(vec(2, 1), vec(-1, -3)) == -5.0

    def test_norm_identity(self):
        a = vec(3, 4)
        assert dot(a, a) == 25.0
        assert norm(a) == 5.0

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            dot(vec(1, 2), vec(1, 2, 3))

    def test_bitwise_equal_to_scalar_loop(self):
        def bits(x):
            return struct.pack("<d", x)

        rng = np.random.default_rng(2024)
        pairs = []
        for _ in range(1200):
            dim = int(rng.integers(1, 1001))
            scale = 10.0 ** rng.uniform(-5, 5, size=2)
            a = rng.normal(size=dim) * scale[0]
            b = rng.normal(size=dim) * scale[1]
            pairs.append((a, b))
        for dim in (1, 2, 387, 1000):  # cancellation: a.b and a.(-b) summed
            a = rng.normal(size=dim) * 1e5
            pairs.append((np.concatenate([a, a]), np.concatenate([a, -a])))
        pairs += [  # signed zeros
            ([-0.0], [1.0]),
            ([-0.0, -0.0], [1.0, 2.0]),
            ([0.0, -0.0], [-1.0, 1.0]),
            ([1e-5, -1e-5], [1e-5, 1e-5]),
            ([-0.0, 3.0, -3.0], [1.0, 1.0, 1.0]),
        ]
        for a, b in pairs:
            va, vb = frozen(a), frozen(b)
            assert bits(dot(va, vb)) == bits(dot_loop(va, vb))

    def test_stacks_give_each_row_pair_bitwise(self):
        rng = np.random.default_rng(8)
        A, B = rng.normal(size=(5, 33)), rng.normal(size=(5, 33))
        A[0] = -0.0  # an all-negative-zero row sums to +0.0, as a vector's dot does
        got = dot(A, B)
        assert got.shape == (5,)
        assert got.tobytes() == np.array([dot(a, b) for a, b in zip(A, B)]).tobytes()
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            dot(A, B[:4])

    @pytest.mark.parametrize("dim", [2, 10, 1000])
    def test_symmetric_and_bilinear(self, dim):
        rng = np.random.default_rng(1234 + dim)
        trials = 1000 if dim < 1000 else 200
        for _ in range(trials):
            a = frozen(rng.normal(size=dim))
            b = frozen(rng.normal(size=dim))
            c = frozen(rng.normal(size=dim))
            s = float(rng.normal())
            assert dot(a, b) == dot(b, a)  # elementwise products commute exactly
            lhs = dot(a + b, c)
            rhs = dot(a, c) + dot(b, c)
            scale = abs(lhs) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-12 * scale
            lhs2 = dot(s * a, b)
            rhs2 = s * dot(a, b)
            assert abs(lhs2 - rhs2) <= 1e-12 * (abs(lhs2) + abs(rhs2) + 1.0)


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine_similarity(vec(1, 0), vec(1, 0)) == 1.0

    def test_antiparallel(self):
        assert cosine_similarity(vec(1, 0), vec(-1, 0)) == -1.0

    def test_hand_value(self):
        # cos between (1,1) and (1,0) is 1/sqrt(2)
        c = cosine_similarity(vec(1, 1), vec(1, 0))
        assert abs(c - 0.7071067811865475) <= 1e-9

    def test_zero_norm_is_missing_not_exception(self):
        assert cosine_similarity(vec(0, 0), vec(1, 0)) is None
        assert cosine_similarity(vec(1, 0), vec(0, 0)) is None

    def test_clamped(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = frozen(rng.normal(size=5) * 1e150)
            c = cosine_similarity(a, a)
            assert -1.0 <= c <= 1.0

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            a = frozen(rng.normal(size=17))
            b = frozen(rng.normal(size=17))
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_from_dots_equals_three_dot_reference(self):
        rng = np.random.default_rng(5)
        vecs = [frozen(rng.normal(size=9) * 10.0 ** rng.uniform(-5, 5)) for _ in range(60)]
        vecs += [frozen(np.zeros(9)), frozen(-vecs[0]), vecs[1].copy()]
        for a in vecs:
            for b in vecs[::7] + [a]:
                got = cosine_from_dots(a, b, dot(a, a), dot(a, b), dot(b, b))
                assert repr(got) == repr(cosine_reference(a, b)) == repr(cosine_similarity(a, b))


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda t: dot(t, t), vec(1, 2), h=1e-5)
        assert abs(g[0] - 2.0) <= 1e-8
        assert abs(g[1] - 4.0) <= 1e-8

    def test_constant(self):
        g = finite_diff_grad(lambda t: 3.5, vec(1, 2, 3))
        assert np.all(g == 0.0)

    def test_product_rule(self):
        # loss = t0 * t1 at (3,5) has gradient (5,3)
        g = finite_diff_grad(lambda t: float(t[0] * t[1]), vec(3, 5), h=1e-5)
        assert abs(g[0] - 5.0) <= 1e-8
        assert abs(g[1] - 3.0) <= 1e-8

    def test_nonfinite_loss_names_coordinate(self):
        def bad(t):
            return float("inf") if t[1] != 2.0 else 0.0

        with pytest.raises(ContractViolation, match="coordinate 1"):
            finite_diff_grad(bad, vec(1, 2))

    def test_bad_h(self):
        with pytest.raises(ContractViolation):
            finite_diff_grad(lambda t: 0.0, vec(1), h=0.0)


class TestRngStreams:
    def test_substream_independence(self):
        a = RngStreams(42)
        b = RngStreams(42)
        # consume heavily from one substream of `a` only
        a.shuffle.random(1000)
        a.lang_pick.integers(0, 100, size=500)
        assert np.array_equal(a.init.random(16), b.init.random(16))
        assert np.array_equal(a.surgery_p.random(16), b.surgery_p.random(16))

    def test_same_seed_same_streams(self):
        xs = RngStreams(7).shot_sample.random(8)
        ys = RngStreams(7).shot_sample.random(8)
        assert np.array_equal(xs, ys)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStreams(1).init.random(8), RngStreams(2).init.random(8))

    def test_derived_streams_are_stable_and_distinct(self):
        r = RngStreams(5)
        g1 = r.derived("shuffle", "pool:3").random(4)
        g2 = RngStreams(5).derived("shuffle", "pool:3").random(4)
        g3 = r.derived("shuffle", "pool:4").random(4)
        assert np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)

    def test_derived_does_not_advance_root(self):
        a = RngStreams(11)
        b = RngStreams(11)
        a.derived("shot_sample", "lang-x").random(100)
        assert np.array_equal(a.shot_sample.random(8), b.shot_sample.random(8))

    def test_unknown_substream(self):
        with pytest.raises(ContractViolation):
            RngStreams(0).derived("nope", "x")

    def test_all_ids_present(self):
        r = RngStreams(3)
        for name in SUBSTREAM_IDS:
            assert isinstance(getattr(r, name), np.random.Generator)

