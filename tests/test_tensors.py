import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkquant.errors import NumericError, ShapeError
from sinkquant.tensors import (
    ATTENTION_TILE,
    causal_attention,
    cosine_similarity,
    l2_norm_per_token,
    merge_heads,
    softmax_row,
    split_heads,
    top_k_abs,
)


def dense_causal_attention(q, k, v):
    """Reference: the whole [heads, n, n] masked softmax at once."""
    n = q.shape[1]
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(q.shape[-1])
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    scores[:, mask] = -np.inf
    weights = np.exp(scores - scores.max(axis=2, keepdims=True))
    weights[:, mask] = 0.0
    weights /= weights.sum(axis=2, keepdims=True)
    return weights @ v, weights


class TestL2Norm:
    def test_3_4_5(self):
        assert l2_norm_per_token([[3.0, 4.0]]) == pytest.approx([5.0])

    def test_zero_tensor(self):
        np.testing.assert_array_equal(l2_norm_per_token([[0, 0], [0, 0]]), [0.0, 0.0])

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 8))
        # independent oracle: plain per-element accumulation
        expected = [math.sqrt(sum(v * v for v in row)) for row in x.tolist()]
        np.testing.assert_allclose(l2_norm_per_token(x), expected, atol=1e-12, rtol=0)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            l2_norm_per_token([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            l2_norm_per_token([[np.nan, 1.0]])

    @given(st.floats(-1e6, 1e6), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, c, seed):
        x = np.random.default_rng(seed).normal(size=(3, 5))
        np.testing.assert_allclose(
            l2_norm_per_token(c * x), abs(c) * l2_norm_per_token(x), rtol=1e-9, atol=1e-9
        )


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_antiparallel(self):
        assert cosine_similarity([1, 1], [-1, -1]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_sentinel(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity([1, 2], [1, 2, 3])

    @given(
        st.floats(-100, 100).filter(lambda v: abs(v) > 1e-3),
        st.floats(-100, 100).filter(lambda v: abs(v) > 1e-3),
        st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        base = cosine_similarity(a, b)
        scaled = cosine_similarity(alpha * a, beta * b)
        assert scaled == pytest.approx(math.copysign(1.0, alpha * beta) * base, abs=1e-9)


class TestTopKAbs:
    def test_example(self):
        assert top_k_abs([1, -9, 3], 2) == [(1, -9.0), (2, 3.0)]

    def test_tie_breaks_to_lower_index(self):
        assert top_k_abs([5, 5, 5], 1) == [(0, 5.0)]

    def test_k_zero(self):
        assert top_k_abs([1.0, 2.0], 0) == []

    def test_k_beyond_length_returns_all(self):
        got = top_k_abs([2.0, -1.0], 10)
        assert got == [(0, 2.0), (1, -1.0)]

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.normal(size=rng.integers(1, 30))
            k = int(rng.integers(0, v.size + 3))
            ranked = sorted(range(v.size), key=lambda i: (-abs(v[i]), i))[: min(k, v.size)]
            expected = sorted((i, v[i]) for i in ranked)
            assert top_k_abs(v, k) == [(i, pytest.approx(val)) for i, val in expected]

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_full_k_returns_every_index_once(self, seed):
        v = np.random.default_rng(seed).normal(size=12)
        got = top_k_abs(v, v.size)
        assert [i for i, _ in got] == list(range(v.size))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_row([0.0, 0.0]), [0.5, 0.5])

    def test_single_element(self):
        for x in (-1e300, 0.0, 17.0):
            np.testing.assert_array_equal(softmax_row([x]), [1.0])

    def test_matches_direct_formula(self):
        scores = np.array([1.0, 2.0, 3.0])
        expected = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(softmax_row(scores), expected, atol=1e-12, rtol=0)

    def test_masked_entries_map_to_zero(self):
        out = softmax_row([0.0, -np.inf, 0.0])
        assert out[1] == 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_fully_masked_row_fails(self):
        with pytest.raises(NumericError):
            softmax_row([-np.inf, -np.inf])

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax_row([np.nan, 0.0])

    @given(st.floats(-1e3, 1e3), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, shift, seed):
        scores = np.random.default_rng(seed).normal(size=9)
        np.testing.assert_allclose(softmax_row(scores + shift), softmax_row(scores), atol=1e-9)



class TestCausalAttention:
    SIZES = (1, ATTENTION_TILE - 1, ATTENTION_TILE, ATTENTION_TILE + 1, 3 * ATTENTION_TILE + 17)

    @staticmethod
    def qkv(n, heads=3, dk=8, dv=8, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(heads, n, dk)),
            rng.normal(size=(heads, n, dk)),
            rng.normal(size=(heads, n, dv)),
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_dense_reference(self, n):
        q, k, v = self.qkv(n, dv=5, seed=n)
        out, weights = causal_attention(q, k, v, keep_weights=True)
        ref_out, ref_weights = dense_causal_attention(q, k, v)
        assert out.shape == (3, n, 5) and weights.shape == (3, n, n)
        np.testing.assert_allclose(out, ref_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(weights, ref_weights, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n", SIZES)
    def test_kept_weights_are_causal_distributions(self, n):
        _, weights = causal_attention(*self.qkv(n, heads=2, seed=n + 1), keep_weights=True)
        assert np.all(weights[:, np.triu(np.ones((n, n), dtype=bool), k=1)] == 0.0)
        np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-12, rtol=0)

    def test_output_independent_of_keep_weights(self):
        q, k, v = self.qkv(2 * ATTENTION_TILE + 3, heads=2)
        out, weights = causal_attention(q, k, v)
        kept_out, _ = causal_attention(q, k, v, keep_weights=True)
        assert weights is None
        np.testing.assert_array_equal(out, kept_out)

    def test_large_scores_stay_finite(self):
        q, k, v = self.qkv(ATTENTION_TILE + 9, heads=1)
        out, weights = causal_attention(q * 1e3, k * 1e3, v, keep_weights=True)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(weights))
        np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        q, k, v = self.qkv(4)
        with pytest.raises(ShapeError):
            causal_attention(q, k[:, :3], v)
        with pytest.raises(ShapeError):
            causal_attention(q, k, v[:2])
        with pytest.raises(ShapeError):
            causal_attention(q[0], k[0], v[0])


class TestHeadViews:
    def test_split_merge_roundtrip(self):
        x = np.random.default_rng(0).normal(size=(6, 12))
        heads = split_heads(x, 3)
        assert heads.shape == (3, 6, 4)
        np.testing.assert_array_equal(merge_heads(heads), x)

    def test_split_requires_divisible_width(self):
        with pytest.raises(ShapeError):
            split_heads(np.zeros((2, 10)), 3)
