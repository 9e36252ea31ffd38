import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkquant import tensors
from sinkquant.errors import ConfigError, NumericError, ShapeError
from sinkquant.tensors import (
    ATTENTION_TILE,
    CHUNK_ELEMENTS,
    as_tensor,
    causal_attention,
    l2_norm_per_token,
    merge_heads,
    softmax_row,
    split_heads,
    top_k_mask,
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


def serial_causal_attention(q, k, v, keep_weights):
    """Reference: the one-thread tile loop, each tile's scores in a fresh array copied into the weights."""
    heads, n, dk = q.shape
    k_t = k.transpose(0, 2, 1)
    above = np.triu(np.ones((ATTENTION_TILE, ATTENTION_TILE), dtype=bool), k=1)
    out = np.empty((heads, n, v.shape[2]))
    weights = np.zeros((heads, n, n)) if keep_weights else None
    for start in range(0, n, ATTENTION_TILE):
        end = min(start + ATTENTION_TILE, n)
        scores = q[:, start:end] @ k_t[:, :, :end]
        scores /= np.sqrt(dk)
        np.copyto(scores[:, :, start:], -np.inf, where=above[: end - start, : end - start])
        scores -= scores.max(axis=2, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=2, keepdims=True)
        out[:, start:end] = scores @ v[:, :end]
        if keep_weights:
            weights[:, start:end, :end] = scores
    return out, weights


class TestAsTensor:
    def test_finiteness_scan_makes_no_input_sized_mask(self):
        x = np.zeros((2048, 2048))  # a bool mask of it would be 4 MiB
        tracemalloc.start()
        try:
            assert as_tensor(x) is x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("where", [0, CHUNK_ELEMENTS - 1, CHUNK_ELEMENTS, 3 * CHUNK_ELEMENTS + 5, -1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_every_block_is_checked(self, where, bad, order):
        base = np.zeros((4 * CHUNK_ELEMENTS // 256, 512))
        x = base[:, ::2] if order == "strided" else np.asarray(base[:, :256], order=order)
        x[np.unravel_index(where % x.size, x.shape)] = bad
        with pytest.raises(NumericError):
            as_tensor(x)
        x[np.isnan(x) | np.isinf(x)] = 0.0
        assert as_tensor(x) is x


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


class TestTopKAbs:
    """``top_k_mask`` over ``|v|`` as one row, the way the quantizer ranks outliers."""

    @staticmethod
    def picked(v, k):
        return np.flatnonzero(top_k_mask(np.abs(np.asarray(v, dtype=np.float64))[None], k)).tolist()

    def test_example(self):
        assert self.picked([1, -9, 3], 2) == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        assert self.picked([5, 5, 5], 1) == [0]
        mask = top_k_mask(np.array([[2.0, 7.0, 7.0, 7.0, 1.0], [7.0, 7.0, 0.0, 7.0, 7.0]]), 2)
        np.testing.assert_array_equal(mask, [[0, 1, 1, 0, 0], [1, 1, 0, 0, 0]])

    def test_k_zero(self):
        assert self.picked([1.0, 2.0], 0) == []

    def test_k_beyond_length_returns_all(self):
        assert self.picked([2.0, -1.0], 10) == [0, 1]

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.normal(size=rng.integers(1, 30))
            k = int(rng.integers(0, v.size + 3))
            ranked = sorted(range(v.size), key=lambda i: (-abs(v[i]), i))[: min(k, v.size)]
            assert self.picked(v, k) == sorted(ranked)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_full_k_returns_every_index_once(self, seed):
        v = np.random.default_rng(seed).normal(size=12)
        assert self.picked(v, v.size) == list(range(v.size))

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 250), k=st.integers(1, 12), spread=st.sampled_from([0, 2, 50]))
    @settings(max_examples=100, deadline=None)
    def test_columns_rank_as_rows_of_the_transpose(self, seed, n, k, spread):
        k = min(k, n - 1)
        scores = np.random.default_rng(seed).integers(-spread, spread + 1, size=(2, n, 3)) * 1.0
        rows = np.ascontiguousarray(scores.swapaxes(-1, -2))
        kept = scores.copy(), rows.copy()
        expected = np.zeros(rows.shape, dtype=bool)
        np.put_along_axis(expected, np.argsort(-np.abs(rows), axis=-1, kind="stable")[..., :k], True, axis=-1)
        np.testing.assert_array_equal(top_k_mask(rows, k), expected)
        # The rows of a strided view, the columns of ``scores``, rank as those of its contiguous copy.
        np.testing.assert_array_equal(top_k_mask(scores.swapaxes(-1, -2), k), expected)
        np.testing.assert_array_equal(scores, kept[0])  # the inputs are left as they were
        np.testing.assert_array_equal(rows, kept[1])


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

    @pytest.mark.parametrize("keep_weights", [False, True])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("n", SIZES)
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, n, heads, keep_weights):
        q, k, v = self.qkv(n, heads=heads, dv=5, seed=n + heads)
        want_out, want_weights = serial_causal_attention(q, k, v, keep_weights)
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensors, "_WORKERS", workers)
            out, weights = causal_attention(q, k, v, keep_weights=keep_weights)
            np.testing.assert_array_equal(out, want_out)
            if keep_weights:
                np.testing.assert_array_equal(weights, want_weights)
            else:
                assert weights is None

    def test_concurrent_calls_match_serial_calls(self, monkeypatch):
        # Three workers per call and a short switch interval interleave the two calls' tiles.
        monkeypatch.setattr(tensors, "_WORKERS", 3)
        inputs = [self.qkv(3 * ATTENTION_TILE + 17, heads=2, seed=seed) for seed in (5, 6)]
        # One call scores into its own buffers, the other into its kept weights.
        want = [serial_causal_attention(*qkv, keep_weights=bool(i)) for i, qkv in enumerate(inputs)]
        got = [None, None]
        both = threading.Barrier(2, timeout=60)

        def call(i):
            both.wait()
            got[i] = causal_attention(*inputs[i], keep_weights=bool(i))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for (out, weights), (want_out, want_weights) in zip(got, want):
            np.testing.assert_array_equal(out, want_out)
            assert (weights is None) == (want_weights is None)
            if weights is not None:
                np.testing.assert_array_equal(weights, want_weights)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
    def test_worker_count_leaves_blas_its_threads(self, cpus):
        assert tensors._worker_count(cpus, {}) == 1  # an unpinned BLAS takes every CPU
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            assert tensors._worker_count(cpus, {var: "1"}) == cpus
            assert tensors._worker_count(cpus, {var: "2"}) == max(1, cpus // 2)
            for unset in ("", "0", "-1", "two", "1.5"):
                assert tensors._worker_count(cpus, {var: unset}) == 1
        # OpenBLAS's order: the first positive integer decides.
        env = {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        assert tensors._worker_count(cpus, env) == max(1, cpus // 2)
        env["OPENBLAS_NUM_THREADS"] = "x"
        assert tensors._worker_count(cpus, env) == cpus
        assert tensors._worker_count(cpus, {"GOTO_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}) == cpus

    @pytest.mark.parametrize("items, per_worker, threads", [(5, 1, 3), (5, 2, 2), (5, 8, 0), (1, 1, 0), (0, 1, 0)])
    def test_map_tiles_threads(self, monkeypatch, items, per_worker, threads):
        monkeypatch.setattr(tensors, "_WORKERS", 3)
        seen, caller, wait = {}, threading.get_ident(), threading.Barrier(max(threads, 1), timeout=60)

        def record(item):
            seen[item] = threading.get_ident()
            if item < threads:
                wait.wait()  # the first items are held until each worker thread has taken one

        tensors.map_tiles(record, range(items), tensors.pool_size(items // per_worker))
        assert sorted(seen) == list(range(items))
        pool = set(seen.values()) - {caller}
        assert len(pool) == threads and (not threads or caller not in seen.values())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_tiles_runs_on_the_count_it_is_given(self, monkeypatch, workers):
        # The caller's count holds whatever the worker count is, so a caller can make one buffer per thread.
        monkeypatch.setattr(tensors, "_WORKERS", 1)
        seen, wait = set(), threading.Barrier(workers, timeout=60)

        def record(item):
            seen.add(threading.get_ident())
            if item < workers:
                wait.wait()

        tensors.map_tiles(record, range(6), workers)
        assert len(seen) == workers and (workers == 1) == (threading.get_ident() in seen)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_tiles_raises_an_items_exception(self, monkeypatch, workers):
        monkeypatch.setattr(tensors, "_WORKERS", workers)

        def fail(item):
            if item == 3:
                raise NumericError("item 3")

        with pytest.raises(NumericError, match="item 3"):
            tensors.map_tiles(fail, range(6), workers)

    def test_workers_are_capped_at_the_tile_count(self, monkeypatch):
        monkeypatch.setattr(tensors, "_WORKERS", 4)
        sizes = (0, 1, ATTENTION_TILE, ATTENTION_TILE + 1, 9 * ATTENTION_TILE)
        assert [tensors.attention_workers(n) for n in sizes] == [1, 1, 1, 2, 4]

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

    @pytest.mark.parametrize("num_heads", [0, -1, 2.0, True, "2"])
    def test_split_head_count_is_a_positive_integer(self, num_heads):
        with pytest.raises(ConfigError):
            split_heads(np.zeros((2, 10)), num_heads)
