import tracemalloc

import numpy as np
import pytest

import sinkquant.analysis

from sinkquant.analysis import (
    attention_bias,
    bias_disruption,
    bias_report_from_heads,
    error_decomposition,
    mse,
    qk_sink_diagnostics,
    rows_to_csv_text,
)
from sinkquant.errors import ConfigError, NumericError, ShapeError
from sinkquant.quant import CalibrationSet, QuantSpec, calibrate, dequantize, quantize_tensor
from sinkquant.sinks import SinkSet
from sinkquant.tensors import causal_attention, split_heads


def planted_tensor(n=64, d=64, sinks=(3, 17), factor=1000.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    for s in sinks:
        x[s] *= factor
    return x, SinkSet.of(sinks)


class TestErrorDecomposition:
    def test_lattice_input_is_exact(self):
        spec = QuantSpec(2, "per_token", group_size=4)
        x = np.tile([0.0, 1.0, 2.0, 3.0], (4, 1))
        report = error_decomposition(x, SinkSet.empty(), [spec])
        assert report.rows[0].overall == 0.0

    def test_dynamic_per_token_isolation(self):
        x, sinks = planted_tensor()
        clean = x.copy()
        for s in sinks:
            clean[s] /= 1000.0
        spec = QuantSpec(4, "per_token", "dynamic", group_size=16)
        with_plant = error_decomposition(x, sinks, [spec]).rows[0]
        without = error_decomposition(clean, sinks, [spec]).rows[0]
        assert with_plant.wo_sink_groups == without.wo_sink_groups  # bit-identical
        assert with_plant.w_sink_groups > 0.0

    def test_static_exclusion_reduces_error(self):
        x, sinks = planted_tensor()
        spec = QuantSpec(4, "per_token", "static", group_size=16)
        cal = CalibrationSet([x], sinks=[sinks])
        row = error_decomposition(x, sinks, [spec], cal=cal).rows[0]
        assert row.excluded < row.nonsink_elements
        assert row.excluded < row.overall

    @pytest.mark.parametrize("set_sinks, cal_sinks", [("sinks", None), (None, "sinks"), ([5], "sinks")])
    def test_static_overall_keeps_the_sinks_in_calibration(self, set_sinks, cal_sinks):
        # ``overall`` fits with the sinks, ``excluded`` without: the set's own, or ``cal_sinks`` when given.
        x, sinks = planted_tensor()
        spec = QuantSpec(4, "per_channel", "static", group_size=16, sparse_fraction=0.01)
        cal = CalibrationSet([x], sinks=[sinks if set_sinks == "sinks" else set_sinks])
        row = error_decomposition(x, sinks, [spec], cal=cal, cal_sinks=[sinks] if cal_sinks else None).rows[0]
        recon = dequantize(quantize_tensor(x, spec, params=calibrate([x], spec)))
        assert row.overall == float(((x - recon) ** 2).mean())
        sub = np.delete(x, list(sinks), axis=0)
        recon_ex = dequantize(quantize_tensor(sub, spec, params=calibrate([sub], spec)))
        assert row.excluded == mse(sub, recon_ex)

    def test_per_channel_sink_groups_hurt(self):
        x, sinks = planted_tensor()
        spec = QuantSpec(4, "per_channel", "dynamic", group_size=16)
        row = error_decomposition(x, sinks, [spec]).rows[0]
        assert row.w_sink_groups > row.wo_sink_groups

    def test_overall_is_weighted_partition_mean(self):
        x, sinks = planted_tensor(n=48, d=32)
        spec = QuantSpec(3, "per_channel", "dynamic", group_size=8)
        row = error_decomposition(x, sinks, [spec]).rows[0]
        w_elems = row.sink_group_elements
        wo_elems = row.elements - w_elems
        recombined = (row.w_sink_groups * w_elems + row.wo_sink_groups * wo_elems) / row.elements
        assert row.overall == pytest.approx(recombined, abs=1e-12)

    def test_static_requires_calibration(self):
        x, sinks = planted_tensor(n=8, d=8, sinks=(3,))
        with pytest.raises(ConfigError):
            error_decomposition(x, sinks, [QuantSpec(4, mode="static")])

    def test_cal_sinks_without_a_calibration_set(self):
        x, sinks = planted_tensor(n=32, d=8, sinks=(3,))
        with pytest.raises(ConfigError):
            error_decomposition(x, sinks, [QuantSpec(2)], cal=None, cal_sinks=[[99]])
        with pytest.raises(ConfigError):
            error_decomposition(x, sinks, [QuantSpec(2)], cal_sinks=[[3]])

    def test_display_scale_only_affects_emission(self):
        x, sinks = planted_tensor(n=8, d=16, sinks=(3,))
        spec = QuantSpec(2, "per_token", group_size=4)
        report = error_decomposition(x, sinks, [spec])
        raw = report.to_json_dict()["rows"][0]["overall"]
        scaled = report.to_json_dict(display_scale=100.0)["rows"][0]["overall"]
        assert scaled == pytest.approx(100.0 * raw)


class TestAttentionBias:
    def test_constant_weights_give_unit_cosine(self):
        n = 10
        attn = np.zeros((n, n))
        attn[:, 0] = 0.4  # same weight on the single sink everywhere
        for t in range(n):
            attn[t, 1 : t + 1] = 0.6 / max(t, 1)
        v = np.random.default_rng(0).normal(size=(n, 8))
        result = attention_bias(attn, v, SinkSet.of([0]))
        assert result.avg_cosine == pytest.approx(1.0, abs=1e-9)
        assert result.degenerate_pairs == 0

    def test_zero_bias_counts_degenerate_pairs(self):
        n = 6
        attn = np.tril(np.ones((n, n)) / np.arange(1, n + 1)[:, None])
        attn[:, 0] = 0.0
        v = np.ones((n, 4))
        result = attention_bias(attn, v, SinkSet.of([0]))
        assert result.avg_cosine == 0.0
        assert result.degenerate_pairs == result.pairs

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        n, dk = 12, 5
        attn = np.tril(rng.uniform(size=(n, n)))
        attn /= attn.sum(axis=1, keepdims=True)
        v = rng.normal(size=(n, dk))
        sinks = SinkSet.of([2, 7])
        result = attention_bias(attn, v, sinks)
        # brute-force accumulation, token by token
        for t in range(2, n):
            expected = np.zeros(dk)
            for i in sinks:
                expected += attn[t, i] * v[i]
            np.testing.assert_allclose(result.bias[t - 2], expected, atol=1e-12)

    def test_empty_sinks_rejected(self):
        with pytest.raises(ConfigError):
            attention_bias(np.eye(3), np.ones((3, 2)), SinkSet.empty())

    def test_non_causal_rejected(self):
        attn = np.full((3, 3), 1 / 3)
        with pytest.raises(ConfigError):
            attention_bias(attn, np.ones((3, 2)), SinkSet.of([0]))

    def test_linear_in_values(self):
        rng = np.random.default_rng(2)
        n = 9
        attn = np.tril(rng.uniform(size=(n, n)))
        attn /= attn.sum(axis=1, keepdims=True)
        v = rng.normal(size=(n, 4))
        sinks = SinkSet.of([1, 3])
        a = attention_bias(attn, v, sinks)
        b = attention_bias(attn, 2.5 * v, sinks)
        np.testing.assert_allclose(b.bias, 2.5 * a.bias, atol=1e-12)

    def test_centroid_method(self):
        n = 8
        attn = np.zeros((n, n))
        attn[:, 0] = 0.7
        v = np.random.default_rng(3).normal(size=(n, 4))
        result = attention_bias(attn, v, SinkSet.of([0]), method="centroid")
        assert result.avg_cosine == pytest.approx(1.0, abs=1e-9)

    def test_per_head_report_with_gqa(self):
        rng = np.random.default_rng(4)
        n = 7
        attn = np.tril(rng.uniform(size=(4, n, n))) + 1e-9
        attn = np.tril(attn)
        attn /= attn.sum(axis=2, keepdims=True)
        values = rng.normal(size=(2, n, 3))
        rows = bias_report_from_heads(attn, values, SinkSet.of([0, 2]), layer=5)
        assert [r["head"] for r in rows] == [0, 1, 2, 3]
        assert all(r["layer"] == 5 for r in rows)
        assert all(-1.0 <= r["avg_cosine"] <= 1.0 for r in rows)

    @pytest.mark.parametrize(
        "n, sink, zero_rows",
        [
            (9, 8, []),  # m = 1: no pairs
            (9, 7, []),  # m = 2: one pair
            (9, 7, [8]),  # m = 2, one zero-norm row: no counted pair
            (40, 2, []),  # many rows
            (40, 2, [2, 5, 6, 30, 39]),  # many rows, some of zero norm
            (40, 2, list(range(2, 40))),  # every row of zero norm: nothing counted
            (40, 2, [t for t in range(2, 40) if t != 8]),  # one row of non-zero norm
        ],
    )
    def test_pairwise_mean_matches_cosine_matrix(self, n, sink, zero_rows):
        rng = np.random.default_rng(n + sink + len(zero_rows))
        attn = np.tril(rng.uniform(size=(n, n)))
        attn /= attn.sum(axis=1, keepdims=True)
        attn[zero_rows, sink] = 0.0  # the bias of these tokens is zero
        v = rng.normal(size=(n, 6))
        result = attention_bias(attn, v, SinkSet.of([sink]))
        m = n - sink
        norms = np.linalg.norm(result.bias, axis=1)
        units = result.bias[norms > 0.0] / norms[norms > 0.0, None]
        cosines = np.clip(units @ units.T, -1.0, 1.0)[np.triu_indices(len(units), k=1)]
        assert result.pairs == m * (m - 1) // 2
        assert result.degenerate_pairs == result.pairs - cosines.size
        assert result.avg_cosine == pytest.approx(cosines.mean() if cosines.size else 0.0, abs=1e-12)

    def test_peak_memory_stays_below_the_attention_matrix(self):
        n = 2048
        rng = np.random.default_rng(9)
        attn = np.tril(rng.uniform(size=(n, n)))
        attn /= attn.sum(axis=1, keepdims=True)
        v = rng.normal(size=(n, 32))
        tracemalloc.start()
        try:
            attention_bias(attn, v, SinkSet.of([0, 700]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < attn.nbytes / 4

    def test_zero_kv_heads_is_shape_error(self):
        attn = np.tril(np.ones((2, 4, 4))) / np.arange(1, 5)[:, None]
        with pytest.raises(ShapeError):
            bias_report_from_heads(attn, np.zeros((0, 4, 3)), SinkSet.of([0]))


class TestBiasDisruption:
    def fixture(self, n=24, d=16, seed=5):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, d)),
            rng.normal(size=(n, d)),
            rng.normal(size=(n, d)),
            SinkSet.of([0, 5]),
        )

    def test_lossless_spec_has_zero_deltas(self):
        k, v, q, sinks = self.fixture()
        spec = QuantSpec(2, "per_token", group_size=8, sparse_fraction=1.0)
        row = bias_disruption(k, v, q, sinks, [spec], num_heads=2)[0]
        assert row["bias_l2_delta"] == 0.0
        assert row["attention_score_delta"] == 0.0

    def test_deltas_shrink_with_bits(self):
        k, v, q, sinks = self.fixture(seed=11)
        specs = [QuantSpec(b, "per_token", "dynamic", group_size=8) for b in (2, 3, 4, 8)]
        rows = bias_disruption(k, v, q, sinks, specs, num_heads=2)
        bias_deltas = [r["bias_l2_delta"] for r in rows]
        score_deltas = [r["attention_score_delta"] for r in rows]
        assert bias_deltas == sorted(bias_deltas, reverse=True)
        assert score_deltas == sorted(score_deltas, reverse=True)

    def test_preserved_sinks_leave_sink_logits_exact(self):
        k, v, q, sinks = self.fixture(seed=12)
        spec = QuantSpec(2, "per_token", group_size=8)
        row = bias_disruption(k, v, q, sinks, [spec], num_heads=2, preserve_sinks=True)[0]
        assert row["attention_score_delta"] == 0.0
        unpreserved = bias_disruption(k, v, q, sinks, [spec], num_heads=2)[0]
        assert unpreserved["attention_score_delta"] > 0.0

    def test_empty_sinks_rejected(self):
        k, v, q, _ = self.fixture()
        with pytest.raises(ConfigError):
            bias_disruption(k, v, q, SinkSet.empty(), [QuantSpec(4)])

    @pytest.mark.parametrize("preserve_sinks", [False, True])
    def test_matches_full_attention_weights(self, preserve_sinks):
        # Reference: sink columns read from the full [heads, n, n] weights, with K and V both requantized
        # (sink rows kept exact under preservation). 300 tokens span two tiles.
        k, v, q, _ = self.fixture(n=300, seed=13)
        sinks = SinkSet.of([4, 9, 270])
        idx, heads = list(sinks), 2
        specs = [QuantSpec(2, "per_token", group_size=8), QuantSpec(3, "per_channel", group_size=8)]
        q_heads = split_heads(q, heads)
        keep = ~sinks.mask(300)

        def requant(full, spec):
            if not preserve_sinks:
                return dequantize(quantize_tensor(full, spec))
            out = full.copy()
            out[keep] = dequantize(quantize_tensor(full[keep], spec))
            return out

        def sink_terms(k_flat, v_flat):
            k_heads, v_heads = split_heads(k_flat, heads), split_heads(v_flat, heads)
            logits = q_heads @ k_heads[:, idx, :].transpose(0, 2, 1) / np.sqrt(q_heads.shape[-1])
            _, attn = causal_attention(q_heads, k_heads, v_heads, keep_weights=True)
            return logits, attn[:, idx[0]:, idx] @ v_heads[:, idx, :]

        logits_fp, bias_fp = sink_terms(k, v)
        visible = np.arange(300)[:, None] >= np.asarray(idx)
        rows = bias_disruption(k, v, q, sinks, specs, num_heads=heads, preserve_sinks=preserve_sinks)
        for spec, row in zip(specs, rows, strict=True):
            logits, bias = sink_terms(requant(k, spec), requant(v, spec))
            assert row["attention_score_delta"] == float(np.abs(logits - logits_fp)[:, visible].max())
            assert row["bias_l2_delta"] == float(np.linalg.norm(bias - bias_fp, axis=2).mean())

    @pytest.mark.parametrize("preserve_sinks, calls_per_spec", [(False, 2), (True, 1)])
    def test_quantize_calls_per_spec(self, monkeypatch, preserve_sinks, calls_per_spec):
        # Under preservation only the non-sink key rows are quantized: V is read only at its exact sink rows.
        calls = []

        def counted(x, spec, **kwargs):
            calls.append(x.shape)
            return quantize_tensor(x, spec, **kwargs)

        monkeypatch.setattr(sinkquant.analysis, "quantize_tensor", counted)
        k, v, q, sinks = self.fixture()
        specs = [QuantSpec(b, "per_token", group_size=8) for b in (2, 4, 8)]
        bias_disruption(k, v, q, sinks, specs, num_heads=2, preserve_sinks=preserve_sinks)
        assert len(calls) == calls_per_spec * len(specs)

    def test_query_width_must_match_keys(self):
        k, v, q, sinks = self.fixture()
        with pytest.raises(ShapeError):
            bias_disruption(k, v, q[:, :8], sinks, [QuantSpec(4)], num_heads=2)


class TestQKDiagnostics:
    def test_parallel_keys_give_unit_cosine(self):
        n, dk = 10, 6
        direction = np.ones(dk)
        q = np.tile(direction, (n, 1)) * np.arange(1, n + 1)[:, None]
        k = q.copy()
        rows = qk_sink_diagnostics(q, k, SinkSet.of([0]))
        assert rows[0]["mean_qk_cosine"] == pytest.approx(1.0, abs=1e-9)

    def test_norm_ratio_constructed(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(12, 4))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        q = base.copy()
        q[2] *= 0.01  # sink row a hundred times smaller
        rows = qk_sink_diagnostics(q, base, SinkSet.of([2]), V=base)
        assert rows[0]["q_norm_ratio"] == pytest.approx(0.01, rel=1e-9)
        assert rows[0]["k_norm_ratio"] == pytest.approx(1.0, rel=1e-9)
        assert rows[0]["v_norm_ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(9, 5))
        k = rng.normal(size=(9, 5))
        sinks = SinkSet.of([1, 4])
        rows = qk_sink_diagnostics(q, k, sinks)
        cos = []
        for t in range(9):
            if t in (1, 4):
                continue
            for s in (1, 4):
                cos.append(q[t] @ k[s] / (np.linalg.norm(q[t]) * np.linalg.norm(k[s])))
        assert rows[0]["mean_qk_cosine"] == pytest.approx(np.mean(cos), abs=1e-12)

    def test_multi_head_input(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(3, 8, 4))
        k = rng.normal(size=(3, 8, 4))
        rows = qk_sink_diagnostics(q, k, SinkSet.of([0]))
        assert [r["head"] for r in rows] == [0, 1, 2]

    def test_cosine_invariant_to_positive_row_rescaling(self):
        rng = np.random.default_rng(10)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(8, 4))
        sinks = SinkSet.of([2])
        base = qk_sink_diagnostics(q, k, sinks)[0]["mean_qk_cosine"]
        q_scaled = q * rng.uniform(0.1, 9.0, size=(8, 1))
        k_scaled = k.copy()
        k_scaled[2] *= 37.0
        got = qk_sink_diagnostics(q_scaled, k_scaled, sinks)[0]["mean_qk_cosine"]
        assert got == pytest.approx(base, abs=1e-12)

    def test_mismatched_shapes_are_shape_errors(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(2, 8, 4))
        sinks = SinkSet.of([0])
        for k, v in (
            (q[:, :, :3], None),  # Q and K head dims differ
            (q, q[:1]),  # V has other heads
            (q, q[:, :6]),  # V has another token count
        ):
            with pytest.raises(ShapeError):
                qk_sink_diagnostics(q, k, sinks, V=v)

    def test_empty_or_all_sinks_rejected(self):
        q = np.ones((4, 2))
        with pytest.raises(ConfigError):
            qk_sink_diagnostics(q, q, SinkSet.empty())
        with pytest.raises(ConfigError):
            qk_sink_diagnostics(q, q, SinkSet.of([0, 1, 2, 3]))


def test_mse_shape_check():
    with pytest.raises(ShapeError):
        mse(np.zeros(3), np.zeros(4))
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0


@pytest.mark.parametrize("a, b", [([np.nan], [1.0]), ([1.0], [np.inf]), ([[0.0, -np.inf]], [[0.0, 0.0]])])
def test_mse_rejects_non_finite_operands(a, b):
    with pytest.raises(NumericError):
        mse(a, b)


def test_csv_emission():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    text = rows_to_csv_text(rows)
    assert text.splitlines()[0] == "a,b"
    assert len(text.splitlines()) == 3
