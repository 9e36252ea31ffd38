import numpy as np
import pytest

from sinkquant.cache import KVCache
from sinkquant.decoder import (
    DecoderConfig,
    InjectionHook,
    decoder_forward,
    init_weights,
    load_weights,
    prefill_with_kvsink,
    save_weights,
    synthesize_sink_model,
)
from sinkquant.errors import BoundsError, ConfigError, NumericError, ShapeError
from sinkquant.sinks import SinkProfile, classify_stages, discover_profile
from sinkquant.tensors import ATTENTION_TILE, merge_heads


def small_cfg(**kw):
    base = dict(num_layers=2, hidden=16, heads=2, ffn_hidden=24, seed=0)
    base.update(kw)
    return DecoderConfig(**base)


def zero_weights(cfg):
    w = init_weights(cfg)
    for lw in w.layers:
        for role in ("wq", "wk", "wv", "wo", "wg", "wu", "wd"):
            getattr(lw, role)[:] = 0.0
    return w


class TestConfig:
    def test_head_split_validated(self):
        with pytest.raises(ConfigError):
            DecoderConfig(num_layers=1, hidden=10, heads=3, ffn_hidden=8)

    def test_gqa_grouping_validated(self):
        with pytest.raises(ConfigError):
            DecoderConfig(num_layers=1, hidden=12, heads=4, kv_heads=3, ffn_hidden=8)

    def test_kv_width(self):
        cfg = DecoderConfig(num_layers=1, hidden=16, heads=4, kv_heads=2, ffn_hidden=8)
        assert cfg.head_dim == 4 and cfg.kv_width == 8

    def test_rope_needs_even_head_dim(self):
        with pytest.raises(ConfigError):
            DecoderConfig(num_layers=1, hidden=9, heads=3, ffn_hidden=8, rope=True)

    def test_json_roundtrip(self):
        cfg = small_cfg(rope=True, activation="gelu")
        assert DecoderConfig.from_json_dict(cfg.to_json_dict()) == cfg
        with pytest.raises(ConfigError):
            DecoderConfig.from_json_dict({"num_layers": 1, "hidden": 4, "heads": 1, "ffn_hidden": 2, "x": 1})


class TestForward:
    def test_zero_weights_identity(self):
        cfg = small_cfg()
        rng = np.random.default_rng(1)
        h0 = rng.normal(size=(5, cfg.hidden))
        h, _ = decoder_forward(h0, zero_weights(cfg), cfg)
        np.testing.assert_array_equal(h, h0)

    def test_single_token_attention_is_value_row(self):
        cfg = small_cfg(num_layers=1)
        w = init_weights(cfg)
        h0 = np.random.default_rng(2).normal(size=(1, cfg.hidden))
        _, dumps = decoder_forward(h0, w, cfg, capture=("A", "V"))
        np.testing.assert_allclose(dumps["A"][0], np.ones((cfg.heads, 1, 1)))

    def test_attention_rows_are_distributions(self):
        cfg = small_cfg(num_layers=3, hidden=32, heads=4, ffn_hidden=48, seed=0)
        h0 = np.random.default_rng(3).normal(size=(11, cfg.hidden))
        _, dumps = decoder_forward(h0, init_weights(cfg), cfg, capture=("A",))
        for a in dumps["A"]:
            np.testing.assert_allclose(a.sum(axis=2), 1.0, atol=1e-9)
            for i in range(a.shape[1]):
                assert np.all(a[:, i, i + 1 :] == 0.0)

    def test_deterministic_across_runs(self):
        cfg = small_cfg(seed=9)
        h0 = np.random.default_rng(4).normal(size=(6, cfg.hidden))
        h1, _ = decoder_forward(h0, init_weights(cfg), cfg)
        h2, _ = decoder_forward(h0, init_weights(cfg), cfg)
        np.testing.assert_array_equal(h1, h2)

    def test_capture_kinds_validated(self):
        cfg = small_cfg()
        with pytest.raises(ConfigError):
            decoder_forward(np.zeros((2, cfg.hidden)), init_weights(cfg), cfg, capture=("H", "nope"))

    def test_capture_shapes(self):
        cfg = DecoderConfig(num_layers=1, hidden=16, heads=4, kv_heads=2, ffn_hidden=8, seed=1)
        h0 = np.random.default_rng(5).normal(size=(7, 16))
        _, dumps = decoder_forward(h0, init_weights(cfg), cfg, capture=("Q", "K", "V", "A", "X_d_in"))
        assert dumps["Q"][0].shape == (4, 7, 4)
        assert dumps["K"][0].shape == (2, 7, 4)
        assert dumps["V"][0].shape == (2, 7, 4)
        assert dumps["A"][0].shape == (4, 7, 7)
        assert dumps["X_d_in"][0].shape == (7, 8)

    def test_rope_preserves_row_norms_and_changes_output(self):
        cfg = small_cfg(num_layers=1, rope=False)
        cfg_rope = small_cfg(num_layers=1, rope=True)
        w = init_weights(cfg)
        h0 = np.random.default_rng(6).normal(size=(8, cfg.hidden))
        _, plain = decoder_forward(h0, w, cfg, capture=("Q",))
        _, roped = decoder_forward(h0, w, cfg_rope, capture=("Q",))
        np.testing.assert_allclose(
            np.linalg.norm(plain["Q"][0], axis=2), np.linalg.norm(roped["Q"][0], axis=2), atol=1e-9
        )
        assert not np.allclose(plain["Q"][0], roped["Q"][0])

    def test_width_mismatch(self):
        cfg = small_cfg()
        with pytest.raises(ShapeError):
            decoder_forward(np.zeros((2, 8)), init_weights(cfg), cfg)

    def test_numeric_failure_names_layer_and_op(self):
        cfg = small_cfg(num_layers=2)
        hooks = (InjectionHook(0, "add_to_ffn_output", ((0, 1, float("inf")),)),)
        h0 = np.random.default_rng(7).normal(size=(3, cfg.hidden))
        with pytest.raises(NumericError) as err:
            decoder_forward(h0, init_weights(cfg), cfg, hooks=hooks)
        assert err.value.context["layer"] == 0
        assert "op" in err.value.context


class TestHooks:
    def test_add_hook_plants_magnitude(self):
        cfg = small_cfg(num_layers=1)
        w = zero_weights(cfg)
        h0 = np.zeros((4, cfg.hidden))
        hooks = (InjectionHook(0, "add_to_ffn_output", ((2, 5, 123.0),)),)
        h, _ = decoder_forward(h0, w, cfg, hooks=hooks)
        assert h[2, 5] == 123.0 and np.count_nonzero(h) == 1

    def test_negate_hook_cancels_residual(self):
        cfg = small_cfg(num_layers=2)
        w = zero_weights(cfg)
        h0 = np.zeros((4, cfg.hidden))
        hooks = (
            InjectionHook(0, "add_to_ffn_output", ((1, 3, 50.0),)),
            InjectionHook(1, "negate_channels", ((1, 3, 0.0),)),
        )
        h, dumps = decoder_forward(h0, w, cfg, hooks=hooks, capture=("H",))
        assert dumps["H"][0][1, 3] == 50.0
        assert h[1, 3] == 0.0

    def test_hook_bounds(self):
        cfg = small_cfg(num_layers=1)
        hooks = (InjectionHook(0, "add_to_ffn_output", ((9, 1, 1.0),)),)
        with pytest.raises(BoundsError):
            decoder_forward(np.zeros((3, cfg.hidden)), zero_weights(cfg), cfg, hooks=hooks)

    def test_hook_validation(self):
        with pytest.raises(ConfigError):
            InjectionHook(0, "bad_mode", ())
        with pytest.raises(ConfigError):
            InjectionHook(-1, "add_to_ffn_output", ())


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


class TestTiledAttention:
    CONFIGS = {
        "gqa": dict(num_layers=2, hidden=32, heads=4, kv_heads=2, ffn_hidden=24, seed=4),
        "rope": dict(num_layers=2, hidden=32, heads=2, ffn_hidden=24, rope=True, seed=5),
    }

    @pytest.mark.parametrize("n", (1, ATTENTION_TILE + 1))
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_dense_reference(self, name, n):
        cfg = DecoderConfig(**self.CONFIGS[name])
        w = init_weights(cfg)
        h0 = np.random.default_rng(n).normal(size=(n, cfg.hidden))
        _, dumps = decoder_forward(h0, w, cfg, capture=("H", "H_prime", "Q", "K", "V", "A"))
        group = cfg.heads // cfg.kv_heads
        for layer, lw in enumerate(w.layers):
            k = np.repeat(dumps["K"][layer], group, axis=0)
            v = np.repeat(dumps["V"][layer], group, axis=0)
            ref_out, ref_weights = dense_causal_attention(dumps["Q"][layer], k, v)
            np.testing.assert_allclose(dumps["A"][layer], ref_weights, atol=1e-12, rtol=0)
            h_prev = h0 if layer == 0 else dumps["H"][layer - 1]
            np.testing.assert_allclose(
                dumps["H_prime"][layer], merge_heads(ref_out) @ lw.wo + h_prev, atol=1e-12, rtol=0
            )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_capturing_weights_leaves_output_bitwise(self, name):
        cfg = DecoderConfig(**self.CONFIGS[name])
        w = init_weights(cfg)
        h0 = np.random.default_rng(0).normal(size=(2 * ATTENTION_TILE + 5, cfg.hidden))
        h_plain, _ = decoder_forward(h0, w, cfg, capture=("H",))
        h_captured, dumps = decoder_forward(h0, w, cfg, capture=("H", "A"))
        np.testing.assert_array_equal(h_plain, h_captured)
        assert len(dumps["A"]) == cfg.num_layers


def sink_fixture(seed=3, layers=8, hidden=128, n=32):
    cfg = DecoderConfig(num_layers=layers, hidden=hidden, heads=4, ffn_hidden=2 * hidden, seed=seed)
    plant = [(0, 77, 2000.0), (14, 77, -1800.0)]
    weights, hooks = synthesize_sink_model(cfg, plant, l_emerge=1, l_dissipate=max(2, layers - 2))
    profile = SinkProfile("fixture", layers, 1, hidden, (77,))
    h0 = np.random.default_rng(seed + 1).normal(size=(n, hidden))
    return cfg, weights, hooks, profile, h0


class TestPrefill:
    def test_no_preservation_modes_bitwise_equal(self):
        cfg, weights, hooks, profile, h0 = sink_fixture()
        kw = dict(scheme="pt_kv_static", bits=2, group_size=16, hooks=hooks)
        h_a, cache_a, s_a = prefill_with_kvsink(h0, weights, cfg, profile, k=0, mode="kvsink", **kw)
        h_b, cache_b, s_b = prefill_with_kvsink(h0, weights, cfg, profile, k=0, mode="none", **kw)
        np.testing.assert_array_equal(h_a, h_b)
        assert len(s_a) == 0 and len(s_b) == 0
        for layer in range(cfg.num_layers):
            ka, va = cache_a.reconstruct(layer)
            kb, vb = cache_b.reconstruct(layer)
            np.testing.assert_array_equal(ka, kb)
            np.testing.assert_array_equal(va, vb)

    def test_full_isolation_matches_forward_bitwise(self):
        cfg, weights, hooks, profile, h0 = sink_fixture(layers=4)
        h_fp, _ = decoder_forward(h0, weights, cfg, hooks=hooks)
        for scheme in ("pt_kv_dynamic", "kvquant_like"):
            h_q, _, _ = prefill_with_kvsink(
                h0,
                weights,
                cfg,
                profile,
                scheme=scheme,
                bits=8,
                sparse_fraction=1.0,
                k=0,
                mode="none",
                hooks=hooks,
            )
            np.testing.assert_array_equal(h_q, h_fp)

    def test_detects_planted_sinks(self):
        cfg, weights, hooks, profile, h0 = sink_fixture()
        _, _, found = prefill_with_kvsink(
            h0, weights, cfg, profile, scheme="pt_kv_static", bits=2, k=5, mode="kvsink", hooks=hooks
        )
        assert list(found) == [0, 14]

    def test_kvsink_beats_pfn_on_planted_fixture(self):
        cfg, weights, hooks, profile, h0 = sink_fixture()
        h_fp, _ = decoder_forward(h0, weights, cfg, hooks=hooks)
        kw = dict(scheme="pt_kv_static", bits=2, group_size=16, k=5, hooks=hooks)
        h_sink, _, _ = prefill_with_kvsink(h0, weights, cfg, profile, mode="kvsink", **kw)
        h_pfn, _, s_pfn = prefill_with_kvsink(h0, weights, cfg, profile, mode="pfn", **kw)
        assert list(s_pfn) == [0, 1, 2, 3, 4]
        assert np.linalg.norm(h_sink - h_fp) < np.linalg.norm(h_pfn - h_fp)

    def test_cache_preserves_detected_rows_after_emergence(self):
        cfg, weights, hooks, profile, h0 = sink_fixture()
        _, cache, found = prefill_with_kvsink(
            h0, weights, cfg, profile, scheme="pt_kv_static", bits=2, k=5, mode="kvsink", hooks=hooks
        )
        assert cache.sink_indices(profile.emergence_layer) == ()  # decided only after this layer ran
        for layer in range(profile.emergence_layer + 1, cfg.num_layers):
            assert cache.sink_indices(layer) == tuple(found)

    def test_mode_validation(self):
        cfg, weights, hooks, profile, h0 = sink_fixture(layers=3)
        with pytest.raises(ConfigError):
            prefill_with_kvsink(h0, weights, cfg, profile, mode="bogus")
        with pytest.raises(ConfigError):
            prefill_with_kvsink(h0, weights, cfg, None, mode="kvsink")
        late = SinkProfile("late", 99, 98, cfg.hidden, (1,))
        with pytest.raises(ConfigError):
            prefill_with_kvsink(h0, weights, cfg, late, mode="kvsink")

    @pytest.mark.parametrize("mode", ["kvsink", "pfn", "none"])
    def test_k_and_ratio_checked_before_layer_0(self, monkeypatch, mode):
        # In every mode, not only where detection reads them; kvsink once ran up to the emergence layer first.
        cfg, weights, hooks, profile, h0 = sink_fixture(layers=3)
        loads = []
        monkeypatch.setattr(KVCache, "bulk_load", lambda self, *args, **kw: loads.append(args))
        for bad in ({"k": -1}, {"k": 1.5}, {"magnitude_ratio": float("nan")}, {"magnitude_ratio": -1.0}):
            with pytest.raises(ConfigError):
                prefill_with_kvsink(h0, weights, cfg, profile, mode=mode, hooks=hooks, **bad)
        if mode == "kvsink":  # only kvsink reads the profile
            narrow = SinkProfile("narrow", cfg.num_layers, 1, cfg.hidden // 2, (1,))
            with pytest.raises(ShapeError):
                prefill_with_kvsink(h0, weights, cfg, narrow, mode=mode, hooks=hooks)
        assert loads == []


class TestSynthesize:
    def test_stage_structure_recovered_through_decoder(self):
        cfg, weights, hooks, profile, h0 = sink_fixture()
        _, dumps = decoder_forward(
            h0, weights, cfg, hooks=hooks, capture=("H", "H_prime", "X_d_in", "X_d_out")
        )
        layers = [
            {k: dumps[k][l] for k in ("X_d_in", "X_d_out", "H_prime", "H")}
            for l in range(cfg.num_layers)
        ]
        report = classify_stages(layers, profile, ratio=100.0)
        assert report.emergence_layers == [1]
        assert report.dissipation_layers == [cfg.num_layers - 2]
        assert not report.warnings

    def test_discovery_from_decoder_dumps(self):
        cfg = DecoderConfig(num_layers=6, hidden=96, heads=4, ffn_hidden=128, seed=5)
        plant = [(0, 31, 2500.0), (9, 64, -2500.0)]
        weights, hooks = synthesize_sink_model(cfg, plant, l_emerge=1, l_dissipate=5)
        h0 = np.random.default_rng(6).normal(size=(24, cfg.hidden))
        _, dumps = decoder_forward(h0, weights, cfg, hooks=hooks, capture=("H",))
        prof = discover_profile(dumps["H"], ratio=100.0)
        assert set(prof.outlier_channels) == {31, 64}
        assert prof.emergence_layer == 1

    def test_no_plants_no_hooks_all_initial(self):
        cfg = small_cfg(num_layers=4, hidden=32, ffn_hidden=48)
        weights, hooks = synthesize_sink_model(cfg, [], 0, 0)
        assert hooks == ()
        h0 = np.random.default_rng(7).normal(size=(8, cfg.hidden))
        _, dumps = decoder_forward(h0, weights, cfg, capture=("H", "H_prime", "X_d_in", "X_d_out"))
        layers = [
            {k: dumps[k][l] for k in ("X_d_in", "X_d_out", "H_prime", "H")} for l in range(4)
        ]
        report = classify_stages(layers, SinkProfile("none", 4, 0, cfg.hidden, (3,)), ratio=100.0)
        assert report.stages == ["initial"] * 4

    def test_empty_plant_gives_init_weights(self):
        cfg = small_cfg(num_layers=3, kv_heads=1)
        planted, _ = synthesize_sink_model(cfg, (), 0, 0)
        for got, want in zip(planted.layers, init_weights(cfg).layers):
            for role in got.MATRIX_ROLES:
                np.testing.assert_array_equal(getattr(got, role), getattr(want, role))

    def test_layer_order_validated(self):
        cfg = small_cfg(num_layers=3)
        with pytest.raises(ConfigError):
            synthesize_sink_model(cfg, [(0, 1, 10.0)], 2, 1)
        with pytest.raises(ConfigError):
            synthesize_sink_model(cfg, [(0, 1, 10.0)], 1, 3)
        with pytest.raises(BoundsError):
            synthesize_sink_model(cfg, [(0, 99, 10.0)], 0, 1)


class TestWeightsIO:
    def test_roundtrip_bitwise(self, tmp_path):
        cfg = small_cfg(num_layers=2, seed=13)
        weights = init_weights(cfg)
        save_weights(str(tmp_path), weights, cfg)
        loaded, cfg2 = load_weights(str(tmp_path))
        assert cfg2 == cfg
        for a, b in zip(weights.layers, loaded.layers):
            for role in ("wq", "wk", "wv", "wo", "wg", "wu", "wd", "ln_attn_gain", "ln_ffn_gain"):
                np.testing.assert_array_equal(getattr(a, role), getattr(b, role))
