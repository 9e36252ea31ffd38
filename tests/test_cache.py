import json

import numpy as np
import pytest

from sinkquant.cache import (
    KVCache,
    footprint_megabytes,
    load_snapshot,
    predict_footprint,
    save_snapshot,
)
from sinkquant.errors import BoundsError, ConfigError, FormatError, ShapeError, StateError
from sinkquant.quant import SCHEME_PRESETS, QuantSpec, calibrate, dequantize, quantize_scheme


def rand_kv(n, d, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * scale, rng.normal(size=(n, d)) * scale


class TestAppend:
    def test_sink_rows_pass_through_bitwise(self):
        cache = KVCache(1, 8, scheme="pt_kv_dynamic", bits=2)
        k, v = rand_kv(1, 8)
        cache.append(0, k[0], v[0], is_sink=True)
        rk, rv = cache.reconstruct(0)
        np.testing.assert_array_equal(rk[0], k[0])
        np.testing.assert_array_equal(rv[0], v[0])

    def test_dynamic_append_row_error_bound(self):
        cache = KVCache(1, 16, scheme="pt_kv_dynamic", bits=8, group_size=16)
        k, v = rand_kv(1, 16, seed=3)
        cache.append(0, k[0], v[0])
        rk, _ = cache.reconstruct(0)
        qt = cache._keys[0].runs[0]
        scale = qt.params.scale.max()
        assert np.all(np.abs(rk[0] - k[0]) <= scale / 2 + 1e-9)

    def test_append_order_preserved(self):
        cache = KVCache(1, 4, scheme="pt_kv_dynamic", bits=8, group_size=4)
        cache.append(0, [1.0, 0, 0, 0], [0.5, 0, 0, 0])
        cache.append(0, [0, 2.0, 0, 0], [0, 0.25, 0, 0])
        rk, rv = cache.reconstruct(0)
        assert rk[0, 0] != 0 and rk[1, 1] != 0
        assert rv[0, 0] != 0 and rv[1, 1] != 0

    def test_static_append_without_params_fails(self):
        cache = KVCache(1, 8, scheme="pt_kv_static", bits=4, group_size=8)
        k, v = rand_kv(1, 8)
        with pytest.raises(ConfigError):
            cache.append(0, k[0], v[0])
        # sink rows never touch the quantizer, so they are fine
        cache.append(0, k[0], v[0], is_sink=True)

    def test_failed_append_leaves_layer_unchanged(self):
        # only the key side has parameters, so the value side refuses the row
        cache = KVCache(1, 8, scheme="pc_key_pt_value_static", bits=4, group_size=4)
        sample = np.random.default_rng(2).normal(size=(8, 8))
        cache.set_static_params(0, key_params=calibrate([sample], cache.key_spec))
        k, v = rand_kv(1, 8)
        with pytest.raises(ConfigError):
            cache.append(0, k[0], v[0])
        assert cache.layer_tokens(0) == 0 and cache.pending_tokens(0) == 0
        assert cache.region_counts(0) == {"quantized": 0, "pending": 0, "sink": 0}

    def test_static_append_with_params(self):
        spec = QuantSpec(4, "per_token", "static", group_size=8)
        sample = np.random.default_rng(1).normal(size=(32, 8))
        params = calibrate([sample], spec)
        cache = KVCache(1, 8, scheme="pt_kv_static", bits=4, group_size=8)
        cache.set_static_params(0, key_params=params, value_params=params)
        k, v = rand_kv(3, 8, seed=5)
        for i in range(3):
            cache.append(0, k[i], v[i])
        rk, _ = cache.reconstruct(0)
        assert rk.shape == (3, 8)

    def test_per_channel_buffering(self):
        cache = KVCache(1, 8, scheme="kvquant_like", bits=2, group_size=4, sparse_fraction=0.0)
        k, v = rand_kv(6, 8, seed=7)
        sample = np.random.default_rng(8).normal(size=(32, 8))
        cache.set_static_params(0, key_params=calibrate([sample], QuantSpec(2, "per_channel", "static", 4)))
        for i in range(3):
            cache.append(0, k[i], v[i])
        assert cache.pending_tokens(0) == 3
        rk, _ = cache.reconstruct(0)
        np.testing.assert_array_equal(rk, k[:3])  # still buffered at full precision
        cache.append(0, k[3], v[3])
        assert cache.pending_tokens(0) == 0  # group completed and quantized
        rk, _ = cache.reconstruct(0)
        assert not np.array_equal(rk, k[:4])

    def test_layer_out_of_range(self):
        cache = KVCache(2, 4)
        with pytest.raises(BoundsError):
            cache.append(2, np.zeros(4), np.zeros(4))


class TestBulkLoad:
    def test_all_sinks_is_identity(self):
        cache = KVCache(1, 8, scheme="pt_kv_static", bits=2)
        k, v = rand_kv(5, 8, seed=11)
        cache.bulk_load(0, k, v, sinks=range(5))
        rk, rv = cache.reconstruct(0)
        np.testing.assert_array_equal(rk, k)
        np.testing.assert_array_equal(rv, v)

    def test_no_sinks_matches_quantize_scheme(self):
        k, v = rand_kv(12, 8, seed=12)
        cache = KVCache(1, 8, scheme="pt_kv_dynamic", bits=3, group_size=4)
        cache.bulk_load(0, k, v)
        rk, rv = cache.reconstruct(0)
        qk, qv = quantize_scheme(k, v, "pt_kv_dynamic", bits=3, group_size=4)
        np.testing.assert_array_equal(rk, dequantize(qk))
        np.testing.assert_array_equal(rv, dequantize(qv))

    def test_mixed_sinks_example(self):
        k, v = rand_kv(32, 16, seed=13)
        cache = KVCache(1, 16, scheme="pt_kv_dynamic", bits=4, group_size=16)
        cache.bulk_load(0, k, v, sinks=[0, 14])
        rk, rv = cache.reconstruct(0)
        np.testing.assert_array_equal(rk[[0, 14]], k[[0, 14]])
        np.testing.assert_array_equal(rv[[0, 14]], v[[0, 14]])
        others = np.setdiff1d(np.arange(32), [0, 14])
        qt = cache._keys[0].runs[0]
        gid = qt.layout().group_ids()
        bound = qt.params.scale[gid] / 2 + 1e-9
        assert np.all(np.abs(rk[others] - k[others]) <= bound)

    def test_bulk_equals_append_sequence(self):
        k, v = rand_kv(11, 8, seed=17)
        sinks = {2, 7}
        for scheme in sorted(SCHEME_PRESETS):
            for bits, group_size in ((4, 4), (3, 5)):
                bulk = KVCache(1, 8, scheme=scheme, bits=bits, group_size=group_size, sparse_fraction=0.0)
                bulk.bulk_load(0, k, v, sinks=sinks)
                seq = KVCache(1, 8, scheme=scheme, bits=bits, group_size=group_size, sparse_fraction=0.0)
                seq.set_static_params(0, key_params=bulk._keys[0].params, value_params=bulk._values[0].params)
                for i in range(11):
                    seq.append(0, k[i], v[i], is_sink=i in sinks)
                for got, want in zip(bulk.reconstruct(0), seq.reconstruct(0)):
                    np.testing.assert_array_equal(got, want)
                assert bulk.region_counts(0) == seq.region_counts(0)
                assert bulk.pending_tokens(0) == seq.pending_tokens(0)
                # A bulk-loaded per-token static side packs its rows as one tensor,
                # so its padding matches the append sequence only for whole-byte
                # segments (width 8 has no tail segment at group size 4).
                per_token_static = any(
                    spec.axis == "per_token" and spec.mode == "static" for spec in (bulk.key_spec, bulk.value_spec)
                )
                if not per_token_static or bits * group_size % 8 == 0:
                    assert bulk.memory_footprint() == seq.memory_footprint()

    def test_requires_empty_layer(self):
        k, v = rand_kv(4, 8)
        cache = KVCache(1, 8)
        cache.bulk_load(0, k, v)
        with pytest.raises(StateError):
            cache.bulk_load(0, k, v)

    def test_sink_bounds(self):
        k, v = rand_kv(4, 8)
        cache = KVCache(1, 8)
        with pytest.raises(BoundsError):
            cache.bulk_load(0, k, v, sinks=[4])
        with pytest.raises(BoundsError):  # once kept row 1 as the sink
            cache.bulk_load(0, k, v, sinks=[1.7])
        with pytest.raises(BoundsError):  # once a raw ValueError from numpy
            cache.bulk_load(0, k, v, sinks=[[1], [2, 3]])
        assert cache.layer_tokens(0) == 0

    def test_shape_checks(self):
        cache = KVCache(1, 8)
        with pytest.raises(ShapeError):
            cache.bulk_load(0, np.zeros((4, 8)), np.zeros((4, 7)))
        with pytest.raises(ShapeError):
            cache.bulk_load(0, np.zeros((4, 6)), np.zeros((4, 6)))


class TestReconstruct:
    def test_untouched_layer_fails(self):
        cache = KVCache(1, 8)
        with pytest.raises(StateError):
            cache.reconstruct(0)

    def test_zero_token_load_reconstructs_empty(self):
        cache = KVCache(1, 8, scheme="pt_kv_dynamic")
        cache.bulk_load(0, np.zeros((0, 8)), np.zeros((0, 8)))
        rk, rv = cache.reconstruct(0)
        assert rk.shape == (0, 8) and rv.shape == (0, 8)

    def test_row_order_matches_append_log(self):
        rng = np.random.default_rng(19)
        cache = KVCache(1, 8, scheme="pt_kv_dynamic", bits=8, group_size=8)
        log = []
        for i in range(9):
            k = rng.normal(size=8)
            v = rng.normal(size=8)
            sink = bool(rng.integers(0, 2))
            cache.append(0, k, v, is_sink=sink)
            log.append((k, sink))
        rk, _ = cache.reconstruct(0)
        for i, (k, sink) in enumerate(log):
            if sink:
                np.testing.assert_array_equal(rk[i], k)
            else:
                assert np.abs(rk[i] - k).max() < 0.1  # 8-bit row, token-local params

    def test_partition_invariant_throughout(self):
        rng = np.random.default_rng(23)
        cache = KVCache(1, 8, scheme="pc_key_pt_value_static", bits=4, group_size=4)
        sample = rng.normal(size=(16, 8))
        cache.set_static_params(
            0,
            key_params=calibrate([sample], QuantSpec(4, "per_channel", "static", 4)),
            value_params=calibrate([sample], QuantSpec(4, "per_token", "static", 4)),
        )
        for i in range(10):
            cache.append(0, rng.normal(size=8), rng.normal(size=8), is_sink=(i % 4 == 0))
            counts = cache.region_counts(0)
            assert counts["quantized"] + counts["pending"] + counts["sink"] == cache.layer_tokens(0)


class TestFootprint:
    def test_empty_cache_is_zero(self):
        cache = KVCache(2, 8)
        assert all(v == 0 for v in cache.memory_footprint().values())

    def test_matches_prediction(self):
        for scheme, fs in (("pt_kv_dynamic", None), ("pc_key_pt_value_static", None), ("kvquant_like", 0.05)):
            k, v = rand_kv(40, 32, seed=29)
            cache = KVCache(3, 32, scheme=scheme, bits=3, group_size=8, sparse_fraction=fs)
            for layer in range(3):
                cache.bulk_load(layer, k, v, sinks=[0, 9])
            predicted = predict_footprint(
                3, 40, 32, scheme=scheme, bits=3, group_size=8, sink_tokens=2, sparse_fraction=fs
            )
            assert cache.memory_footprint() == predicted

    @pytest.mark.parametrize("scheme, bulk_bytes, append_bytes", [
        ("pt_kv_static", 922, 988),
        ("pc_key_pt_value_static", 909, 942),
    ])
    def test_bulk_per_token_static_packs_tighter(self, scheme, bulk_bytes, append_bytes):
        # 38 non-sink rows share each per-token static segment: 38 * 5 * 3 bits is
        # not whole bytes, so one shared tensor pads less than 38 one-row tensors.
        k, v = rand_kv(40, 32, seed=29)
        bulk = KVCache(1, 32, scheme=scheme, bits=3, group_size=5)
        bulk.bulk_load(0, k, v, sinks=[0, 9])
        seq = KVCache(1, 32, scheme=scheme, bits=3, group_size=5)
        seq.set_static_params(0, key_params=bulk._keys[0].params, value_params=bulk._values[0].params)
        for i in range(40):
            seq.append(0, k[i], v[i], is_sink=i in (0, 9))
        predicted = predict_footprint(1, 40, 32, scheme=scheme, bits=3, group_size=5, sink_tokens=2)
        assert bulk.memory_footprint()["quantized_bytes"] == bulk_bytes
        assert seq.memory_footprint()["quantized_bytes"] == predicted["quantized_bytes"] == append_bytes
        assert seq.memory_footprint() == predicted
        for got, want in zip(bulk.reconstruct(0), seq.reconstruct(0)):
            np.testing.assert_array_equal(got, want)

    def test_additivity_over_layers(self):
        k, v = rand_kv(12, 16, seed=31)
        both = KVCache(2, 16, scheme="pt_kv_dynamic", bits=2)
        both.bulk_load(0, k, v, sinks=[1])
        both.bulk_load(1, 2 * k, 2 * v)
        first = KVCache(2, 16, scheme="pt_kv_dynamic", bits=2)
        first.bulk_load(0, k, v, sinks=[1])
        second = KVCache(2, 16, scheme="pt_kv_dynamic", bits=2)
        second.bulk_load(1, 2 * k, 2 * v)
        total = both.memory_footprint()
        merged = {
            key: first.memory_footprint()[key] + second.memory_footprint()[key] for key in total
        }
        assert total == merged

    def test_reference_model_shape_numbers(self):
        base = predict_footprint(32, 4096, 4096, scheme="pt_kv_dynamic", bits=2, group_size=16)
        assert base["quantized_bytes"] == 2 * 32 * 4096 * 4096 * 2 // 8
        assert footprint_megabytes(base)["quantized_mb"] == 256.0
        sink5 = predict_footprint(32, 4096, 4096, scheme="pt_kv_dynamic", bits=2, group_size=16, sink_tokens=5)
        assert sink5["sink_bytes"] == 2 * 32 * 5 * 4096 * 2
        assert footprint_megabytes(sink5)["sink_mb"] == 2.5

    def test_more_sinks_than_tokens(self):
        with pytest.raises(ConfigError):
            predict_footprint(1, 4, 8, sink_tokens=5)


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        k, v = rand_kv(10, 8, seed=37)
        cache = KVCache(2, 8, scheme="pt_kv_dynamic", bits=4, group_size=4)
        cache.bulk_load(0, k, v, sinks=[0, 3])
        save_snapshot(cache, str(tmp_path))
        meta = load_snapshot(str(tmp_path))
        assert meta["scheme"] == "pt_kv_dynamic"
        layer0 = meta["layers"][0]
        assert layer0["sinks"] == [0, 3]
        rk, rv = cache.reconstruct(0)
        np.testing.assert_array_equal(layer0["keys"], rk)
        np.testing.assert_array_equal(layer0["values"], rv)
        assert meta["layers"][1]["tokens"] == 0

    @pytest.mark.parametrize(
        "sidecar",
        [[], {"scheme": "pt_kv_dynamic"}, {"layers": 3}, {"layers": [7]}, {"layers": [{"keys_file": "k.kvsd"}]}],
    )
    def test_malformed_sidecar_fails_typed(self, tmp_path, sidecar):
        (tmp_path / "snapshot.json").write_text(json.dumps(sidecar))
        with pytest.raises(FormatError):
            load_snapshot(str(tmp_path))
