import json

import numpy as np
import pytest

from sinkquant import cache as cache_module
from sinkquant import quant as quant_module
from sinkquant import tensors as tensors_module
from sinkquant.cache import (
    KVCache,
    footprint_bytes,
    footprint_megabytes,
    load_snapshot,
    predict_footprint,
    save_snapshot,
)
from sinkquant.errors import BoundsError, ConfigError, FormatError, LayoutError, NumericError, ShapeError, StateError
from sinkquant.quant import (
    SCHEME_PRESETS,
    GroupLayout,
    QuantSpec,
    calibrate,
    dequantize,
    quantize_scheme,
    quantize_tensor,
)


def rand_kv(n, d, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * scale, rng.normal(size=(n, d)) * scale


class TestConstruction:
    @pytest.mark.parametrize("num_layers, width", [
        (1, 2.5),  # once a width-2 cache
        (1, -4),  # once a raw numpy ValueError
        (1.5, 8),  # once a raw TypeError
        (True, 8),  # once a one-layer cache
        (1, False),
        (0, 8),
        (1, 0),
        ("2", 8),
        (np.float64(2.0), 8),
    ])
    def test_shape_must_be_positive_integers(self, num_layers, width):
        with pytest.raises(ConfigError):
            KVCache(num_layers, width)

    def test_numpy_integers_accepted(self):
        cache = KVCache(np.int64(2), np.uint16(8))
        assert (cache.num_layers, cache.width) == (2, 8)
        assert type(cache.num_layers) is int and type(cache.width) is int

    def test_dynamic_side_takes_no_parameters(self):
        cache = KVCache(1, 8, scheme="kvquant_like", bits=2, group_size=4)
        x = np.ones((1, 8)) * np.arange(8)
        params = quantize_tensor(x, cache.value_spec).params
        with pytest.raises(ConfigError):
            cache.set_static_params(0, value_params=params)
        # quantize_scheme keeps the same rule for both of its parameters: pt_kv_dynamic keys, kvquant_like values.
        for scheme, given in (
            ("pt_kv_dynamic", {"key_params": quantize_tensor(x, QuantSpec(2, "per_token", group_size=4)).params}),
            ("kvquant_like", {"value_params": params}),
        ):
            with pytest.raises(ConfigError):
                quantize_scheme(x, x, scheme, bits=2, group_size=4, **given)
        per_token = calibrate([np.ones((4, 8))], QuantSpec(2, "per_token", "static", 4))
        with pytest.raises(LayoutError):  # per-token static parameters on the per-channel key side
            cache.set_static_params(0, key_params=per_token)
        assert cache._keys[0].params is None and cache._values[0].params is None

    @pytest.mark.parametrize("load", ["append", "bulk"])
    def test_parameters_fixed_once_rows_are_quantized(self, load):
        spec = QuantSpec(4, "per_token", "static", group_size=8)
        rng = np.random.default_rng(4)
        first, second = calibrate([rng.normal(size=(16, 8))], spec), calibrate([rng.normal(size=(16, 8)) * 9], spec)
        cache = KVCache(1, 8, scheme="pt_kv_static", bits=4, group_size=8)
        cache.set_static_params(0, key_params=first, value_params=first)
        cache.set_static_params(0, key_params=second, value_params=second)  # nothing quantized yet
        k, v = rand_kv(3, 8, seed=6)
        if load == "append":
            for i in range(3):
                cache.append(0, k[i], v[i])
        else:
            cache.bulk_load(0, k, v)
        before = cache.reconstruct(0)
        with pytest.raises(StateError):
            cache.set_static_params(0, value_params=first)
        assert cache._keys[0].params is second and cache._values[0].params is second
        for got, want in zip(cache.reconstruct(0), before):
            np.testing.assert_array_equal(got, want)

    def test_per_channel_parameters_open_until_a_block_completes(self):
        cache = KVCache(1, 8, scheme="kvquant_like", bits=2, group_size=4, sparse_fraction=0.0)
        spec = cache.key_spec
        rng = np.random.default_rng(9)
        first, second = calibrate([rng.normal(size=(8, 8))], spec), calibrate([rng.normal(size=(8, 8)) * 5], spec)
        cache.set_static_params(0, key_params=first)
        k, v = rand_kv(4, 8, seed=10)
        for i in range(3):
            cache.append(0, k[i], v[i])
        cache.set_static_params(0, key_params=second)  # three pending full-precision rows, no block yet
        cache.append(0, k[3], v[3])
        with pytest.raises(StateError):
            cache.set_static_params(0, key_params=first)
        expected = dequantize(quantize_tensor(k, spec, params=second))
        np.testing.assert_array_equal(cache.reconstruct(0)[0], expected)


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
        qt = cache._keys[0].stored()
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

    @pytest.mark.parametrize(
        "layer", [1.5, "1", True, np.float64(1.0), None, -1], ids=["float", "str", "bool", "np-float", "none", "negative"]
    )
    def test_layer_must_be_an_integer_in_range(self, layer):
        # 1.5 and "1" were once a raw TypeError, and True wrote to layer 1.
        cache = KVCache(2, 4)
        row = np.zeros(4)
        calls = [
            lambda: cache.append(layer, row, row),
            lambda: cache.bulk_load(layer, row[None], row[None]),
            lambda: cache.reconstruct(layer),
            lambda: cache.layer_tokens(layer),
            lambda: cache.pending_tokens(layer),
        ]
        for call in calls:
            with pytest.raises(BoundsError):
                call()
        assert cache.layer_tokens(1) == cache.layer_tokens(np.int64(1)) == 0


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
        qt = cache._keys[0].stored()  # one 1-row block per non-sink row
        gid = qt.layout().group_ids()
        bound = qt.params.scale[:, gid].reshape(len(others), 16) / 2 + 1e-9
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
                assert bulk.memory_footprint() == seq.memory_footprint()

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    @pytest.mark.parametrize("sparse", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("sinks", [(), (0, 5, 37)])
    @pytest.mark.parametrize("given", [False, True], ids=["fitted", "given-params"])
    def test_reconstruct_is_the_dequantized_scheme(self, scheme, sparse, sinks, given):
        # 64 non-sink rows fill whole blocks of every side (1 row, or 16 for per-channel keys). Rows short of
        # a block would stay pending, at full precision, in the cache, while quantize_scheme quantizes them
        # (see the next test), so the two agree bitwise only on whole blocks. With ``given`` both take the
        # same calibrated parameters for their static sides, through set_static_params and
        # key_params/value_params.
        rng = np.random.default_rng(sorted(SCHEME_PRESETS).index(scheme))
        n, d = 64 + len(sinks), 64
        k, v = rng.normal(size=(2, n, d)) * np.exp(rng.normal(0.0, 0.5, size=d))
        k[list(sinks)] *= 30.0
        kv = KVCache(1, d, scheme=scheme, bits=2, group_size=16, sparse_fraction=sparse)
        params = {}
        if given:
            cal_k, cal_v = rng.normal(size=(2, 40, d)) * 3.0
            params = {
                name: calibrate([sample], spec)
                for name, sample, spec in (("key_params", cal_k, kv.key_spec), ("value_params", cal_v, kv.value_spec))
                if spec.mode == "static"
            }
            kv.set_static_params(0, **params)
        kv.bulk_load(0, k, v, sinks)
        assert kv.pending_tokens(0) == 0
        keep = np.ones(n, dtype=bool)
        keep[list(sinks)] = False
        quantized = quantize_scheme(k, v, scheme, sinks, bits=2, group_size=16, sparse_fraction=sparse, **params)
        for got, x, qt in zip(kv.reconstruct(0), (k, v), quantized):
            want = x.copy()
            want[keep] = dequantize(qt)
            assert got.tobytes() == want.tobytes()
            assert (qt.outlier_indices.size > 0) == (sparse > 0)

    def test_rows_short_of_a_block_stay_full_precision(self):
        # 64 + 5 non-sink rows: quantize_scheme quantizes all 69, the cache stores 4 key blocks of 16 and
        # holds the last 5 key rows pending; both share the parameters and the outliers of the 64.
        rng = np.random.default_rng(3)
        k, v = rng.normal(size=(2, 71, 32))
        kv = KVCache(1, 32, scheme="kvquant_like", bits=2, group_size=16)
        kv.bulk_load(0, k, v, sinks=[0, 40])
        qk, _ = quantize_scheme(k, v, "kvquant_like", [0, 40], bits=2, group_size=16)
        rk, _ = kv.reconstruct(0)
        nonsink = np.delete(rk, [0, 40], axis=0)
        decoded = dequantize(qk)
        assert kv.pending_tokens(0) == 5
        assert nonsink[:64].tobytes() == decoded[:64].tobytes()
        assert nonsink[64:].tobytes() == np.delete(k, [0, 40], axis=0)[64:].tobytes()
        assert not np.array_equal(decoded[64:], nonsink[64:])

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


    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    def test_bits_do_not_depend_on_the_worker_count(self, monkeypatch, scheme):
        monkeypatch.setattr(quant_module, "CHUNKS_PER_WORKER", 1)  # every chunk may take a thread
        keys, values = rand_kv(1100, 128, seed=sorted(SCHEME_PRESETS).index(scheme))
        extra_k, extra_v = rand_kv(40, 128, seed=99)
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensors_module, "_WORKERS", workers)
            cache = KVCache(1, 128, scheme=scheme, bits=2, group_size=16)
            cache.bulk_load(0, keys, values, sinks=(0, 700))  # stacks over 2**16 entries
            for k, v in zip(extra_k, extra_v):
                cache.append(0, k, v)
            got.append(cache.reconstruct(0))
        for pair in got[1:]:
            assert [a.tobytes() for a in pair] == [a.tobytes() for a in got[0]]


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

    @pytest.mark.parametrize("scheme, quantized_bytes", [
        ("pt_kv_static", 988),
        ("pc_key_pt_value_static", 942),
    ])
    def test_bulk_stores_what_appends_store(self, scheme, quantized_bytes):
        # 38 non-sink rows share each per-token static segment, and 5 * 3 bits is not
        # whole bytes: a bulk load still packs one row per block, as 38 appends do.
        k, v = rand_kv(40, 32, seed=29)
        bulk = KVCache(1, 32, scheme=scheme, bits=3, group_size=5)
        bulk.bulk_load(0, k, v, sinks=[0, 9])
        seq = KVCache(1, 32, scheme=scheme, bits=3, group_size=5)
        seq.set_static_params(0, key_params=bulk._keys[0].params, value_params=bulk._values[0].params)
        for i in range(40):
            seq.append(0, k[i], v[i], is_sink=i in (0, 9))
        predicted = predict_footprint(1, 40, 32, scheme=scheme, bits=3, group_size=5, sink_tokens=2)
        assert bulk.memory_footprint() == seq.memory_footprint() == predicted
        assert predicted["quantized_bytes"] == quantized_bytes
        for got, want in zip(bulk.reconstruct(0), seq.reconstruct(0)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    def test_bulk_append_and_prediction_agree_on_random_caches(self, scheme):
        rng = np.random.default_rng(sorted(SCHEME_PRESETS).index(scheme))
        for case in range(40):
            bits, group_size, width = int(rng.integers(2, 9)), int(rng.integers(1, 18)), int(rng.integers(1, 41))
            n = int(rng.integers(0, 70))
            sinks = sorted(set(rng.integers(0, n, size=int(rng.integers(0, 4))).tolist())) if n else []
            options = dict(scheme=scheme, bits=bits, group_size=group_size, sparse_fraction=[None, 0.1][case % 2])
            k, v = rand_kv(n, width, seed=int(rng.integers(1 << 30)))
            bulk = KVCache(1, width, **options)
            bulk.bulk_load(0, k, v, sinks=sinks)
            seq = KVCache(1, width, **options)
            seq.set_static_params(0, key_params=bulk._keys[0].params, value_params=bulk._values[0].params)
            for t in range(n):
                seq.append(0, k[t], v[t], is_sink=t in sinks)
            predicted = predict_footprint(1, n, width, sink_tokens=len(sinks), **options)
            assert bulk.memory_footprint() == seq.memory_footprint() == predicted, (options, width, n, sinks)
            for got, want in zip(bulk.reconstruct(0), seq.reconstruct(0)) if n else ():  # seq holds no layer at n=0
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("scheme", ["pt_kv_static", "pc_key_pt_value_static", "kvquant_like"])
    @pytest.mark.parametrize("n", [0, 3])  # an empty prompt, or every row a sink
    def test_static_sides_without_non_sink_rows_stay_uncalibrated(self, scheme, n):
        # Calibrating on zero rows once gave all-degenerate parameters: every later row read back as 0.0.
        k, v = rand_kv(n + 1, 16, seed=43)
        cache = KVCache(1, 16, scheme, bits=4, group_size=4)
        cache.bulk_load(0, k[:n], v[:n], sinks=list(range(n)))
        footprint = cache.memory_footprint()
        assert footprint == predict_footprint(1, n, 16, scheme, bits=4, group_size=4, sink_tokens=n)
        assert footprint["params_bytes"] == 0
        with pytest.raises(ConfigError):
            cache.append(0, k[n], v[n])

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


def one_call_per_block_contents(rows, spec, params, width):
    """A side as it was before the block store: one 2-D ``quantize_tensor`` per block, then
    full-precision pending rows.

    Returns the decoded rows in order and (packed bytes, parameter groups, outliers, pending rows).
    """
    block = GroupLayout.block(spec, width)
    height = block.shape[0]
    full = len(rows) - len(rows) % height
    runs = [quantize_tensor(rows[i : i + height], spec, params=params) for i in range(0, full, height)]
    decoded = np.concatenate([dequantize(run) for run in runs] + [rows[full:]])
    if spec.mode == "dynamic":
        groups = sum(run.params.n_groups for run in runs)
    else:
        groups = params.n_groups if len(rows) else 0  # static parameters count once the side holds a row
    return decoded, (sum(len(run.packed) for run in runs), groups,
                     sum(run.outlier_indices.size for run in runs), len(rows) - full)


def expected_layer(k, v, sinks, cache):
    """Reconstruction, footprint and key-side region counts of a one-layer cache, one call per block."""
    n, width = k.shape
    keep = np.ones(n, dtype=bool)
    keep[sorted(sinks)] = False
    sides = [
        one_call_per_block_contents(data[keep], side.spec, side.params, width)
        for data, side in ((k, cache._keys[0]), (v, cache._values[0]))
    ]
    recon = []
    for data, (decoded, _) in zip((k, v), sides):
        out = data.copy()
        out[keep] = decoded
        recon.append(out)
    packed, groups, outliers, pending = (sum(parts) for parts in zip(*(counts for _, counts in sides)))
    footprint = footprint_bytes(packed, (pending + 2 * len(sinks)) * width, groups, outliers)
    key_pending = sides[0][1][3]
    counts = {"quantized": int(keep.sum()) - key_pending, "pending": key_pending, "sink": len(sinks)}
    return recon, footprint, counts


class TestBlockStore:
    """The per-side block store holds what one quantize call per block held, bit for bit and byte for byte."""

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    @pytest.mark.parametrize("bits, group_size", [(2, 16), (4, 4), (3, 5)])
    def test_appends_match_bulk_and_one_call_per_block(self, scheme, bits, group_size):
        width, n = 20, 8 * 16 + 24
        rng = np.random.default_rng(bits * 100 + group_size)
        k, v = rng.normal(size=(n, width)), rng.normal(size=(n, width)) * 3
        sinks = {0, 3, 17, 40, 41, 150}
        calibrated = KVCache(1, width, scheme=scheme, bits=bits, group_size=group_size, sparse_fraction=0.1)
        calibrated.bulk_load(0, k, v, sinks=sinks)
        seq = KVCache(1, width, scheme=scheme, bits=bits, group_size=group_size, sparse_fraction=0.1)
        params = calibrated._keys[0].params, calibrated._values[0].params
        seq.set_static_params(0, key_params=params[0], value_params=params[1])
        sides = {"k": seq._keys[0], "v": seq._values[0]}
        joined = {name: None for name in sides}  # each side's stored stack as its last read left it
        grown = set()  # sides read as a stored stack plus newly queued blocks
        follow = None  # one append after the last check
        for t in range(n):
            seq.append(0, k[t], v[t], is_sink=t in sinks)
            # Check at either side's first block, every 29 tokens, one append after each of those, and at the end.
            first = any(side.blocks == 1 and joined[name] is None for name, side in sides.items())
            if not (first or t % 29 == 0 or t == follow or t == n - 1):
                continue
            follow = t + 1 if t != follow else None
            grown |= {
                name for name, side in sides.items()
                if side.store is not None and side.store is joined[name] and side.blocks > side.store.shape[0]
            }
            sub = {s for s in sinks if s <= t}
            recon, footprint, counts = expected_layer(k[: t + 1], v[: t + 1], sub, seq)
            for _ in range(2):  # the second read finds the one stack the first joined
                for got, want in zip(seq.reconstruct(0), recon):  # appends then continue after each read
                    np.testing.assert_array_equal(got, want)
                assert seq.memory_footprint() == footprint
                assert seq.region_counts(0) == counts
            assert all(not side.queue for side in sides.values())
            assert all((side.store.shape[0] if side.store else 0) == side.blocks for side in sides.values())
            joined = {name: side.store for name, side in sides.items()}
            bulk = KVCache(1, width, scheme=scheme, bits=bits, group_size=group_size, sparse_fraction=0.1)
            bulk.set_static_params(0, key_params=params[0], value_params=params[1])
            bulk.bulk_load(0, k[: t + 1], v[: t + 1], sinks=sub)
            for got, want in zip(bulk.reconstruct(0), recon):
                np.testing.assert_array_equal(got, want)
            assert bulk.region_counts(0) == counts
            assert bulk.memory_footprint() == footprint
        assert grown == {"k", "v"}

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    def test_no_encode_before_a_read_and_one_call_each_way_per_side(self, monkeypatch, scheme):
        calls = count_calls(monkeypatch)
        k, v = rand_kv(4096 + 48, 32, seed=41)
        cache = KVCache(1, 32, scheme=scheme, bits=2, group_size=16)
        sides = (cache._keys[0], cache._values[0])
        cache.bulk_load(0, k[:4096], v[:4096], sinks=[0, 700])
        assert calls["quantize_tensor"] == 0  # the rows are queued
        cache.reconstruct(0)
        assert calls == {"quantize_tensor": 2, "dequantize": 2}  # one stacked call per side
        for round_, tokens in enumerate((range(4096, 4112), range(4112, 4128), range(4128, 4130))):
            calls.update(quantize_tensor=0, dequantize=0)
            read = [side.blocks for side in sides]
            for t in tokens:
                cache.append(0, k[t], v[t], is_sink=round_ == 1 and t == tokens[5])
            assert calls["quantize_tensor"] == 0
            cache.reconstruct(0)
            # A side encodes the blocks completed since the last read in one call, or makes no call.
            grew = sum(side.blocks > before for side, before in zip(sides, read))
            assert calls == {"quantize_tensor": grew, "dequantize": 2}
            # The last round's two rows complete no per-channel block.
            assert grew == (2 if round_ < 2 else sum(side.height == 1 for side in sides))
        calls.update(quantize_tensor=0, dequantize=0)
        cache.reconstruct(0)  # nothing queued since the last read
        assert calls == {"quantize_tensor": 0, "dequantize": 2}


class TestDeferredEncode:
    """Appended rows wait in a queue for the next read; nothing observable depends on when it comes."""

    @pytest.mark.parametrize("scheme", ["pt_kv_static", "pc_key_pt_value_static", "kvquant_like"])
    def test_parameters_refused_once_a_block_completes_without_a_read(self, monkeypatch, scheme):
        calls = count_calls(monkeypatch)
        cache = KVCache(1, 8, scheme=scheme, bits=3, group_size=4, sparse_fraction=0.0)
        sample = np.random.default_rng(47).normal(size=(8, 8))
        params = {
            side: calibrate([sample], spec) if spec.mode == "static" else None
            for side, spec in (("key_params", cache.key_spec), ("value_params", cache.value_spec))
        }
        cache.set_static_params(0, **params)
        # The first static block completes at this row.
        height = min(side.height for side in (cache._keys[0], cache._values[0]) if side.spec.mode == "static")
        k, v = rand_kv(height, 8, seed=48)
        for t in range(height):
            cache.set_static_params(0, **params)  # open while no static side holds a complete block
            cache.append(0, k[t], v[t])
        with pytest.raises(StateError):
            cache.set_static_params(0, **params)
        assert calls["quantize_tensor"] == 0  # refused from the row count alone, with nothing encoded

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    @pytest.mark.parametrize("sparse", [0.0, 0.1, 1.0])
    def test_read_after_every_append_stores_what_one_read_at_the_end_stores(self, scheme, sparse):
        width, n = 12, 70
        rng = np.random.default_rng(sorted(SCHEME_PRESETS).index(scheme) * 10 + int(sparse * 10))
        k, v = rng.normal(size=(n, width)), rng.normal(size=(n, width)) * 2
        sinks = {1, 20, 33}
        caches = []
        for _ in range(2):
            cache = KVCache(1, width, scheme=scheme, bits=3, group_size=5, sparse_fraction=sparse)
            cache.bulk_load(0, k[:9], v[:9], sinks={1})  # static sides self-calibrate on the prefix
            caches.append(cache)
        often, once = caches
        for t in range(9, n):
            for cache in caches:
                cache.append(0, k[t], v[t], is_sink=t in sinks)
            often.reconstruct(0)
        for got, want in zip(often.reconstruct(0), once.reconstruct(0)):
            np.testing.assert_array_equal(got, want)
        for a, b in ((often._keys[0], once._keys[0]), (often._values[0], once._values[0])):
            x, y = a.stored(), b.stored()
            assert x.shape == y.shape and x.packed == y.packed
            for field in ("scale", "zero", "degenerate", "constant"):
                np.testing.assert_array_equal(getattr(x.params, field), getattr(y.params, field))
            np.testing.assert_array_equal(x.outlier_indices, y.outlier_indices)
            np.testing.assert_array_equal(x.outlier_values, y.outlier_values)
            np.testing.assert_array_equal(a.pending, b.pending)

    @pytest.mark.parametrize("scheme", sorted(SCHEME_PRESETS))
    def test_counts_between_reads_need_no_encode(self, monkeypatch, scheme):
        calls = count_calls(monkeypatch)
        width, n, sinks = 16, 60, {0, 11, 12, 40}
        options = dict(scheme=scheme, bits=2, group_size=4, sparse_fraction=0.1)
        k, v = rand_kv(n, width, seed=53)
        cache = KVCache(1, width, **options)
        cache.bulk_load(0, k[:5], v[:5], sinks={0})
        heights = [side.height for side in (cache._keys[0], cache._values[0])]
        for t in range(5, n):
            cache.append(0, k[t], v[t], is_sink=t in sinks)
            held = sum(s <= t for s in sinks)
            rows = t + 1 - held
            assert cache.memory_footprint() == predict_footprint(1, t + 1, width, sink_tokens=held, **options)
            key_pending = rows % heights[0]
            assert cache.region_counts(0) == {"quantized": rows - key_pending, "pending": key_pending, "sink": held}
            assert cache.pending_tokens(0) == max(rows % h for h in heights)
        assert calls["quantize_tensor"] == 0

    @pytest.mark.parametrize("bad", ["width", "nan", "params"])
    def test_failed_append_leaves_the_queue_unchanged(self, bad):
        # Only the key side has parameters, so a value-side refusal is a ConfigError.
        cache = KVCache(1, 8, scheme="pc_key_pt_value_static", bits=4, group_size=4)
        sample = np.random.default_rng(59).normal(size=(8, 8))
        cache.set_static_params(0, key_params=calibrate([sample], cache.key_spec),
                                value_params=calibrate([sample], cache.value_spec))
        k, v = rand_kv(7, 8, seed=61)
        for t in range(6):
            cache.append(0, k[t], v[t])
        sides = (cache._keys[0], cache._values[0])
        before = [(list(side.queue), side.rows) for side in sides]
        counts = (cache.layer_tokens(0), cache.region_counts(0), cache.pending_tokens(0), cache.memory_footprint())
        error = {"width": ShapeError, "nan": NumericError, "params": ConfigError}[bad]
        if bad == "params":
            cache._values[0].params = None
        row = {"width": np.zeros(9), "nan": np.full(8, np.nan), "params": v[6]}[bad]
        with pytest.raises(error):
            cache.append(0, k[6], row)
        assert [(list(side.queue), side.rows) for side in sides] == before
        assert all(a is b for side, (queue, _) in zip(sides, before) for a, b in zip(side.queue, queue))
        assert (cache.layer_tokens(0), cache.region_counts(0), cache.pending_tokens(0),
                cache.memory_footprint()) == counts


def count_calls(monkeypatch) -> dict:
    """Count the cache's ``quantize_tensor`` and ``dequantize`` calls."""
    calls = {"quantize_tensor": 0, "dequantize": 0}
    for name in calls:
        original = getattr(cache_module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cache_module, name, counted)
    return calls
