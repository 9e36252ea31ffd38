import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkquant.errors import (
    BoundsError,
    CalibrationError,
    ConfigError,
    LayoutError,
    ShapeError,
)
import sinkquant.quant as quant_module
from sinkquant.quant import (
    SCHEME_PRESETS,
    CalibrationSet,
    GroupLayout,
    QuantSpec,
    calibrate,
    compute_params,
    dequantize,
    quantize,
    quantize_scheme,
    _outlier_mask,
    quantize_tensor,
    scheme_specs,
)
from sinkquant.cache import KVCache, predict_footprint
from sinkquant.dumpio import read_quantized, write_quantized
from sinkquant.packing import pack_codes, pack_group_bytes, unpack_codes


def roundtrip(x, spec, **kw):
    return dequantize(quantize_tensor(x, spec, **kw))


def per_element_scale(qt):
    gid = qt.layout().group_ids()
    return qt.params.scale[gid], qt.params.degenerate[gid]


class TestComputeParams:
    def test_unit_range_example(self):
        p = compute_params([0.0, 1.0, 2.0, 3.0], QuantSpec(2, "per_tensor"))
        assert p.scale[0] == pytest.approx(1.0)
        assert p.zero[0] == 0

    def test_symmetric_range_example(self):
        p = compute_params([-1.0, 1.0], QuantSpec(3, "per_tensor"))
        assert p.scale[0] == pytest.approx(2.0 / 7.0)
        assert p.zero[0] == 4  # -round(-3.5) under half-to-even

    def test_constant_group_is_degenerate(self):
        spec = QuantSpec(4, "per_tensor")
        qt = quantize_tensor([7.0, 7.0, 7.0], spec)
        assert qt.params.degenerate[0]
        np.testing.assert_array_equal(dequantize(qt), [[7.0, 7.0, 7.0]])

    def test_excluded_tokens_have_no_influence(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 16))
        x[3] *= 1000
        spec = QuantSpec(4, "per_token", "static", group_size=4)
        with_excl = compute_params(x, spec, exclude=[3])
        without_row = compute_params(np.delete(x, 3, axis=0), spec)
        np.testing.assert_array_equal(with_excl.scale, without_row.scale)
        np.testing.assert_array_equal(with_excl.zero, without_row.zero)

    def test_exclude_out_of_range(self):
        with pytest.raises(BoundsError):
            compute_params(np.zeros((4, 4)), QuantSpec(4), exclude=[4])
        # A float row index once truncated to row 1; a bool one once read as row 1.
        for exclude in ([1.5], [True]):
            with pytest.raises(BoundsError):
                compute_params(np.zeros((4, 4)), QuantSpec(4), exclude=exclude)
            with pytest.raises(BoundsError):
                quantize_scheme(np.zeros((4, 4)), np.zeros((4, 4)), "pt_kv_dynamic", sinks=exclude)

    def test_clip_shrinks_range(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 200))
        x[0, 0] = 500.0
        plain = compute_params(x, QuantSpec(4, "per_tensor"))
        clipped = compute_params(x, QuantSpec(4, "per_tensor", clip=0.05))
        assert clipped.scale[0] < plain.scale[0]

    def test_remainder_groups_are_smaller(self):
        # width 10 with group size 4 -> segments of 4, 4, 2
        layout = GroupLayout((3, 10), "per_token", "dynamic", 4)
        assert layout.n_groups == 9
        sizes = layout.group_sizes()
        assert sorted(set(sizes.tolist())) == [2, 4]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            QuantSpec(1)
        with pytest.raises(ConfigError):
            QuantSpec(9)
        with pytest.raises(ConfigError):
            QuantSpec(4, axis="per_row")
        with pytest.raises(ConfigError):
            QuantSpec(4, group_size=0)
        with pytest.raises(ConfigError):
            QuantSpec(4, clip=0.5)
        with pytest.raises(ConfigError):
            QuantSpec(4, sparse_fraction=1.5)

    @pytest.mark.parametrize("build", [
        lambda: QuantSpec(4, group_size=2.5),  # once quantized with groups of 2
        lambda: QuantSpec(3.0),  # once a raw TypeError at encode
        lambda: QuantSpec(True),
        lambda: QuantSpec(4, group_size="8"),
        lambda: predict_footprint(1, 4, 8, sink_tokens=-1),  # once sink_bytes -32
        lambda: predict_footprint(1, 2.5, 8),  # once a footprint of 2.5 tokens
        lambda: predict_footprint(1, 4, 8.0),
        lambda: predict_footprint(0.5, 4, 8),
        lambda: predict_footprint(1, 4, 8, bits=4.0),
    ])
    def test_counts_must_be_integers(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_numpy_integer_counts_stored_as_int(self, tmp_path):
        spec = QuantSpec(np.int64(4), group_size=np.uint8(4))
        assert type(spec.bits) is int and type(spec.group_size) is int
        qt = quantize_tensor(np.arange(16.0).reshape(2, 8), spec)
        write_quantized(str(tmp_path / "x.kvsq"), qt)  # once a raw TypeError from the JSON header
        assert read_quantized(str(tmp_path / "x.kvsq")).spec == QuantSpec(4, group_size=4)


LAYOUTS = [
    ("per_token", "dynamic"),
    ("per_token", "static"),
    ("per_channel", "dynamic"),
    ("per_channel", "static"),
    ("per_tensor", "dynamic"),
    ("per_tensor", "static"),
]


def dense_reference(shape, axis, mode, gs):
    """(n_groups, group-id map) as dense int64 formulas, one case per layout."""
    n, d = shape
    if axis == "per_tensor":
        return (1 if n * d else 0), np.zeros((n, d), dtype=np.int64)
    if axis == "per_token":
        s = -(-d // gs)
        seg = np.arange(d, dtype=np.int64) // gs
        if mode == "static":
            return s, np.broadcast_to(seg, (n, d))
        return n * s, np.arange(n, dtype=np.int64)[:, None] * s + seg
    if mode == "static":
        return d, np.broadcast_to(np.arange(d, dtype=np.int64), (n, d))
    t = -(-n // gs)
    tseg = np.arange(n, dtype=np.int64) // gs
    return d * t, np.arange(d, dtype=np.int64)[None, :] * t + tseg[:, None]


def argsort_outlier_mask(x, spec):
    """Reference selection: the first k entries of a stable descending sort of |x| per vector."""
    layout = GroupLayout.for_spec(x.shape, spec)
    mask = np.zeros(x.shape, dtype=bool)
    k = layout.outliers_per_vector(spec.sparse_fraction)
    if k and x.size:
        picked = np.argsort(-np.abs(layout.vectors(x)), axis=1, kind="stable")[:, :k]
        np.put_along_axis(layout.vectors(mask), picked, True, axis=1)
    return mask


class TestOutlierMask:
    @settings(max_examples=400, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        n=st.integers(0, 30),
        d=st.integers(1, 30),
        k=st.sampled_from(["zero", "one", "len", "any"]),
        fraction=st.floats(0.0, 1.0),
        spread=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_stable_argsort(self, layout, n, d, k, fraction, spread, seed):
        # Integer values in [-spread, spread] make ties at the k-th magnitude common.
        axis, mode = layout
        x = np.random.default_rng(seed).integers(-spread, spread + 1, size=(n, d)).astype(float)
        grouping = GroupLayout((n, d), axis, mode, 4)
        fraction = {"zero": 0.0, "one": 1.0 / max(grouping.length, 1), "len": 1.0, "any": fraction}[k]
        spec = QuantSpec(3, axis, mode, group_size=4, sparse_fraction=fraction)
        got = _outlier_mask(x, grouping, fraction)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got, argsort_outlier_mask(x, spec))
        assert got.sum() == grouping.outliers_per_vector(fraction) * grouping.n_vectors


class TestGroupLayout:
    @settings(max_examples=400, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        n=st.integers(0, 40),
        d=st.integers(1, 40),
        gs=st.integers(1, 12),
    )
    def test_segment_table_matches_dense_reference(self, layout, n, d, gs):
        axis, mode = layout
        if axis == "per_tensor":
            n = max(n, 1)  # an empty per-tensor layout keeps one group; the reference has none
        n_groups, gid = dense_reference((n, d), axis, mode, gs)
        order = np.argsort(gid.ravel(), kind="stable")
        got = GroupLayout((n, d), axis, mode, gs)
        assert got.n_groups == n_groups
        sizes = np.bincount(gid.ravel(), minlength=n_groups)
        np.testing.assert_array_equal(got.group_sizes(), sizes)
        np.testing.assert_array_equal(got.to_group_major(np.arange(n * d).reshape(n, d)), order)
        inverse = got.from_group_major(np.arange(n * d)).ravel()
        np.testing.assert_array_equal(inverse, np.argsort(order))
        np.testing.assert_array_equal(got.group_ids(), gid)
        x = np.random.default_rng(n * 1000 + d).normal(size=(n, d))
        np.testing.assert_array_equal(got.to_group_major(x), x.ravel()[order])
        np.testing.assert_array_equal(got.expand(np.arange(n_groups)), np.sort(gid.ravel()))
        for bits in (2, 3, 8):
            assert got.packed_nbytes(bits) == int(pack_group_bytes(sizes, bits).sum())

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        n=st.integers(1, 12),
        d=st.integers(1, 12),
        gs=st.integers(1, 6),
        bits=st.integers(2, 8),
        sparse=st.sampled_from([0.0, 0.2]),
        constant=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_dequantize_matches_single_calls(self, layout, n, d, gs, bits, sparse, constant, seed):
        axis, mode = layout
        spec = QuantSpec(bits, axis, mode, gs, sparse_fraction=sparse)
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(n, d)) for _ in range(3)]
        if constant:  # degenerate groups: one constant channel everywhere, one constant block
            for block in blocks:
                block[:, 0] = 1.5
            blocks[1][:] = -0.25
        params = calibrate(blocks, spec) if mode == "static" else None  # shared by every block
        tensors = [quantize_tensor(block, spec, params=params) for block in blocks]
        stacked = dequantize(quantize_tensor(np.stack(blocks), spec, params=params))
        np.testing.assert_array_equal(stacked, np.stack([dequantize(t) for t in tensors]))
        assert stacked.flags.c_contiguous
        got = GroupLayout((n, d), axis, mode, gs)
        streams = rng.normal(size=(3, n * d))
        np.testing.assert_array_equal(
            got.from_group_major(streams), np.stack([got.from_group_major(row) for row in streams])
        )
        per_group = rng.normal(size=(3, got.n_groups))
        np.testing.assert_array_equal(got.expand(per_group), np.stack([got.expand(row) for row in per_group]))

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        blocks=st.integers(1, 4),
        n=st.integers(1, 12),
        d=st.integers(1, 12),
        gs=st.integers(1, 6),
        bits=st.integers(2, 8),
        sparse=st.sampled_from([0.0, 0.2, 1.0]),
        clip=st.sampled_from([None, 0.1]),
        integer=st.booleans(),
        shared=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stack_is_its_blocks(self, layout, blocks, n, d, gs, bits, sparse, clip, integer, shared, seed):
        # One call on a [blocks, n, d] stack packs, fits and isolates exactly as one 2-D call per block.
        axis, mode = layout
        spec = QuantSpec(bits, axis, mode, gs, clip=clip, sparse_fraction=sparse)
        rng = np.random.default_rng(seed)
        shape = (blocks, n, d)
        stack = rng.integers(-3, 4, size=shape).astype(float) if integer else rng.normal(size=shape)
        params = calibrate([rng.normal(size=(5, d)), *stack], spec) if mode == "static" and shared else None
        singles = [quantize_tensor(block, spec, params=params) for block in stack]
        qt = quantize_tensor(stack, spec, params=params)
        assert qt.shape == (blocks, n, d)
        assert qt.packed == b"".join(t.packed for t in singles)
        offsets = [t.outlier_indices + i * n * d for i, t in enumerate(singles)]
        assert_bitwise(qt.outlier_indices, np.concatenate(offsets))
        assert_bitwise(qt.outlier_values, np.concatenate([t.outlier_values for t in singles]))
        for name in ("scale", "zero", "degenerate", "constant"):
            if params is None:
                assert_bitwise(getattr(qt.params, name), np.stack([getattr(t.params, name) for t in singles]))
            else:
                assert getattr(qt.params, name) is getattr(params, name)
        np.testing.assert_array_equal(qt.codes(), np.stack([t.codes() for t in singles]))
        assert_bitwise(dequantize(qt), np.stack([dequantize(t) for t in singles]))

    def test_stacked_parameters_fit_only_their_stack(self):
        rng = np.random.default_rng(31)
        spec = QuantSpec(3, "per_token", group_size=4)
        qt = quantize_tensor(rng.normal(size=(3, 2, 8)), spec)
        assert qt.params.shape == (2, 8) and qt.params.scale.shape == (3, 4) and qt.params.n_groups == 4
        for x in (rng.normal(size=(2, 8)), rng.normal(size=(4, 2, 8))):
            with pytest.raises(LayoutError):
                quantize_tensor(x, spec, params=qt.params)
        misfit = quantize_tensor(rng.normal(size=(2, 8)), spec)
        misfit.params = qt.params  # a stack's parameters do not decode one of its blocks
        with pytest.raises(LayoutError):
            dequantize(misfit)
        with pytest.raises(ShapeError):
            quantize_tensor(rng.normal(size=(1, 2, 2, 8)), spec)

    @pytest.mark.parametrize("axis", ["per_token", "per_channel"])
    def test_zero_rows_under_static_layouts(self, axis):
        rng = np.random.default_rng(17)
        spec = QuantSpec(3, axis, "static", group_size=4)
        params = calibrate([rng.normal(size=(9, 10))], spec)
        qt = quantize(np.zeros((0, 10)), params, spec)
        layout = qt.layout()
        assert layout.n_groups == params.n_groups == (10 if axis == "per_channel" else 3)
        assert qt.packed == b"" and layout.packed_nbytes(spec.bits) == 0
        assert dequantize(qt).shape == (0, 10) and qt.codes().shape == (0, 10)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def group_major_params(x, spec, valid):
    """Reference fit: min-max (or clip quantiles) of each group's valid entries, group by group."""
    layout = GroupLayout.for_spec(x.shape, spec)
    vals, keep = layout.to_group_major(x), layout.to_group_major(valid)
    sizes = layout.group_sizes()
    cmin, cmax = np.zeros(layout.n_groups), np.zeros(layout.n_groups)
    counts = np.zeros(layout.n_groups, dtype=np.int64)
    for g, stop in enumerate(np.cumsum(sizes)):
        kept = np.sort(vals[stop - sizes[g] : stop][keep[stop - sizes[g] : stop]], kind="stable")
        counts[g] = kept.size
        if kept.size and spec.clip:
            for target, q in ((cmin, spec.clip), (cmax, 1.0 - spec.clip)):
                pos = q * (kept.size - 1)
                base = int(np.floor(pos))
                frac = pos - base
                target[g] = kept[base] * (1.0 - frac) + kept[min(base + 1, kept.size - 1)] * frac
        elif kept.size:
            cmin[g], cmax[g] = kept[0], kept[-1]
    rng = cmax - cmin
    degenerate = (counts == 0) | (rng <= 0.0)
    scale = np.where(degenerate, 1.0, rng / spec.levels)
    zero = np.where(degenerate, 0, -np.rint(cmin / scale)).astype(np.int64)
    return scale, zero, degenerate, np.where(counts == 0, 0.0, cmin)


def group_major_encode(x, spec, params):
    """Reference encode: the code formula on the group-major stream with per-element expanded parameters."""
    layout = GroupLayout.for_spec(x.shape, spec)
    codes = layout.to_group_major(x) / layout.expand(params.scale)
    np.rint(codes, out=codes)
    codes += layout.expand(params.zero)
    codes = np.clip(codes, 0, spec.levels).astype(np.uint8)
    codes[layout.expand(params.degenerate)] = 0
    return pack_codes(codes, layout.group_sizes(), spec.bits)


def group_major_decode(tensors):
    """Reference decode: each tensor's float stream in group-major order, reordered, outliers restored."""
    blocks = []
    for t in tensors:
        layout = t.layout()
        stream = unpack_codes(t.packed, layout.group_sizes(), t.spec.bits).astype(np.float64)
        stream -= layout.expand(t.params.zero)
        stream *= layout.expand(t.params.scale)
        stream = np.where(layout.expand(t.params.degenerate), layout.expand(t.params.constant), stream)
        block = layout.from_group_major(stream)
        block.flat[t.outlier_indices] = t.outlier_values
        blocks.append(block)
    return np.vstack(blocks)


def assert_matches_group_major(blocks, spec, params=None):
    """Codes, parameters, outliers and single and stacked reconstructions equal the references bitwise."""
    tensors = [quantize_tensor(block, spec, params=params) for block in blocks]
    for block, qt in zip(blocks, tensors):
        outliers = argsort_outlier_mask(block, spec)
        idx = np.flatnonzero(outliers)
        assert_bitwise(qt.outlier_indices, idx)
        assert_bitwise(qt.outlier_values, block.ravel()[idx])
        if params is None:
            fields = ("scale", "zero", "degenerate", "constant")
            for name, want in zip(fields, group_major_params(block, spec, ~outliers)):
                assert_bitwise(getattr(qt.params, name), want)
        assert qt.packed == group_major_encode(block, spec, qt.params)
        assert_bitwise(dequantize(qt), group_major_decode([qt]))
    stack = quantize_tensor(np.stack(blocks), spec, params=params)
    assert_bitwise(dequantize(stack).reshape(-1, stack.shape[-1]), group_major_decode(tensors))


class TestTensorOrderMatchesGroupMajor:
    """Quantize and dequantize run in tensor order; the group-major formulas they replaced are the reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        n=st.integers(0, 20),
        d=st.integers(1, 20),
        gs=st.integers(1, 8),
        bits=st.integers(2, 8),
        sparse=st.sampled_from([0.0, 0.05, 1.0]),
        clip=st.sampled_from([None, 0.1]),
        integer=st.booleans(),
        constant=st.booleans(),
        shared=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_group_major_formulas(self, layout, n, d, gs, bits, sparse, clip, integer, constant, shared, seed):
        axis, mode = layout
        spec = QuantSpec(bits, axis, mode, gs, clip=clip, sparse_fraction=sparse)
        rng = np.random.default_rng(seed)
        # Integer values in [-3, 3] make ties at the k-th magnitude and constant groups common.
        if integer:
            blocks = [rng.integers(-3, 4, size=(n, d)).astype(float) for _ in range(3)]
        else:
            blocks = [rng.normal(size=(n, d)) for _ in range(3)]
        if constant:
            for block in blocks:
                block[:, 0] = 1.5
            blocks[1][:] = -0.25
        params = None
        if mode == "static" and shared:  # one calibrated set for every block: the broadcast dequantize path
            params = calibrate([rng.normal(size=(4, d)), *blocks], spec)
        assert_matches_group_major(blocks, spec, params)

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_wide_per_channel_outliers(self, mode):
        # 96-row columns: outliers are ranked along rows of the contiguous |x.T|, five per column.
        rng = np.random.default_rng(23)
        spec = QuantSpec(2, "per_channel", mode, 16, sparse_fraction=0.05)
        blocks = [rng.integers(-4, 5, size=(96, 70)).astype(float), rng.normal(size=(96, 70))]
        assert GroupLayout.for_spec(blocks[0].shape, spec).outliers_per_vector(spec.sparse_fraction) == 5
        assert_matches_group_major(blocks, spec)
        if mode == "static":
            assert_matches_group_major(blocks, spec, calibrate(blocks, spec))


class TestQuantizeDequantize:
    def test_lattice_codes_example(self):
        spec = QuantSpec(2, "per_tensor")
        p = compute_params([0.0, 1.0, 2.0, 3.0], spec)
        qt = quantize([0.0, 1.0, 2.0, 3.0], p, spec)
        np.testing.assert_array_equal(qt.codes(), [[0, 1, 2, 3]])
        np.testing.assert_array_equal(dequantize(qt), [[0.0, 1.0, 2.0, 3.0]])

    def test_half_scale_bound_single_value(self):
        spec = QuantSpec(8, "per_tensor")
        x = np.array([0.4, -0.3])
        qt = quantize_tensor(x, spec)
        err = np.abs(x - dequantize(qt).ravel())
        assert np.all(err <= qt.params.scale[0] / 2 + 1e-12)

    def test_sparse_outlier_extraction_example(self):
        spec = QuantSpec(4, "per_token", group_size=4, sparse_fraction=0.25)
        qt = quantize_tensor([10.0, 0.1, -0.2, 0.05], spec)
        np.testing.assert_array_equal(qt.outlier_indices, [0])
        np.testing.assert_array_equal(qt.outlier_values, [10.0])
        # residual range only
        assert qt.params.scale.max() <= (0.1 + 0.2) / spec.levels + 1e-12
        np.testing.assert_array_equal(dequantize(qt)[0, 0], 10.0)

    def test_full_isolation_is_bit_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 9))
        for axis in ("per_token", "per_channel", "per_tensor"):
            spec = QuantSpec(2, axis, group_size=4, sparse_fraction=1.0)
            np.testing.assert_array_equal(roundtrip(x, spec), x)

    def test_outlier_count_per_vector(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 40))
        spec = QuantSpec(4, "per_token", sparse_fraction=0.1)
        qt = quantize_tensor(x, spec)
        assert qt.outlier_indices.size == 5 * round(0.1 * 40)
        per_row = np.bincount(qt.outlier_indices // 40, minlength=5)
        assert np.all(per_row == 4)
        # per-channel vectors run down columns
        spec_c = QuantSpec(4, "per_channel", group_size=5, sparse_fraction=0.2)
        qt_c = quantize_tensor(x, spec_c)
        per_col = np.bincount(qt_c.outlier_indices % 40, minlength=40)
        assert np.all(per_col == round(0.2 * 5))

    def test_params_layout_mismatch(self):
        spec = QuantSpec(4, "per_token", group_size=4)
        p = compute_params(np.zeros((3, 8)), spec)
        with pytest.raises(LayoutError):
            quantize(np.zeros((4, 8)), p, spec)
        with pytest.raises(LayoutError):
            quantize(np.zeros((3, 8)), p, QuantSpec(4, "per_channel", group_size=4))

    def test_params_from_another_grouping_rejected(self):
        # 16x8 at group size 4: per-token and per-channel dynamic layouts both have 32 groups.
        x = np.random.default_rng(13).normal(size=(16, 8))
        per_token = compute_params(x, QuantSpec(4, "per_token", group_size=4))
        per_channel = QuantSpec(4, "per_channel", group_size=4)
        assert per_token.n_groups == GroupLayout.for_spec(x.shape, per_channel).n_groups
        with pytest.raises(LayoutError):
            quantize_tensor(x, per_channel, params=per_token)
        # kvquant_like keys are per-channel static: one group per column, as per-token static at group size 1.
        keys = np.random.default_rng(14).normal(size=(20, 8))
        per_token_static = calibrate([keys], QuantSpec(2, "per_token", "static", group_size=1))
        assert per_token_static.n_groups == 8
        with pytest.raises(LayoutError):
            quantize_scheme(keys, keys, "kvquant_like", bits=2, group_size=16, key_params=per_token_static)
        # Same grouping, another bit width, clip or sparse fraction: every entry point refuses the parameters.
        key_spec, _ = scheme_specs("kvquant_like", 2, 16)
        for other in (
            dataclasses.replace(key_spec, bits=4),
            dataclasses.replace(key_spec, clip=0.01),
            dataclasses.replace(key_spec, sparse_fraction=0.0),
        ):
            params = calibrate([keys], other)
            assert params.n_groups == GroupLayout.for_spec(keys.shape, key_spec).n_groups
            cache = KVCache(1, 8, scheme="kvquant_like", bits=2, group_size=16)
            for call in (
                lambda: quantize_tensor(keys, key_spec, params=params),
                lambda: quantize(keys, params, key_spec),
                lambda: quantize_scheme(keys, keys, "kvquant_like", bits=2, group_size=16, key_params=params),
                lambda: cache.set_static_params(0, key_params=params),
            ):
                with pytest.raises(LayoutError):
                    call()
            assert cache._keys[0].params is None

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_one_layout_per_quantize_call(self, monkeypatch, mode):
        rng = np.random.default_rng(15)
        spec = QuantSpec(3, "per_channel", mode, group_size=4, sparse_fraction=0.25)
        params = calibrate([rng.normal(size=(8, 6))], spec) if mode == "static" else None
        built = []
        init = GroupLayout.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupLayout, "__init__", counting_init)
        quantize_tensor(rng.normal(size=(8, 6)), spec)
        assert len(built) == 1
        given = params if params is not None else compute_params(rng.normal(size=(8, 6)), spec)
        built.clear()
        quantize_tensor(rng.normal(size=(8, 6)), spec, params=given)
        assert len(built) == 1

    def test_static_params_reusable_across_token_counts(self):
        rng = np.random.default_rng(11)
        spec = QuantSpec(4, "per_channel", "static", group_size=4)
        params = calibrate([rng.normal(size=(12, 6))], spec)
        for n in (1, 5, 20):
            x = rng.normal(size=(n, 6))
            out = dequantize(quantize(x, params, spec))
            assert out.shape == (n, 6)

    def test_codes_within_range_exhaustive(self):
        rng = np.random.default_rng(13)
        for bits in (2, 3, 4, 8):
            spec = QuantSpec(bits, "per_token", group_size=3)
            qt = quantize_tensor(rng.normal(size=(7, 11)) * 10, spec)
            codes = qt.codes()
            assert codes.min() >= 0 and codes.max() <= 2**bits - 1


class TestRoundTripProperties:
    @pytest.mark.parametrize("axis", ["per_token", "per_channel", "per_tensor"])
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_half_scale_bound(self, axis, bits):
        rng = np.random.default_rng(bits * 101 + hash(axis) % 97)
        for gs in (3, 16):
            x = rng.normal(size=(9, 21)) * rng.uniform(0.01, 50)
            spec = QuantSpec(bits, axis, group_size=gs)
            qt = quantize_tensor(x, spec)
            scale, degenerate = per_element_scale(qt)
            err = np.abs(x - dequantize(qt))
            bound = np.where(degenerate, 0.0, scale / 2) + 1e-9
            assert np.all(err <= bound)

    def test_more_bits_never_worse(self):
        rng = np.random.default_rng(21)
        for axis in ("per_token", "per_channel"):
            for seed in range(8):
                x = np.random.default_rng(seed).normal(size=(12, 24))
                errs = []
                for bits in (2, 3, 4, 8):
                    spec = QuantSpec(bits, axis, group_size=8)
                    errs.append(np.mean((x - roundtrip(x, spec)) ** 2))
                assert errs == sorted(errs, reverse=True)

    def test_dynamic_per_token_isolation(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(10, 16))
        spec = QuantSpec(3, "per_token", "dynamic", group_size=4)
        base = roundtrip(x, spec)
        mutated = x.copy()
        mutated[4] *= 917.0
        after = roundtrip(mutated, spec)
        rows = np.arange(10) != 4
        np.testing.assert_array_equal(base[rows], after[rows])

    def test_static_exclusion_reduces_error(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(32, 16))
        x[7] *= 250.0  # planted token >= 100x the others
        spec = QuantSpec(4, "per_token", "static", group_size=4)
        keep = np.arange(32) != 7
        full_params = calibrate([x], spec)
        err_incl = np.mean((x[keep] - dequantize(quantize(x, full_params, spec))[keep]) ** 2)
        excl_params = calibrate([x], spec, exclude=[[7]])
        err_excl = np.mean((x[keep] - dequantize(quantize(x[keep], excl_params, spec))) ** 2)
        assert err_excl < err_incl

    def test_dense_and_sparse_dominates(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(16, 100))
        spots = rng.random(x.shape) < 0.02
        x[spots] *= 40.0  # heavy tail, >= 10x group medians
        spec0 = QuantSpec(2, "per_token", group_size=100, sparse_fraction=0.0)
        spec1 = QuantSpec(2, "per_token", group_size=100, sparse_fraction=0.01)
        mse0 = np.mean((x - roundtrip(x, spec0)) ** 2)
        mse1 = np.mean((x - roundtrip(x, spec1)) ** 2)
        assert mse1 <= mse0


class TestCalibration:
    def test_global_minmax_union(self):
        # column-vector samples: one group per channel
        spec = QuantSpec(3, "per_channel", "static", group_size=4)
        cal = CalibrationSet([np.arange(4.0).reshape(-1, 1), np.arange(8.0).reshape(-1, 1)])
        params = calibrate(cal, spec)
        assert params.n_groups == 1
        assert params.scale[0] == pytest.approx(7.0 / spec.levels)

    def test_excluding_planted_row_matches_clean_calibration(self):
        rng = np.random.default_rng(61)
        clean = rng.normal(size=(16, 8))
        planted = clean.copy()
        planted[5] = 1000.0
        spec = QuantSpec(4, "per_token", "static", group_size=8)
        a = calibrate([planted], spec, exclude=[[5]])
        b = calibrate([np.delete(clean, 5, axis=0)], spec)
        np.testing.assert_array_equal(a.scale, b.scale)

    def test_single_sample_equals_compute_params(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(6, 12))
        spec = QuantSpec(4, "per_token", "static", group_size=4)
        a = calibrate([x], spec)
        b = compute_params(x, spec)
        np.testing.assert_array_equal(a.scale, b.scale)
        np.testing.assert_array_equal(a.zero, b.zero)

    def test_empty_set_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate([], QuantSpec(4, mode="static"))

    def test_dynamic_mode_rejected(self):
        with pytest.raises(ConfigError):
            calibrate([np.zeros((2, 2))], QuantSpec(4, mode="dynamic"))

    def test_mismatched_widths_rejected(self):
        from sinkquant.errors import ShapeError

        with pytest.raises(ShapeError):
            CalibrationSet([np.zeros((2, 4)), np.zeros((2, 5))])


def enumerate_groups(shape, axis, mode, gs):
    """Independent oracle: enumerate distinct groups position by position."""
    n, d = shape
    groups = set()
    for t in range(n):
        for c in range(d):
            if axis == "per_tensor":
                groups.add(0)
            elif axis == "per_token":
                groups.add((c // gs) if mode == "static" else (t, c // gs))
            else:
                groups.add(c if mode == "static" else (c, t // gs))
    return len(groups)


class TestSchemes:
    def test_all_tokens_sunk_means_empty_codes(self):
        rng = np.random.default_rng(81)
        k = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        qk, qv = quantize_scheme(k, v, "pt_kv_dynamic", sinks=range(4), bits=4, group_size=8)
        assert qk.shape == (0, 8) and qv.shape == (0, 8)
        assert qk.packed == b"" and qv.packed == b""

    def test_no_sinks_reduces_to_plain_per_token(self):
        rng = np.random.default_rng(82)
        k = rng.normal(size=(6, 8))
        v = rng.normal(size=(6, 8))
        qk, qv = quantize_scheme(k, v, "pt_kv_dynamic", sinks=(), bits=4, group_size=8)
        plain = quantize_tensor(k, QuantSpec(4, "per_token", "dynamic", 8))
        np.testing.assert_array_equal(qk.codes(), plain.codes())
        np.testing.assert_array_equal(dequantize(qk), dequantize(plain))

    def test_group_count_matches_enumeration_oracle(self):
        rng = np.random.default_rng(83)
        k = rng.normal(size=(32, 16))
        v = rng.normal(size=(32, 16))
        gs = 4
        qk, qv = quantize_scheme(k, v, "pc_key_pt_value_static", bits=4, group_size=gs)
        assert qk.params.n_groups == enumerate_groups((32, 16), "per_channel", "static", gs)
        assert qv.params.n_groups == enumerate_groups((32, 16), "per_token", "static", gs)
        qkd, qvd = quantize_scheme(k, v, "pt_kv_dynamic", bits=4, group_size=gs)
        assert qkd.params.n_groups == enumerate_groups((32, 16), "per_token", "dynamic", gs)

    def test_kvquant_like_defaults_to_sparse(self):
        key_spec, value_spec = scheme_specs("kvquant_like", 2, 16)
        assert key_spec.axis == "per_channel" and key_spec.mode == "static"
        assert value_spec.axis == "per_token" and value_spec.mode == "dynamic"
        assert key_spec.sparse_fraction == pytest.approx(0.01)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            quantize_scheme(np.zeros((2, 4)), np.zeros((2, 4)), "nope")

    def test_sink_rows_never_counted(self):
        rng = np.random.default_rng(84)
        k = rng.normal(size=(10, 8))
        v = rng.normal(size=(10, 8))
        k[3] = 1e6  # would wreck static ranges if included
        qk, _ = quantize_scheme(k, v, "pt_kv_static", sinks=[3], bits=4, group_size=8)
        assert qk.shape == (9, 8)
        assert qk.params.scale.max() < 1.0

    def test_preset_names_are_stable(self):
        assert sorted(SCHEME_PRESETS) == [
            "kvquant_like",
            "pc_key_pt_value_static",
            "pt_kv_dynamic",
            "pt_kv_static",
        ]


FIELDS = ("scale", "zero", "degenerate", "constant")


def draw_values(rng, shape, kind):
    """Normal values, or integers in [-3, 3] (ties, constant groups) with both signs of zero for "signed_zero"."""
    if kind == "normal":
        return rng.normal(size=shape)
    x = rng.integers(-3, 4, size=shape).astype(float)
    if kind == "signed_zero":
        x[rng.random(shape) < 0.5] *= -1.0
    return x


def assert_params(got, want):
    for name, value in zip(FIELDS, want):
        assert_bitwise(getattr(got, name), value)


class TestOnePathPerStage:
    """The clip fit runs on the segment views, and no quant stage runs twice."""

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(LAYOUTS),
        n=st.integers(0, 14),
        d=st.integers(1, 14),
        gs=st.integers(1, 6),
        bits=st.integers(2, 8),
        sparse=st.sampled_from([0.0, 0.05, 1.0]),
        clip=st.sampled_from([0.05, 0.1, 0.25]),
        kind=st.sampled_from(["normal", "integer", "signed_zero"]),
        seed=st.integers(0, 2**16),
    )
    def test_clip_fit_with_excluded_rows(self, layout, n, d, gs, bits, sparse, clip, kind, seed):
        axis, mode = layout
        spec = QuantSpec(bits, axis, mode, gs, clip=clip, sparse_fraction=sparse)
        rng = np.random.default_rng(seed)
        samples = [draw_values(rng, (m, d), kind) for m in (n, 5)]
        excluded = [sorted(rng.choice(m, size=rng.integers(0, m + 1), replace=False).tolist()) for m in (n, 5)]

        def valid(x, rows):
            keep = ~argsort_outlier_mask(x, spec)
            keep[rows] = False
            return keep

        assert_params(
            compute_params(samples[0], spec, exclude=excluded[0]),
            group_major_params(samples[0], spec, valid(samples[0], excluded[0])),
        )
        if mode == "static":
            assert_params(
                calibrate(samples, spec, exclude=excluded),
                group_major_params(np.vstack(samples), spec, np.vstack([valid(*pair) for pair in zip(samples, excluded)])),
            )
        # A [blocks, n, d] stack fits every block to its own entries.
        stack = draw_values(rng, (3, n, d), kind)
        per_block = [group_major_params(block, spec, valid(block, [])) for block in stack]
        assert_params(quantize_tensor(stack, spec).params, [np.stack(field) for field in zip(*per_block)])

    @pytest.mark.parametrize(
        "scheme", [s for s in sorted(SCHEME_PRESETS) if any(spec.mode == "static" for spec in scheme_specs(s, 4, 16))]
    )
    @pytest.mark.parametrize("sinks", [(), (0, 70)])
    @pytest.mark.parametrize("sparse", [0.0, 0.01])
    def test_static_side_fits_in_its_quantize_call(self, monkeypatch, tmp_path, scheme, sinks, sparse):
        rng = np.random.default_rng(sorted(SCHEME_PRESETS).index(scheme))
        keys, values = rng.normal(size=(2, 150, 64))
        keys[list(sinks)] *= 30.0
        real, calls = quant_module.calibrate, []
        monkeypatch.setattr(quant_module, "calibrate", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        got = quantize_scheme(keys, values, scheme, sinks, bits=3, group_size=8, sparse_fraction=sparse)
        assert calls == []
        rows = np.setdiff1d(np.arange(150), sinks)
        specs = scheme_specs(scheme, 3, 8, sparse)
        assert any(qt.outlier_indices.size for qt in got) == (sparse > 0)
        for side, qt, x, spec in zip("kv", got, (keys[rows], values[rows]), specs):
            want = quantize_tensor(x, spec, params=real([x], spec) if spec.mode == "static" else None)
            assert_params(qt.params, [getattr(want.params, name) for name in FIELDS])
            assert qt.packed == want.packed
            assert_bitwise(qt.outlier_indices, want.outlier_indices)
            assert_bitwise(qt.outlier_values, want.outlier_values)
            assert_bitwise(dequantize(qt), dequantize(want))
            write_quantized(str(tmp_path / f"{side}_got.kvsq"), qt)
            write_quantized(str(tmp_path / f"{side}_want.kvsq"), want)
            assert (tmp_path / f"{side}_got.kvsq").read_bytes() == (tmp_path / f"{side}_want.kvsq").read_bytes()

    @pytest.mark.parametrize("layout", LAYOUTS, ids="-".join)
    def test_only_codes_are_reordered_and_dequantize_builds_one_layout(self, monkeypatch, layout):
        axis, mode = layout
        spec = QuantSpec(3, axis, mode, group_size=4, clip=0.1, sparse_fraction=0.1)
        rng = np.random.default_rng(LAYOUTS.index(layout))
        handed, built = [], []
        for name in ("to_group_major", "from_group_major"):

            def recording(self, arr, _real=getattr(GroupLayout, name)):
                handed.append(arr.dtype)
                return _real(self, arr)

            monkeypatch.setattr(GroupLayout, name, recording)
        tensors = [quantize_tensor(rng.normal(size=(9, 10)), spec), quantize_tensor(rng.normal(size=(2, 9, 10)), spec)]
        if mode == "static":
            params = calibrate([rng.normal(size=(9, 10)), rng.normal(size=(5, 10))], spec, exclude=[[1, 4], None])
            tensors.append(quantize_tensor(rng.normal(size=(2, 9, 10)), spec, params=params))
        init = GroupLayout.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupLayout, "__init__", counting_init)
        for qt in tensors:
            built.clear()
            dequantize(qt)
            assert len(built) == 1
        assert handed and set(handed) == {np.dtype(np.uint8)}
