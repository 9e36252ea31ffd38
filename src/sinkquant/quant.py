"""Group-wise asymmetric integer quantization.

The scheme is classic asymmetric round-to-nearest integer quantization:

    code  = clamp(round(x / scale) + zero, 0, 2**bits - 1)
    x'    = scale * (code - zero)
    scale = (cmax - cmin) / (2**bits - 1)
    zero  = -round(cmin / scale)

with round-half-to-even everywhere, ``cmin``/``cmax`` the (optionally
tail-clipped) group extrema, and an unclamped integer zero point. Groups with
zero value range are marked degenerate; their constant is stored and
reproduced exactly instead of running the code arithmetic.

Group layouts, all with a configurable ``group_size`` and a shorter final
segment when the grouped axis does not divide evenly:

======================  ====================================================
axis / mode             one (scale, zero) pair per
======================  ====================================================
per_token   dynamic     (token row, channel segment)
per_token   static      channel segment, shared by all tokens
per_channel dynamic     (channel column, token segment)
per_channel static      channel column, shared by all tokens
per_tensor  (any)       whole tensor
======================  ====================================================

Static parameters are calibrated once (global min-max over the calibration
samples) and frozen, so they depend only on the tensor width and can be
reused for any number of tokens.

Dense-and-sparse isolation (``sparse_fraction`` > 0) removes the top
``round(f * len(vector))`` entries by magnitude from every vector (token rows
for per-token and per-tensor layouts, channel columns for per-channel),
stores them at full precision, and computes parameters on the remainder.
Token rows listed in an exclusion set contribute to no group statistics.

``quantize_tensor`` is the one encode path (``quantize`` is the same call
with parameters required): one ``GroupLayout`` and one outlier selection per
call, then a parameter fit or one ``QuantParams.check_fits`` of given
parameters, then the encode. ``compute_params`` and ``calibrate`` share its
fit step.

A leading block axis stacks tensors of one shape: ``quantize_tensor`` on a
[blocks, n, d] stack quantizes every block with its own groups and outliers
in one pass, exactly as one call per block would, and ``dequantize`` decodes
the stack in one pass. The layout is the block's; the group-major stream,
the packed codes and fitted parameters ([blocks, n_groups]) follow block
after block, and given parameters are shared by every block. The KV cache
encodes and decodes its blocks this way.

Parameters carry the one ``QuantSpec`` they were fitted under, which is also
their ``QuantizedTensor``'s spec; ``check_fits`` refuses (``LayoutError``)
parameters from any other spec, be it another bit width, clip, sparse
fraction or grouping.

All float arithmetic (the fit's min-max or ``clip`` quantiles, the encode and
the decode) runs in the tensor's own memory order, on the segment views of
``GroupLayout.segments`` with per-group parameters broadcast over them; the
quantile fit sorts each group's entries within its view. Only the uint8 codes
are reordered to and from the group-major packed stream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    CalibrationError,
    ConfigError,
    LayoutError,
    ShapeError,
)
from .packing import pack_codes, packed_nbytes, unpack_codes
from .tensors import as_tensor, integer_at_least, row_mask, top_k_mask

AXES = ("per_token", "per_channel", "per_tensor")
MODES = ("dynamic", "static")


@dataclass(frozen=True)
class QuantSpec:
    """Configuration of one quantization scheme."""

    bits: int
    axis: str = "per_token"
    mode: str = "dynamic"
    group_size: int = 16
    clip: float | None = None
    sparse_fraction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "bits", integer_at_least(self.bits, 2, "bits"))
        object.__setattr__(self, "group_size", integer_at_least(self.group_size, 1, "group_size"))
        if self.bits > 8:
            raise ConfigError(f"bits must be in [2, 8], got {self.bits}")
        if self.axis not in AXES:
            raise ConfigError(f"unknown axis {self.axis!r}", allowed=list(AXES))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}", allowed=list(MODES))
        if self.clip is not None and not 0.0 <= self.clip < 0.5:
            raise ConfigError(f"clip must be in [0, 0.5), got {self.clip}")
        if not 0.0 <= self.sparse_fraction <= 1.0:
            raise ConfigError(f"sparse_fraction must be in [0, 1], got {self.sparse_fraction}")

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    @property
    def lossless(self) -> bool:
        """True when every entry is isolated at full precision."""
        return self.sparse_fraction >= 1.0


def _canonical(x, name="input", stacked: bool = False) -> np.ndarray:
    """Validate and reshape to 2-D [tokens, channels]; 1-D is one token row.

    With ``stacked`` a 3-D [blocks, tokens, channels] stack is kept as it is.
    """
    arr = as_tensor(x, name=name)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 and not (stacked and arr.ndim == 3):
        raise ShapeError(f"{name} must be 1-D or 2-D{', or 3-D' if stacked else ''}, got shape {arr.shape}")
    return arr


class GroupLayout:
    """Splits an [n, d] tensor into quantization groups by one segment table.

    Vectors are token rows (per-token, per-tensor) or channel columns
    (per-channel). Each splits into segments of ``group_size`` with a shorter
    tail, or is one whole segment (per-tensor, per-channel static). Segment
    ``s`` of every vector is one shared group (per-token static, per-tensor),
    or else every (vector, segment) pair is a group, numbered vector-major.
    The group-major stream (the packed-code order) lists groups by id, each
    row-major. Group sizes, the stream, its inverse, per-element expansion of
    per-group values and the segment views of :meth:`segments` all follow
    from the table by reshapes and transposes.
    """

    def __init__(self, shape: tuple[int, int], axis: str, mode: str, group_size: int):
        if axis not in AXES:
            raise ConfigError(f"unknown axis {axis!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.group_size = int(group_size)
        self.by_rows = axis != "per_channel"
        self.shared = axis == "per_tensor" or (axis == "per_token" and mode == "static")
        whole = axis == "per_tensor" or (axis == "per_channel" and mode == "static")
        n, d = self.shape
        self.size = n * d
        self.n_vectors, self.length = (n, d) if self.by_rows else (d, n)
        self.segment = self.length if whole else self.group_size
        self.full, self.tail = (1, 0) if whole else divmod(self.length, self.group_size)
        # Vectors stacked in one group, and groups per segment position.
        self.stack, self.copies = (self.n_vectors, 1) if self.shared else (1, self.n_vectors)
        self.n_groups = self.copies * (self.full + (self.tail > 0))
        # Segment views (see ``segments``): segment positions, span of the grouped axis, segments, size.
        cut = self.full * self.segment
        self._parts = [(slice(0, self.full), slice(0, cut), self.full, self.segment)] if self.full else []
        if self.tail:
            self._parts.append((slice(self.full, None), slice(cut, None), 1, self.tail))
        # Axes of a segment view that one group spans.
        self.group_axes = (-2,) if not self.by_rows else (-3, -1) if self.shared else (-1,)
        self._sizes = None

    @classmethod
    def for_spec(cls, shape, spec: QuantSpec) -> "GroupLayout":
        return cls(shape, spec.axis, spec.mode, spec.group_size)

    @classmethod
    def block(cls, spec: QuantSpec, width: int) -> "GroupLayout":
        """Smallest token block quantized on its own: 1 row, or ``group_size`` for columns."""
        return cls.for_spec((1 if spec.axis != "per_channel" else spec.group_size, width), spec)

    def group_sizes(self) -> np.ndarray:
        if self._sizes is None:
            sizes = np.empty((self.copies, self.full + (self.tail > 0)), dtype=np.int64)
            sizes[:] = self.segment * self.stack
            if self.tail:
                sizes[:, -1] = self.tail * self.stack
            self._sizes = sizes.reshape(-1)
        return self._sizes

    def packed_nbytes(self, bits: int) -> int:
        """Length of the packed codes; pure integer arithmetic, no arrays."""
        full = self.full * packed_nbytes(self.segment * self.stack, bits)
        return self.copies * (full + packed_nbytes(self.tail * self.stack, bits))

    def outliers_per_vector(self, fraction: float) -> int:
        """Entries that dense-and-sparse isolation takes from each vector."""
        return min(round(fraction * self.length), self.length)  # round half to even, as np.rint

    def vectors(self, x: np.ndarray) -> np.ndarray:
        """``x`` [..., n, d] as [..., vectors, length]: itself, or a transposed view for columns."""
        return x if self.by_rows else x.swapaxes(-1, -2)

    def to_group_major(self, x: np.ndarray) -> np.ndarray:
        """The elements of an [..., n, d] array as the [..., stream] group-major stream."""
        lead = x.shape[:-2]
        vec = self.vectors(x)
        if not self.shared:
            return vec.reshape(lead + (self.size,))
        cut = self.full * self.segment
        head = vec[..., :cut].reshape(lead + (self.n_vectors, self.full, self.segment)).swapaxes(-3, -2)
        head = head.reshape(lead + (self.n_vectors * cut,))
        if not self.tail:
            return head
        return np.concatenate((head, vec[..., cut:].reshape(lead + (self.n_vectors * self.tail,))), axis=-1)

    def from_group_major(self, stream: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_group_major`: C-ordered [..., n, d] from [..., stream]."""
        lead = stream.shape[:-1]
        if not self.shared:
            vec = stream.reshape(*lead, self.n_vectors, self.length)
            return np.ascontiguousarray(vec if self.by_rows else vec.swapaxes(-1, -2))
        cut = self.full * self.segment
        split = self.n_vectors * cut
        head = stream[..., :split].reshape(*lead, self.full, self.n_vectors, self.segment).swapaxes(-3, -2)
        tail = stream[..., split:].reshape(*lead, self.n_vectors, self.tail)
        return np.concatenate((head.reshape(*lead, self.n_vectors, cut), tail), axis=-1)

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Per-group values [..., n_groups] repeated onto every element of the group-major stream."""
        return np.repeat(per_group, self.group_sizes(), axis=-1)

    def segments(self, x, *per_group: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Views of an [..., n, d] array by segment length, each with its per-group values.

        Token-row layouts split the channel axis into [..., n, segs, size],
        channel layouts the token axis into [..., segs, size, d]: one view for
        the full segments and one of size ``tail`` for a shorter last segment.
        ``x`` may be a tuple of same-shape arrays; each entry then holds one
        view of every array. Each [..., n_groups] array in ``per_group`` comes
        back as the view's slice of it, shaped [..., copies, segs, 1] (rows)
        or [..., segs, 1, d] (channels) to broadcast against it. Channel
        slices are contiguous copies: broadcasting a transposed one is ~5x
        slower. A reduction of the view over ``group_axes`` with ``keepdims``
        has the same shape, and :meth:`from_segments` maps such per-view
        arrays back to groups.
        """
        arrays = x if isinstance(x, tuple) else (x,)
        lead = arrays[0].shape[:-2]
        n, d = self.shape
        grid = (self.copies, self.full + (self.tail > 0))
        grids = [p.reshape(p.shape[:-1] + grid) for p in per_group]
        out = []
        for which, span, segs, size in self._parts:
            if self.by_rows:
                views = [a[..., span].reshape(lead + (n, segs, size)) for a in arrays]
                params = [g[..., which, None] for g in grids]
            else:
                views = [a[..., span, :].reshape(lead + (segs, size, d)) for a in arrays]
                params = [np.ascontiguousarray(g[..., which].swapaxes(-1, -2))[..., None, :] for g in grids]
            out.append((*views, *params))
        return out

    def from_segments(self, parts: list[np.ndarray]) -> np.ndarray:
        """Per-group [..., n_groups] values from one parameter-shaped array per :meth:`segments` view."""
        joined = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2 if self.by_rows else -3)
        per_vector = joined[..., 0] if self.by_rows else joined[..., 0, :].swapaxes(-1, -2)
        return per_vector.reshape(per_vector.shape[:-2] + (self.n_groups,))

    def stream_sizes(self, shape) -> np.ndarray:
        """Group sizes of the packed stream of a [..., n, d] tensor: the layout's, once per block."""
        blocks = math.prod(shape[:-2])
        return self.group_sizes() if blocks == 1 else np.tile(self.group_sizes(), blocks)

    def group_ids(self) -> np.ndarray:
        """Dense [n, d] map of group ids (for analyses; quantization never builds it)."""
        return self.from_group_major(self.expand(np.arange(self.n_groups, dtype=np.int64)))


@dataclass
class QuantParams:
    """Frozen per-group (scale, zero) pairs plus degenerate-group constants, fitted under ``spec``.

    ``shape`` is the [n, d] tensor the groups tile. The arrays are [n_groups],
    shared by every block of a stack, or [blocks, n_groups] for a stack
    fitted block by block.
    """

    spec: QuantSpec
    shape: tuple[int, int]
    scale: np.ndarray
    zero: np.ndarray
    degenerate: np.ndarray
    constant: np.ndarray

    @property
    def n_groups(self) -> int:
        """Groups per block."""
        return self.scale.shape[-1]

    def check_fits(self, spec: QuantSpec, layout: GroupLayout, blocks: tuple = ()) -> None:
        """Raise ``LayoutError`` unless these parameters were fitted under ``spec`` and fit ``layout``.

        ``blocks`` is the leading shape of the tensor; per-block parameters must have it.
        """
        shape = layout.shape
        if spec != self.spec:
            raise LayoutError(
                "parameters were fitted under a different spec",
                params_spec=asdict(self.spec),
                spec=asdict(spec),
            )
        if spec.mode == "dynamic":
            if tuple(shape) != tuple(self.shape):
                raise LayoutError(
                    "dynamic parameters are bound to the tensor they were computed on",
                    params_shape=list(self.shape),
                    tensor_shape=list(shape),
                )
        elif shape[1] != self.shape[1]:
            raise LayoutError(
                "static parameters calibrated for a different width",
                params_width=int(self.shape[1]),
                tensor_width=int(shape[1]),
            )
        if layout.n_groups != self.n_groups:
            raise LayoutError(
                "group count mismatch",
                params_groups=int(self.n_groups),
                layout_groups=int(layout.n_groups),
            )
        if self.scale.shape[:-1] not in ((), tuple(blocks)):
            raise LayoutError(
                "per-block parameters fitted for another number of blocks",
                params_blocks=list(self.scale.shape[:-1]),
                tensor_blocks=list(blocks),
            )


@dataclass
class QuantizedTensor:
    """Bit-packed codes plus parameters and optional full-precision outliers.

    ``shape`` is [n, d], or [blocks, n, d] for a stack of blocks quantized
    in one call: each block has its own groups, packed one block after
    another, and outlier indices are flat positions in the whole stack.
    """

    shape: tuple[int, ...]
    params: QuantParams
    packed: bytes
    outlier_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    outlier_values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))

    @property
    def spec(self) -> QuantSpec:
        return self.params.spec

    def layout(self) -> GroupLayout:
        """The layout of one block, after checking that the parameters fit it."""
        layout = GroupLayout.for_spec(self.shape[-2:], self.spec)
        self.params.check_fits(self.spec, layout, self.shape[:-2])
        return layout

    def codes(self) -> np.ndarray:
        """Unpacked integer codes, shaped like the tensor."""
        return self._codes(self.layout())

    def _codes(self, layout: GroupLayout) -> np.ndarray:
        stream = unpack_codes(self.packed, layout.stream_sizes(self.shape), self.spec.bits)
        return layout.from_group_major(stream.reshape(self.shape[:-2] + (layout.size,)))


def _outlier_mask(x: np.ndarray, layout: GroupLayout, fraction: float) -> np.ndarray:
    """Mask of the per-vector top-|.| entries that dense-and-sparse isolation removes."""
    k = layout.outliers_per_vector(fraction)
    if k in (0, layout.length):  # nothing to rank: skip the magnitude copy
        return np.full(x.shape, k > 0)
    if layout.by_rows:
        return top_k_mask(np.abs(x.reshape(-1, layout.length)), k).reshape(x.shape)
    # Rank each column in a row-contiguous copy; partitioning rows of a transposed view is ~7x slower.
    columns = np.abs(layout.vectors(x), order="C")
    mask = top_k_mask(columns.reshape(-1, layout.length), k).reshape(columns.shape)
    return np.ascontiguousarray(layout.vectors(mask))


def _valid_entries(x: np.ndarray, layout: GroupLayout, spec: QuantSpec, exclude) -> np.ndarray:
    """Entries that enter group statistics: neither isolated outliers nor in an excluded row."""
    valid = ~_outlier_mask(x, layout, spec.sparse_fraction)
    valid[row_mask(exclude, x.shape[0])] = False
    return valid


def _clip_quantiles(vals, keep, count, layout: GroupLayout, clip: float):
    """Linear-interpolated quantiles at ``clip`` and ``1 - clip`` of each group's valid entries in one segment view.

    Each group's entries are sorted along the last axis in group-major order
    (stable, so ties keep it), with invalid entries as NaN to sort last; the
    results have the shape of ``count``, the view's per-group valid count.
    """
    entries = np.where(keep, vals, np.nan)
    if not layout.by_rows:
        entries = entries.swapaxes(-1, -2)  # [..., segs, d, size]
    elif layout.shared:
        entries = np.moveaxis(entries, -3, -2)  # [..., segs, n, size]: one group's rows, one after another
        entries = entries.reshape(entries.shape[:-2] + (-1,))
    entries = np.sort(entries, axis=-1, kind="stable")
    shape, count = count.shape, count.reshape(entries.shape[:-1] + (1,))
    last = np.maximum(count - 1, 0)
    out = []
    for q in (clip, 1.0 - clip):
        pos = q * (count - 1)
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        lo = np.take_along_axis(entries, np.maximum(base, 0), axis=-1)
        hi = np.take_along_axis(entries, np.minimum(base + 1, last), axis=-1)
        out.append((lo * (1.0 - frac) + hi * frac).reshape(shape))
    return out


def _group_minmax(x, layout: GroupLayout, valid: np.ndarray, clip: float | None):
    """Per-group [..., n_groups] (cmin, cmax) over positions marked valid; both 0 for a group without any."""
    if not layout.n_groups:
        return np.zeros(x.shape[:-2] + (0,)), np.zeros(x.shape[:-2] + (0,))
    axes = layout.group_axes
    views = layout.segments((x, valid))
    if not clip:
        cmin, cmax = (
            layout.from_segments(
                [ufunc.reduce(vals, axis=axes, where=keep, initial=start, keepdims=True) for vals, keep in views]
            )
            for ufunc, start in ((np.minimum, np.inf), (np.maximum, -np.inf))
        )
        present = cmin <= cmax  # a group without valid entries keeps the initial inf > -inf
    else:
        counts = [np.add.reduce(keep, axis=axes, dtype=np.int64, keepdims=True) for _, keep in views]
        present = layout.from_segments(counts) > 0  # rounding can put a constant group's clipped cmin above cmax
        if not present.any():  # nothing to sort; a zero-row shared layout has no entries at all
            return np.zeros(present.shape), np.zeros(present.shape)
        quantiles = [_clip_quantiles(vals, keep, count, layout, clip) for (vals, keep), count in zip(views, counts)]
        cmin, cmax = (layout.from_segments(parts) for parts in zip(*quantiles))
    if not present.all():
        absent = ~present
        cmin[absent] = 0.0
        cmax[absent] = 0.0
    return cmin, cmax


def _fit(x: np.ndarray, layout: GroupLayout, spec: QuantSpec, valid: np.ndarray) -> QuantParams:
    """Min-max (scale, zero) per group of ``layout`` over the valid entries of ``x``."""
    cmin, cmax = _group_minmax(x, layout, valid, spec.clip)
    rng = cmax - cmin
    degenerate = rng <= 0.0  # groups without valid entries have cmin = cmax = 0
    scale = np.where(degenerate, 1.0, rng / spec.levels)
    zero = np.where(degenerate, 0, -np.rint(cmin / scale)).astype(np.int64)
    return QuantParams(
        spec=spec,
        shape=layout.shape,
        scale=scale,
        zero=zero,
        degenerate=degenerate,
        constant=cmin,
    )


def compute_params(x, spec: QuantSpec, exclude=None) -> QuantParams:
    """Per-group (scale, zero) for ``x`` under ``spec``.

    Token rows in ``exclude`` contribute to no group statistics, and neither
    do the entries that the spec's dense-and-sparse isolation removes.
    """
    arr = _canonical(x)
    layout = GroupLayout.for_spec(arr.shape, spec)
    return _fit(arr, layout, spec, _valid_entries(arr, layout, spec, exclude))


def quantize_tensor(x, spec: QuantSpec, params: QuantParams | None = None) -> QuantizedTensor:
    """The quantize pipeline: one layout, one outlier pass, then fit or check parameters and encode.

    ``x`` is one row, an [n, d] tensor, or a [blocks, n, d] stack whose
    blocks are quantized each with its own groups and outliers, in one pass
    (the result is the stack's ``QuantizedTensor``). Given ``params`` must
    describe the layout of one block under ``spec`` (else ``LayoutError``)
    and are shared by every block; without them the parameters are fitted
    block by block to the entries left after outlier isolation.
    """
    arr = _canonical(x, stacked=True)
    layout = GroupLayout.for_spec(arr.shape[-2:], spec)
    outliers = _outlier_mask(arr, layout, spec.sparse_fraction)
    if params is None:
        params = _fit(arr, layout, spec, ~outliers)
    else:
        params.check_fits(spec, layout, arr.shape[:-2])
    # Float arithmetic runs in the tensor's own order; only the uint8 codes are reordered for packing.
    codes = np.empty(arr.shape)
    for vals, out, scale, zero in layout.segments((arr, codes), params.scale, params.zero):
        np.divide(vals, scale, out=out)
        np.rint(out, out=out)
        out += zero
    codes = codes.clip(0, spec.levels, out=codes).astype(np.uint8)  # the method skips np.clip's dispatch
    if params.degenerate.any():
        for out, degenerate in layout.segments(codes, params.degenerate):
            np.copyto(out, 0, where=degenerate)
    idx = outliers.ravel().nonzero()[0]
    return QuantizedTensor(
        shape=arr.shape,
        params=params,
        packed=pack_codes(layout.to_group_major(codes), layout.stream_sizes(arr.shape), spec.bits),
        outlier_indices=idx,
        outlier_values=arr.ravel()[idx],
    )


def quantize(x, params: QuantParams, spec: QuantSpec) -> QuantizedTensor:
    """Encode ``x`` with pre-computed parameters: ``quantize_tensor(x, spec, params=params)``."""
    return quantize_tensor(x, spec, params=params)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct ``x' = scale * (code - zero)`` with outliers restored exactly.

    The result has ``qt``'s shape; a ``[blocks, n, d]`` stack decodes all its
    blocks in one pass.
    """
    layout = qt.layout()
    out = qt._codes(layout).astype(np.float64)
    p = qt.params
    degenerate = p.degenerate.any()
    # Zero points cast to float once per group: the subtraction would cast them per element.
    per_group = (p.zero.astype(np.float64), p.scale, p.degenerate, p.constant)
    for view, zero, scale, flags, constant in layout.segments(out, *per_group):
        view -= zero
        view *= scale
        if degenerate:
            np.copyto(view, constant, where=flags)
    out.flat[qt.outlier_indices] = qt.outlier_values
    return out


class CalibrationSet:
    """Tensors sampled for static calibration, with optional per-sample sinks."""

    def __init__(self, samples=(), sinks=None):
        self.samples: list[np.ndarray] = []
        self.sinks: list = []
        samples = list(samples)
        sinks = list(sinks) if sinks is not None else [None] * len(samples)
        if len(sinks) != len(samples):
            raise CalibrationError("one sink set per calibration sample expected")
        for sample, s in zip(samples, sinks):
            self.add(sample, s)

    def add(self, sample, sinks=None):
        arr = _canonical(sample, name="calibration sample")
        if self.samples and arr.shape[1] != self.samples[0].shape[1]:
            raise ShapeError(
                "calibration samples must share trailing dimensions",
                expected=int(self.samples[0].shape[1]),
                actual=int(arr.shape[1]),
            )
        self.samples.append(arr)
        self.sinks.append(sinks)

    def __len__(self):
        return len(self.samples)


def calibrate(cal, spec: QuantSpec, exclude=None) -> QuantParams:
    """Global min-max calibration across samples, frozen for reuse.

    ``exclude`` holds one collection of token rows per sample (``None`` for
    none), dropped from that sample's statistics; ``None`` drops nothing.
    Each sample's own dense-and-sparse outliers are left out as well.
    """
    if spec.mode != "static":
        raise ConfigError("calibration applies to static mode only", mode=spec.mode)
    if not isinstance(cal, CalibrationSet):
        cal = CalibrationSet(cal)
    if len(cal) == 0:
        raise CalibrationError("empty calibration set")
    exclude = [None] * len(cal) if exclude is None else list(exclude)
    if len(exclude) != len(cal):
        raise CalibrationError("one exclusion set per calibration sample expected")
    valid = [
        _valid_entries(sample, GroupLayout.for_spec(sample.shape, spec), spec, rows)
        for sample, rows in zip(cal.samples, exclude)
    ]
    combined = np.vstack(cal.samples)
    return _fit(combined, GroupLayout.for_spec(combined.shape, spec), spec, np.vstack(valid))


# Preset name -> ((key axis, key mode), (value axis, value mode), default sparse fraction).
SCHEME_PRESETS = {
    "pt_kv_static": (("per_token", "static"), ("per_token", "static"), 0.0),
    "pt_kv_dynamic": (("per_token", "dynamic"), ("per_token", "dynamic"), 0.0),
    "pc_key_pt_value_static": (("per_channel", "static"), ("per_token", "static"), 0.0),
    "kvquant_like": (("per_channel", "static"), ("per_token", "dynamic"), 0.01),
}


def scheme_specs(
    scheme: str, bits: int, group_size: int, sparse_fraction: float | None = None
) -> tuple[QuantSpec, QuantSpec]:
    """(key spec, value spec) for a named preset."""
    preset = SCHEME_PRESETS.get(scheme)
    if preset is None:
        raise ConfigError(f"unknown scheme preset {scheme!r}", allowed=sorted(SCHEME_PRESETS))
    *sides, default_sparse = preset
    fs = default_sparse if sparse_fraction is None else sparse_fraction
    return tuple(QuantSpec(bits, axis, mode, group_size, sparse_fraction=fs) for axis, mode in sides)


def quantize_scheme(
    keys,
    values,
    scheme: str,
    sinks=(),
    *,
    bits: int = 4,
    group_size: int = 16,
    sparse_fraction: float | None = None,
    key_params: QuantParams | None = None,
    key_calibration=None,
    value_calibration=None,
) -> tuple[QuantizedTensor, QuantizedTensor]:
    """Quantize a (K, V) pair under a named preset, skipping sink rows.

    Sink-token rows never enter the quantized tensors; the caller keeps them
    at full precision (normally in the cache's sink region). A static key side
    uses ``key_params`` when given; otherwise static sides calibrate on the
    supplied calibration set, or else fit the non-sink rows of the input in
    the one ``quantize_tensor`` call.
    """
    k_arr = _canonical(keys, name="keys")
    v_arr = _canonical(values, name="values")
    if k_arr.shape[0] != v_arr.shape[0]:
        raise ShapeError(
            "keys and values must have the same token count",
            keys=list(k_arr.shape),
            values=list(v_arr.shape),
        )
    key_spec, value_spec = scheme_specs(scheme, bits, group_size, sparse_fraction)
    keep = ~row_mask(sinks, k_arr.shape[0])

    def _side(arr, spec, params, calibration):
        if spec.mode == "static" and params is None and calibration is not None:
            params = calibrate(calibration, spec)
        return quantize_tensor(arr[keep], spec, params=params)

    return (
        _side(k_arr, key_spec, key_params, key_calibration),
        _side(v_arr, value_spec, None, value_calibration),
    )
