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

Dense-and-sparse isolation (``sparse_fraction`` > 0) ranks outliers per
cache block: it removes the top ``round(f * h * d)`` entries by magnitude
from every stripe of ``h = GroupLayout.height`` rows (1 for per-token and
per-tensor layouts, ``group_size`` for per-channel ones; a shorter last
stripe of ``t`` rows gives up ``round(f * t * d)``), stores them at full
precision, and computes parameters on the remainder. So a whole tensor and
the cache's blocks of its rows isolate the same entries. Each stripe is
ranked as one row-major vector by ``tensors.top_k_mask``, which partitions
one ``|x|`` array in place; ties go to the lower index.
A calibration set's sinks are the one way to leave rows out of a fit: they
enter no group statistics and are dropped before the outliers are ranked.

``quantize_tensor`` is the one encode path (``quantize`` is the same call
with parameters required): one ``GroupLayout`` and one outlier selection per
call, then a parameter fit or one ``QuantParams.check_fits`` of given
parameters, then the encode. Dynamic parameters come from its own fit and
static ones from ``calibrate``, which shares that fit step. ``quantize_scheme``
takes parameters for static sides only, as the KV cache does; a static side
given none is fitted to its non-sink rows (bitwise as ``calibrate`` fits
them), so its tensors decode to what the cache reconstructs.

A leading block axis stacks tensors of one shape: ``quantize_tensor`` on a
[blocks, n, d] stack quantizes every block with its own groups and outliers
in one pass, exactly as one call per block would, and ``dequantize`` decodes
the stack in one pass. The layout is the block's; the group-major stream,
the packed codes and fitted parameters ([blocks, n_groups]) follow block
after block, and given parameters are shared by every block.
``join_stacks`` joins stacks of one block shape into the stack that one call
on all their rows gives. The KV cache encodes its blocks this way, joins the
stacks on read and decodes them in one pass.

Parameters carry the one ``QuantSpec`` they were fitted under, which is also
their ``QuantizedTensor``'s spec; ``check_fits`` refuses (``LayoutError``)
parameters from any other spec, be it another bit width, clip, sparse
fraction or grouping.

All float arithmetic (the outlier ranking, the fit's min-max or ``clip``
quantiles, the encode and the decode) runs in the tensor's own memory order,
on the segment views of ``GroupLayout.segments`` with per-group parameters
broadcast over them; the quantile fit sorts each group's entries within its
view. It runs in chunks of about ``tensors.CHUNK_ELEMENTS`` entries
(``GroupLayout.chunks``: whole stripes of ``height`` rows, or whole blocks of
a stack), cut from the call's one set of views by ``GroupLayout.chunk_views``
and spread over ``tensors.map_tiles``' threads, ``CHUNKS_PER_WORKER`` chunks
or more per thread. No group, outlier stripe or block fit spans two chunks,
so the bits depend on neither the chunks nor the thread count. A chunk's
temporaries are chunk-sized; the codes, the outlier mask, the decoded floats
and fitted parameters are written into arrays the calling thread allocated.
Fits whose groups span every row of a tensor (per-token static, per-tensor,
per-channel static, and ``calibrate``) stay one reduction over the whole
tensor; their encode and decode still run in chunks. Only the uint8 codes
are reordered to and from the group-major packed stream; for channel layouts
that is a transposing copy, made ``TRANSPOSE_ROWS`` rows at a time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    CalibrationError,
    ConfigError,
    LayoutError,
    NumericError,
    ShapeError,
)
from .packing import pack_codes, packed_nbytes, unpack_codes
from .tensors import CHUNK_ELEMENTS, as_tensor, integer_at_least, map_tiles, pool_size, row_mask, top_k_mask

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


def _canonical(x, name="input", stacked: bool = False, finite: bool = True) -> np.ndarray:
    """Validate and reshape to 2-D [tokens, channels]; 1-D is one token row.

    With ``stacked`` a 3-D [blocks, tokens, channels] stack is kept as it is.
    Without ``finite`` the entries are left for the caller to check.
    """
    arr = as_tensor(x, name=name) if finite else np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 and not (stacked and arr.ndim == 3):
        raise ShapeError(f"{name} must be 1-D or 2-D{', or 3-D' if stacked else ''}, got shape {arr.shape}")
    return arr


# Rows of the source per step of a transposing copy (the uint8 codes of channel layouts). Copying a
# transposed view in one numpy call took 119 ms at 4096x4096 and 6.3 ms at 4093x512 on a 2-vCPU host;
# 64 rows at a time, whose reads stay in cache, took 28 ms and 1.5 ms.
TRANSPOSE_ROWS = 64


def _transposed(a: np.ndarray) -> np.ndarray:
    """C-ordered copy of ``a.swapaxes(-1, -2)``, made ``TRANSPOSE_ROWS`` rows of ``a`` at a time."""
    out = np.empty((*a.shape[:-2], a.shape[-1], a.shape[-2]), dtype=a.dtype)
    for start in range(0, a.shape[-2], TRANSPOSE_ROWS):
        out[..., start : start + TRANSPOSE_ROWS] = a[..., start : start + TRANSPOSE_ROWS, :].swapaxes(-1, -2)
    return out


# Chunks (``GroupLayout.chunks``) per thread of ``tensors.map_tiles``: a call takes a second thread from 16
# chunks on. On a 2-vCPU host (two threads against one, medians, interleaved), a kvquant_like value stack
# of 2, 8, 16 and 32 chunks took 1.17x, 0.79x, 0.87x and 0.68x as long to quantize and 1.54x, 1.22x,
# 1.13x and 0.78x to dequantize; the key stacks 1.35x, 1.06x, 0.95x and 0.94x and 1.63x, 1.36x, 1.07x and
# 1.02x. Starting the pool and passing the GIL cost more than a few chunks' work.
CHUNKS_PER_WORKER = 8


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
        self.height = 1 if self.by_rows else self.group_size  # rows of a cache block: the outlier stripe
        self.shared = axis == "per_tensor" or (axis == "per_token" and mode == "static")
        self.whole = whole = axis == "per_tensor" or (axis == "per_channel" and mode == "static")
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
        """Smallest token block quantized on its own: ``height`` rows (1, or ``group_size`` for columns)."""
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

    def outliers(self, fraction: float, rows: int | None = None) -> int:
        """Entries that dense-and-sparse isolation takes from a stripe of ``rows`` rows (a block's ``height``)."""
        entries = (self.height if rows is None else rows) * self.shape[1]
        return min(round(fraction * entries), entries)  # round half to even, as np.rint

    def to_group_major(self, x: np.ndarray) -> np.ndarray:
        """The elements of an [..., n, d] array as the [..., stream] group-major stream."""
        lead = x.shape[:-2]
        if not self.shared:
            return (x if self.by_rows else _transposed(x)).reshape(lead + (self.size,))
        cut = self.full * self.segment
        head = x[..., :cut].reshape(lead + (self.n_vectors, self.full, self.segment)).swapaxes(-3, -2)
        head = head.reshape(lead + (self.n_vectors * cut,))
        if not self.tail:
            return head
        return np.concatenate((head, x[..., cut:].reshape(lead + (self.n_vectors * self.tail,))), axis=-1)

    def from_group_major(self, stream: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_group_major`: C-ordered [..., n, d] from [..., stream]."""
        lead = stream.shape[:-1]
        if not self.shared:
            vec = stream.reshape(*lead, self.n_vectors, self.length)
            return np.ascontiguousarray(vec) if self.by_rows else _transposed(vec)
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

    def chunks(self, blocks: tuple = ()) -> list[slice]:
        """Slices of the leading axis that quantize and dequantize run one by one, about ``CHUNK_ELEMENTS`` each.

        An [n, d] tensor is cut into row ranges of whole stripes of ``height``
        rows (the last one may be short), a [blocks, n, d] stack (``blocks``
        its leading shape) into ranges of whole blocks. So no group, outlier
        stripe or block fit spans two chunks. A tensor or stack that fits in
        one chunk is the one chunk ``slice(None)``.
        """
        n, d = self.shape
        if self.size * math.prod(blocks) <= CHUNK_ELEMENTS:
            return [slice(None)]
        if blocks:
            step = max(1, CHUNK_ELEMENTS // self.size)
            return [slice(b, b + step) for b in range(0, blocks[0], step)]
        step = self.height * max(1, CHUNK_ELEMENTS // (self.height * d))
        return [slice(r, r + step) for r in range(0, n, step)]

    def chunk_views(self, views: list[tuple], chunk: slice) -> list[tuple]:
        """The parts of :meth:`segments`' ``views`` that hold the rows or blocks of ``chunk`` (one of :meth:`chunks`).

        A stack's views, and its per-block values, are cut along their block
        axis. A tensor's are cut along their row axis (rows, or segments of
        ``size`` rows for channel layouts; the rows of the one segment of a
        whole column), except arrays whose axis has length 1 and so
        broadcasts; views that hold none of the rows are left out.
        """
        if chunk == slice(None):
            return views
        if views and views[0][0].ndim == 4:  # [blocks, ...] views of a stack; shared values are 3-D
            return [tuple(a[chunk] if a.ndim == 4 else a for a in view) for view in views]
        start, stop, _ = chunk.indices(self.shape[0])
        out = []
        for (_, span, _, size), arrays in zip(self._parts, views):
            # Sliced axis, tensor rows per index of it, and the part's first tensor row.
            axis, unit, first = (-3, 1, 0) if self.by_rows else (-2, 1, 0) if self.whole else (-3, size, span.start)
            count = arrays[0].shape[axis]
            lo, hi = max(start - first, 0) // unit, min(-(-(stop - first) // unit), count)
            if hi <= lo:
                continue
            cut = (Ellipsis, slice(lo, hi)) + (slice(None),) * (-1 - axis)
            out.append(tuple(a if a.shape[axis] == 1 or (lo, hi) == (0, count) else a[cut] for a in arrays))
        return out

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


def join_stacks(stacks: list[QuantizedTensor]) -> QuantizedTensor:
    """One [blocks, n, d] stack of ``stacks`` in order: what one ``quantize_tensor`` call on their rows gives.

    Packed codes (whole bytes per group) and outliers join end to end, indices shifted past the blocks
    before them; per-block parameters join on the block axis, shared ones are the first stack's.
    The stacks share one block shape and spec, as a cache side's do.
    """
    first = stacks[0]
    blocks = [s.shape[0] for s in stacks]
    starts = np.cumsum([0] + blocks[:-1]) * (first.shape[1] * first.shape[2])
    p = first.params
    if p.scale.ndim > 1:
        fields = ("scale", "zero", "degenerate", "constant")
        p = QuantParams(p.spec, p.shape, *(np.concatenate([getattr(s.params, f) for s in stacks]) for f in fields))
    return QuantizedTensor(
        (sum(blocks), *first.shape[1:]),
        p,
        b"".join(s.packed for s in stacks),
        np.concatenate([s.outlier_indices + start for s, start in zip(stacks, starts)]),
        np.concatenate([s.outlier_values for s in stacks]),
    )


def _outlier_mask(x: np.ndarray, layout: GroupLayout, fraction: float) -> np.ndarray:
    """Mask of the entries that dense-and-sparse isolation removes from an [..., n, d] array.

    Each stripe of ``layout.height`` rows, and a shorter last one, is one
    row of a reshape, ranked for its ``layout.outliers`` count.
    """
    *lead, n, d = x.shape
    tail = n % layout.height
    stripes = [(x[..., : n - tail, :], layout.height)] + ([(x[..., n - tail :, :], tail)] if tail else [])
    masks = [
        top_k_mask(s.reshape(*lead, s.shape[-2] // rows, rows * d), layout.outliers(fraction, rows)).reshape(s.shape)
        for s, rows in stripes
    ]
    return masks[0] if len(masks) == 1 else np.concatenate(masks, axis=-2)


def _valid_entries(x: np.ndarray, layout: GroupLayout, spec: QuantSpec, sinks) -> np.ndarray:
    """Entries that enter group statistics: the rows outside ``sinks``, less the outliers ranked among them."""
    keep = ~row_mask(sinks, x.shape[0])
    if keep.all():  # no copy of ``x`` to rank
        return ~_outlier_mask(x, layout, spec.sparse_fraction)
    valid = np.zeros(x.shape, dtype=bool)
    valid[keep] = ~_outlier_mask(x[keep], layout, spec.sparse_fraction)
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


def _minmax(vals, keep, layout: GroupLayout, clip: float | None):
    """(cmin, cmax) of each group of one segment view, or a chunk of one, over the entries marked in ``keep``.

    Both come shaped as the view's per-group values, and both are 0 for a group without such entries.
    """
    axes = layout.group_axes
    if not clip:
        cmin = np.minimum.reduce(vals, axis=axes, where=keep, initial=np.inf, keepdims=True)
        cmax = np.maximum.reduce(vals, axis=axes, where=keep, initial=-np.inf, keepdims=True)
        present = cmin <= cmax  # a group without valid entries keeps the initial inf > -inf
    else:
        count = np.add.reduce(keep, axis=axes, dtype=np.int64, keepdims=True)
        present = count > 0  # rounding can put a constant group's clipped cmin above cmax
        if not present.any():  # nothing to sort; a zero-row shared layout has no entries at all
            return np.zeros(count.shape), np.zeros(count.shape)
        cmin, cmax = _clip_quantiles(vals, keep, count, layout, clip)
    if not present.all():
        absent = ~present
        cmin[absent] = 0.0
        cmax[absent] = 0.0
    return cmin, cmax


def _scale_zero(cmin: np.ndarray, cmax: np.ndarray, spec: QuantSpec) -> tuple[np.ndarray, ...]:
    """Min-max (scale, zero, degenerate, constant) of groups with extrema ``cmin`` and ``cmax``, element by element."""
    rng = cmax - cmin
    degenerate = rng <= 0.0  # groups without valid entries have cmin = cmax = 0
    scale = np.where(degenerate, 1.0, rng / spec.levels)
    zero = np.where(degenerate, 0, -np.rint(cmin / scale)).astype(np.int64)
    return scale, zero, degenerate, cmin


def _fit(x: np.ndarray, layout: GroupLayout, spec: QuantSpec, valid: np.ndarray) -> QuantParams:
    """Min-max (scale, zero) per group of ``layout`` over the valid entries of ``x``, in one reduction."""
    if not layout.n_groups:
        cmin = cmax = np.zeros(x.shape[:-2] + (0,))
    else:
        parts = [_minmax(vals, keep, layout, spec.clip) for vals, keep in layout.segments((x, valid))]
        cmin, cmax = (layout.from_segments(list(side)) for side in zip(*parts))
    return QuantParams(spec, layout.shape, *_scale_zero(cmin, cmax, spec))


def quantize_tensor(x, spec: QuantSpec, params: QuantParams | None = None) -> QuantizedTensor:
    """The quantize pipeline: one layout, one outlier pass, then fit or check parameters and encode.

    ``x`` is one row, an [n, d] tensor, or a [blocks, n, d] stack whose
    blocks are quantized each with its own groups and outliers, in one pass
    (the result is the stack's ``QuantizedTensor``). Given ``params`` must
    describe the layout of one block under ``spec`` (else ``LayoutError``)
    and are shared by every block; without them the parameters are fitted
    block by block to the entries left after outlier isolation.

    Every float stage runs chunk by chunk (``GroupLayout.chunks``) through
    ``tensors.map_tiles``. A chunk ranks its outliers, fits its own groups
    when no group spans it, and encodes into the uint8 codes; parameters of
    groups that span every row of a tensor are fitted in one reduction
    between a ranking pass and an encoding pass.
    """
    arr = _canonical(x, stacked=True)
    layout = GroupLayout.for_spec(arr.shape[-2:], spec)
    blocks = arr.shape[:-2]
    chunks = layout.chunks(blocks)
    workers = pool_size(len(chunks) // CHUNKS_PER_WORKER)
    outliers = np.empty(arr.shape, dtype=bool)
    codes = np.empty(arr.shape, dtype=np.uint8)

    def rank(chunk):
        outliers[chunk] = _outlier_mask(arr[chunk], layout, spec.sparse_fraction)

    # Shared or whole groups span every row of a tensor: one fit, after every chunk's outliers are ranked.
    ranked = params is None and not blocks and (layout.shared or layout.whole)
    if ranked:
        map_tiles(rank, chunks, workers)
        params = _fit(arr, layout, spec, ~outliers)
    fitted = params is None
    if fitted:  # scale, zero, degenerate and constant, filled chunk by chunk
        dtypes = (np.float64, np.int64, bool, np.float64)
        per_group = [np.empty(blocks + (layout.n_groups,), dtype=dtype) for dtype in dtypes]
    else:
        params.check_fits(spec, layout, blocks)
        per_group = [params.scale, params.zero, params.degenerate]
    views = layout.segments((arr, outliers, codes), *per_group)

    def encode(chunk):
        if not ranked:
            rank(chunk)
        for vals, mask, out, *group in layout.chunk_views(views, chunk):
            if fitted:
                for dst, src in zip(group, _scale_zero(*_minmax(vals, ~mask, layout, spec.clip), spec)):
                    dst[...] = src
            scale, zero, degenerate = group[:3]
            step = np.divide(vals, scale)
            np.rint(step, out=step)
            step += zero.astype(np.float64)  # cast once per group, not per element inside the addition
            out[...] = step.clip(0, spec.levels, out=step)  # the method skips np.clip's dispatch
            if degenerate.any():
                np.copyto(out, 0, where=degenerate)

    map_tiles(encode, chunks, workers)
    if fitted:
        if not layout.by_rows and layout.n_groups:  # channel views of ``per_group`` are copies: gather them
            per_group = [layout.from_segments([view[3 + i] for view in views]) for i in range(4)]
        params = QuantParams(spec, layout.shape, *per_group)
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
    blocks in one pass. The codes are unpacked whole, then decoded chunk by
    chunk (``GroupLayout.chunks``) through ``tensors.map_tiles``.
    """
    layout = qt.layout()
    codes = qt._codes(layout)
    out = np.empty(qt.shape)
    p = qt.params
    degenerate = p.degenerate.any()
    # Zero points cast to float once per group: the subtraction would cast them per element.
    views = layout.segments((codes, out), p.zero.astype(np.float64), p.scale, p.degenerate, p.constant)

    def decode(chunk):
        for code, view, zero, scale, flags, constant in layout.chunk_views(views, chunk):
            view[...] = code  # a cast inside the subtraction would be buffered
            view -= zero
            view *= scale
            if degenerate:
                np.copyto(view, constant, where=flags)

    chunks = layout.chunks(qt.shape[:-2])
    map_tiles(decode, chunks, pool_size(len(chunks) // CHUNKS_PER_WORKER))
    out.flat[qt.outlier_indices] = qt.outlier_values
    return out


class CalibrationSet:
    """Tensors sampled for static calibration, with optional per-sample sinks."""

    def __init__(self, samples=(), sinks=None):
        samples = list(samples)
        self.sinks: list = list(sinks) if sinks is not None else [None] * len(samples)
        if len(self.sinks) != len(samples):
            raise CalibrationError("one sink set per calibration sample expected")
        self.samples: list[np.ndarray] = []
        for sample in samples:
            arr = _canonical(sample, name="calibration sample")
            if self.samples and arr.shape[1] != self.samples[0].shape[1]:
                raise ShapeError(
                    "calibration samples must share trailing dimensions",
                    expected=int(self.samples[0].shape[1]),
                    actual=int(arr.shape[1]),
                )
            self.samples.append(arr)

    def __len__(self):
        return len(self.samples)


def calibrate(cal, spec: QuantSpec) -> QuantParams:
    """Global min-max calibration across samples, frozen for reuse: the one static fit.

    Each sample's ``CalibrationSet.sinks`` (a plain list has none) are left
    out, and so are its dense-and-sparse outliers, ranked on the rows left.
    """
    if spec.mode != "static":
        raise ConfigError("calibration applies to static mode only", mode=spec.mode)
    if not isinstance(cal, CalibrationSet):
        cal = CalibrationSet(cal)
    if len(cal) == 0:
        raise CalibrationError("empty calibration set")
    valid = [
        _valid_entries(sample, GroupLayout.for_spec(sample.shape, spec), spec, rows)
        for sample, rows in zip(cal.samples, cal.sinks)
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


def check_side_params(spec: QuantSpec, params: QuantParams | None) -> None:
    """The one rule for a side's ``key_params``/``value_params``: a dynamic side takes none (``ConfigError``)."""
    if params is not None and spec.mode != "static":
        raise ConfigError("a dynamic side takes no parameters", axis=spec.axis)


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
    value_params: QuantParams | None = None,
) -> tuple[QuantizedTensor, QuantizedTensor]:
    """Quantize a (K, V) pair under a named preset, skipping sink rows.

    Sink-token rows never enter the quantized tensors; the caller keeps them
    at full precision (normally in the cache's sink region). Only a static
    side takes parameters, as in ``KVCache.set_static_params``; one given
    none is fitted to its non-sink rows, as ``KVCache.bulk_load`` fits it. So the
    result decodes to what a bulk-loaded cache reconstructs, except that rows
    short of a cache block are quantized here and stay full precision there.
    """
    k_arr = _canonical(keys, name="keys", finite=False)
    v_arr = _canonical(values, name="values", finite=False)
    if k_arr.shape[0] != v_arr.shape[0]:
        raise ShapeError(
            "keys and values must have the same token count",
            keys=list(k_arr.shape),
            values=list(v_arr.shape),
        )
    key_spec, value_spec = scheme_specs(scheme, bits, group_size, sparse_fraction)
    check_side_params(key_spec, key_params)
    check_side_params(value_spec, value_params)
    keep = ~row_mask(sinks, k_arr.shape[0])
    out = []
    # Each row is checked once: the sink rows here, the kept rows by ``quantize_tensor``.
    for name, arr, spec, params in (("keys", k_arr, key_spec, key_params), ("values", v_arr, value_spec, value_params)):
        as_tensor(arr[~keep], name=name)
        try:
            out.append(quantize_tensor(arr[keep], spec, params=params))
        except NumericError:  # its one NumericError: a non-finite entry, reported under the side's name
            raise NumericError(f"{name} contains non-finite values") from None
    return out[0], out[1]
