"""Mixed-precision per-layer KV cache.

Non-sink tokens are stored quantized under a named scheme preset; sink tokens
live verbatim in a position-indexed full-precision side table, which keeps
quantization groups sink-free by construction. Each layer side holds its
non-sink rows in token order; the sink set alone fixes the positions they
fill. They are a block store of whole ``GroupLayout.block`` blocks (one row,
or ``group_size`` rows for per-channel sides, which stay pending until a
block completes), then full-precision ``pending`` rows. Rows enter only
through ``_Side.extend`` (one row from ``append``, all non-sink rows from
``bulk_load``), which queues them. The next read encodes every complete
block queued since the last one with one ``quantize_tensor`` call on their
stack and joins it onto the stored stack (``join_stacks``); each block is
encoded on its own, so a bulk-loaded layer stores and reconstructs exactly
what the corresponding appends do, whenever the reads come. ``reconstruct``
makes at most one ``quantize_tensor`` and one ``dequantize`` call per side.
Queued rows are held as float64 until that read and are not charged below.

Byte accounting (``footprint_bytes``, behind every footprint report):

* quantized codes: exact packed length (each group padded to a byte),
* sink rows and not-yet-quantized pending rows: 16 bits per element,
* parameters: 8 bytes per group (float32 scale + int32 zero); static
  parameters are shared and counted once per layer side that holds a row,
* sparse outliers: 6 bytes each (uint32 flat index + 16-bit value),
  ``GroupLayout.outliers`` of them per stored block.

A side's counts follow from its row count alone (``divmod`` by the block
height into ``_side_counts``), so ``predict_footprint`` is exact for every
cache, and no count waits for a read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dumpio
from .errors import ConfigError, FormatError, ShapeError, StateError
from .quant import (
    GroupLayout,
    QuantizedTensor,
    QuantParams,
    QuantSpec,
    calibrate,
    check_side_params,
    dequantize,
    join_stacks,
    quantize_tensor,
    scheme_specs,
)
from .tensors import as_tensor, integer_at_least, row_mask, token_indices

PARAM_BYTES_PER_GROUP = 8
SINK_BYTES_PER_ELEMENT = 2
SPARSE_BYTES_PER_OUTLIER = 6


def footprint_bytes(packed: int, full_precision: int, groups: int, outliers: int) -> dict:
    """Bytes of packed codes, full-precision elements, parameter groups and outliers."""
    return {
        "quantized_bytes": int(packed),
        "sink_bytes": int(full_precision * SINK_BYTES_PER_ELEMENT),
        "params_bytes": int(groups * PARAM_BYTES_PER_GROUP),
        "sparse_bytes": int(outliers * SPARSE_BYTES_PER_OUTLIER),
    }


def _side_counts(
    spec: QuantSpec, block: GroupLayout, blocks: int, pending: int, static_params: bool
) -> tuple[int, int, int, int]:
    """(packed bytes, parameter groups, outliers, full-precision rows) of a side holding
    ``blocks`` blocks and ``pending`` rows; a static side counts its one parameter set if ``static_params``."""
    groups = block.n_groups * (blocks if spec.mode == "dynamic" else int(static_params))
    outliers = blocks * block.outliers(spec.sparse_fraction)
    return blocks * block.packed_nbytes(spec.bits), groups, outliers, pending


class _Side:
    """One layer side's non-sink rows in token order: the block store, then ``pending``.

    ``extend`` only queues the rows it is handed and counts them. The first
    read after that (``stored``) encodes every complete block queued since
    the last read with one ``quantize_tensor`` call on their
    [blocks, height, width] stack and joins it onto the stack the last read
    left (``join_stacks``); the rows short of a block stay ``pending``. The
    counts (``blocks``, ``quantized_rows``, ``pending_rows``, ``footprint``)
    follow from the row count alone, so a block counts as quantized from the
    moment its last row is queued, and no count triggers an encode.
    """

    def __init__(self, spec: QuantSpec, width: int):
        self.spec = spec
        self.params: QuantParams | None = None
        self.block = GroupLayout.block(spec, width)
        self.height = self.block.shape[0]
        self.rows = 0
        self.queue: list[np.ndarray] = []
        self.store: QuantizedTensor | None = None
        self.pending = np.zeros((0, width))

    def extend(self, rows: np.ndarray) -> None:
        """Queue ``rows`` ([r, width], handed over, not copied) for the next read."""
        self.queue.append(rows)
        self.rows += len(rows)

    def stored(self) -> QuantizedTensor | None:
        """The block store as one [blocks, height, width] stack (``None`` while it holds no block)."""
        if self.queue:
            parts = [self.pending, *self.queue] if len(self.pending) else self.queue
            rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
            self.queue = []
            full = len(rows) - len(rows) % self.height
            if full:
                stack = quantize_tensor(rows[:full].reshape(-1, *self.block.shape), self.spec, params=self.params)
                self.store = stack if self.store is None else join_stacks([self.store, stack])
            self.pending = rows[full:].copy() if full else rows  # a view would keep the quantized rows alive
        return self.store

    @property
    def blocks(self) -> int:
        return self.rows // self.height

    def quantized_rows(self) -> int:
        return self.blocks * self.height

    def pending_rows(self) -> int:
        return self.rows % self.height

    def footprint(self) -> tuple[int, int, int, int]:
        """(packed bytes, parameter groups, outliers, full-precision rows), static parameters once a row is held."""
        return _side_counts(self.spec, self.block, *divmod(self.rows, self.height), self.rows > 0)

    def pieces(self) -> list[np.ndarray]:
        """Every row in token order as [rows, width] pieces: the store (one ``dequantize``), then ``pending``."""
        stored = self.stored()
        decoded = [] if stored is None else [dequantize(stored).reshape(-1, self.pending.shape[1])]
        return decoded + [self.pending]


class KVCache:
    """Per-layer quantized K/V storage with a full-precision sink region."""

    def __init__(
        self,
        num_layers: int,
        width: int,
        scheme: str = "pt_kv_dynamic",
        bits: int = 4,
        group_size: int = 16,
        sparse_fraction: float | None = None,
    ):
        self.num_layers = integer_at_least(num_layers, 1, "num_layers")
        self.width = integer_at_least(width, 1, "width")
        self.scheme = scheme
        key_spec, value_spec = scheme_specs(scheme, bits, group_size, sparse_fraction)
        self.key_spec = key_spec
        self.value_spec = value_spec
        self._keys = [_Side(key_spec, self.width) for _ in range(self.num_layers)]
        self._values = [_Side(value_spec, self.width) for _ in range(self.num_layers)]
        self._sinks: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [dict() for _ in range(self.num_layers)]
        self._loaded = [False] * self.num_layers

    def _check_layer(self, layer: int) -> int:
        """``layer`` as an ``int`` under :func:`token_indices`' rule (``BoundsError`` unless in ``[0, num_layers)``)."""
        if type(layer) is int and 0 <= layer < self.num_layers:  # the per-append case, without an array
            return layer
        return int(token_indices([layer], self.num_layers)[0])

    def layer_tokens(self, layer: int) -> int:
        """Tokens held: the key side's non-sink rows plus the sinks."""
        layer = self._check_layer(layer)
        return self._keys[layer].rows + len(self._sinks[layer])

    def sink_indices(self, layer: int) -> tuple[int, ...]:
        return tuple(sorted(self._sinks[self._check_layer(layer)]))

    def pending_tokens(self, layer: int) -> int:
        layer = self._check_layer(layer)
        return max(self._keys[layer].pending_rows(), self._values[layer].pending_rows())

    def region_counts(self, layer: int) -> dict:
        """Token counts per storage region of the key side (partition of n)."""
        layer = self._check_layer(layer)
        side = self._keys[layer]
        return {
            "quantized": side.quantized_rows(),
            "pending": side.pending_rows(),
            "sink": len(self._sinks[layer]),
        }

    def set_static_params(
        self, layer: int, key_params: QuantParams | None = None, value_params: QuantParams | None = None
    ) -> None:
        """Install parameters for a layer's static sides.

        ``ConfigError`` for a dynamic side, which fits every block itself;
        ``StateError`` once a side holds a complete block, encoded yet or
        not, which the store encodes and decodes with the side's one
        parameter set; ``LayoutError`` unless they fit the side's spec and
        block.
        """
        layer = self._check_layer(layer)
        pairs = ((self._keys[layer], key_params), (self._values[layer], value_params))
        given = [(side, params) for side, params in pairs if params is not None]
        for side, params in given:
            check_side_params(side.spec, params)
            if side.quantized_rows():
                raise StateError(
                    "parameters are fixed once a side holds quantized rows",
                    layer=layer, axis=side.spec.axis, rows=side.quantized_rows(),
                )
            params.check_fits(side.spec, side.block)
        for side, params in given:
            side.params = params

    def _coerce_row(self, row, name: str) -> np.ndarray:
        arr = as_tensor(row, name=name).ravel()
        if arr.size != self.width:
            raise ShapeError(f"{name} must have width {self.width}", actual=int(arr.size))
        return arr.copy()

    def append(self, layer: int, k_row, v_row, is_sink: bool = False) -> int:
        """Append a token's K/V rows to a layer; returns the token index."""
        layer = self._check_layer(layer)
        k = self._coerce_row(k_row, "key row")
        v = self._coerce_row(v_row, "value row")
        token = self.layer_tokens(layer)
        sides = (self._keys[layer], self._values[layer])
        if is_sink:
            self._sinks[layer][token] = (k, v)
        elif any(side.spec.mode == "static" and side.params is None for side in sides):
            raise ConfigError("static scheme has no calibrated parameters for this layer")
        else:
            sides[0].extend(k[None])
            sides[1].extend(v[None])
        self._loaded[layer] = True
        return token

    def bulk_load(self, cache_layer: int, keys, values, sinks=()) -> None:
        """Load a whole prefill's K/V for one empty layer.

        Equivalent to appending the rows in token order with ``is_sink`` set
        from ``sinks``; a static side with no parameters installed is first
        fitted to its non-sink rows by ``calibrate``, if there are any (else
        a later ``append`` of a non-sink row is a ``ConfigError``). That is
        the fit ``quantize_scheme`` makes, so the stored blocks decode to its
        tensors' rows.
        """
        layer = self._check_layer(cache_layer)
        if self._loaded[layer]:
            raise StateError("bulk_load requires an empty layer", layer=layer, tokens=self.layer_tokens(layer))
        k_arr = as_tensor(keys, ndim=2, name="keys")
        v_arr = as_tensor(values, ndim=2, name="values")
        if k_arr.shape != v_arr.shape:
            raise ShapeError("keys and values must match", keys=list(k_arr.shape), values=list(v_arr.shape))
        if k_arr.shape[1] != self.width:
            raise ShapeError(f"expected width {self.width}", actual=int(k_arr.shape[1]))
        sink_mask = row_mask(sinks, k_arr.shape[0])
        for side, data in ((self._keys[layer], k_arr), (self._values[layer], v_arr)):
            rows = data[~sink_mask]
            if side.spec.mode == "static" and side.params is None and len(rows):
                side.params = calibrate([rows], side.spec)
            side.extend(rows)
        for t in np.flatnonzero(sink_mask).tolist():
            self._sinks[layer][t] = (k_arr[t].copy(), v_arr[t].copy())
        self._loaded[layer] = True

    def reconstruct(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Dequantized K/V for a layer with sink rows spliced back in order.

        A layer that was populated with zero tokens reconstructs to empty
        tensors; a layer that was never populated is a state error.
        """
        layer = self._check_layer(layer)
        if not self._loaded[layer]:
            raise StateError("layer was never populated", layer=layer)
        n = self.layer_tokens(layer)
        nonsink = np.ones(n, dtype=bool)
        nonsink[list(self._sinks[layer])] = False
        positions = np.flatnonzero(nonsink)
        k_out = np.empty((n, self.width))
        v_out = np.empty((n, self.width))
        for side, out in ((self._keys[layer], k_out), (self._values[layer], v_out)):
            start = 0
            for rows in side.pieces():  # each piece straight to its positions, with no joined copy
                out[positions[start : start + len(rows)]] = rows
                start += len(rows)
        for token, (k, v) in self._sinks[layer].items():
            k_out[token] = k
            v_out[token] = v
        return k_out, v_out

    def memory_footprint(self) -> dict:
        """Exact byte accounting of the current contents."""
        totals = np.zeros(4, dtype=np.int64)
        for layer in range(self.num_layers):
            totals[3] += 2 * len(self._sinks[layer])
            for side in (self._keys[layer], self._values[layer]):
                totals += side.footprint()
        packed, groups, outliers, fp_rows = totals.tolist()
        return footprint_bytes(packed, fp_rows * self.width, groups, outliers)


def predict_footprint(
    num_layers: int,
    tokens: int,
    width: int,
    scheme: str = "pt_kv_dynamic",
    bits: int = 4,
    group_size: int = 16,
    sink_tokens: int = 0,
    sparse_fraction: float | None = None,
) -> dict:
    """Closed-form footprint of a fully loaded cache (no tensors needed).

    Each side holds whole ``GroupLayout.block`` blocks plus a full-precision
    remainder, counted by the same ``_side_counts`` as ``memory_footprint``:
    packed codes, parameters and ``GroupLayout.outliers`` outliers per
    block, the dense-and-sparse count of one block.
    ``num_layers`` and ``width`` are integers of at least 1, ``tokens`` and
    ``sink_tokens`` of at least 0 (``ConfigError`` otherwise).

    ``sink_tokens`` is charged to every one of the ``num_layers`` layers. A
    ``prefill_with_kvsink`` cache in kvsink mode holds no sinks at or below
    the emergence layer, which is quantized before detection runs, so its
    exact prediction is the per-layer sum: ``predict_footprint(1, ...)`` with
    each layer's own sink count.
    """
    num_layers = integer_at_least(num_layers, 1, "num_layers")
    tokens = integer_at_least(tokens, 0, "tokens")
    width = integer_at_least(width, 1, "width")
    sink_tokens = integer_at_least(sink_tokens, 0, "sink_tokens")
    if sink_tokens > tokens:
        raise ConfigError("more sink tokens than tokens", sink_tokens=sink_tokens, tokens=tokens)
    totals = np.array([0, 0, 0, 2 * sink_tokens], dtype=np.int64)
    for spec in scheme_specs(scheme, bits, group_size, sparse_fraction):
        block = GroupLayout.block(spec, width)
        totals += _side_counts(spec, block, *divmod(tokens - sink_tokens, block.shape[0]), tokens > sink_tokens)
    packed, groups, outliers, fp_rows = totals.tolist()
    total = footprint_bytes(packed, fp_rows * width, groups, outliers)
    return {key: num_layers * value for key, value in total.items()}


def footprint_megabytes(footprint: dict) -> dict:
    """Footprint fields in MiB-based megabytes (the unit of the byte tables)."""
    return {k.replace("_bytes", "_mb"): v / (1024.0 * 1024.0) for k, v in footprint.items()}


@dataclass(frozen=True)
class SnapshotLayer:
    """One layer's entry in a snapshot sidecar; a layer without tokens names no dump files."""

    layer: int
    tokens: int
    sinks: tuple[int, ...]
    keys_file: str | None = None
    values_file: str | None = None


@dataclass(frozen=True)
class Snapshot:
    """A snapshot sidecar's top-level fields; ``layers`` holds one ``SnapshotLayer`` object per layer."""

    scheme: str
    bits: int
    group_size: int
    sparse_fraction: float
    width: int
    num_layers: int
    layers: list


def save_snapshot(cache: KVCache, directory: str) -> None:
    """Write reconstructed per-layer K/V dumps plus a JSON sidecar."""
    layers = []
    for layer in range(cache.num_layers):
        tokens = cache.layer_tokens(layer)
        names = (f"layer{layer:03d}_keys.kvsd", f"layer{layer:03d}_values.kvsd") if tokens else (None, None)
        if tokens:
            for name, arr in zip(names, cache.reconstruct(layer)):
                dumpio.write_dump(os.path.join(directory, name), arr)
        entry = SnapshotLayer(layer, tokens, cache.sink_indices(layer), *names)
        layers.append({k: v for k, v in dumpio.record_to_json(entry).items() if v is not None})
    spec = cache.key_spec
    sidecar = Snapshot(
        cache.scheme, spec.bits, spec.group_size, spec.sparse_fraction, cache.width, cache.num_layers, layers
    )
    dumpio.write_json(os.path.join(directory, "snapshot.json"), dumpio.record_to_json(sidecar))


def load_snapshot(directory: str) -> dict:
    """Read a snapshot back; layer entries gain 'keys'/'values' arrays.

    A ``Snapshot`` of ``num_layers`` ``SnapshotLayer`` entries in layer order,
    sinks in ``[0, tokens)`` and dumps of ``(tokens, width)``, or ``FormatError``.
    """
    path = os.path.join(directory, "snapshot.json")
    meta = dumpio.read_json(path)
    top = dumpio.record_from_json(Snapshot, meta, partial(FormatError, path=path))
    if len(top.layers) != top.num_layers:
        raise FormatError("layer entries differ from num_layers", path=path, entries=len(top.layers))
    for i, entry in enumerate(top.layers):
        layer = dumpio.record_from_json(SnapshotLayer, entry, partial(FormatError, path=path, entry=i))
        names = [name for name in (layer.keys_file, layer.values_file) if name is not None]
        dumps = [dumpio.read_dump(os.path.join(directory, name)) for name in names]
        if not (
            layer.layer == i
            and all(0 <= t < layer.tokens for t in layer.sinks)
            and len(dumps) == (2 if layer.tokens else 0)
            and all(d.shape == (layer.tokens, top.width) for d in dumps)
        ):
            raise FormatError(
                "layer entry out of order, or its sinks or dumps do not fit (tokens, width)", path=path, entry=i
            )
        entry.update(zip(("keys", "values"), dumps))
    return meta
