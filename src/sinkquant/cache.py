"""Mixed-precision per-layer KV cache.

Non-sink tokens are stored quantized under a named scheme preset; sink tokens
live verbatim in a position-indexed full-precision side table, which keeps
quantization groups sink-free by construction. Rows are appended in token
order and reconstruction re-splices every region back into the original
order.

Per-channel key schemes group across tokens, so incoming rows are buffered at
full precision until ``group_size`` of them accumulate and the completed
token block is quantized; a trailing partial block simply stays in the
buffer. ``bulk_load`` is defined as the corresponding sequence of appends and
reconstructs identically to it.

Byte accounting (``memory_footprint`` and ``predict_footprint``):

* quantized codes: exact packed length (each group padded to a byte),
* sink rows and not-yet-quantized pending rows: 16 bits per element,
* parameters: 8 bytes per group (float32 scale + int32 zero); static
  parameters are shared and counted once per layer side,
* sparse outliers: 6 bytes each (uint32 flat index + 16-bit value).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, ConfigError, ShapeError, StateError
from .packing import packed_nbytes
from .quant import (
    QuantizedTensor,
    QuantParams,
    QuantSpec,
    calibrate,
    dequantize,
    quantize_tensor,
    scheme_specs,
)
from .tensors import as_tensor

PARAM_BYTES_PER_GROUP = 8
SINK_BYTES_PER_ELEMENT = 2
SPARSE_BYTES_PER_OUTLIER = 6


@dataclass
class _Side:
    spec: QuantSpec
    params: QuantParams | None = None
    blocks: list[QuantizedTensor] = field(default_factory=list)
    block_tokens: list[np.ndarray] = field(default_factory=list)
    pending_tokens: list[int] = field(default_factory=list)
    pending_rows: list[np.ndarray] = field(default_factory=list)

    def buffered(self) -> bool:
        return self.spec.axis == "per_channel"

    def push(self, token: int, row: np.ndarray) -> None:
        if self.spec.mode == "static" and self.params is None:
            raise ConfigError("static scheme has no calibrated parameters for this layer")
        if self.buffered():
            self.pending_tokens.append(token)
            self.pending_rows.append(row)
            if len(self.pending_rows) == self.spec.group_size:
                self.flush()
        else:
            self._quantize_block(np.asarray([row]), np.asarray([token]))

    def flush(self) -> None:
        if self.pending_rows:
            block = np.stack(self.pending_rows)
            tokens = np.asarray(self.pending_tokens, dtype=np.int64)
            self.pending_tokens = []
            self.pending_rows = []
            self._quantize_block(block, tokens)

    def _quantize_block(self, block: np.ndarray, tokens: np.ndarray) -> None:
        self.blocks.append(quantize_tensor(block, self.spec, params=self.params))
        self.block_tokens.append(tokens)

    def scatter(self, out: np.ndarray) -> None:
        for qt, tokens in zip(self.blocks, self.block_tokens):
            out[tokens] = dequantize(qt)
        for token, row in zip(self.pending_tokens, self.pending_rows):
            out[token] = row

    def quantized_token_count(self) -> int:
        return int(sum(t.size for t in self.block_tokens))


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
        clip: float | None = None,
    ):
        if num_layers < 1:
            raise ConfigError(f"need at least one layer, got {num_layers}")
        self.num_layers = num_layers
        self.width = int(width)
        self.scheme = scheme
        key_spec, value_spec = scheme_specs(scheme, bits, group_size, sparse_fraction, clip)
        self.key_spec = key_spec
        self.value_spec = value_spec
        self._keys = [_Side(key_spec) for _ in range(num_layers)]
        self._values = [_Side(value_spec) for _ in range(num_layers)]
        self._sinks: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [dict() for _ in range(num_layers)]
        self._counts = [0] * num_layers
        self._loaded = [False] * num_layers

    def _check_layer(self, layer: int) -> int:
        if not 0 <= layer < self.num_layers:
            raise BoundsError("layer index out of range", layer=layer, num_layers=self.num_layers)
        return layer

    @property
    def tokens(self) -> int:
        """Sequence length as tracked by layer 0."""
        return self._counts[0]

    def layer_tokens(self, layer: int) -> int:
        return self._counts[self._check_layer(layer)]

    def sink_indices(self, layer: int) -> tuple[int, ...]:
        return tuple(sorted(self._sinks[self._check_layer(layer)]))

    def pending_tokens(self, layer: int) -> int:
        self._check_layer(layer)
        return max(len(self._keys[layer].pending_rows), len(self._values[layer].pending_rows))

    def region_counts(self, layer: int) -> dict:
        """Token counts per storage region of the key side (partition of n)."""
        self._check_layer(layer)
        side = self._keys[layer]
        return {
            "quantized": side.quantized_token_count(),
            "pending": len(side.pending_rows),
            "sink": len(self._sinks[layer]),
        }

    def set_static_params(
        self, layer: int, key_params: QuantParams | None = None, value_params: QuantParams | None = None
    ) -> None:
        self._check_layer(layer)
        if key_params is not None:
            self._keys[layer].params = key_params
        if value_params is not None:
            self._values[layer].params = value_params

    def _coerce_row(self, row, name: str) -> np.ndarray:
        arr = as_tensor(row, name=name).ravel()
        if arr.size != self.width:
            raise ShapeError(f"{name} must have width {self.width}", actual=int(arr.size))
        return arr.copy()

    def append(self, layer: int, k_row, v_row, is_sink: bool = False) -> int:
        """Append a token's K/V rows to a layer; returns the token index."""
        self._check_layer(layer)
        k = self._coerce_row(k_row, "key row")
        v = self._coerce_row(v_row, "value row")
        token = self._counts[layer]
        if is_sink:
            self._sinks[layer][token] = (k, v)
        else:
            self._keys[layer].push(token, k)
            self._values[layer].push(token, v)
        self._counts[layer] = token + 1
        self._loaded[layer] = True
        return token

    def bulk_load(self, cache_layer: int, keys, values, sinks=()) -> None:
        """Load a whole prefill's K/V for one empty layer.

        Equivalent to appending the rows in token order with ``is_sink`` set
        from ``sinks``; under static schemes with no parameters installed the
        non-sink rows self-calibrate the layer first.
        """
        layer = self._check_layer(cache_layer)
        if self._loaded[layer]:
            raise StateError("bulk_load requires an empty layer", layer=layer, tokens=self._counts[layer])
        k_arr = as_tensor(keys, ndim=2, name="keys")
        v_arr = as_tensor(values, ndim=2, name="values")
        if k_arr.shape != v_arr.shape:
            raise ShapeError("keys and values must match", keys=list(k_arr.shape), values=list(v_arr.shape))
        if k_arr.shape[1] != self.width:
            raise ShapeError(f"expected width {self.width}", actual=int(k_arr.shape[1]))
        n = k_arr.shape[0]
        sink_rows = sorted(set(int(i) for i in sinks))
        if sink_rows and (sink_rows[0] < 0 or sink_rows[-1] >= n):
            raise BoundsError("sink index out of range", tokens=n, indices=sink_rows)
        keep = np.ones(n, dtype=bool)
        keep[sink_rows] = False
        for side, data in ((self._keys[layer], k_arr), (self._values[layer], v_arr)):
            if side.spec.mode == "static" and side.params is None:
                side.params = calibrate([data[keep]], side.spec)

        nonsink = np.flatnonzero(keep)
        for side, data in ((self._keys[layer], k_arr), (self._values[layer], v_arr)):
            if side.buffered():
                gs = side.spec.group_size
                full = nonsink.size - nonsink.size % gs
                for start in range(0, full, gs):
                    tokens = nonsink[start : start + gs]
                    side._quantize_block(data[tokens], tokens.astype(np.int64))
                side.pending_tokens = [int(t) for t in nonsink[full:]]
                side.pending_rows = [data[t].copy() for t in nonsink[full:]]
            elif nonsink.size:
                side._quantize_block(data[nonsink], nonsink.astype(np.int64))
        for t in sink_rows:
            self._sinks[layer][t] = (k_arr[t].copy(), v_arr[t].copy())
        self._counts[layer] = n
        self._loaded[layer] = True

    def reconstruct(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Dequantized K/V for a layer with sink rows spliced back in order.

        A layer that was populated with zero tokens reconstructs to empty
        tensors; a layer that was never populated is a state error.
        """
        self._check_layer(layer)
        if not self._loaded[layer]:
            raise StateError("layer was never populated", layer=layer)
        n = self._counts[layer]
        k_out = np.zeros((n, self.width))
        v_out = np.zeros((n, self.width))
        self._keys[layer].scatter(k_out)
        self._values[layer].scatter(v_out)
        for token, (k, v) in self._sinks[layer].items():
            k_out[token] = k
            v_out[token] = v
        return k_out, v_out

    def memory_footprint(self) -> dict:
        """Exact byte accounting of the current contents."""
        quantized = 0
        params = 0
        sparse = 0
        fp_rows = 0
        for layer in range(self.num_layers):
            fp_rows += 2 * len(self._sinks[layer])
            for side in (self._keys[layer], self._values[layer]):
                fp_rows += len(side.pending_rows)
                for qt in side.blocks:
                    quantized += len(qt.packed)
                    sparse += qt.outlier_indices.size * SPARSE_BYTES_PER_OUTLIER
                if side.spec.mode == "static":
                    if side.params is not None:
                        params += side.params.n_groups * PARAM_BYTES_PER_GROUP
                else:
                    params += sum(qt.params.n_groups for qt in side.blocks) * PARAM_BYTES_PER_GROUP
        return {
            "quantized_bytes": int(quantized),
            "sink_bytes": int(fp_rows * self.width * SINK_BYTES_PER_ELEMENT),
            "params_bytes": int(params),
            "sparse_bytes": int(sparse),
        }


def _segments_of(length: int, gs: int) -> list[int]:
    full, tail = divmod(length, gs)
    return [gs] * full + ([tail] if tail else [])


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

    ``sink_tokens`` is charged to every one of the ``num_layers`` layers. A
    ``prefill_with_kvsink`` cache in kvsink mode holds no sinks at or below
    the emergence layer, which is quantized before detection runs, so its
    exact prediction is the per-layer sum: ``predict_footprint(1, ...)`` with
    each layer's own sink count.
    """
    if sink_tokens > tokens:
        raise ConfigError("more sink tokens than tokens", sink_tokens=sink_tokens, tokens=tokens)
    key_spec, value_spec = scheme_specs(scheme, bits, group_size, sparse_fraction)
    rows = tokens - sink_tokens
    quantized = 0
    params = 0
    sparse = 0
    fp_rows = 2 * sink_tokens
    for spec in (key_spec, value_spec):
        if spec.axis == "per_channel":
            nblocks, pending = divmod(rows, spec.group_size)
            per_block = width * packed_nbytes(spec.group_size, spec.bits)
            quantized += nblocks * per_block
            fp_rows += pending
            block_groups = width  # one token segment per block
            if spec.mode == "static":
                params += width * PARAM_BYTES_PER_GROUP
            else:
                params += nblocks * block_groups * PARAM_BYTES_PER_GROUP
            per_vec = int(np.rint((spec.sparse_fraction or 0.0) * spec.group_size))
            sparse += nblocks * width * per_vec * SPARSE_BYTES_PER_OUTLIER
        else:
            segs = _segments_of(width, spec.group_size) if spec.axis == "per_token" else [width]
            bytes_per_row = sum(packed_nbytes(s, spec.bits) for s in segs)
            quantized += rows * bytes_per_row
            groups_per_row = len(segs)
            if spec.mode == "static":
                params += groups_per_row * PARAM_BYTES_PER_GROUP
            else:
                params += rows * groups_per_row * PARAM_BYTES_PER_GROUP
            per_vec = int(np.rint((spec.sparse_fraction or 0.0) * width))
            sparse += rows * per_vec * SPARSE_BYTES_PER_OUTLIER
    return {
        "quantized_bytes": int(num_layers * quantized),
        "sink_bytes": int(num_layers * fp_rows * width * SINK_BYTES_PER_ELEMENT),
        "params_bytes": int(num_layers * params),
        "sparse_bytes": int(num_layers * sparse),
    }


def footprint_megabytes(footprint: dict) -> dict:
    """Footprint fields in MiB-based megabytes (the unit of the byte tables)."""
    return {k.replace("_bytes", "_mb"): v / (1024.0 * 1024.0) for k, v in footprint.items()}


def save_snapshot(cache: KVCache, directory: str) -> None:
    """Write reconstructed per-layer K/V dumps plus a JSON sidecar."""
    import os

    from . import dumpio

    os.makedirs(directory, exist_ok=True)
    layers = []
    for layer in range(cache.num_layers):
        tokens = cache.layer_tokens(layer)
        entry = {"layer": layer, "tokens": tokens, "sinks": list(cache.sink_indices(layer))}
        if tokens:
            k_arr, v_arr = cache.reconstruct(layer)
            entry["keys_file"] = f"layer{layer:03d}_keys.kvsd"
            entry["values_file"] = f"layer{layer:03d}_values.kvsd"
            dumpio.write_dump(os.path.join(directory, entry["keys_file"]), k_arr)
            dumpio.write_dump(os.path.join(directory, entry["values_file"]), v_arr)
        layers.append(entry)
    sidecar = {
        "scheme": cache.scheme,
        "bits": cache.key_spec.bits,
        "group_size": cache.key_spec.group_size,
        "sparse_fraction": cache.key_spec.sparse_fraction,
        "width": cache.width,
        "num_layers": cache.num_layers,
        "layers": layers,
    }
    dumpio.write_json(os.path.join(directory, "snapshot.json"), sidecar)


def load_snapshot(directory: str) -> dict:
    """Read a snapshot back; layer entries gain 'keys'/'values' arrays."""
    import os

    from . import dumpio

    meta = dumpio.read_json(os.path.join(directory, "snapshot.json"))
    for entry in meta["layers"]:
        if entry.get("keys_file"):
            entry["keys"] = dumpio.read_dump(os.path.join(directory, entry["keys_file"]))
            entry["values"] = dumpio.read_dump(os.path.join(directory, entry["values_file"]))
    return meta
