"""Binary tensor dumps, manifests, and quantized-tensor files.

Tensor dump format (``.kvsd``), all integers little-endian:

    offset  size        field
    0       4           magic ``KVSD``
    4       4           format version (uint32, currently 1)
    8       4           dtype code (uint32: 1 = float32, 2 = float64)
    12      4           ndim (uint32, 1..8)
    16      8 * ndim    dims (uint64 each, all nonzero)
    ...     payload     row-major values, little-endian

Quantized tensor format (``.kvsq``): magic ``KVSQ``, version, a
length-prefixed JSON header describing the quantization settings, group
layout, and section byte lengths, then raw little-endian sections in order:
scales (f64), zeros (i64), degenerate flags (u8), constants (f64), outlier
indices (u64), outlier values (f64), packed codes. ``spec`` is also the
parameters' spec. A header or section that does not fit the layout of
``shape`` under ``spec`` is a ``FormatError``.

JSON records: every dataclass that goes to or from a JSON file (decoder
configs, sink sets, sink profiles, manifest entries, the ``.kvsq`` spec, and
the bench, stage and error reports) is written by ``record_to_json``; those
read back are read by ``record_from_json``. Both are driven by the
dataclass's field annotations. The reader's one rule: JSON types must match
exactly (an ``int`` field rejects floats, strings and bools; a ``float``
field takes ints; a ``tuple[int, ...]`` field takes a list of ints and a
``list`` field any list), unknown
keys are rejected, and so are missing fields without a default. Each caller
names the typed error to raise.

All writes go through a temp file and ``os.replace`` so readers never see a
partial file.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .errors import ConfigError, FormatError, LayoutError, NumericError, ShapeError
from .quant import GroupLayout, QuantParams, QuantizedTensor, QuantSpec

MAGIC = b"KVSD"
QMAGIC = b"KVSQ"
VERSION = 1
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}  # dtype code -> stored dtype
_MAX_NDIM = 8

#: Activation kinds the decoder can capture; manifests must use these names.
CAPTURE_KINDS = ("H", "H_prime", "X_d_in", "X_d_out", "Q", "K", "V", "A")

_QHEADER_KEYS = ["n_groups", "params_shape", "sections", "shape", "spec"]
_QSPEC_KEYS = sorted(f.name for f in fields(QuantSpec))
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "None": type(None), "list": list}


def json_fits(value, annotation: str) -> bool:
    """Whether a parsed JSON value fits a field annotation such as ``int``, ``int | None`` or ``tuple[int, ...]``."""
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        return isinstance(value, list) and all(json_fits(v, annotation[6:-6]) for v in value)
    kinds = annotation.split(" | ")
    return "bool" in kinds if isinstance(value, bool) else any(isinstance(value, _JSON_TYPES[k]) for k in kinds)


def record_to_json(record) -> dict:
    """A dataclass as a JSON object: one key per field, tuples as lists."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def record_from_json(cls, obj, error=FormatError):
    """The dataclass ``cls`` from a parsed JSON object, or ``error`` naming the fields that do not fit.

    Every key must be a field, every field without a default must be given,
    and every value must fit its field's annotation exactly (``json_fits``);
    lists become tuples.
    """
    if not isinstance(obj, dict):
        raise error(f"{cls.__name__} must be a JSON object", actual=type(obj).__name__)
    declared = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(declared))
    missing = sorted(k for k, f in declared.items() if f.default is MISSING and k not in obj)
    wrong = sorted(k for k, v in obj.items() if k in declared and not json_fits(v, declared[k].type))
    if unknown or missing or wrong:
        raise error(
            f"unknown, missing or wrongly typed {cls.__name__} fields", unknown=unknown, missing=missing, wrong=wrong
        )
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same directory and ``os.replace``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_dump(path: str, tensor, dtype: str = "float64") -> None:
    """Write a tensor to a ``.kvsd`` file (atomic, bit-exact round trip)."""
    arr = np.asarray(tensor)
    if arr.ndim == 0 or arr.ndim > _MAX_NDIM:
        raise ShapeError(f"dump rank must be 1..{_MAX_NDIM}, got {arr.ndim}")
    if any(d == 0 for d in arr.shape):
        raise ShapeError(f"zero-sized dimensions are not allowed, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("refusing to dump non-finite values", path=path)
    code = next((code for code, stored in _DTYPES.items() if stored.name == dtype), None)
    if code is None:
        raise FormatError(f"unsupported dump dtype {dtype!r}", allowed=[d.name for d in _DTYPES.values()])
    header = MAGIC + struct.pack("<III", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes()
    atomic_write(path, header + payload)


def read_dump(path: str) -> np.ndarray:
    """Read a ``.kvsd`` file; returns the array in its stored dtype."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in a path read from a sidecar
        raise FormatError(f"cannot read dump: {exc}", path=path) from exc
    if len(blob) < 16:
        raise FormatError("dump shorter than the fixed header", path=path, offset=0, actual=len(blob))
    if blob[:4] != MAGIC:
        raise FormatError("bad magic", path=path, offset=0, expected=MAGIC.decode(), actual=repr(blob[:4]))
    version, code, ndim = struct.unpack_from("<III", blob, 4)
    if version != VERSION:
        raise FormatError("unsupported format version", path=path, offset=4, expected=VERSION, actual=version)
    if code not in _DTYPES:
        raise FormatError("unknown dtype code", path=path, offset=8, actual=code)
    if not 1 <= ndim <= _MAX_NDIM:
        raise FormatError("invalid rank", path=path, offset=12, actual=ndim)
    dims_end = 16 + 8 * ndim
    if len(blob) < dims_end:
        raise FormatError("truncated dimension table", path=path, offset=16, expected=dims_end, actual=len(blob))
    dims = struct.unpack_from(f"<{ndim}Q", blob, 16)
    for i, d in enumerate(dims):
        if d == 0:
            raise FormatError("zero-sized dimension", path=path, offset=16 + 8 * i, actual=0)
    count = math.prod(dims)
    dtype = _DTYPES[code]
    expected = dims_end + count * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(
            "payload length mismatch", path=path, offset=dims_end, expected=expected, actual=len(blob)
        )
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=dims_end).reshape(dims)
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        raise FormatError(
            "payload contains non-finite values", path=path, offset=dims_end + bad * dtype.itemsize
        )
    return arr.astype(arr.dtype.newbyteorder("="), copy=True)


@dataclass(frozen=True)
class ManifestEntry:
    """One dumped activation: which model/layer/kind a file holds."""

    model: str
    layer: int
    kind: str
    tokens: int
    hidden: int
    file: str


def write_manifest(entries, path: str) -> None:
    write_json(path, [record_to_json(e) for e in entries])


def load_manifest(path: str) -> list[ManifestEntry]:
    """Load and validate a manifest; referenced files must exist and shape-match."""
    raw = read_json(path)
    if not isinstance(raw, list):
        raise FormatError("manifest must be a JSON list", path=path)
    entries = []
    for i, obj in enumerate(raw):
        entry = record_from_json(ManifestEntry, obj, partial(FormatError, path=path, entry=i))
        if entry.kind not in CAPTURE_KINDS:
            raise FormatError(
                "unknown capture kind", path=path, entry=i, kind=entry.kind, allowed=list(CAPTURE_KINDS)
            )
        file_path = manifest_file_path(entry, path)
        arr = read_dump(file_path)
        if arr.ndim == 2 and arr.shape != (entry.tokens, entry.hidden):
            raise FormatError(
                "dump shape does not match manifest",
                path=file_path,
                entry=i,
                expected=[entry.tokens, entry.hidden],
                actual=list(arr.shape),
            )
        entries.append(entry)
    return entries


def manifest_file_path(entry: ManifestEntry, manifest_path: str) -> str:
    if os.path.isabs(entry.file):
        return entry.file
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), entry.file)


def write_quantized(path: str, qt: QuantizedTensor) -> None:
    """Write a 2-D quantized tensor to a ``.kvsq`` file; a [blocks, n, d] stack is a ``ShapeError``."""
    if len(qt.shape) != 2:
        raise ShapeError("a .kvsq file holds one 2-D tensor, not a stack of blocks", shape=list(qt.shape))
    p = qt.params
    sections = [
        np.ascontiguousarray(p.scale, dtype="<f8").tobytes(),
        np.ascontiguousarray(p.zero, dtype="<i8").tobytes(),
        np.ascontiguousarray(p.degenerate, dtype=np.uint8).tobytes(),
        np.ascontiguousarray(p.constant, dtype="<f8").tobytes(),
        np.ascontiguousarray(qt.outlier_indices, dtype="<u8").tobytes(),
        np.ascontiguousarray(qt.outlier_values, dtype="<f8").tobytes(),
        qt.packed,
    ]
    header = {
        "shape": list(qt.shape),
        "spec": record_to_json(qt.spec),
        "params_shape": list(p.shape),
        "n_groups": p.n_groups,
        "sections": [len(s) for s in sections],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    blob = QMAGIC + struct.pack("<II", VERSION, len(head)) + head + b"".join(sections)
    atomic_write(path, blob)


def read_quantized(path: str) -> QuantizedTensor:
    """Read a ``.kvsq`` file back into a QuantizedTensor."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read quantized tensor: {exc}", path=path) from exc
    if len(blob) < 12 or blob[:4] != QMAGIC:
        raise FormatError("bad magic", path=path, offset=0, expected=QMAGIC.decode())
    version, head_len = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise FormatError("unsupported format version", path=path, offset=4, actual=version)
    try:
        header = json.loads(blob[12 : 12 + head_len])
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"corrupt header: {exc}", path=path, offset=12) from exc
    spec, shape, params_shape, sections = _parse_qheader(header, path)
    layout = GroupLayout.for_spec(shape, spec)
    n_groups, n_out = layout.n_groups, sections[4] // 8
    packed = layout.packed_nbytes(spec.bits)
    lengths = [8 * n_groups] * 2 + [n_groups, 8 * n_groups] + [8 * n_out] * 2 + [packed]
    if header["n_groups"] != n_groups or sections != lengths:
        raise FormatError(
            "n_groups or section lengths do not match the layout of shape and spec",
            path=path,
            expected=[n_groups, lengths],
            actual=[header["n_groups"], sections],
        )
    expected = 12 + head_len + sum(sections)
    if len(blob) != expected:
        raise FormatError("payload length mismatch", path=path, expected=expected, actual=len(blob))
    offset = 12 + head_len
    raw = []
    for size in sections:
        raw.append(blob[offset : offset + size])
        offset += size

    def _arr(buf, dtype, count):
        out = np.frombuffer(buf, dtype=dtype, count=count)
        return out.astype(out.dtype.newbyteorder("="), copy=True)

    params = QuantParams(
        spec=spec,
        shape=params_shape,
        scale=_arr(raw[0], "<f8", n_groups),
        zero=_arr(raw[1], "<i8", n_groups),
        degenerate=np.frombuffer(raw[2], dtype=np.uint8, count=n_groups).astype(bool),
        constant=_arr(raw[3], "<f8", n_groups),
    )
    try:
        params.check_fits(spec, layout)
    except LayoutError as exc:
        raise FormatError(f"parameters do not fit the tensor: {exc.message}", path=path) from exc
    indices = _arr(raw[4], "<u8", n_out)
    if n_out and indices.max() >= shape[0] * shape[1]:
        raise FormatError(
            "outlier index outside the tensor", path=path, shape=list(shape), index=int(indices.max())
        )
    return QuantizedTensor(
        shape=shape,
        params=params,
        packed=raw[6],
        outlier_indices=indices.astype(np.int64),
        outlier_values=_arr(raw[5], "<f8", n_out),
    )


def _parse_qheader(header, path: str):
    """Typed fields of a ``.kvsq`` header: (spec, shape, params_shape, sections)."""

    def counts(value, length, limit=None):
        ints = isinstance(value, list) and all(type(v) is int and 0 <= v for v in value)
        return ints and len(value) == length and (limit is None or max(value) < limit)

    if not isinstance(header, dict) or sorted(header) != _QHEADER_KEYS:
        raise FormatError("header keys differ from the format", path=path, expected=_QHEADER_KEYS)
    raw = header["spec"]
    if not isinstance(raw, dict) or sorted(raw) != _QSPEC_KEYS:
        raise FormatError("spec keys differ from the format", path=path, expected=_QSPEC_KEYS)
    try:
        spec = record_from_json(QuantSpec, raw, partial(FormatError, path=path))
    except ConfigError as exc:
        raise FormatError(f"invalid spec: {exc.message}", path=path) from exc
    for key, length, limit in (("shape", 2, 2**32), ("params_shape", 2, 2**32), ("sections", 7, None)):
        if not counts(header[key], length, limit):
            raise FormatError(
                f"{key} must be {length} non-negative integers", path=path, below=limit, actual=header[key]
            )
    return spec, tuple(header["shape"]), tuple(header["params_shape"]), header["sections"]


def strict_json(obj) -> str:
    """Indented JSON text; a non-finite number (not valid JSON) is a ``NumericError``."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"refusing to emit a non-finite number as JSON: {exc}") from exc


def write_json(path: str, obj) -> None:
    atomic_write(path, strict_json(obj).encode() + b"\n")


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read JSON file: {exc}", path=path) from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}", path=path) from exc
