"""Bit-packing codec for low-bit integer codes.

Layout (stable; golden-file tested):

* groups are emitted in ascending group-id order;
* each group's codes form a little-endian bitstream (code ``j`` occupies bit
  positions ``[j*bits, (j+1)*bits)``, bit 0 of a byte is the LSB);
* each group is padded up to a byte boundary, so group ``g`` starts at byte
  ``sum(ceil(len_i*bits/8) for i < g)``.

Because every group starts on a byte, groups of one size pack alike. The
codec runs one kernel per distinct group size (a ``GroupLayout`` has at most
two: the segment and the tail). That size's groups form a ``[groups, size]``
matrix, a reshape of the stream when they abut and one gather by group start
otherwise, which packs to a ``[groups, ceil(size*bits/8)]`` byte matrix:
by gathering the ``8/bits`` codes of each byte with one integer multiply
when ``bits`` divides 8, else by
``np.packbits`` along each group's row of bits (``[groups, size*bits]``,
zero-padded to whole bytes). A stream whose groups all have one size (the
usual case) is that matrix by a reshape alone. Unpacking is the inverse,
except that when ``bits`` divides 8 one lookup in a 256-entry table turns
each byte into its ``8/bits`` codes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes needed for ``count`` codes of ``bits`` bits, byte-padded."""
    return (count * bits + 7) // 8


def pack_group_bytes(group_sizes: np.ndarray, bits: int) -> np.ndarray:
    """Per-group packed byte counts."""
    return (np.asarray(group_sizes, dtype=np.int64) * bits + 7) // 8


def _uniform_runs(sizes: np.ndarray, bits: int):
    """Per distinct non-zero group size: (size, packed bytes per group, its codes, its bytes).

    Codes and bytes are each located by a slice when that size's groups are
    consecutive, else by the start offset of every such group.
    """
    nbytes = pack_group_bytes(sizes, bits)
    code_starts = np.cumsum(sizes) - sizes
    byte_starts = np.cumsum(nbytes) - nbytes
    for size in np.unique(sizes[sizes > 0]).tolist():
        groups = np.flatnonzero(sizes == size)
        codes, packed = code_starts[groups], byte_starts[groups]
        width = packed_nbytes(size, bits)
        if groups[-1] - groups[0] == groups.size - 1:
            codes = slice(codes[0], codes[0] + groups.size * size)
            packed = slice(packed[0], packed[0] + groups.size * width)
        yield size, width, codes, packed


def _rows(flat: np.ndarray, where, width: int) -> np.ndarray:
    """The ``[groups, width]`` rows of ``flat`` located by ``where``: a reshape or one gather."""
    if isinstance(where, slice):
        return flat[where].reshape(-1, width)
    return sliding_window_view(flat, width)[where]


def _put_rows(flat: np.ndarray, where, rows: np.ndarray) -> None:
    """Write ``rows`` into ``flat`` at ``where`` (inverse of :func:`_rows`)."""
    if isinstance(where, slice):
        flat[where].reshape(rows.shape)[...] = rows
    else:
        sliding_window_view(flat, rows.shape[1], writeable=True)[where] = rows


# Multiplier that moves code i of a byte's word from bit 8*i to bit 8*(per-1) + bits*i (per = 8 // bits).
_SPREAD = {bits: sum(1 << (8 * (8 // bits - 1) - (8 - bits) * i) for i in range(8 // bits)) for bits in (1, 2, 4, 8)}


def _byte_codes(bits: int) -> np.ndarray:
    """For each byte value, its ``8/bits`` codes (low bits first) as the bytes of one word."""
    shifts = bits * np.arange(8 // bits)
    codes = (np.arange(256)[:, None] >> shifts) & ((1 << bits) - 1)
    return codes.astype(np.uint8).view(f"u{8 // bits}").ravel()


_BYTE_CODES = {bits: _byte_codes(bits) for bits in (1, 2, 4, 8)}


def _pack_uniform(codes: np.ndarray, bits: int) -> np.ndarray:
    """``[groups, size]`` codes to ``[groups, ceil(size*bits/8)]`` bytes."""
    groups, size = codes.shape
    if 8 % bits == 0:
        per = 8 // bits
        pad = -size % per
        if pad:
            codes = np.concatenate((codes, np.zeros((groups, pad), dtype=np.uint8)), axis=1)
        # The ``per`` codes of each byte, read as one little-endian word, hold code i at bit 8*i.
        # One multiply adds a copy of code i at bit 8*(per-1) + bits*i, inside the top byte, and
        # no other term of the product reaches that byte (checked for every code combination).
        words = np.ascontiguousarray(codes).view(f"<u{per}")
        return ((words * _SPREAD[bits]) >> (8 * (per - 1))).astype(np.uint8)
    bit_matrix = np.empty((groups, size, bits), dtype=np.uint8)
    for j in range(bits):
        np.bitwise_and(codes >> j, 1, out=bit_matrix[:, :, j])
    return np.packbits(bit_matrix.reshape(groups, size * bits), axis=1, bitorder="little")


def _unpack_uniform(packed: np.ndarray, size: int, bits: int) -> np.ndarray:
    """``[groups, ceil(size*bits/8)]`` bytes to ``[groups, size]`` codes."""
    groups = packed.shape[0]
    if 8 % bits == 0:
        return np.take(_BYTE_CODES[bits], packed).view(np.uint8).reshape(groups, -1)[:, :size]
    bit_matrix = np.unpackbits(packed, axis=1, count=size * bits, bitorder="little").reshape(groups, size, bits)
    codes = bit_matrix[:, :, 0].copy()
    for j in range(1, bits):
        codes |= bit_matrix[:, :, j] << j
    return codes


def _uniform_size(sizes: np.ndarray) -> int | None:
    """The one non-zero size of every group, or ``None`` (no groups, empty groups, or mixed sizes)."""
    if sizes.size and sizes[0] and (sizes == sizes[0]).all():
        return int(sizes[0])
    return None


def pack_codes(codes: np.ndarray, group_sizes, bits: int) -> bytes:
    """Pack integer codes grouped per ``group_sizes`` into bytes.

    ``codes`` must be ordered group-major (all of group 0, then group 1, ...)
    and every code must fit in ``bits`` bits.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8).ravel()
    sizes = np.asarray(group_sizes, dtype=np.int64)
    size = _uniform_size(sizes)
    total = sizes.size * size if size else int(sizes.sum())
    if total != codes.size:
        raise FormatError(
            "group sizes do not cover the code stream",
            expected=total,
            actual=int(codes.size),
        )
    if size:  # groups of one size are one [groups, size] matrix
        return _pack_uniform(codes.reshape(-1, size), bits).tobytes()
    out = np.empty(int(pack_group_bytes(sizes, bits).sum()), dtype=np.uint8)
    for size, _, at_codes, at_bytes in _uniform_runs(sizes, bits):
        _put_rows(out, at_bytes, _pack_uniform(_rows(codes, at_codes, size), bits))
    return out.tobytes()


def unpack_codes(buf: bytes, group_sizes, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns a uint8 code stream."""
    sizes = np.asarray(group_sizes, dtype=np.int64)
    size = _uniform_size(sizes)
    expected = sizes.size * packed_nbytes(size, bits) if size else int(pack_group_bytes(sizes, bits).sum())
    if len(buf) != expected:
        raise FormatError(
            "packed code buffer has wrong length",
            expected=expected,
            actual=len(buf),
        )
    packed = np.frombuffer(buf, dtype=np.uint8)
    if size:
        return _unpack_uniform(packed.reshape(sizes.size, -1), size, bits).reshape(-1)
    out = np.empty(int(sizes.sum()), dtype=np.uint8)
    for size, width, at_codes, at_bytes in _uniform_runs(sizes, bits):
        _put_rows(out, at_codes, _unpack_uniform(_rows(packed, at_bytes, width), size, bits))
    return out
