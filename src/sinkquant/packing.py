"""Bit-packing codec for low-bit integer codes.

Layout (stable; golden-file tested):

* groups are emitted in ascending group-id order;
* each group's codes form a little-endian bitstream (code ``j`` occupies bit
  positions ``[j*bits, (j+1)*bits)``, bit 0 of a byte is the LSB);
* each group is padded up to a byte boundary, so group ``g`` starts at byte
  ``sum(ceil(len_i*bits/8) for i < g)``.

Because every group starts on a byte, every stream packs as one
``[groups, width]`` code matrix in one kernel call. A stream whose groups all
have one size (the usual case) is that matrix by a reshape. Any other stream
is zero-padded to its widest group through one slot mask
(``np.arange(width) < sizes[:, None]``), and the same mask over the per-group
byte counts keeps each row's first ``ceil(size*bits/8)`` bytes: those are the
group's bytes, since its padding codes are zero. A layout's tail is never
longer than its segment, so the padded matrix is at most twice the stream.

The kernel packs ``[groups, width]`` codes to ``[groups, ceil(width*bits/8)]``
bytes: by gathering the ``8/bits`` codes of each byte with one integer
multiply when ``bits`` divides 8, else by ``np.packbits`` along each group's
row of bits (``[groups, width*bits]``, zero-padded to whole bytes).
Unpacking is the inverse, except that when ``bits`` divides 8 one lookup in
a 256-entry table turns each byte into its ``8/bits`` codes.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def packed_nbytes(count: int, bits: int) -> int:
    """Bytes needed for ``count`` codes of ``bits`` bits, byte-padded."""
    return (count * bits + 7) // 8


def pack_group_bytes(group_sizes: np.ndarray, bits: int) -> np.ndarray:
    """Per-group packed byte counts."""
    return (np.asarray(group_sizes, dtype=np.int64) * bits + 7) // 8


def _slots(counts: np.ndarray, width: int) -> np.ndarray:
    """``[groups, width]`` mask of each row's first ``counts[g]`` slots."""
    return np.arange(width) < counts[:, None]


# Multiplier that moves code i of a byte's word from bit 8*i to bit 8*(per-1) + bits*i (per = 8 // bits).
_SPREAD = {bits: sum(1 << (8 * (8 // bits - 1) - (8 - bits) * i) for i in range(8 // bits)) for bits in (1, 2, 4, 8)}


def _byte_codes(bits: int) -> np.ndarray:
    """For each byte value, its ``8/bits`` codes (low bits first) as the bytes of one word."""
    shifts = bits * np.arange(8 // bits)
    codes = (np.arange(256)[:, None] >> shifts) & ((1 << bits) - 1)
    return codes.astype(np.uint8).view(f"u{8 // bits}").ravel()


_BYTE_CODES = {bits: _byte_codes(bits) for bits in (1, 2, 4, 8)}


def _pack_matrix(codes: np.ndarray, bits: int) -> np.ndarray:
    """``[groups, width]`` codes to ``[groups, ceil(width*bits/8)]`` bytes."""
    groups, width = codes.shape
    if 8 % bits == 0:
        per = 8 // bits
        pad = -width % per
        if pad:
            codes = np.concatenate((codes, np.zeros((groups, pad), dtype=np.uint8)), axis=1)
        # The ``per`` codes of each byte, read as one little-endian word, hold code i at bit 8*i.
        # One multiply adds a copy of code i at bit 8*(per-1) + bits*i, inside the top byte, and
        # no other term of the product reaches that byte (checked for every code combination).
        words = np.ascontiguousarray(codes).view(f"<u{per}")
        return ((words * _SPREAD[bits]) >> (8 * (per - 1))).astype(np.uint8)
    bit_matrix = np.empty((groups, width, bits), dtype=np.uint8)
    for j in range(bits):
        np.bitwise_and(codes >> j, 1, out=bit_matrix[:, :, j])
    return np.packbits(bit_matrix.reshape(groups, width * bits), axis=1, bitorder="little")


def _unpack_matrix(packed: np.ndarray, width: int, bits: int) -> np.ndarray:
    """``[groups, ceil(width*bits/8)]`` bytes to ``[groups, width]`` codes."""
    groups = packed.shape[0]
    if 8 % bits == 0:
        return np.take(_BYTE_CODES[bits], packed).view(np.uint8).reshape(groups, -1)[:, :width]
    bit_matrix = np.unpackbits(packed, axis=1, count=width * bits, bitorder="little").reshape(groups, width, bits)
    codes = bit_matrix[:, :, 0].copy()
    for j in range(1, bits):
        codes |= bit_matrix[:, :, j] << j
    return codes


def pack_codes(codes: np.ndarray, group_sizes, bits: int) -> bytes:
    """Pack integer codes grouped per ``group_sizes`` into bytes.

    ``codes`` must be ordered group-major (all of group 0, then group 1, ...)
    and every code must fit in ``bits`` bits.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8).ravel()
    sizes = np.asarray(group_sizes, dtype=np.int64)
    size = int(sizes[0]) if sizes.size and (sizes == sizes[0]).all() else 0  # 0: mixed, empty or no groups
    total = sizes.size * size if size else int(sizes.sum())
    if total != codes.size:
        raise FormatError(
            "group sizes do not cover the code stream",
            expected=total,
            actual=int(codes.size),
        )
    if size:  # groups of one size are one [groups, size] matrix
        return _pack_matrix(codes.reshape(-1, size), bits).tobytes()
    if not total:
        return b""
    slots = _slots(sizes, int(sizes.max()))
    matrix = np.zeros(slots.shape, dtype=np.uint8)
    matrix[slots] = codes
    packed = _pack_matrix(matrix, bits)
    return packed[_slots(pack_group_bytes(sizes, bits), packed.shape[1])].tobytes()


def unpack_codes(buf: bytes, group_sizes, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns a uint8 code stream."""
    sizes = np.asarray(group_sizes, dtype=np.int64)
    size = int(sizes[0]) if sizes.size and (sizes == sizes[0]).all() else 0
    if size:
        expected = sizes.size * packed_nbytes(size, bits)
    else:
        nbytes = pack_group_bytes(sizes, bits)
        expected = int(nbytes.sum())
    if len(buf) != expected:
        raise FormatError(
            "packed code buffer has wrong length",
            expected=expected,
            actual=len(buf),
        )
    packed = np.frombuffer(buf, dtype=np.uint8)
    if size:
        return _unpack_matrix(packed.reshape(sizes.size, -1), size, bits).reshape(-1)
    if not expected:
        return np.zeros(0, dtype=np.uint8)
    widest = int(sizes.max())
    slots = _slots(nbytes, packed_nbytes(widest, bits))
    matrix = np.zeros(slots.shape, dtype=np.uint8)
    matrix[slots] = packed
    return _unpack_matrix(matrix, widest, bits)[_slots(sizes, widest)]
