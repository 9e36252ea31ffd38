import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkquant.errors import FormatError
from sinkquant.packing import pack_codes, pack_group_bytes, packed_nbytes, unpack_codes
from sinkquant.quant import GroupLayout


def test_two_bit_golden_bytes():
    # codes 0,1,2,3 LSB-first in one byte: 0b11_10_01_00
    assert pack_codes(np.array([0, 1, 2, 3]), [4], 2) == bytes([0xE4])


def test_three_bit_golden_bytes():
    # 1,2,3 -> bitstream 100 010 110 -> byte0 0b11010001, byte1 0
    assert pack_codes(np.array([1, 2, 3]), [3], 3) == bytes([0xD1, 0x00])


def test_eight_bit_is_identity():
    codes = np.array([0, 17, 255, 128], dtype=np.uint8)
    assert pack_codes(codes, [4], 8) == codes.tobytes()


def test_groups_start_on_byte_boundaries():
    one = pack_codes(np.array([5]), [1], 3)
    two = pack_codes(np.array([5, 5]), [1, 1], 3)
    assert len(one) == 1 and len(two) == 2
    assert two == one + one


def test_packed_nbytes():
    assert packed_nbytes(16, 2) == 4
    assert packed_nbytes(3, 3) == 2
    assert packed_nbytes(0, 4) == 0
    np.testing.assert_array_equal(pack_group_bytes([16, 5], 3), [6, 2])


@pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
def test_roundtrip_random_groups(bits):
    rng = np.random.default_rng(bits)
    for _ in range(20):
        n_groups = int(rng.integers(1, 6))
        sizes = rng.integers(0, 9, size=n_groups)
        codes = rng.integers(0, 2**bits, size=int(sizes.sum())).astype(np.uint8)
        buf = pack_codes(codes, sizes, bits)
        assert len(buf) == int(pack_group_bytes(sizes, bits).sum())
        np.testing.assert_array_equal(unpack_codes(buf, sizes, bits), codes)


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
def test_every_byte_when_bits_divide_eight(bits):
    # Each byte holds 8/bits codes, code j at bits [j*bits, (j+1)*bits): all 256 bytes, both ways.
    per = 8 // bits
    combos = np.array(list(itertools.product(range(1 << bits), repeat=per)), dtype=np.uint8)
    want = bytes(sum(int(c) << (bits * j) for j, c in enumerate(row)) for row in combos)
    assert sorted(want) == list(range(256))
    for sizes in ([per] * len(combos), [len(combos) * per]):  # one byte per group, and one long group
        assert pack_codes(combos.ravel(), sizes, bits) == want
        np.testing.assert_array_equal(unpack_codes(want, sizes, bits), combos.ravel())


def test_empty_stream():
    assert pack_codes(np.zeros(0, dtype=np.uint8), [], 4) == b""
    assert unpack_codes(b"", [], 4).size == 0


def test_size_mismatch_rejected():
    with pytest.raises(FormatError):
        pack_codes(np.array([1, 2]), [3], 2)
    with pytest.raises(FormatError):
        unpack_codes(b"\x00", [16], 2)


def position_matrix_pack(codes, group_sizes, bits):
    """Reference codec: scatters every code bit to its global bit position."""
    codes = np.asarray(codes, dtype=np.uint8).ravel()
    sizes = np.asarray(group_sizes, dtype=np.int64)
    nbytes = pack_group_bytes(sizes, bits)
    if codes.size == 0:
        return b""
    group_byte_start = np.concatenate(([0], np.cumsum(nbytes)[:-1]))
    code_group = np.repeat(np.arange(sizes.size), sizes)
    in_group = np.arange(codes.size) - np.repeat(np.concatenate(([0], np.cumsum(sizes)[:-1])), sizes)
    code_bitpos = group_byte_start[code_group] * 8 + in_group * bits
    bit_matrix = ((codes[:, None] >> np.arange(bits, dtype=np.uint8)) & 1).astype(np.uint8)
    bitstream = np.zeros(int(nbytes.sum()) * 8, dtype=np.uint8)
    bitstream[(code_bitpos[:, None] + np.arange(bits)).ravel()] = bit_matrix.ravel()
    return np.packbits(bitstream, bitorder="little").tobytes()


def position_matrix_unpack(buf, group_sizes, bits):
    """Reference inverse: gathers every code bit from its global bit position."""
    sizes = np.asarray(group_sizes, dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes = pack_group_bytes(sizes, bits)
    bitstream = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    group_byte_start = np.concatenate(([0], np.cumsum(nbytes)[:-1]))
    code_group = np.repeat(np.arange(sizes.size), sizes)
    in_group = np.arange(total) - np.repeat(np.concatenate(([0], np.cumsum(sizes)[:-1])), sizes)
    code_bitpos = group_byte_start[code_group] * 8 + in_group * bits
    bits_taken = bitstream[code_bitpos[:, None] + np.arange(bits)]
    return (bits_taken.astype(np.uint16) @ (1 << np.arange(bits)).astype(np.uint16)).astype(np.uint8)


LAYOUTS = [
    ("per_token", "dynamic"),
    ("per_token", "static"),
    ("per_channel", "dynamic"),
    ("per_channel", "static"),
    ("per_tensor", "dynamic"),
]


@st.composite
def group_size_patterns(draw):
    """Group sizes as the quantizer produces them, plus ragged and zero-size ones."""
    pattern = draw(st.sampled_from(["uniform", "tail", "tiled", "ragged", "zeros"]))
    if pattern == "uniform":
        return [draw(st.integers(1, 40))] * draw(st.integers(0, 12))
    if pattern == "tail":
        return [draw(st.integers(2, 40))] * draw(st.integers(0, 12)) + [draw(st.integers(1, 39))]
    if pattern == "tiled":
        axis, mode = draw(st.sampled_from(LAYOUTS))
        shape = (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
        layout = GroupLayout(shape, axis, mode, draw(st.integers(1, 8)))
        return np.tile(layout.group_sizes(), draw(st.integers(1, 4))).tolist()
    if pattern == "ragged":
        return draw(st.lists(st.integers(1, 40), max_size=12))
    return draw(st.lists(st.integers(0, 6).map(lambda s: s if s % 2 else 0), max_size=12))


@settings(max_examples=400, deadline=None)
@given(sizes=group_size_patterns(), bits=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_matches_position_matrix_reference(sizes, bits, seed):
    codes = np.random.default_rng(seed).integers(0, 2**bits, size=sum(sizes)).astype(np.uint8)
    buf = pack_codes(codes, sizes, bits)
    assert buf == position_matrix_pack(codes, sizes, bits)
    back = unpack_codes(buf, sizes, bits)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, position_matrix_unpack(buf, sizes, bits))
    np.testing.assert_array_equal(back, codes)
