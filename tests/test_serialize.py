import pytest
from hypothesis import given, strategies as st

from pqbench import serialize
from pqbench.serialize import LengthOverflow, MalformedFrame


def test_pack_unpack_roundtrip():
    chunks = [b"", b"a", b"hello world", bytes(range(256))]
    assert serialize.unpack(serialize.pack(*chunks)) == chunks


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_pack_unpack_roundtrip_property(chunks):
    assert serialize.unpack(serialize.pack(*chunks)) == chunks


def test_unpack_with_count_checks_exact():
    data = serialize.pack(b"x", b"y")
    assert serialize.unpack(data, count=2) == [b"x", b"y"]
    with pytest.raises(MalformedFrame):
        serialize.unpack(data, count=1)
    with pytest.raises(MalformedFrame):
        serialize.unpack(data, count=3)


def test_truncated_chunk_rejected():
    data = serialize.u32(10) + b"short"
    with pytest.raises(MalformedFrame):
        serialize.unpack(data)


def test_u32_range():
    assert serialize.u32(0) == b"\x00\x00\x00\x00"
    assert serialize.u32(2**32 - 1) == b"\xff\xff\xff\xff"
    with pytest.raises(LengthOverflow):
        serialize.u32(2**32)
    with pytest.raises(LengthOverflow):
        serialize.u32(-1)


def test_bit_packing():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1]
    packed = serialize.pack_bits(bits)
    assert len(packed) == 2
    assert packed[0] == 0b10110010
    assert packed[1] == 0b10000000


@given(st.lists(st.integers(0, 1), max_size=40))
def test_bit_packing_roundtrip_property(bits):
    # oracle: the bits read as one binary numeral, zero-filled to whole bytes
    numeral = int("0" + "".join(map(str, bits)), 2) << (-len(bits) % 8)
    assert serialize.pack_bits(bits) == numeral.to_bytes((len(bits) + 7) // 8, "big")
