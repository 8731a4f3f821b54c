import pytest
from hypothesis import given, strategies as st

from pqbench import serialize
from pqbench.errors import LengthMismatch
from pqbench.serialize import LengthOverflow, MalformedFrame


def test_pack_unpack_roundtrip():
    chunks = [b"", b"a", b"hello world", bytes(range(256))]
    assert serialize.unpack(serialize.pack(*chunks), len(chunks)) == chunks


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_pack_unpack_roundtrip_property(chunks):
    assert serialize.unpack(serialize.pack(*chunks), len(chunks)) == chunks


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
        serialize.unpack(data, 1)


@pytest.mark.parametrize("data,count,message", [
    (b"\x00\x00", None, "truncated 4-byte length"),
    (serialize.u32(10) + b"short", None, "chunk claims 10 bytes, 5 remain"),
    (serialize.pack(b"x", b"y"), 1, "trailing bytes after final chunk"),
    (serialize.pack(b"x", b"y"), 3, "expected 3 chunks, found 2"),
    (b"", 1, "expected 1 chunks, found 0"),
])
def test_malformed_frame_names_its_cause(data, count, message):
    # None: the frame fails before its chunks are counted, under any count
    for n in range(4) if count is None else [count]:
        with pytest.raises(MalformedFrame) as e:
            serialize.unpack(data, n)
        assert str(e.value) == message


def reference_unpack(data, count):
    """Read every chunk to the end of data, then compare the count."""
    chunks = []
    while data:
        if len(data) < 4 or int.from_bytes(data[:4], "big") > len(data) - 4:
            raise MalformedFrame("does not parse")
        end = 4 + int.from_bytes(data[:4], "big")
        chunks.append(data[4:end])
        data = data[end:]
    if len(chunks) != count:
        raise MalformedFrame("wrong count")
    return chunks


# frames of small claimed lengths, so claims fall short of, match and
# overrun what follows them, plus arbitrary bytes
frames = st.one_of(
    st.binary(max_size=24),
    st.builds(
        lambda pieces, tail: b"".join(serialize.u32(n) + body for n, body in pieces) + tail,
        st.lists(st.tuples(st.integers(0, 8), st.binary(max_size=8)), max_size=5),
        st.binary(max_size=5),
    ),
)


@given(frames, st.integers(0, 6), st.integers(0, 8))
def test_unpack_agrees_with_a_reference_parser(data, count, width):
    try:
        want = reference_unpack(data, count)
    except MalformedFrame:
        with pytest.raises(MalformedFrame):
            serialize.unpack(data, count)
        with pytest.raises(MalformedFrame):
            serialize.unpack_vector(data, width, count)
        return
    assert serialize.unpack(data, count) == want
    # the vector codec reads the same chunks where every one has its
    # width, and refuses everything else
    if all(len(chunk) == width for chunk in want):
        assert serialize.unpack_vector(data, width, count) == want
    else:
        with pytest.raises(MalformedFrame):
            serialize.unpack_vector(data, width, count)


@given(st.integers(0, 40).flatmap(
    lambda width: st.lists(st.binary(min_size=width, max_size=width), max_size=8)
    .map(lambda items: (width, items))))
def test_pack_vector_equals_pack_of_its_elements(vector):
    width, items = vector
    assert serialize.pack_vector(items, width) == serialize.pack(*items)
    assert serialize.unpack_vector(serialize.pack(*items), width, len(items)) == items


@pytest.mark.parametrize("items", [[b"ab", b"abc"], [b"abc", b"ab"], [b""], [bytes(3), bytes(2)]])
def test_pack_vector_refuses_an_element_of_another_width(items):
    with pytest.raises(LengthMismatch, match="vector elements must be 2 bytes"):
        serialize.pack_vector(items, 2)


@pytest.mark.parametrize("data,width,count,message", [
    (b"\x00\x00", 2, None, "2 bytes are not whole 2-byte elements"),
    (serialize.pack(b"xy", b"zw"), 2, 3, "expected 3 elements, found 2"),
    (serialize.pack(b"xyz", b"w"), 0, None, "an element's length prefix is not 0"),
    (serialize.pack(b"xyz", b"w"), 2, None, "an element's length prefix is not 2"),
])
def test_unpack_vector_names_its_cause(data, width, count, message):
    # None: as many elements as data has room for, so the count passes
    if count is None:
        count = len(data) // (4 + width)
    with pytest.raises(MalformedFrame) as e:
        serialize.unpack_vector(data, width, count)
    assert str(e.value) == message


def test_no_input_makes_a_layout_for_a_shape_the_caller_did_not_name():
    # whole-element inputs of every size up to 200 elements, under one
    # count: all but the one of that count are refused before any layout
    # is built, so the layout cache holds the named shape alone
    serialize._vector_layout.cache_clear()
    for records in range(1, 201):
        data = serialize.pack_vector([b"abc"] * records, 3)
        if records == 32:
            assert serialize.unpack_vector(data, 3, 32) == [b"abc"] * 32
        else:
            with pytest.raises(MalformedFrame, match=f"expected 32 elements, found {records}"):
                serialize.unpack_vector(data, 3, 32)
    assert serialize._vector_layout.cache_info().currsize == 1


def test_pack_of_a_length_beyond_32_bits_overflows():
    class Huge:
        def __len__(self):
            return 2**32

    with pytest.raises(LengthOverflow, match="length 4294967296 does not fit in 4 bytes"):
        serialize.pack(b"fits", Huge())


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


@given(st.lists(st.integers(0, 255) | st.booleans(), max_size=40))
def test_bit_packing_reads_each_value_by_its_truth(values):
    # the per-bit loop pack_bits ran: a value sets its bit when it is true
    out = bytearray((len(values) + 7) // 8)
    for i, value in enumerate(values):
        if value:
            out[i // 8] |= 0x80 >> (i % 8)
    assert serialize.pack_bits(values) == bytes(out)


@given(st.data())
def test_join_and_split_fields_match_a_field_by_field_loop(data):
    count = data.draw(st.integers(1, 70))
    width = data.draw(st.integers(1, 20))
    stride = data.draw(st.integers(width, 40))
    fields = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=count, max_size=count))
    junk = data.draw(st.lists(st.integers(0, 2**(stride - width) - 1), min_size=count, max_size=count))
    spread = sum(f << stride * i for i, f in enumerate(fields))
    joined = sum(f << width * i for i, f in enumerate(fields))
    assert serialize.join_fields(spread, count, width, stride) == joined
    assert serialize.split_fields(joined, count, width, stride) == spread
    # bits above a field in its lane, or above the last field, are dropped
    noisy = spread + sum(j << stride * i + width for i, j in enumerate(junk))
    assert serialize.join_fields(noisy, count, width, stride) == joined
    assert serialize.split_fields(joined | 1 << width * count, count, width, stride) == spread
