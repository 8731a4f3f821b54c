"""Length-prefixed byte-string serialization.

Everything that crosses a module boundary as bytes uses the same framing:
each field is a 4-byte big-endian length followed by the raw bytes, fields
concatenated in declaration order.  Lengths must fit 32 bits.

A vector whose elements all have one width (a list of digests, say) has
its own codec, pack_vector and unpack_vector.  It writes the same bytes
as pack and reads what unpack reads, but handles the whole vector at
once rather than one element per loop step.

Bit fields have a whole-vector codec too: join_fields closes up fields
held in wider lanes of one int, split_fields spreads them out again, each
in a few big-int steps however many fields there are.
"""

import struct
from functools import lru_cache

from .errors import LengthMismatch, PqbenchError

U32_MAX = 2**32 - 1
_U32 = struct.Struct(">I")


class LengthOverflow(PqbenchError):
    """A length does not fit in the 4-byte prefix."""


class MalformedFrame(PqbenchError):
    """Bytes do not parse as the framing they claim to be."""


def u32(n: int) -> bytes:
    if not 0 <= n <= U32_MAX:
        raise LengthOverflow(f"length {n} does not fit in 4 bytes")
    return n.to_bytes(4, "big")


def read_u32(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Return (value, new_offset)."""
    if offset + 4 > len(data):
        raise MalformedFrame("truncated 4-byte length")
    return int.from_bytes(data[offset : offset + 4], "big"), offset + 4


def pack(*chunks: bytes) -> bytes:
    """Concatenate chunks, each with a 4-byte big-endian length prefix."""
    parts = []
    try:
        for c in chunks:
            parts.append(len(c).to_bytes(4, "big"))
            parts.append(c)
    except OverflowError:
        raise LengthOverflow(f"length {len(c)} does not fit in 4 bytes") from None
    return b"".join(parts)


def unpack(data: bytes, count: int, offset: int = 0) -> list[bytes]:
    """Split a pack() result that starts at offset back into its count
    chunks, which must consume the rest of the buffer."""
    chunks = []
    end = len(data)
    while offset < end:
        start = offset + 4
        if start > end:
            raise MalformedFrame("truncated 4-byte length")
        n = _U32.unpack_from(data, offset)[0]
        offset = start + n
        if offset > end:
            raise MalformedFrame(f"chunk claims {n} bytes, {end - start} remain")
        chunks.append(data[start:offset])
        if len(chunks) == count and offset != end:
            raise MalformedFrame("trailing bytes after final chunk")
    if len(chunks) != count:
        raise MalformedFrame(f"expected {count} chunks, found {len(chunks)}")
    return chunks


def pack_vector(items, width: int) -> bytes:
    """pack(*items) for items that are all width bytes long, from one join;
    an element of another width raises LengthMismatch."""
    if not set(map(len, items)) <= {width}:
        raise LengthMismatch(f"vector elements must be {width} bytes")
    prefix = u32(width)
    return prefix + prefix.join(items) if items else b""


# built only for the fixed shapes callers name by count, so arbitrary
# input cannot fill the cache with big layouts
@lru_cache(maxsize=64)
def _vector_layout(width: int, records: int) -> struct.Struct:
    return struct.Struct(">" + f"I{width}s" * records)


def unpack_vector(data: bytes, width: int, count: int) -> list[bytes]:
    """unpack(data, count) for a vector of width-byte elements, parsed with
    one struct call.  Any other input, including a chunk of another width,
    raises MalformedFrame."""
    records, rest = divmod(len(data), 4 + width)
    if rest:
        raise MalformedFrame(f"{len(data)} bytes are not whole {width}-byte elements")
    if records != count:
        raise MalformedFrame(f"expected {count} elements, found {records}")
    fields = _vector_layout(width, count).unpack(data)
    # a chunk is bytes, so count(width) finds the length prefixes alone
    if fields.count(width) != records:
        raise MalformedFrame(f"an element's length prefix is not {width}")
    return list(fields[1::2])


# bytes.translate table: 0 becomes the digit "0", any other byte "1"
_BIT_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


def pack_bits(bits) -> bytes:
    """Pack a 0/1 sequence into bytes, first bit in the high bit of byte 0.

    The bits are read as one binary numeral, in one pass: bytes(bits) is
    translated to ASCII digits, which int() parses, and the numeral is
    shifted to fill the last byte.  A byte value other than 0 or 1 packs
    as 1, as any true value did in a per-bit loop."""
    numeral = int(bytes(bits).translate(_BIT_DIGITS) or b"0", 2)
    return (numeral << (-len(bits) % 8)).to_bytes((len(bits) + 7) // 8, "big")


@lru_cache(maxsize=16)
def _field_steps(count: int, width: int, stride: int):
    """(lanes, steps) for join_fields: lanes selects the low width bits of
    each of the count lanes, and steps holds (shift, keep, move) for each
    step, in order.

    Before step s, fields sit in groups of g = 2^s, each group g * width
    bits wide, at a stride of g * stride bits.  The step pairs the groups
    up: keep selects the even groups where they are, move selects the odd
    ones once shifted down by g * (stride - width), next to their even
    neighbour, and the pairs are then 2g * stride apart."""

    def repeat(period, periods):  # a 1 at the start of each period
        return ((1 << period * periods) - 1) // ((1 << period) - 1)

    steps = []
    g = 1
    while g < count:
        period = 2 * g * stride
        low = (1 << g * width) - 1
        ones = repeat(period, -(-count // (2 * g)))
        steps.append((g * (stride - width), low * ones, (low << g * width) * ones))
        g *= 2
    return ((1 << width) - 1) * repeat(stride, count), steps


def join_fields(numeral: int, count: int, width: int, stride: int) -> int:
    """count fields of width bits, held stride >= width bits apart in
    numeral (field 0 lowest), as one int with the fields width bits apart.
    Bits of a lane beyond its field's width are dropped."""
    lanes, steps = _field_steps(count, width, stride)
    numeral &= lanes
    for shift, keep, move in steps:
        numeral = numeral & keep | numeral >> shift & move
    return numeral


def split_fields(numeral: int, count: int, width: int, stride: int) -> int:
    """join_fields undone: count fields of width bits, width bits apart in
    numeral (field 0 lowest), as one int with the fields stride bits apart.
    Bits beyond the count fields are dropped."""
    numeral &= (1 << width * count) - 1
    for shift, keep, move in reversed(_field_steps(count, width, stride)[1]):
        numeral = numeral & keep | (numeral & move) << shift
    return numeral
