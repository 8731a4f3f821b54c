"""Length-prefixed byte-string serialization.

Everything that crosses a module boundary as bytes uses the same framing:
each field is a 4-byte big-endian length followed by the raw bytes, fields
concatenated in declaration order.  Lengths must fit 32 bits.

A vector whose elements all have one width (a list of digests, say) has
its own codec, pack_vector and unpack_vector.  It writes the same bytes
as pack and reads what unpack reads, but handles the whole vector at
once rather than one element per loop step.
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


def unpack(data: bytes, count: int | None = None) -> list[bytes]:
    """Split a pack() result back into chunks.

    With count given, exactly that many chunks must consume the whole
    buffer; otherwise chunks are read until the buffer ends.
    """
    chunks = []
    offset = 0
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
    if count is not None and len(chunks) != count:
        raise MalformedFrame(f"expected {count} chunks, found {len(chunks)}")
    return chunks


def pack_vector(items, width: int) -> bytes:
    """pack(*items) for items that are all width bytes long, from one join;
    an element of another width raises LengthMismatch."""
    if not set(map(len, items)) <= {width}:
        raise LengthMismatch(f"vector elements must be {width} bytes")
    prefix = u32(width)
    return prefix + prefix.join(items) if items else b""


def _vector_layout(width: int, records: int) -> struct.Struct:
    return struct.Struct(">" + f"I{width}s" * records)


# layouts of the fixed shapes callers name by count; an uncounted parse
# builds its own, so arbitrary input cannot fill the cache with big layouts
_counted_layout = lru_cache(maxsize=64)(_vector_layout)


def unpack_vector(data: bytes, width: int, count: int | None = None) -> list[bytes]:
    """unpack(data, count) for a vector of width-byte elements, parsed with
    one struct call.  Any other input, including a chunk of another width,
    raises MalformedFrame."""
    records, rest = divmod(len(data), 4 + width)
    if rest:
        raise MalformedFrame(f"{len(data)} bytes are not whole {width}-byte elements")
    if count is not None and records != count:
        raise MalformedFrame(f"expected {count} elements, found {records}")
    layout = _vector_layout if count is None else _counted_layout
    fields = layout(width, records).unpack(data)
    # a chunk is bytes, so count(width) finds the length prefixes alone
    if fields.count(width) != records:
        raise MalformedFrame(f"an element's length prefix is not {width}")
    return list(fields[1::2])


def pack_bits(bits) -> bytes:
    """Pack a 0/1 sequence into bytes, first bit in the high bit of byte 0."""
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i // 8] |= 0x80 >> (i % 8)
    return bytes(out)
