"""Length-prefixed byte-string serialization.

Everything that crosses a module boundary as bytes uses the same framing:
each field is a 4-byte big-endian length followed by the raw bytes, fields
concatenated in declaration order.  Lengths must fit 32 bits.
"""

import struct

from .errors import PqbenchError

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


def pack_bits(bits) -> bytes:
    """Pack a 0/1 sequence into bytes, first bit in the high bit of byte 0."""
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i // 8] |= 0x80 >> (i % 8)
    return bytes(out)
