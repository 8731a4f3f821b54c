"""Binary linear codes and code-based public-key encryption.

A LinearCode carries a generator matrix plus a decoder that corrects up
to t errors.  The public-key scheme hides the structured generator G
behind an invertible scramble S and a column permutation P: the public
matrix is G' = S G P, encryption adds a weight-t error to m G', and the
holder of (S, P, decoder) strips the permutation, decodes, and unscrambles.

Words and messages are plain ints, bit j = coordinate j.  Only desk-scale
parameters are in scope; the brute-force decoder exists as an oracle to
check the algebraic one against and caps its own search space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from random import Random
from typing import Callable

from .binmat import (
    BinaryMatrix,
    invert_permutation,
    permute_lanes,
    permute_word,
    random_invertible,
    random_permutation,
)
from .errors import DecodeFailure, DimensionMismatch, TooLarge
from .kex import draws
from .serialize import MalformedFrame, u32

BRUTE_FORCE_MAX_K = 20


def hamming_weight(word: int) -> int:
    return word.bit_count()


def hamming_distance(a: int, b: int) -> int:
    return (a ^ b).bit_count()


@dataclass
class LinearCode:
    """An [n, k] code correcting up to t errors.

    decoder takes a received n-bit word and returns the k-bit message
    (not the codeword), raising DecodeFailure when it cannot.
    """

    n: int
    k: int
    t: int
    generator: BinaryMatrix
    decoder: Callable[[int], int] = field(repr=False)

    def __post_init__(self):
        if (self.generator.rows, self.generator.cols) != (self.k, self.n):
            raise DimensionMismatch("generator must be k x n")

    def encode(self, m: int) -> int:
        return self.generator.vec_mul(m)

    @cached_property
    def decode_table(self) -> bytes:
        """decoder(w) for every n-bit word w, as a bytes.translate table:
        built once per code, for one whose words and messages fit a byte
        and whose decoder takes every word."""
        return bytes(map(self.decoder, range(1 << self.n))).ljust(256, b"\0")


@cache
def hamming_code(r: int) -> LinearCode:
    """The [2^r - 1, 2^r - 1 - r] single-error-correcting code, built once
    per r.

    Built in systematic form G = [I_k | A]: the first k coordinates carry
    the message.  The parity-check columns enumerate every nonzero r-bit
    vector, so a single error's syndrome names its position directly.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    n = 2**r - 1
    k = n - r
    units = {1 << i for i in range(r)}
    non_units = [v for v in range(1, n + 1) if v not in units]
    assert len(non_units) == k
    a = BinaryMatrix(k, r, non_units)
    gen = BinaryMatrix(k, n, [(1 << i) | (a.data[i] << k) for i in range(k)])

    # column j of the parity check matrix, as an r-bit syndrome value
    columns = non_units + [1 << i for i in range(r)]
    position_of = {syndrome: j for j, syndrome in enumerate(columns)}

    def decoder(word: int) -> int:
        if word >> n:
            raise DecodeFailure(f"word has bits beyond coordinate {n - 1}")
        msg_part = word & ((1 << k) - 1)
        parity = word >> k
        # syndrome of [msg | parity] against H = [A^T | I_r], row-vector form
        syndrome = a.vec_mul(msg_part) ^ parity
        if syndrome:
            word ^= 1 << position_of[syndrome]
        return word & ((1 << k) - 1)

    return LinearCode(n=n, k=k, t=1, generator=gen, decoder=decoder)


def brute_force_decode(code: LinearCode, word: int) -> int:
    """Nearest-codeword search over every message.

    Ties on distance go to the numerically smallest message.  Refuses
    k > BRUTE_FORCE_MAX_K rather than grinding forever.
    """
    if code.k > BRUTE_FORCE_MAX_K:
        raise TooLarge(f"k={code.k} exceeds brute-force cap {BRUTE_FORCE_MAX_K}")
    best_m, best_d = 0, hamming_distance(word, code.encode(0))
    for m in range(1, 2**code.k):
        d = hamming_distance(word, code.encode(m))
        if d < best_d:
            best_m, best_d = m, d
    return best_m


@dataclass
class McEliecePublicKey:
    matrix: BinaryMatrix  # G' = S G P, shape k x n
    t: int


@dataclass
class McEliecePrivateKey:
    code: LinearCode
    s_inverse: BinaryMatrix
    perm_inverse: list[int]


def mceliece_keygen(
    code: LinearCode,
    rng: Random,
    scramble: BinaryMatrix | None = None,
    perm: list[int] | None = None,
) -> tuple[McEliecePublicKey, McEliecePrivateKey]:
    """Hide the code behind a scramble and a permutation.

    S^-1 comes with the drawn scramble from random_invertible; only a
    scramble passed in is inverted here.  scramble and perm exist as test
    hooks; passing identity for both makes the scheme collapse to the bare
    code.
    """
    if scramble is None:
        scramble, s_inverse = random_invertible(code.k, rng)
    else:
        s_inverse = scramble.inverse()
    if perm is None:
        perm = random_permutation(code.n, rng)
    public = scramble.mul(code.generator).permute_cols(perm)
    return (
        McEliecePublicKey(matrix=public, t=code.t),
        McEliecePrivateKey(code=code, s_inverse=s_inverse, perm_inverse=invert_permutation(perm)),
    )


def random_error(n: int, t: int, rng: Random) -> int:
    e = 0
    for i in rng.sample(range(n), t):
        e |= 1 << i
    return e


def mceliece_encrypt(pk: McEliecePublicKey, m: int, rng: Random, error: int | None = None) -> int:
    """c = m G' + e with a random weight-t error (injectable for tests)."""
    if m >> pk.matrix.rows:
        raise DimensionMismatch(f"message has bits beyond coordinate {pk.matrix.rows - 1}")
    if error is None:
        error = random_error(pk.matrix.cols, pk.t, rng)
    elif hamming_weight(error) > pk.t:
        raise DimensionMismatch(f"error weight {hamming_weight(error)} exceeds t={pk.t}")
    return pk.matrix.vec_mul(m) ^ error


def mceliece_encrypt_bits(pk: McEliecePublicKey, bits, rng: Random) -> list[int]:
    """mceliece_encrypt of each one-bit message in turn, in one call, under
    a key with t = 1, as every hamming_code key has.

    An error is then one position, and rng.sample(range(n), 1) takes
    exactly one randrange(n) draw, so every error comes from one draws
    call and the RNG stream is the one len(bits) calls of mceliece_encrypt
    take.  A key with any other t is refused before a draw."""
    if pk.t != 1:
        raise DimensionMismatch(f"encrypting bits at once needs t=1, the key has t={pk.t}")
    if not set(bits) <= {0, 1}:
        raise DimensionMismatch("messages must be single bits")
    codewords = (0, pk.matrix.data[0])  # m G' for m = 0 and m = 1
    errors = draws(rng, pk.matrix.cols, len(bits))
    return [codewords[bit] ^ (1 << e) for bit, e in zip(bits, errors)]


def mceliece_decrypt(sk: McEliecePrivateKey, c: int) -> int:
    """Unpermute, decode to the scrambled message, then unscramble."""
    w = permute_word(c, sk.perm_inverse)
    ms = sk.code.decoder(w)  # DecodeFailure propagates
    return sk.s_inverse.vec_mul(ms)


def mceliece_decrypt_words(sk: McEliecePrivateKey, words):
    """mceliece_decrypt of every word in turn, in one call, for a code
    whose words and messages fit a byte (n and k at most 8), as
    mceliece-toy's [7, 4] code does; a wider code is refused.

    The messages come back as bytes, and each step runs on every word at
    once, the words read as one int with byte i holding word i:
    unpermuting is one binmat.permute_lanes, decoding one bytes.translate
    through the code's decode_table.  Unscrambling is bit-sliced too:
    message bit j of every word, times row j of S^-1 (below 2^k, so no
    byte carries), puts that row in every byte whose bit is set, and the
    rows XOR together.
    """
    n, k = sk.code.n, sk.code.k
    if n > 8 or k > 8:
        raise DimensionMismatch(f"decrypting words at once needs n, k <= 8, not [{n}, {k}]")
    if max(words, default=0) >> n:
        raise DecodeFailure(f"word has bits beyond coordinate {n - 1}")
    size = len(words)
    low = int.from_bytes(b"\1" * size, "big")  # bit 0 of every byte
    unpermuted = permute_lanes(int.from_bytes(bytes(words), "big"), low, sk.perm_inverse)
    decoded = unpermuted.to_bytes(size, "big").translate(sk.code.decode_table)
    decoded = int.from_bytes(decoded, "big")
    messages = 0
    for j, row in enumerate(sk.s_inverse.data):
        messages ^= (decoded >> j & low) * row
    return messages.to_bytes(size, "big")


def serialize_code_matrix(matrix: BinaryMatrix, t: int) -> bytes:
    """Header (n, k, t as 4-byte big-endian) then one packed row at a time."""
    n, k = matrix.cols, matrix.rows
    row_bytes = (n + 7) // 8
    out = bytearray(u32(n) + u32(k) + u32(t))
    for row in matrix.data:
        out += row.to_bytes(row_bytes, "big")
    return bytes(out)


def deserialize_code_matrix(data: bytes) -> tuple[BinaryMatrix, int]:
    if len(data) < 12:
        raise MalformedFrame("matrix header truncated")
    n = int.from_bytes(data[0:4], "big")
    k = int.from_bytes(data[4:8], "big")
    t = int.from_bytes(data[8:12], "big")
    if t > n:
        raise MalformedFrame(f"t={t} exceeds code length n={n}")
    # checked before any matrix exists: k = 0 would pass the length check
    # below and then build a 0 x n matrix whose masks hold n bits
    if not 1 <= k <= n:
        raise MalformedFrame(f"row count k={k} is outside 1..n={n}")
    row_bytes = (n + 7) // 8
    if len(data) != 12 + k * row_bytes:
        raise MalformedFrame(f"expected {12 + k * row_bytes} bytes, got {len(data)}")
    rows = []
    for i in range(k):
        start = 12 + i * row_bytes
        row = int.from_bytes(data[start : start + row_bytes], "big")
        if row >> n:
            raise MalformedFrame("row has bits beyond n")
        rows.append(row)
    return BinaryMatrix(k, n, rows), t
