"""Hash-based signatures: one-time schemes and a many-time Merkle scheme.

Three layers build on each other:

* Lamport one-time signatures: two secret strings per message bit, reveal
  one of them per bit, verify by hashing.
* Winternitz one-time signatures: the message is cut into w-bit chunks and
  each chunk value selects a depth in a hash chain, trading signature size
  against chain walking.  A checksum over the chunks stops an attacker
  from walking chains forward.
* A Merkle tree over many one-time public keys turns either into a
  many-time scheme: a signature bundles the one-time signature, the
  one-time public key, and the authentication path to the published root.

Messages enter the one-time layer as explicit bit lists (0/1 ints); the
many-time layer hashes byte messages down to a fixed bit length first.
All randomness comes from a caller-supplied random.Random so fixtures are
reproducible by seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from random import Random

from .errors import LengthMismatch, PqbenchError
from .hashing import HashFunction
from .serialize import MalformedFrame, pack, u32, unpack

SECRET_BYTES = 32


class NotPowerOfTwo(PqbenchError):
    """Merkle trees here only take power-of-two leaf counts."""


class IndexOutOfRange(PqbenchError):
    """Leaf index outside the tree."""


class KeysExhausted(PqbenchError):
    """A stateful many-time signer ran out of one-time keys."""


class InvalidBundle(PqbenchError):
    """A many-time signature bundle is structurally broken."""


def message_bits(h: HashFunction, msg: bytes, nbits: int) -> list[int]:
    """Hash a byte message down to nbits bits (big-endian bit order)."""
    digest = h(msg)
    while 8 * len(digest) < nbits:
        digest += h(digest)
    return [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(nbits)]


def _secrets(rng: Random, k: int) -> list[bytes]:
    """k secrets of SECRET_BYTES each, from one draw cut by one struct
    call.  randbytes(n) is getrandbits(8n) in little-endian order and
    SECRET_BYTES is a whole number of 32-bit words, so these are the bytes
    that k separate randbytes(SECRET_BYTES) calls would give."""
    return list(struct.unpack(f"{SECRET_BYTES}s" * k, rng.randbytes(k * SECRET_BYTES)))


def _check_bits(bits, nbits):
    if len(bits) != nbits:
        raise LengthMismatch(f"expected {nbits} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise LengthMismatch("bits must be 0 or 1")


# --- Lamport ---


@dataclass
class LamportKeypair:
    """secret[j][i] signs bit value j at position i; public holds the hashes."""

    msg_bits: int
    secret: tuple[list[bytes], list[bytes]]
    public: tuple[list[bytes], list[bytes]]


def lamport_keygen(msg_bits: int, h: HashFunction, rng: Random) -> LamportKeypair:
    if msg_bits <= 0:
        raise LengthMismatch("msg_bits must be positive")
    pool = _secrets(rng, 2 * msg_bits)
    hashed = h.each(pool)
    return LamportKeypair(msg_bits, (pool[:msg_bits], pool[msg_bits:]),
                          (hashed[:msg_bits], hashed[msg_bits:]))


def lamport_sign(kp: LamportKeypair, bits) -> list[bytes]:
    """Reveal secret[bit][i] for each message position i."""
    _check_bits(bits, kp.msg_bits)
    return [kp.secret[b][i] for i, b in enumerate(bits)]


def lamport_verify(public, bits, sig, h: HashFunction) -> bool:
    list0, list1 = public
    if not len(bits) == len(sig) == len(list0) == len(list1):
        return False
    if any(b not in (0, 1) for b in bits):
        return False
    pub = (list0, list1)
    return h.each(sig) == [pub[b][i] for i, b in enumerate(bits)]


def lamport_public_bytes(public, index: int) -> bytes:
    """Canonical serialization: list0, then list1, then the leaf index."""
    list0, list1 = public
    return pack(*list0) + pack(*list1) + u32(index)


# --- hash chains and Winternitz ---


def hash_chain(h: HashFunction, start: bytes, steps: int) -> bytes:
    """Apply h steps times; 0 steps returns start unchanged.  Each step
    hashes through a fresh state from h.new, and the digest returned is
    checked against h.output_bytes."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    new = h.new
    out = start
    for _ in range(steps):
        state = new()
        state.update(out)
        out = state.digest()
    if steps and len(out) != h.output_bytes:
        raise h.wrong_length(out)
    return out


@dataclass(frozen=True)
class WotsParams:
    """w is the chunk width in bits; chains have 2**w states."""

    w: int
    msg_bits: int

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("w must be >= 1")
        if self.msg_bits < 1 or self.msg_bits % self.w:
            raise ValueError("msg_bits must be a positive multiple of w")

    @property
    def chain_end(self) -> int:
        return 2**self.w - 1

    @property
    def msg_chunks(self) -> int:
        return self.msg_bits // self.w

    @property
    def checksum_chunks(self) -> int:
        # largest possible checksum, base 2**w digits needed to write it
        max_sum = self.msg_chunks * self.chain_end
        return max(1, math.ceil(math.log(max_sum + 1, 2**self.w)))

    @property
    def total_chunks(self) -> int:
        return self.msg_chunks + self.checksum_chunks


def _chunks(params: WotsParams, bits) -> list[int]:
    """Split bits into w-bit values and append the checksum digits."""
    _check_bits(bits, params.msg_bits)
    vals = []
    for i in range(params.msg_chunks):
        v = 0
        for b in bits[i * params.w : (i + 1) * params.w]:
            v = (v << 1) | b
        vals.append(v)
    checksum = sum(params.chain_end - v for v in vals)
    digits = []
    for _ in range(params.checksum_chunks):
        digits.append(checksum % (2**params.w))
        checksum //= 2**params.w
    vals.extend(reversed(digits))  # most significant digit first
    return vals


def wots_keygen(params: WotsParams, h: HashFunction, rng: Random):
    """Return (secret seed list, public element list).

    Each public element is the chain walked to its end and hashed once
    more, so a full-depth signature element still needs one hash to check.
    """
    secret = _secrets(rng, params.total_chunks)
    public = [hash_chain(h, s, params.chain_end + 1) for s in secret]
    return secret, public


def wots_sign(params: WotsParams, secret, bits, h: HashFunction) -> list[bytes]:
    if len(secret) != params.total_chunks:
        raise LengthMismatch("secret list has wrong length")
    return [hash_chain(h, secret[i], v) for i, v in enumerate(_chunks(params, bits))]


def wots_verify(params: WotsParams, public, bits, sig, h: HashFunction) -> bool:
    if len(public) != params.total_chunks or len(sig) != params.total_chunks:
        return False
    try:
        vals = _chunks(params, bits)
    except LengthMismatch:
        return False
    for i, v in enumerate(vals):
        if hash_chain(h, sig[i], params.chain_end - v + 1) != public[i]:
            return False
    return True


# --- Merkle trees ---


@dataclass
class MerkleTree:
    """levels[0] holds the hashed leaves, levels[-1] is [root]."""

    levels: list[list[bytes]]

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    @property
    def num_leaves(self) -> int:
        return len(self.levels[0])


@dataclass
class MerkleProof:
    """Authentication path; side 0 means the sibling joins on the left."""

    leaf_index: int
    siblings: list[tuple[bytes, int]]


def merkle_build(leaves, h: HashFunction) -> MerkleTree:
    n = len(leaves)
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"need a power-of-two leaf count, got {n}")
    levels = [h.each(leaves)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(h.each(map(bytes.__add__, prev[::2], prev[1::2])))
    return MerkleTree(levels)


def merkle_prove(tree: MerkleTree, index: int) -> MerkleProof:
    if not 0 <= index < tree.num_leaves:
        raise IndexOutOfRange(f"leaf {index} of {tree.num_leaves}")
    sibs = []
    i = index
    for level in tree.levels[:-1]:
        j = i ^ 1
        sibs.append((level[j], 0 if j < i else 1))
        i //= 2
    return MerkleProof(index, sibs)


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof, h: HashFunction) -> bool:
    acc = h(leaf)
    for sib, side in proof.siblings:
        acc = h(sib + acc) if side == 0 else h(acc + sib)
    return acc == root


# --- many-time scheme: Merkle tree over Lamport keys ---


@dataclass
class MssSignature:
    """Everything a verifier needs besides the root and the message."""

    leaf_index: int
    ots_signature: list[bytes]
    ots_public: tuple[list[bytes], list[bytes]]
    proof: MerkleProof


class MssSigner:
    """Many-time signer over num_leaves Lamport keypairs.

    Stateful mode walks leaves left to right and fails hard once they run
    out.  Stateless mode derives the leaf index from a secret and the
    message, so signing needs no mutable state (and index collisions
    between distinct messages are accepted as a property of that mode).
    """

    def __init__(self, num_leaves: int, msg_bits: int, h: HashFunction, rng: Random,
                 stateless: bool = False):
        if num_leaves < 1 or num_leaves & (num_leaves - 1):
            raise NotPowerOfTwo(f"need a power-of-two leaf count, got {num_leaves}")
        self.h = h
        self.msg_bits = msg_bits
        self.stateless = stateless
        self.stateless_secret = rng.randbytes(SECRET_BYTES)
        self.keypairs = [lamport_keygen(msg_bits, h, rng) for _ in range(num_leaves)]
        leaves = [
            lamport_public_bytes(kp.public, i) for i, kp in enumerate(self.keypairs)
        ]
        self.tree = merkle_build(leaves, h)
        self.next_index = 0

    @property
    def root(self) -> bytes:
        return self.tree.root

    def _pick_index(self, msg: bytes) -> int:
        if not self.stateless:
            if self.next_index >= len(self.keypairs):
                raise KeysExhausted(f"all {len(self.keypairs)} one-time keys used")
            i = self.next_index
            self.next_index += 1
            return i
        digest = self.h(self.stateless_secret + msg)
        return int.from_bytes(digest[:8], "big") % len(self.keypairs)

    def sign(self, msg: bytes) -> MssSignature:
        i = self._pick_index(msg)
        kp = self.keypairs[i]
        bits = message_bits(self.h, msg, self.msg_bits)
        return MssSignature(
            leaf_index=i,
            ots_signature=lamport_sign(kp, bits),
            ots_public=kp.public,
            proof=merkle_prove(self.tree, i),
        )


def serialize_mss_signature(sig: MssSignature) -> bytes:
    """Length-prefixed sections in declaration order: index, one-time
    signature, the two public lists, then the proof."""
    return pack(
        u32(sig.leaf_index),
        pack(*sig.ots_signature),
        pack(*sig.ots_public[0]),
        pack(*sig.ots_public[1]),
        u32(sig.proof.leaf_index),
        pack(*(sib for sib, _ in sig.proof.siblings)),
        bytes(side for _, side in sig.proof.siblings),
    )


def deserialize_mss_signature(data: bytes) -> MssSignature:
    try:
        idx, ots_sig, list0, list1, proof_idx, sibs, sides = unpack(data, 7)
        siblings = unpack(sibs)
    except MalformedFrame as e:
        raise InvalidBundle(f"bundle does not parse: {e}") from None
    if len(idx) != 4 or len(proof_idx) != 4:
        raise InvalidBundle("index fields must be 4 bytes")
    if len(siblings) != len(sides):
        raise InvalidBundle("sibling count disagrees with side flags")
    if any(side not in (0, 1) for side in sides):
        raise InvalidBundle("side flags must be 0 or 1")
    try:
        return MssSignature(
            leaf_index=int.from_bytes(idx, "big"),
            ots_signature=unpack(ots_sig),
            ots_public=(unpack(list0), unpack(list1)),
            proof=MerkleProof(int.from_bytes(proof_idx, "big"), list(zip(siblings, sides))),
        )
    except MalformedFrame as e:
        raise InvalidBundle(f"bundle does not parse: {e}") from None


def mss_verify(root: bytes, msg: bytes, sig: MssSignature, h: HashFunction) -> bool:
    """Check the one-time signature, then the path from its key to the root."""
    list0, list1 = sig.ots_public
    if len(list0) != len(list1) or not list0:
        raise InvalidBundle("one-time public key lists malformed")
    if sig.proof.leaf_index != sig.leaf_index:
        raise InvalidBundle("bundle index disagrees with proof index")
    bits = message_bits(h, msg, len(list0))
    if not lamport_verify(sig.ots_public, bits, sig.ots_signature, h):
        return False
    leaf = lamport_public_bytes(sig.ots_public, sig.leaf_index)
    return merkle_verify(root, leaf, sig.proof, h)
