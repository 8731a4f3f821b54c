"""Hash-based signatures: one-time schemes and a many-time Merkle scheme.

Three layers build on each other:

* Lamport one-time signatures: two secret strings per message bit, reveal
  one of them per bit, verify by hashing.
* Winternitz one-time signatures: the message is cut into w-bit chunks and
  each chunk value selects a depth in a hash chain, trading signature size
  against chain walking.  A checksum over the chunks stops an attacker
  from walking chains forward.  Keygen walks every chain to its end once
  and keeps each state, so signing looks its elements up and hashes
  nothing: memory for time, as Winternitz implementations usually trade.
* A Merkle tree over many one-time public keys turns either into a
  many-time scheme: a signature bundles the one-time signature, the
  one-time public key, and the authentication path to the published root.

Messages enter the one-time layer as explicit bit lists (0/1 ints); the
many-time layer hashes byte messages down to a fixed bit length first.
All randomness comes from a caller-supplied random.Random so fixtures are
reproducible by seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from random import Random

from .errors import LengthMismatch, PqbenchError
from .hashing import HashFunction
from .serialize import MalformedFrame, pack, pack_vector, u32, unpack, unpack_vector

SECRET_BYTES = 32
# binary digit characters to bit values and back, for bytes.translate
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


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
    # the digest as a binary numeral, one character per bit, first bit first
    numeral = format(int.from_bytes(digest, "big"), f"0{8 * len(digest)}b")
    return list(numeral[:nbits].encode().translate(_DIGIT_VALUES))


def _secrets(rng: Random, k: int) -> list[bytes]:
    """k secrets of SECRET_BYTES each, from one draw cut by one struct
    call.  randbytes(n) is getrandbits(8n) in little-endian order and
    SECRET_BYTES is a whole number of 32-bit words, so these are the bytes
    that k separate randbytes(SECRET_BYTES) calls would give."""
    return list(struct.unpack(f"{SECRET_BYTES}s" * k, rng.randbytes(k * SECRET_BYTES)))


def _check_bits(bits, nbits):
    if len(bits) != nbits:
        raise LengthMismatch(f"expected {nbits} bits, got {len(bits)}")
    if not set(bits) <= {0, 1}:
        raise LengthMismatch("bits must be 0 or 1")


# --- Lamport ---


@dataclass
class LamportKeypair:
    """secret[j][i] signs bit value j at position i; public holds the hashes."""

    msg_bits: int
    secret: tuple[list[bytes], list[bytes]]
    public: tuple[list[bytes], list[bytes]]


def lamport_keygen(msg_bits: int, h: HashFunction, rng: Random) -> LamportKeypair:
    return _lamport_keygens(1, msg_bits, h, rng)[0]


def _lamport_keygens(count: int, msg_bits: int, h: HashFunction,
                     rng: Random) -> list[LamportKeypair]:
    """count keypairs from one _secrets draw and one h.each: the keys, and
    the rng state after, that count lamport_keygen calls in a row give."""
    if msg_bits <= 0:
        raise LengthMismatch("msg_bits must be positive")
    pool = _secrets(rng, 2 * msg_bits * count)
    hashed = h.each(pool)
    keypairs = []
    for start in range(0, len(pool), 2 * msg_bits):
        mid, end = start + msg_bits, start + 2 * msg_bits
        keypairs.append(LamportKeypair(msg_bits, (pool[start:mid], pool[mid:end]),
                                       (hashed[start:mid], hashed[mid:end])))
    return keypairs


def lamport_sign(kp: LamportKeypair, bits) -> list[bytes]:
    """Reveal secret[bit][i] for each message position i."""
    _check_bits(bits, kp.msg_bits)
    return [kp.secret[b][i] for i, b in enumerate(bits)]


def lamport_verify(public, bits, sig, h: HashFunction) -> bool:
    """False, before anything is hashed, when the lists disagree in length
    or a signature element is not a SECRET_BYTES secret."""
    list0, list1 = public
    if not len(bits) == len(sig) == len(list0) == len(list1):
        return False
    if not set(bits) <= {0, 1} or not set(map(len, sig)) <= {SECRET_BYTES}:
        return False
    pub = (list0, list1)
    return h.each(sig) == [pub[b][i] for i, b in enumerate(bits)]


def lamport_public_bytes(public, index: int) -> bytes:
    """Canonical serialization: list0, then list1, then the leaf index.
    Each list is a vector of SECRET_BYTES digests."""
    list0, list1 = public
    return pack_vector(list0, SECRET_BYTES) + pack_vector(list1, SECRET_BYTES) + u32(index)


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

    @cached_property
    def chain_end(self) -> int:
        return 2**self.w - 1

    @cached_property
    def msg_chunks(self) -> int:
        return self.msg_bits // self.w

    @cached_property
    def checksum_chunks(self) -> int:
        # base 2**w digits needed to write the largest possible checksum
        max_sum = self.msg_chunks * self.chain_end
        return -(-max_sum.bit_length() // self.w)

    @cached_property
    def total_chunks(self) -> int:
        return self.msg_chunks + self.checksum_chunks


def _chunks(params: WotsParams, bits) -> list[int]:
    """Split bits into w-bit values and append the checksum digits, most
    significant first: the bits read as one binary numeral, then cut by
    shifts and masks."""
    _check_bits(bits, params.msg_bits)
    w, mask = params.w, params.chain_end
    value = int(bytes(bits).translate(_DIGIT_CHARS), 2)
    vals = [(value >> shift) & mask for shift in range(params.msg_bits - w, -1, -w)]
    checksum = params.msg_chunks * mask - sum(vals)
    top = (params.checksum_chunks - 1) * w
    vals += [(checksum >> shift) & mask for shift in range(top, -1, -w)]
    return vals


def wots_keygen(params: WotsParams, h: HashFunction, rng: Random):
    """Return (chains, public element list).

    chains[i] holds chain i's states 0..chain_end, state 0 being its
    secret seed, so signing hashes nothing.  Each public element is the
    chain walked to its end and hashed once more, so a full-depth
    signature element still needs one hash to check.  Each chain is walked
    as hash_chain walks it, keeping every state.
    """
    new, steps = h.new, range(params.chain_end + 1)
    chains = []
    for out in _secrets(rng, params.total_chunks):
        chain = [out]
        for _ in steps:
            state = new()
            state.update(out)
            out = state.digest()
            chain.append(out)
        if len(out) != h.output_bytes:
            raise h.wrong_length(out)
        chains.append(chain)
    return chains, [chain.pop() for chain in chains]


def wots_sign(params: WotsParams, chains, bits) -> list[bytes]:
    """Each chain's state at its chunk's value, as wots_keygen kept it."""
    if len(chains) != params.total_chunks:
        raise LengthMismatch("chain list has wrong length")
    return [chain[v] for chain, v in zip(chains, _chunks(params, bits))]


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
        self.keypairs = _lamport_keygens(num_leaves, msg_bits, h, rng)
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
        pack_vector(sig.ots_signature, SECRET_BYTES),
        pack_vector(sig.ots_public[0], SECRET_BYTES),
        pack_vector(sig.ots_public[1], SECRET_BYTES),
        u32(sig.proof.leaf_index),
        pack_vector([sib for sib, _ in sig.proof.siblings], SECRET_BYTES),
        bytes(side for _, side in sig.proof.siblings),
    )


def deserialize_mss_signature(data: bytes, msg_bits: int, depth: int) -> MssSignature:
    """Parse a bundle of one shape: one-time lists of msg_bits elements and
    a proof of depth siblings, every element SECRET_BYTES long.  A bundle
    of any other shape is an InvalidBundle before anything is hashed, so it
    cannot pick how much a verifier hashes."""
    try:
        idx, ots_sig, list0, list1, proof_idx, sibs, sides = unpack(data, 7)
        ots_signature, public0, public1 = (
            unpack_vector(v, SECRET_BYTES, msg_bits) for v in (ots_sig, list0, list1)
        )
        siblings = unpack_vector(sibs, SECRET_BYTES, depth)
    except MalformedFrame as e:
        raise InvalidBundle(f"bundle does not parse: {e}") from None
    if len(idx) != 4 or len(proof_idx) != 4:
        raise InvalidBundle("index fields must be 4 bytes")
    if len(sides) != depth:
        raise InvalidBundle("sibling count disagrees with side flags")
    if any(side not in (0, 1) for side in sides):
        raise InvalidBundle("side flags must be 0 or 1")
    return MssSignature(
        leaf_index=int.from_bytes(idx, "big"),
        ots_signature=ots_signature,
        ots_public=(public0, public1),
        proof=MerkleProof(int.from_bytes(proof_idx, "big"), list(zip(siblings, sides))),
    )


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
