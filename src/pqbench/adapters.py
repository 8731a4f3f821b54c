"""The scheme adapters: the package's schemes as KemInstance / SigInstance
values from kex.

Each secret key stays in the form its scheme uses, so no sign or decaps
rebuilds or re-parses a key.  Every signer but the discrete-log one, whose
secret is its exponent and public value, goes through suites._seeded_sig:
keypair builds the full key from a 16-byte seed and keeps it as the
secret, with the seed too for uov, which signs at random.  wots's key is
its chains, every state keygen walked, so both its signatures in a
handshake, the issuer's and CertificateVerify, are lookups that hash only
the message.  Randomized signing draws from a hash of (seed or exponent,
message), so sign is a pure function of (secret, message) as the
contract requires.  That hash, and the one that stretches
a seed into a key, is the instance's own h, so an instance hashes with
nothing but the hash it was built with.  Every verify returns False when
the scheme rejects its input as malformed by raising a PqbenchError.

This is the one module that imports the scheme modules; suites.builtin_kems
and suites.builtin_sigs import it when they are called.
"""

from __future__ import annotations

import struct
from random import Random

from . import codecrypt, hashsig, lattice, mq, sigma
from .errors import DecodeFailure, LengthMismatch
from .hashing import DEFAULT_HASH, HashFunction
from .kex import (
    MAIN_CURVE,
    MAIN_GEN,
    MAIN_ORDER,
    KemInstance,
    SigInstance,
    ecdh_kem,
    kem_from_encryption,
)
from .serialize import (
    MalformedFrame,
    join_fields,
    pack,
    pack_vector,
    split_fields,
    unpack,
    unpack_vector,
)
from .suites import KEM_SECRET_BITS, _rejecting, _seeded_sig

LWE_PARAMS = lattice.guaranteed_params(n=4, q=521, m=8, b=10)
LWE_SCALAR_BITS = LWE_PARAMS.q.bit_length()  # one ciphertext field
LWE_SAMPLE = lattice.sample_lanes(LWE_PARAMS)  # one public sample: a, then b
UOV_PARAMS = mq.UovParams(o=2, v=4, q=7)
# safe prime: g = 4 generates the order-2003 subgroup, so forged or
# cross-message challenges collide with probability 1/2003, not 1/17
DLOG_P, DLOG_G = 4007, 4
MSS_LEAVES = 8
MSS_DEPTH = MSS_LEAVES.bit_length() - 1  # siblings on a path to the root
OTS_MSG_BITS = 32


def _seed_rng(h: HashFunction, *parts: bytes) -> Random:
    return Random(h(b"".join(parts)))


# --- LWE as a KEM ---


def _lwe_keygen(rng: Random) -> tuple[bytes, tuple[int, ...]]:
    kp = lattice.lwe_keygen(LWE_PARAMS, rng)
    return pack(*(LWE_SAMPLE.pack(*s.a, s.b) for s in kp.samples)), kp.secret


def _lwe_parse_pk(pk: bytes) -> list[int]:
    """The m samples of an lwe-toy public key, each as the int its bytes
    read big-endian: LWE_SAMPLE is the layout of lattice.sample_lanes, so
    that int is the packing lwe_encrypt_bits takes."""
    chunks = unpack(pk, LWE_PARAMS.m)
    for chunk in chunks:
        if len(chunk) != LWE_SAMPLE.size:
            raise MalformedFrame(f"LWE sample is {len(chunk)} bytes, expected {LWE_SAMPLE.size}")
        top = max(LWE_SAMPLE.unpack(chunk))
        if top >= LWE_PARAMS.q:
            raise MalformedFrame(f"LWE sample value {top} is not below q={LWE_PARAMS.q}")
    return [int.from_bytes(chunk, "big") for chunk in chunks]


def _lwe_encryptor(pk: bytes):
    """encrypt_bits for one public key: lattice.lwe_encrypt_bits, its
    lanes closed up into LWE_SCALAR_BITS-bit fields by one join_fields."""
    samples = _lwe_parse_pk(pk)
    fields = LWE_PARAMS.n + 1
    lane_bits = 8 * LWE_SAMPLE.size // fields  # one lattice.sample_lanes lane

    def encrypt_bits(bits: list[int], rng: Random) -> int:
        lanes = lattice.lwe_encrypt_bits(samples, bits, LWE_PARAMS, rng)
        return join_fields(lanes, len(bits) * fields, LWE_SCALAR_BITS, lane_bits)

    return encrypt_bits


def _lwe_decrypt_bits(secret: tuple[int, ...], numeral: int) -> list[int]:
    """lattice.lwe_decrypt_bit of every block, all blocks at once: a bit
    is 1 when b - <secret, a> mod q lies at least q/4 from zero.

    split_fields puts the fields in 32-bit lanes, the last field lowest, so
    a block's a_t sits n - t lanes above its b.  Times the secret packed
    one value per lane, s_t in lane t, the lane n above each b collects
    sum_t s_t a_t.  A lane of the product sums n products of a secret
    value and a field, each below q 2^10, so it stays far below 2^32 and
    never carries into the next; shifted down n lanes, the product holds
    each block's <secret, a> in its b lane.
    """
    q, n = LWE_PARAMS.q, LWE_PARAMS.n
    fields = n + 1
    layout = struct.Struct(f">{KEM_SECRET_BITS * fields}I")
    lanes = split_fields(numeral, KEM_SECRET_BITS * fields, LWE_SCALAR_BITS, 32)
    values = layout.unpack(lanes.to_bytes(layout.size, "big"))
    if max(values) >= q:
        worst = next(top for top in map(max, zip(*[iter(values)] * fields)) if top >= q)
        raise MalformedFrame(f"LWE ciphertext value {worst} is not below q={q}")
    weights = sum(s << 32 * t for t, s in enumerate(secret))
    inner = layout.unpack((lanes * weights >> 32 * n & (1 << 8 * layout.size) - 1)
                          .to_bytes(layout.size, "big"))
    low, high = q / 4, q - q / 4
    return [1 if low <= (b - p) % q <= high else 0
            for b, p in zip(values[n::fields], inner[n::fields])]


def lwe_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    return kem_from_encryption(
        "lwe-toy",
        _lwe_keygen,
        _lwe_encryptor,
        _lwe_decrypt_bits,
        KEM_SECRET_BITS,
        ciphertext_bits=(LWE_PARAMS.n + 1) * LWE_SCALAR_BITS,
        h=h,
    )


# --- code-based encryption as a KEM ---

MCELIECE_WORD_BITS = codecrypt.hamming_code(3).n  # each secret bit rides its own codeword


def _mceliece_keygen(rng: Random) -> tuple[bytes, codecrypt.McEliecePrivateKey]:
    pk, sk = codecrypt.mceliece_keygen(codecrypt.hamming_code(3), rng)
    return codecrypt.serialize_code_matrix(pk.matrix, pk.t), sk


def _mceliece_encryptor(pk: bytes):
    """encrypt_bits for one public key: codecrypt.mceliece_encrypt_bits,
    its words closed up by one join_fields.  A key read off the wire must
    carry the suite's code shape, hamming_code(3)'s n and k with t = 1:
    encrypting under a peer's n and t would cost the peer's choice of
    work, so any other shape is refused before a draw."""
    matrix, t = codecrypt.deserialize_code_matrix(pk)
    code = codecrypt.hamming_code(3)
    for field, got, want in (("n", matrix.cols, code.n), ("k", matrix.rows, code.k),
                             ("t", t, code.t)):
        if got != want:
            raise MalformedFrame(f"mceliece-toy public key has {field}={got}, expected {want}")
    key = codecrypt.McEliecePublicKey(matrix, t)

    def encrypt_bits(bits: list[int], rng: Random) -> int:
        words = codecrypt.mceliece_encrypt_bits(key, bits, rng)
        return join_fields(int.from_bytes(bytes(words), "big"), len(words), MCELIECE_WORD_BITS, 8)

    return encrypt_bits


def _mceliece_decrypt_bits(sk: codecrypt.McEliecePrivateKey, numeral: int) -> bytes:
    """codecrypt.mceliece_decrypt_words of every block, spread one per byte."""
    words = split_fields(numeral, KEM_SECRET_BITS, MCELIECE_WORD_BITS, 8)
    messages = codecrypt.mceliece_decrypt_words(sk, words.to_bytes(KEM_SECRET_BITS, "big"))
    if max(messages) >> 1:
        wide = next(m for m in messages if m >> 1)
        raise DecodeFailure(f"plaintext {wide} is not a single bit")
    return messages


def mceliece_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    return kem_from_encryption(
        "mceliece-toy",
        _mceliece_keygen,
        _mceliece_encryptor,
        _mceliece_decrypt_bits,
        KEM_SECRET_BITS,
        ciphertext_bits=MCELIECE_WORD_BITS,
        h=h,
    )


# --- ECDH as a KEM ---


def ecdh_toy_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    return ecdh_kem(MAIN_CURVE, MAIN_GEN, MAIN_ORDER, h, name="ecdh-toy")


# --- hash-based signers ---


def _require_secret_width(name: str, h: HashFunction) -> None:
    """The hash-based signers frame every key, signature and bundle as
    vectors of SECRET_BYTES elements, digests included, so they take only
    a hash of that output length."""
    if h.output_bytes != hashsig.SECRET_BYTES:
        raise LengthMismatch(
            f"{name} needs a {hashsig.SECRET_BYTES}-byte hash, {h.name} gives {h.output_bytes}"
        )


def lamport_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    _require_secret_width("lamport", h)
    width = hashsig.SECRET_BYTES

    def derive(seed: bytes):
        kp = hashsig.lamport_keygen(OTS_MSG_BITS, h, _seed_rng(h, b"lamport", seed))
        return pack(pack_vector(kp.public[0], width), pack_vector(kp.public[1], width)), kp

    def sign(kp, msg: bytes):
        bits = hashsig.message_bits(h, msg, OTS_MSG_BITS)
        return pack_vector(hashsig.lamport_sign(kp, bits), width)

    def verify(public: bytes, msg: bytes, signature: bytes):
        list0, list1 = (unpack_vector(half, width, OTS_MSG_BITS) for half in unpack(public, 2))
        sig = unpack_vector(signature, width, OTS_MSG_BITS)
        bits = hashsig.message_bits(h, msg, OTS_MSG_BITS)
        return hashsig.lamport_verify((list0, list1), bits, sig, h)

    return _seeded_sig("lamport", derive, sign, verify)


def wots_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    _require_secret_width("wots", h)
    params = hashsig.WotsParams(w=4, msg_bits=OTS_MSG_BITS)
    width, chunks = hashsig.SECRET_BYTES, params.total_chunks

    def derive(seed: bytes):
        chains, public = hashsig.wots_keygen(params, h, _seed_rng(h, b"wots", seed))
        return pack_vector(public, width), chains

    def sign(chains, msg: bytes):
        bits = hashsig.message_bits(h, msg, params.msg_bits)
        return pack_vector(hashsig.wots_sign(params, chains, bits), width)

    def verify(public: bytes, msg: bytes, signature: bytes):
        public_list = unpack_vector(public, width, chunks)
        sig = unpack_vector(signature, width, chunks)
        bits = hashsig.message_bits(h, msg, params.msg_bits)
        return hashsig.wots_verify(params, public_list, bits, sig, h)

    return _seeded_sig("wots", derive, sign, verify)


def mss_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    _require_secret_width("mss", h)

    def derive(seed: bytes):
        signer = hashsig.MssSigner(
            MSS_LEAVES, OTS_MSG_BITS, h, _seed_rng(h, b"mss", seed), stateless=True
        )
        return signer.root, signer

    def sign(signer, msg: bytes):
        return hashsig.serialize_mss_signature(signer.sign(msg))

    def verify(public: bytes, msg: bytes, signature: bytes):
        sig = hashsig.deserialize_mss_signature(signature, OTS_MSG_BITS, MSS_DEPTH)
        return hashsig.mss_verify(public, msg, sig, h)

    return _seeded_sig("mss", derive, sign, verify)


# --- multivariate signer ---


def uov_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    def derive(seed: bytes):
        kp = mq.uov_keygen(UOV_PARAMS, _seed_rng(h, b"uov", seed))
        return kp.public, (kp.private, seed)

    def sign(secret, msg: bytes):
        private, seed = secret
        return bytes(mq.uov_sign(private, msg, h, _seed_rng(h, b"uov-sign", seed, msg)))

    def verify(public: bytes, msg: bytes, signature: bytes):
        return mq.uov_verify(public, msg, signature, h)

    return _seeded_sig("uov", derive, sign, verify)


# --- discrete-log signer ---


def fs_dlog_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    setting = sigma.dlog_relation(DLOG_P, DLOG_G)

    def keypair(rng: Random):
        x, y = setting.keypair(rng)
        return y.to_bytes(8, "big"), (x, y)

    def sign(secret: tuple[int, int], msg: bytes):
        x, y = secret
        rng = _seed_rng(h, b"fs", x.to_bytes(8, "big"), msg)
        sig = sigma.fs_sign(setting.relation, x, y, msg, h, rng)
        return pack(sig.commitment, sig.response)

    def verify(public: bytes, msg: bytes, signature: bytes):
        commitment, response = unpack_vector(signature, 8, 2)  # before any hash
        y = int.from_bytes(public, "big")
        if len(public) != 8 or not 0 < y < setting.p:
            return False
        return sigma.fs_verify(
            setting.relation, y, msg, sigma.FsSignature(commitment, response), h
        )

    return SigInstance("fs-dlog", keypair, sign, _rejecting(verify))
