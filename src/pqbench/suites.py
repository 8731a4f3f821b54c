"""Registered KEM and signature instances over the package's schemes.

Everything here adapts a concrete scheme into the uniform KemInstance /
SigInstance contracts from kex.  Each secret key stays in the form its
scheme uses, so no sign or decaps rebuilds or re-parses a key.  Every
signer but the discrete-log one, whose secret is its exponent and public
value, goes through _seeded_sig: keypair builds the full key from a
16-byte seed and keeps (key, seed) as the secret.  Randomized signing
draws from a hash of (seed or exponent, message), so sign is a pure
function of (secret, message) as the contract requires.  That hash, and
the one that stretches a seed into a key, is the instance's own h, so an
instance hashes with nothing but the hash it was built with.  Every
verify returns False when the scheme rejects its input as malformed by
raising a PqbenchError.

The stub instances are test doubles: honest implementations of the
contracts with configurable key and payload sizes, used by the handshake
simulation to model wire costs of schemes this package does not
implement.  Their filler bytes are expanded from one digest of a seed,
so producing or checking a stub key, ciphertext or signature hashes each
input byte once, however many bytes it expands to.
"""

from __future__ import annotations

import struct
from functools import partial
from random import Random

from . import codecrypt, hashsig, lattice, mq, sigma
from .errors import DecodeFailure, PqbenchError
from .hashing import DEFAULT_HASH, HashFunction
from .kex import (
    MAIN_CURVE,
    MAIN_GEN,
    MAIN_ORDER,
    DecapsFailure,
    KemInstance,
    SigInstance,
    ecdh_kem,
    kem_from_encryption,
)
from .serialize import MalformedFrame, pack, unpack

LWE_PARAMS = lattice.guaranteed_params(n=4, q=521, m=8, b=10)
LWE_SCALAR_BITS = LWE_PARAMS.q.bit_length()  # one ciphertext field
LWE_SAMPLE = struct.Struct(f">{LWE_PARAMS.n + 1}H")  # one public sample: a, then b
UOV_PARAMS = mq.UovParams(o=2, v=4, q=7)
# safe prime: g = 4 generates the order-2003 subgroup, so forged or
# cross-message challenges collide with probability 1/2003, not 1/17
DLOG_P, DLOG_G = 4007, 4
KEM_SECRET_BITS = 32
MSS_LEAVES = 8
MSS_DEPTH = MSS_LEAVES.bit_length() - 1  # siblings on a path to the root
OTS_MSG_BITS = 32


def _seed_rng(h: HashFunction, *parts: bytes) -> Random:
    return Random(h(b"".join(parts)))


# --- LWE as a KEM ---


def _lwe_keygen(rng: Random) -> tuple[bytes, tuple[int, ...]]:
    kp = lattice.lwe_keygen(LWE_PARAMS, rng)
    return pack(*(LWE_SAMPLE.pack(*s.a, s.b) for s in kp.samples)), kp.secret


def _lwe_parse_pk(pk: bytes) -> list[lattice.LweSample]:
    samples = []
    for chunk in unpack(pk, LWE_PARAMS.m):
        if len(chunk) != LWE_SAMPLE.size:
            raise MalformedFrame(f"LWE sample is {len(chunk)} bytes, expected {LWE_SAMPLE.size}")
        vals = LWE_SAMPLE.unpack(chunk)
        if max(vals) >= LWE_PARAMS.q:
            raise MalformedFrame(f"LWE sample value {max(vals)} is not below q={LWE_PARAMS.q}")
        samples.append(lattice.LweSample(vals[:-1], vals[-1]))
    return samples


def _lwe_encrypt_bit(samples: list[lattice.LweSample], bit: int, rng: Random) -> int:
    a, b = lattice.lwe_encrypt_bit(samples, bit, LWE_PARAMS, rng)
    acc = 0
    for x in (*a, b):
        acc = (acc << LWE_SCALAR_BITS) | x
    return acc


def _lwe_decrypt_bit(secret: tuple[int, ...], block: int) -> int:
    w = LWE_SCALAR_BITS
    mask = (1 << w) - 1
    vals = [(block >> (w * i)) & mask for i in reversed(range(LWE_PARAMS.n + 1))]
    if max(vals) >= LWE_PARAMS.q:
        raise MalformedFrame(f"LWE ciphertext value {max(vals)} is not below q={LWE_PARAMS.q}")
    return lattice.lwe_decrypt_bit(secret, (vals[:-1], vals[-1]), LWE_PARAMS)


def lwe_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    return kem_from_encryption(
        "lwe-toy",
        _lwe_keygen,
        lambda pk: partial(_lwe_encrypt_bit, _lwe_parse_pk(pk)),
        _lwe_decrypt_bit,
        KEM_SECRET_BITS,
        ciphertext_bits=(LWE_PARAMS.n + 1) * LWE_SCALAR_BITS,
        h=h,
    )


# --- code-based encryption as a KEM ---


def _mceliece_keygen(rng: Random) -> tuple[bytes, codecrypt.McEliecePrivateKey]:
    pk, sk = codecrypt.mceliece_keygen(codecrypt.hamming_code(3), rng)
    return codecrypt.serialize_code_matrix(pk.matrix, pk.t), sk


def _mceliece_parse_pk(pk: bytes) -> codecrypt.McEliecePublicKey:
    return codecrypt.McEliecePublicKey(*codecrypt.deserialize_code_matrix(pk))


def _mceliece_decrypt_bit(sk: codecrypt.McEliecePrivateKey, block: int) -> int:
    m = codecrypt.mceliece_decrypt(sk, block)
    if m >> 1:
        raise DecodeFailure(f"plaintext {m} is not a single bit")
    return m


def mceliece_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    # each secret bit rides its own length-7 codeword
    return kem_from_encryption(
        "mceliece-toy",
        _mceliece_keygen,
        lambda pk: partial(codecrypt.mceliece_encrypt, _mceliece_parse_pk(pk)),
        _mceliece_decrypt_bit,
        KEM_SECRET_BITS,
        ciphertext_bits=7,
        h=h,
    )


# --- ECDH as a KEM ---


def ecdh_toy_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    return ecdh_kem(MAIN_CURVE, MAIN_GEN, MAIN_ORDER, h, name="ecdh-toy")


# --- stubs ---


def identity_stub_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    """Identity 'encryption': the ciphertext is the bit string itself."""
    return kem_from_encryption(
        "stub-kem",
        lambda rng: (b"", b""),
        lambda pk: lambda bit, rng: bit,
        lambda sk, block: block,
        KEM_SECRET_BITS,
        ciphertext_bits=1,
        h=h,
    )


def _stretch(h: HashFunction, seed: bytes, size: int) -> bytes:
    """size bytes expanded from one digest of seed, in counter mode: block
    i is h(h(seed) + u32(i)).  Each block forks one state that has already
    absorbed h(seed), so the digest is not hashed again per block.  The
    counter is packed inline rather than through u32, whose range check
    cannot fail here and costs a tenth of this loop."""
    primed = h.new()
    primed.update(h(seed))
    out = []
    for counter in range(-(-size // h.output_bytes)):
        block = primed.copy()
        block.update(counter.to_bytes(4, "big"))
        out.append(block.digest())
    return b"".join(out)[:size]


def sized_stub_kem(name: str, public_bytes: int, ciphertext_bytes: int,
                   h: HashFunction = DEFAULT_HASH) -> KemInstance:
    """Honest KEM whose key and ciphertext sizes are dialed in from the
    outside; used to model wire costs of schemes not implemented here."""

    def keypair(rng: Random):
        public = _stretch(h, b"pk" + rng.randbytes(16), public_bytes)
        return public, public

    def encaps(public: bytes, rng: Random):
        if len(public) != public_bytes:
            raise DecapsFailure(f"{name}: unexpected public key size {len(public)}")
        shared = h(b"ss" + public)
        return _stretch(h, b"ct" + shared, ciphertext_bytes), shared

    def decaps(public: bytes, ciphertext: bytes):
        if len(ciphertext) != ciphertext_bytes:
            raise DecapsFailure(f"{name}: unexpected ciphertext size {len(ciphertext)}")
        return h(b"ss" + public)

    return KemInstance(name, keypair, encaps, decaps)


def _rejecting(verify):
    """verify, with a PqbenchError raised on malformed input read as False."""

    def checked(public: bytes, msg: bytes, signature: bytes) -> bool:
        try:
            return verify(public, msg, signature)
        except PqbenchError:
            return False

    return checked


def _seeded_sig(name: str, derive, sign, verify) -> SigInstance:
    """A signer keyed by a 16-byte seed: derive(seed) builds (public
    bytes, full key), the secret is (key, seed), and sign(key, seed, msg)
    signs with the built key."""

    def keypair(rng: Random):
        seed = rng.randbytes(16)
        public, key = derive(seed)
        return public, (key, seed)

    def sign_with_key(secret, msg: bytes):
        key, seed = secret
        return sign(key, seed, msg)

    return SigInstance(name, keypair, sign_with_key, _rejecting(verify))


def sized_stub_sig(name: str, public_bytes: int, signature_bytes: int,
                   h: HashFunction = DEFAULT_HASH) -> SigInstance:
    """Honest fixed-size signatures: the signature is a stretch of one
    digest of public key and message, so verification genuinely depends
    on every byte of both while hashing each of them only once."""

    def derive(seed: bytes):
        public = _stretch(h, b"sigpk" + seed, public_bytes)
        return public, public

    def sign(public: bytes, seed: bytes, msg: bytes):
        return _stretch(h, public + msg, signature_bytes)

    def verify(public: bytes, msg: bytes, signature: bytes):
        return signature == _stretch(h, public + msg, signature_bytes)

    return _seeded_sig(name, derive, sign, verify)


# --- hash-based signers ---


def lamport_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    def derive(seed: bytes):
        kp = hashsig.lamport_keygen(OTS_MSG_BITS, h, _seed_rng(h, b"lamport", seed))
        return pack(pack(*kp.public[0]), pack(*kp.public[1])), kp

    def sign(kp, seed: bytes, msg: bytes):
        bits = hashsig.message_bits(h, msg, OTS_MSG_BITS)
        return pack(*hashsig.lamport_sign(kp, bits))

    def verify(public: bytes, msg: bytes, signature: bytes):
        list0, list1 = (unpack(half) for half in unpack(public, 2))
        bits = hashsig.message_bits(h, msg, OTS_MSG_BITS)
        return hashsig.lamport_verify((list0, list1), bits, unpack(signature), h)

    return _seeded_sig("lamport", derive, sign, verify)


def wots_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    params = hashsig.WotsParams(w=4, msg_bits=OTS_MSG_BITS)

    def derive(seed: bytes):
        sk, public = hashsig.wots_keygen(params, h, _seed_rng(h, b"wots", seed))
        return pack(*public), sk

    def sign(sk, seed: bytes, msg: bytes):
        bits = hashsig.message_bits(h, msg, params.msg_bits)
        return pack(*hashsig.wots_sign(params, sk, bits, h))

    def verify(public: bytes, msg: bytes, signature: bytes):
        bits = hashsig.message_bits(h, msg, params.msg_bits)
        return hashsig.wots_verify(params, unpack(public), bits, unpack(signature), h)

    return _seeded_sig("wots", derive, sign, verify)


def mss_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    def derive(seed: bytes):
        signer = hashsig.MssSigner(
            MSS_LEAVES, OTS_MSG_BITS, h, _seed_rng(h, b"mss", seed), stateless=True
        )
        return signer.root, signer

    def sign(signer, seed: bytes, msg: bytes):
        return hashsig.serialize_mss_signature(signer.sign(msg))

    def verify(public: bytes, msg: bytes, signature: bytes):
        sig = hashsig.deserialize_mss_signature(signature)
        # the bundle's own list lengths would set the message width and the
        # proof depth, and so how much is hashed before it can be refused
        widths = {len(sig.ots_signature), *map(len, sig.ots_public)}
        if widths != {OTS_MSG_BITS} or len(sig.proof.siblings) != MSS_DEPTH:
            return False
        return hashsig.mss_verify(public, msg, sig, h)

    return _seeded_sig("mss", derive, sign, verify)


# --- multivariate signer ---


def uov_sig(h: HashFunction = DEFAULT_HASH) -> SigInstance:
    def derive(seed: bytes):
        kp = mq.uov_keygen(UOV_PARAMS, _seed_rng(h, b"uov", seed))
        return mq.serialize_system(kp.public), kp.private

    def sign(private, seed: bytes, msg: bytes):
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
        commitment, response = unpack(signature, 2)
        y = int.from_bytes(public, "big")
        if len(public) != 8 or not 0 < y < setting.p:
            return False
        return sigma.fs_verify(
            setting.relation, y, msg, sigma.FsSignature(commitment, response), h
        )

    return SigInstance("fs-dlog", keypair, sign, _rejecting(verify))


def builtin_kems(h: HashFunction = DEFAULT_HASH) -> dict[str, KemInstance]:
    kems = [ecdh_toy_kem(h), lwe_kem(h), mceliece_kem(h), identity_stub_kem(h)]
    return {k.name: k for k in kems}


def builtin_sigs(h: HashFunction = DEFAULT_HASH) -> dict[str, SigInstance]:
    sigs = [lamport_sig(h), wots_sig(h), mss_sig(h), uov_sig(h), fs_dlog_sig(h)]
    return {s.name: s for s in sigs}
