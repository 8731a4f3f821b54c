"""Registered KEM and signature instances: the stub instances, the
helpers every signer shares, and the tables of built-in instances.

The stub instances are test doubles: honest implementations of the
contracts with configurable key and payload sizes, used by the handshake
simulation to model wire costs of schemes this package does not
implement.  Their filler bytes are one digest of a seed, repeated to
size, so producing or checking a stub key, ciphertext or signature
hashes each input byte once with h and costs one copy beyond that,
however many bytes it fills.

The scheme adapters live in adapters.  builtin_kems and builtin_sigs
import it when they are called, so a run that builds only stub suites
loads no scheme module.
"""

from __future__ import annotations

from random import Random

from .errors import PqbenchError
from .hashing import DEFAULT_HASH, HashFunction
from .kex import DecapsFailure, KemInstance, SigInstance, kem_from_encryption
from .serialize import join_fields, split_fields

KEM_SECRET_BITS = 32


# --- stubs ---


def identity_stub_kem(h: HashFunction = DEFAULT_HASH) -> KemInstance:
    """Identity 'encryption': the ciphertext is the bit string itself,
    closed up from one bit per byte and spread out again."""

    def encrypt_bits(bits: list[int], rng: Random) -> int:
        return join_fields(int.from_bytes(bytes(bits), "big"), len(bits), 1, 8)

    def decrypt_bits(secret, numeral: int) -> bytes:
        return split_fields(numeral, KEM_SECRET_BITS, 1, 8).to_bytes(KEM_SECRET_BITS, "big")

    return kem_from_encryption(
        "stub-kem",
        lambda rng: (b"", b""),
        lambda pk: encrypt_bits,
        decrypt_bits,
        KEM_SECRET_BITS,
        ciphertext_bits=1,
        h=h,
    )


def _stretch(h: HashFunction, seed: bytes, size: int) -> bytes:
    """size bytes of one digest of seed, repeated: the first size bytes
    of h(seed) * ceil(size / h.output_bytes).  The seed passes through
    the instance's own h, so every seed byte and the hash choice key
    every filler byte; the rest is one copy, whatever size is."""
    digest = h(seed)
    return (digest * -(-size // len(digest)))[:size]


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
    bytes, secret), and sign(secret, msg) signs with that secret as it
    was built."""

    def keypair(rng: Random):
        return derive(rng.randbytes(16))

    return SigInstance(name, keypair, sign, _rejecting(verify))


def sized_stub_sig(name: str, public_bytes: int, signature_bytes: int,
                   h: HashFunction = DEFAULT_HASH) -> SigInstance:
    """Honest fixed-size signatures: the signature is a stretch of one
    digest of public key and message, so verification genuinely depends
    on every byte of both while hashing each of them only once."""

    def derive(seed: bytes):
        public = _stretch(h, b"sigpk" + seed, public_bytes)
        return public, public

    def sign(public: bytes, msg: bytes):
        return _stretch(h, public + msg, signature_bytes)

    def verify(public: bytes, msg: bytes, signature: bytes):
        if len(signature) != signature_bytes:
            return False  # before any hash
        return signature == _stretch(h, public + msg, signature_bytes)

    return _seeded_sig(name, derive, sign, verify)


def builtin_kems(h: HashFunction = DEFAULT_HASH) -> dict[str, KemInstance]:
    # scheme modules load only when a built-in instance is asked for
    from .adapters import ecdh_toy_kem, lwe_kem, mceliece_kem

    kems = [ecdh_toy_kem(h), lwe_kem(h), mceliece_kem(h), identity_stub_kem(h)]
    return {k.name: k for k in kems}


def builtin_sigs(h: HashFunction = DEFAULT_HASH) -> dict[str, SigInstance]:
    # scheme modules load only when a built-in instance is asked for
    from .adapters import fs_dlog_sig, lamport_sig, mss_sig, uov_sig, wots_sig

    sigs = [lamport_sig(h), wots_sig(h), mss_sig(h), uov_sig(h), fs_dlog_sig(h)]
    return {s.name: s for s in sigs}
