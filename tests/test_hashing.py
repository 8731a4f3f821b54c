import hashlib

import pytest
from hypothesis import given, strategies as st

from pqbench.hashing import DEFAULT_HASH, PQH, HashFunction, mix64
from pqbench.hashsig import hash_chain


def test_mix64_is_deterministic_and_64bit():
    assert mix64(0) == mix64(0)
    for x in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(x) < 2**64
    # frozen from a first run, guards against accidental constant edits
    assert mix64(1) == 0x5692161D100B05E5


def test_default_is_blake2b_256():
    assert DEFAULT_HASH.name == "blake2b256"
    assert DEFAULT_HASH.output_bytes == 32


def test_digest_length_and_determinism():
    h = PQH
    assert (h.name, h.output_bytes) == ("pqh256", 32)
    d = h(b"some message")
    assert len(d) == 32
    assert d == h(b"some message")
    assert h(b"some message") != h(b"some messagf")


def test_empty_and_length_separation():
    h = PQH
    assert h(b"") != h(b"\x00")
    # absorbing happens in 8-byte words; the length absorb must keep
    # short zero-padded inputs apart
    assert h(b"\x00" * 7) != h(b"\x00" * 8)


def test_single_bit_flip_diffuses():
    h = PQH
    base = h(b"diffusion probe")
    for byte_i in range(8):
        for bit in range(8):
            msg = bytearray(b"diffusion probe")
            msg[byte_i] ^= 1 << bit
            other = h(bytes(msg))
            assert other != base
            # at least a quarter of output bytes should move
            diff = sum(a != b for a, b in zip(base, other))
            assert diff >= 8


def refuses_every_digest(bad):
    for hashes in (lambda: bad(b"x"), lambda: bad.each([b"x"]),
                   lambda: hash_chain(bad, b"x", 1), lambda: hash_chain(bad, b"x", 3)):
        with pytest.raises(ValueError, match="bad: returned"):
            hashes()


def test_apply_must_honor_declared_length():
    refuses_every_digest(HashFunction("bad", 32, lambda data: b"short"))


def test_new_state_must_honor_declared_length():
    # apply gives the declared length, but a call hashes through new_state
    refuses_every_digest(HashFunction("bad", 32, lambda data: bytes(32),
                                      lambda: hashlib.blake2b(digest_size=16)))


def test_default_is_hashlibs_blake2b_256():
    # BLAKE2b-256("abc"), the RFC 7693 function at a 32-byte digest size
    assert DEFAULT_HASH(b"abc").hex() == (
        "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
    )
    for n in (0, 1, 63, 64, 65, 1024):
        want = hashlib.blake2b(message(n), digest_size=32).digest()
        assert DEFAULT_HASH(message(n)) == want
        state = DEFAULT_HASH.new()
        assert type(state) is hashlib.blake2b  # the C object, with no wrapper
        state.update(message(n))
        assert state.digest() == want


# 32-byte pqh digests of message(n), frozen from the one-shot
# implementation before streaming existed
PQH_VECTORS = {
    0: "5391d8fe60c81574549d14aed29a0d7ecff38bc1675c542e570a7ce3562ea683",
    1: "817cb7033e5beee67b3f0db2436698b770cbe695b906b60f647ca32f8b037eff",
    2: "ba46c94f6080d6bf78cd81356e3bb6e2ed31803bed493578bcf7ff7d5aa6333c",
    3: "26a59e7c9b23fff7f76b51aee9b1f8044aac506da26375dfb20c039cbeb77c39",
    4: "1925562c830cddf789b8ee352b27beae12e73e65135ce769c1035eb7cdc591ec",
    5: "22aa60cfc63291c589095a3c2ca9487b6633f5472bfacce250912549a219cbb0",
    6: "e7d4a87be84e9b8d61e0548ca40fbc054b1920dbc1231697b5a8f579d1439a77",
    7: "7fa2eadaac3f4b6a88db20a07ed818bcd06b2e6e2e27b3db4434f247890e695f",
    8: "07a72388a6b253174e2ee5c86d57286bedd9e3c14d91a8074e8bbbd0b10df931",
    9: "874b82ad8c94b70b4d2f56e312b50e314eb4d10aba063f3776fa45659866d379",
    10: "d7ce52981d30b0c50b0f99299c50fe7a6782257541f306d35a3bb8cdc44c339f",
    11: "c5ae4e616de9a30fc2d2cd9d2c4eb038d3add8a17347bfff02490e541301002c",
    12: "472f151c9d93b2b9d83b0019e734d5ec8fdf451380e8b72e7890e533ffaefc1c",
    13: "77e8f03c90fccddccb8f2680683783375eae61d5924ab8f65012a1e1cb796acd",
    14: "0ee65cf23707c671ac822964867e75902ebfb978746d69e5f722a9ddf0cedaba",
    15: "236f3c77d3cae879d31dda6e201b5e285c945c5b281c51e71d9d67c881ec8521",
    16: "6c3650f0e0409e50fe086f3c8d0bc35e6860a8fc5a2b66f0b1c4383d0875668b",
    17: "37685370d43a80351b918e45df55fe78e75cd93d3d670800abf5ef826328c22b",
    63: "a7b795f82f1de338987ed94778d07b3048fbcc4c45613d49c928f69889f6cd53",
    64: "f17f299b2651b30ac9eaf94b5b00a959dadba77e7a61812588cce8add702ba96",
    65: "d10b9d829364bd778c29587737bf75d359e4297f4bdf58f7f1d110b4e3007765",
    1024: "b931163992aa6d0e9bc731a4a66beb65a012590f14cb4597db3892002170dbf4",
    20480: "fbe4e8729bf68ae8af845bd9fdc12b109534e599503d51b87577fece26e8ab93",
}


def message(n):
    return (bytes(range(256)) * 80)[:n]


def test_frozen_vectors():
    for n, expected in PQH_VECTORS.items():
        assert PQH(message(n)).hex() == expected, n


def bare(h):
    """The same hash known only by its one-shot apply, as test doubles and
    tracing wrappers build it: it streams by buffering."""
    return HashFunction(h.name, h.output_bytes, h.apply)


HASHES = [PQH, DEFAULT_HASH]
hashes = st.sampled_from(HASHES + [bare(h) for h in HASHES])


@given(hashes, st.binary(max_size=80), st.lists(st.integers(0, 80), max_size=6))
def test_any_split_streams_to_the_one_shot_digest(h, data, cuts):
    state = h.new()
    bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
    for start, stop in zip(bounds, bounds[1:]):
        assert state.update(data[start:stop]) is None  # as hashlib's update
    assert state.digest() == h(data)
    assert state.digest() == h(data)  # digest leaves the state as it was
    state.update(b"more")
    assert state.digest() == h(data + b"more")
    # each and hash_chain give what per-item calls give
    pieces = [data[start:stop] for start, stop in zip(bounds, bounds[1:])]
    assert h.each(pieces) == [h(piece) for piece in pieces]
    assert h.each(iter(pieces)) == h.each(pieces)
    chained = data
    for steps in range(4):
        assert hash_chain(h, data, steps) == chained
        chained = h(chained)
