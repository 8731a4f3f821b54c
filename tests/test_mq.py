import hashlib
import itertools
from random import Random

import pytest

from pqbench.errors import DimensionMismatch, LengthMismatch, PqbenchError, TooLarge
from pqbench.hashing import PQH
from pqbench.kex import draws
from pqbench.mq import (
    AffineMap,
    MqSystem,
    PrimeField,
    QuadPoly,
    RetriesExhausted,
    UovParams,
    UovPrivateKey,
    brute_force_preimages,
    compose_trapdoor,
    eval_system,
    hash_to_vector,
    identity_map,
    random_affine,
    random_central_map,
    solve_linear,
    uov_keygen,
    uov_sign,
    uov_verify,
)
from pqbench.serialize import MalformedFrame

H = PQH


def naive_eval(p: QuadPoly, x) -> int:
    acc = p.const
    for j in range(p.n):
        acc += p.linear[j] * x[j]
    for j in range(p.n):
        for k in range(p.n):
            acc += p.quad[j][k] * x[j] * x[k]
    return acc % p.q


def eval_poly(p: QuadPoly, x) -> int:
    return eval_system(MqSystem(PrimeField(p.q), (p,)), x)[0]


def serialize_system(system: MqSystem) -> bytes:
    """q, n, m as single bytes, then each polynomial's coefficients: the
    layout of uov_keygen's public key, built from the objects."""
    return bytes([system.field.q, system.n, system.m,
                  *itertools.chain.from_iterable(p.coefficients for p in system.polys)])


def reference_public(private: UovPrivateKey) -> MqSystem:
    """central(T(x)) through compose_trapdoor, with no output mixing."""
    field = private.central.field
    return compose_trapdoor(identity_map(field, private.central.m), private.central,
                            private.t_map)


def reference_parse(data: bytes) -> MqSystem:
    """A serialized system built back into QuadPoly and MqSystem objects,
    whose constructors do the checking: the parse verify used to run."""
    if len(data) < 3:
        raise MalformedFrame("system header truncated")
    q, n, m = data[0], data[1], data[2]
    per_poly = 1 + n + n * (n + 1) // 2
    if len(data) != 3 + m * per_poly:
        raise MalformedFrame(f"expected {3 + m * per_poly} bytes, got {len(data)}")
    polys = []
    for pos in range(3, len(data), per_poly):
        row = data[pos:pos + per_poly]
        quad, at = [], 1 + n
        for j in range(n):
            quad.append((0,) * j + tuple(row[at:at + n - j]))
            at += n - j
        polys.append((row[0], tuple(row[1:1 + n]), tuple(quad)))
    try:
        return MqSystem(PrimeField(q), tuple(QuadPoly(q, *poly) for poly in polys))
    except (ValueError, DimensionMismatch) as e:
        raise MalformedFrame(str(e)) from None


def reference_verify(public: bytes, msg: bytes, sig, h) -> bool:
    """uov_verify as it ran on a parsed system: parse, length, range, evaluate."""
    system = reference_parse(public)
    if len(sig) != system.n:
        raise LengthMismatch(f"signature length {len(sig)} != n={system.n}")
    if any(not 0 <= s < system.field.q for s in sig):
        return False
    return eval_system(system, sig) == hash_to_vector(h, msg, system.m, system.field.q)


def random_poly(q, n, rng):
    quad = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            quad[j][k] = rng.randrange(q)
    return QuadPoly(q, rng.randrange(q), tuple(rng.randrange(q) for _ in range(n)),
                    tuple(tuple(r) for r in quad))


def test_field_validation_and_inverse():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(37)  # prime but above the cap
    f = PrimeField(7)
    for a in range(1, 7):
        assert a * f.inv(a) % f.q == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_quad_poly_eval_matches_naive():
    rng = Random(1)
    for _ in range(20):
        q = rng.choice([3, 5, 7])
        n = rng.randint(1, 4)
        p = random_poly(q, n, rng)
        for x in itertools.product(range(q), repeat=n):
            assert eval_poly(p, x) == naive_eval(p, x)


def test_quad_poly_validation():
    with pytest.raises(ValueError):
        QuadPoly(3, 0, (0, 0), ((0, 0), (1, 0)))  # below-diagonal entry
    with pytest.raises(ValueError):
        QuadPoly(3, 5, (0,), ((0,),))  # coefficient out of range
    with pytest.raises(DimensionMismatch):
        QuadPoly(3, 0, (0, 0), ((0, 0),))
    p = QuadPoly(3, 1, (2, 0), ((1, 2), (0, 1)))
    with pytest.raises(LengthMismatch):
        eval_poly(p, (1,))


def random_offset_affine(f, n, rng):
    """random_affine, then a uniform offset drawn after the matrix."""
    linear = random_affine(f, n, rng)
    return AffineMap(f, linear.matrix, tuple(draws(rng, f.q, n)))


def test_affine_map_roundtrip_exhaustive():
    f = PrimeField(3)
    rng = Random(2)
    for _ in range(5):
        m = random_offset_affine(f, 3, rng)
        for x in itertools.product(range(3), repeat=3):
            y = m.apply(x)
            assert m.apply_inverse(y) == x


def test_affine_map_rejects_singular():
    f = PrimeField(5)
    with pytest.raises(ValueError):
        AffineMap(f, ((1, 2), (2, 4)), (0, 0))  # second row is twice the first
    with pytest.raises(DimensionMismatch):
        AffineMap(f, ((1, 0), (0, 1)), (0, 0, 0))


def test_solve_linear():
    f = PrimeField(7)
    assert solve_linear(f, [[2, 1], [1, 3]], [5, 6]) is not None
    x = solve_linear(f, [[2, 1], [1, 3]], [5, 6])
    assert (2 * x[0] + x[1]) % 7 == 5
    assert (x[0] + 3 * x[1]) % 7 == 6
    assert solve_linear(f, [[1, 2], [2, 4]], [1, 1]) is None


def test_compose_with_identity_is_identity():
    rng = Random(3)
    f = PrimeField(5)
    central = MqSystem(f, tuple(random_poly(5, 3, rng) for _ in range(2)))
    composed = compose_trapdoor(identity_map(f, 2), central, identity_map(f, 3))
    assert composed == central


def test_compose_matches_pointwise_application():
    # the expanded system must agree with apply-T, eval, apply-S at every
    # point of the domain
    rng = Random(4)
    for q in (2, 3):
        f = PrimeField(q)
        central = MqSystem(f, tuple(random_poly(q, 3, rng) for _ in range(2)))
        s_map = random_offset_affine(f, 2, rng)
        t_map = random_offset_affine(f, 3, rng)
        composed = compose_trapdoor(s_map, central, t_map)
        for x in itertools.product(range(q), repeat=3):
            direct = s_map.apply(eval_system(central, t_map.apply(x)))
            assert eval_system(composed, x) == direct


@pytest.mark.parametrize("zero_rows", [(0, 1, 2), (1,), (0, 2), ()], ids=str)
def test_substitution_matches_pointwise_with_zero_quad_rows(zero_rows):
    # the substitution skips Q's all-zero rows; it must still agree with
    # apply-T-then-evaluate at every point, also when Q is entirely zero
    rng = Random(14)
    for q in (2, 3, 7):
        f = PrimeField(q)
        polys = []
        for _ in range(2):
            p = random_poly(q, 3, rng)
            quad = tuple((0,) * 3 if j in zero_rows else row for j, row in enumerate(p.quad))
            polys.append(QuadPoly(q, p.const, p.linear, quad))
        central = MqSystem(f, tuple(polys))
        for t_map in (random_affine(f, 3, rng), random_offset_affine(f, 3, rng)):
            substituted = compose_trapdoor(identity_map(f, 2), central, t_map)
            for x in itertools.product(range(q), repeat=3):
                assert eval_system(substituted, x) == eval_system(central, t_map.apply(x))


def test_central_map_has_no_oil_cross_terms():
    params = UovParams(o=2, v=3, q=7)
    central = random_central_map(params, Random(5))
    for p in central.polys:
        for j in range(params.v, params.n):
            for k in range(j, params.n):
                assert p.quad[j][k] == 0


def test_uov_roundtrip():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(6)
    kp = uov_keygen(params, rng)
    for i in range(50):
        msg = f"message {i}".encode()
        sig = uov_sign(kp.private, msg, H, rng)
        assert len(sig) == params.n
        assert uov_verify(kp.public, msg, sig, H)


def test_uov_public_hides_but_matches_private():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(7)
    kp = uov_keygen(params, rng)
    # public = central after the variable change, pointwise
    for _ in range(50):
        x = tuple(rng.randrange(7) for _ in range(params.n))
        assert eval_system(reference_parse(kp.public), x) == \
            eval_system(kp.private.central, kp.private.t_map.apply(x))


@pytest.mark.parametrize("params", [UovParams(o=2, v=4, q=7), UovParams(o=1, v=2, q=2),
                                    UovParams(o=3, v=7, q=7), UovParams(o=2, v=3, q=31)], ids=str)
def test_public_key_bytes_agree_with_the_central_map_pointwise(params):
    # the last two pack the substitution in 32-bit lanes, the others in 16
    rng = Random(17)
    for _ in range(3):
        kp = uov_keygen(params, rng)
        public = reference_parse(kp.public)
        assert (public.field.q, public.n, public.m) == (params.q, params.n, params.o)
        for _ in range(30):
            x = tuple(rng.randrange(params.q) for _ in range(params.n))
            assert eval_system(public, x) == \
                eval_system(kp.private.central, kp.private.t_map.apply(x))


def test_uov_wrong_message_rejected():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(8)
    kp = uov_keygen(params, rng)
    sig = uov_sign(kp.private, b"signed message", H, rng)
    # frozen seed: this specific cross-check fails (and would only pass by
    # a 1-in-q^o accident for some other message)
    assert not uov_verify(kp.public, b"a different message", sig, H)


def test_uov_perturbed_signature_rejected():
    params = UovParams(o=2, v=4, q=7)
    rng = Random(9)
    kp = uov_keygen(params, rng)
    msg = b"perturbation fixture"
    sig = uov_sign(kp.private, msg, H, rng)
    perturbed = list(sig)
    perturbed[0] = (perturbed[0] + 1) % 7
    public = kp.public
    assert not uov_verify(public, msg, tuple(perturbed), H)  # frozen seed
    with pytest.raises(LengthMismatch):
        uov_verify(public, msg, sig + (0,), H)
    assert not uov_verify(public, msg, sig[:-1] + (7,), H)  # out of range


def outcome(verify, public, msg, sig):
    """What one verify does: the value it returns or the error it raises."""
    try:
        return ("returns", verify(public, msg, sig, H))
    except PqbenchError as e:
        return ("raises", type(e))


def mutated_keys(public: bytes, q: int):
    """Every single-bit flip, truncation and one-byte extension of a
    serialized key, plus keys with a coefficient >= q, q = 4, q = 37 and
    m = 0."""
    for pos in range(len(public)):
        for bit in range(8):
            yield public[:pos] + bytes([public[pos] ^ (1 << bit)]) + public[pos + 1:]
        yield public[:pos]
    for extra in (0, 1, q - 1, q, 255):
        yield public + bytes([extra])
    for pos in range(3, len(public), 7):
        for value in (q, q + 1, 255):
            yield public[:pos] + bytes([value]) + public[pos + 1:]
    yield b"\x04" + public[1:]
    yield b"\x25" + public[1:]
    yield b"\x25" + public[1:].replace(bytes([q - 1]), bytes([36]))
    yield public[:2] + b"\x00"
    yield public[:2] + b"\x00" + public[3:]


def test_flat_verify_agrees_with_the_parsed_key_on_mutated_keys():
    # uov_verify reads the key's bytes as they are; on every mutation it
    # must accept, reject or raise exactly as parsing the key into
    # QuadPoly and MqSystem objects and evaluating those does
    params = UovParams(o=2, v=4, q=7)
    checked = accepted = 0
    for seed in range(3):
        rng = Random(100 + seed)
        kp = uov_keygen(params, rng)
        public = kp.public
        msg = b"mutated key %d" % seed
        sig = uov_sign(kp.private, msg, H, rng)
        sigs = [sig, sig[:-1] + ((sig[-1] + 1) % 7,), sig[:-1] + (7,), sig + (0,), sig[:-1]]
        for key in [public, *mutated_keys(public, params.q)]:
            for candidate in sigs:
                flat = outcome(uov_verify, key, msg, candidate)
                assert flat == outcome(reference_verify, key, msg, candidate), (key, candidate)
                checked += 1
                accepted += flat == ("returns", True)
    assert checked > 7000
    assert accepted >= 3  # at least the honest signature under each honest key


def test_uov_retries_exhausted_on_degenerate_key():
    # a central map with no oil appearance at all leaves every oil system
    # singular, so signing must give up after its retry budget
    params = UovParams(o=1, v=2, q=5)
    f = PrimeField(5)
    zero_oil = QuadPoly(
        5, 2,
        (1, 3, 0),                      # no linear oil term
        ((1, 2, 0), (0, 1, 0), (0, 0, 0)),  # no quad oil column
    )
    central = MqSystem(f, (zero_oil,))
    sk = UovPrivateKey(params, central, identity_map(f, 3))
    with pytest.raises(RetriesExhausted):
        uov_sign(sk, b"m", H, Random(10))


def test_uov_keygen_matches_pinned_keys():
    # public key, central map and variable change for seeds 0-49 under the
    # uov suite's parameters, as one digest: a faster keygen must draw
    # and build exactly the same keys
    params = UovParams(o=2, v=4, q=7)
    digest = hashlib.sha256()
    for seed in range(50):
        kp = uov_keygen(params, Random(seed))
        t = kp.private.t_map
        digest.update(kp.public + serialize_system(kp.private.central)
                      + bytes(c for row in t.matrix for c in row) + bytes(t.offset))
    assert digest.hexdigest() == \
        "7ddba122c1721085fbbc127bbf052b3f446fb22d5c702e7cfca9a6d551bf0670"


def test_uov_sign_matches_pinned_signatures():
    # four signatures under each of the keys pinned above, as one digest:
    # a faster signer must draw the same vinegar and solve to the same
    # preimages
    params = UovParams(o=2, v=4, q=7)
    digest = hashlib.sha256()
    for seed in range(50):
        kp = uov_keygen(params, Random(seed))
        rng = Random(seed)
        for i in range(4):
            digest.update(bytes(uov_sign(kp.private, f"message {i}".encode(), H, rng)))
    assert digest.hexdigest() == \
        "ac06ad3dc8f72eefb8c0bff4e53a2ca8e21ace165b9dc75600273a462d47e434"


def test_signatures_live_in_brute_force_preimage_set():
    params = UovParams(o=1, v=2, q=3)
    rng = Random(11)
    kp = uov_keygen(params, rng)
    for i in range(25):
        msg = f"containment {i}".encode()
        sig = uov_sign(kp.private, msg, H, rng)
        target = hash_to_vector(H, msg, params.o, params.q)
        assert sig in brute_force_preimages(reference_parse(kp.public), target)


def test_brute_force_preimages_order_and_cap():
    f = PrimeField(3)
    p = QuadPoly(3, 0, (1, 0), ((0, 0), (0, 0)))  # f(x) = x0
    system = MqSystem(f, (p,))
    pre = brute_force_preimages(system, (1,))
    assert pre == sorted(pre)  # ascending lexicographic
    assert all(x[0] == 1 for x in pre)
    assert len(pre) == 3
    big = UovParams(o=2, v=8, q=7)  # 7^10 far beyond the cap
    kp = uov_keygen(big, Random(12))
    with pytest.raises(TooLarge):
        brute_force_preimages(reference_parse(kp.public), (0, 0))
    with pytest.raises(DimensionMismatch):
        brute_force_preimages(system, (0, 0))


def test_hash_to_vector_properties():
    v1 = hash_to_vector(H, b"msg", 6, 7)
    assert v1 == hash_to_vector(H, b"msg", 6, 7)
    assert len(v1) == 6
    assert all(0 <= x < 7 for x in v1)
    assert v1 != hash_to_vector(H, b"msh", 6, 7)
    # more elements than one digest provides still works
    assert len(hash_to_vector(H, b"msg", 40, 7)) == 40


def test_serialize_refuses_sizes_its_header_cannot_hold():
    # n and m are single bytes of the public key's header, and m = o < n: a
    # keygen for 256 variables or more must be refused by name, before any draw
    rng = Random(15)
    state = rng.getstate()
    with pytest.raises(TooLarge, match="n = 256"):
        uov_keygen(UovParams(o=1, v=255, q=3), rng)
    with pytest.raises(TooLarge, match="n = 512"):
        uov_keygen(UovParams(o=256, v=256, q=3), rng)
    assert rng.getstate() == state
    # UovParams accepts n = 256, so a key of its size can reach uov_keygen
    assert UovParams(o=1, v=255, q=3).n == 256


def test_system_serialization_roundtrip():
    params = UovParams(o=2, v=4, q=7)
    kp = uov_keygen(params, Random(13))
    blob = kp.public
    assert reference_parse(blob) == reference_public(kp.private)
    assert blob == serialize_system(reference_public(kp.private))
    sig = (0,) * params.n
    # verify reads the key's bytes as they are, and refuses what the parse refuses
    for bad in (blob[:-1], b"\x07",
                b"\x04" + blob[1:],  # field size not prime
                b"\x07\x06\x00"):  # no polynomials
        with pytest.raises(MalformedFrame):
            reference_parse(bad)
        with pytest.raises(MalformedFrame):
            uov_verify(bad, b"m", sig, H)
