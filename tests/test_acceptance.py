"""Acceptance checklist.

Eight end-to-end criteria, one test each.  Every test prints a single
"criterion N: PASS/FAIL" line (visible with -s; under plain -v each
criterion also shows up as its own PASSED/FAILED row).  Tolerances are
exact unless a runtime budget is stated.
"""

import contextlib
import time
from random import Random

import pytest

from pqbench import codecrypt, hashsig, lattice, mq, sigma, tlssim
from pqbench.bench import (
    KEM_OPS,
    SIG_OPS,
    BenchConfig,
    BenchRecord,
    BenchStats,
    FakeClock,
    adaptive_bench,
    emit_text,
    fixture_text,
    parse_text,
    run_timed,
)
from pqbench.errors import PqbenchError
from pqbench.hashing import DEFAULT_HASH
from pqbench.kex import TINY_CURVE, TINY_GEN, TINY_ORDER, ecdh_exchange
from pqbench.registry import (
    AlgoClass,
    AlgoClassKind,
    classical_security_bits,
    default_registry,
    nist_level_equivalent,
    postquantum_security_bits,
)
from pqbench.suites import builtin_kems, builtin_sigs
from pqbench.tlssim import SuiteConfig, handshake_total_bytes, stub_suite

H = DEFAULT_HASH


@contextlib.contextmanager
def checklist(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL - {title}")
        raise
    print(f"\ncriterion {number}: PASS - {title} "
          f"({time.perf_counter() - started:.2f}s)")


# 1 ---------------------------------------------------------------------

STRENGTH_TABLE = [
    ("RSA-1024", AlgoClassKind.FACTORING_PK, 1024, 80, 0),
    ("RSA-2048", AlgoClassKind.FACTORING_PK, 2048, 112, 0),
    ("ECC-256", AlgoClassKind.DISCRETE_LOG_PK, 256, 128, 0),
    ("ECC-384", AlgoClassKind.DISCRETE_LOG_PK, 384, 256, 0),
    ("AES-128", AlgoClassKind.SYMMETRIC, 128, 128, 64),
    ("AES-256", AlgoClassKind.SYMMETRIC, 256, 256, 128),
    ("SHA-256", AlgoClassKind.HASH, 256, 128, 85),
    ("SHA-512", AlgoClassKind.HASH, 512, 256, 170),
]


def test_criterion_1_security_level_table():
    with checklist(1, "security level table, all 8 rows exact, under 1s"):
        started = time.perf_counter()
        for name, kind, size, classical, quantum in STRENGTH_TABLE:
            algo = AlgoClass(kind, size)
            assert classical_security_bits(algo) == classical, name
            assert postquantum_security_bits(algo) == quantum, name
        assert time.perf_counter() - started < 1.0


# 2 ---------------------------------------------------------------------

NIST_TABLE = [
    (1, AlgoClassKind.SYMMETRIC, 128),
    (2, AlgoClassKind.HASH, 256),
    (3, AlgoClassKind.SYMMETRIC, 192),
    (4, AlgoClassKind.HASH, 384),
    (5, AlgoClassKind.SYMMETRIC, 256),
]


def test_criterion_2_nist_level_mapping():
    with checklist(2, "NIST level mapping, all 5 rows exact"):
        for level, kind, bits in NIST_TABLE:
            algo = nist_level_equivalent(level)
            assert (algo.kind, algo.size_bits) == (kind, bits), level


# 3 ---------------------------------------------------------------------


def test_criterion_3_scheme_roundtrips():
    with checklist(3, "scheme roundtrip suites, zero failures, under 60s"):
        started = time.perf_counter()
        rng = Random(0xACC3)
        failures = []

        for i in range(100):  # Lamport: fresh one-time key per message
            msg = b"lamport %d" % i
            bits = hashsig.message_bits(H, msg, 32)
            kp = hashsig.lamport_keygen(32, H, rng)
            sig = hashsig.lamport_sign(kp, bits)
            if not hashsig.lamport_verify(kp.public, bits, sig, H):
                failures.append(("lamport", i))

        wots_params = hashsig.WotsParams(w=4, msg_bits=32)
        for i in range(100):
            msg = b"wots %d" % i
            bits = hashsig.message_bits(H, msg, 32)
            secret, public = hashsig.wots_keygen(wots_params, H, rng)
            sig = hashsig.wots_sign(wots_params, secret, bits)
            if not hashsig.wots_verify(wots_params, public, bits, sig, H):
                failures.append(("wots", i))

        signer = hashsig.MssSigner(16, 32, H, rng)  # use every leaf once
        for i in range(16):
            msg = b"mss %d" % i
            sig = signer.sign(msg)
            if not hashsig.mss_verify(signer.root, msg, sig, H):
                failures.append(("mss", i))

        code = codecrypt.hamming_code(3)
        for key_no in range(20):
            public, secret = codecrypt.mceliece_keygen(code, rng)
            for m in range(16):  # every 4-bit message
                c = codecrypt.mceliece_encrypt(public, m, rng)
                if codecrypt.mceliece_decrypt(secret, c) != m:
                    failures.append(("mceliece", key_no, m))

        lwe_sets = [
            (lattice.guaranteed_params(2, 257, 8, 8), 3334),
            (lattice.guaranteed_params(4, 521, 8, 10), 3333),
            (lattice.guaranteed_params(8, 1031, 16, 16), 3333),
        ]
        assert sum(count for _, count in lwe_sets) == 10_000
        for params, count in lwe_sets:
            kp = lattice.lwe_keygen(params, rng)
            for i in range(count):
                bit = rng.randrange(2)
                ct = lattice.lwe_encrypt_bit(kp.samples, bit, params, rng)
                if lattice.lwe_decrypt_bit(kp.secret, ct, params) != bit:
                    failures.append(("lwe", params.n, i))

        uov_kp = mq.uov_keygen(mq.UovParams(o=2, v=4, q=7), rng)
        uov_public = uov_kp.public
        for i in range(500):
            msg = b"uov %d" % i
            sig = mq.uov_sign(uov_kp.private, msg, H, rng)
            if not mq.uov_verify(uov_public, msg, sig, H):
                failures.append(("uov", i))

        setting = sigma.dlog_relation(4007, 4)
        x, y = setting.keypair(rng)
        for i in range(1000):
            msg = b"fs %d" % i
            sig = sigma.fs_sign(setting.relation, x, y, msg, H, rng)
            if not sigma.fs_verify(setting.relation, y, msg, sig, H):
                failures.append(("fs-dlog", i))

        for i in range(1000):
            r = ecdh_exchange(TINY_CURVE, TINY_GEN, TINY_ORDER, rng, rng)
            if r.shared_a != r.shared_b:
                failures.append(("ecdh", i))

        assert failures == []
        assert time.perf_counter() - started < 60.0


# 4 ---------------------------------------------------------------------


def test_criterion_4_oracle_equivalence():
    with checklist(4, "decoders and solvers agree with brute-force oracles"):
        rng = Random(0x04AC)

        code = codecrypt.hamming_code(3)
        for word in range(128):  # entire ambient space of the [7,4] code
            assert code.decoder(word) == codecrypt.brute_force_decode(code, word)

        kp = mq.uov_keygen(mq.UovParams(o=2, v=4, q=3), rng)
        # the published system, built from the private key: central(T(x))
        central = kp.private.central
        public = mq.compose_trapdoor(mq.identity_map(central.field, central.m), central,
                                     kp.private.t_map)
        for i in range(20):
            msg = b"uov preimage %d" % i
            sig = tuple(mq.uov_sign(kp.private, msg, H, rng))
            target = mq.hash_to_vector(H, msg, public.m, 3)
            assert mq.eval_system(public, sig) == target
            assert mq.uov_verify(kp.public, msg, sig, H)
            assert sig in mq.brute_force_preimages(public, target)

        found = 0
        while found < 5:
            inst = lattice.SisInstance(
                tuple(tuple(rng.randrange(11) for _ in range(4)) for _ in range(2)),
                11,
            )
            z = lattice.sis_brute_force(inst)
            if z is None:
                continue
            found += 1
            assert any(z)
            assert all(abs(zi) <= 1 for zi in z)
            for row in inst.a_rows:  # independent re-multiply
                assert sum(c * zi for c, zi in zip(row, z)) % inst.q == 0

        basis = lattice.LatticeBasis(((3, 1, 0), (1, 4, 1), (0, 1, 5)))
        bound = 3
        best = lattice.svp_brute_force(basis, bound)
        best_norm = sum(x * x for x in best)
        assert best_norm > 0
        for _ in range(2000):
            coeffs = [rng.randrange(-bound, bound + 1) for _ in basis.vectors]
            if not any(coeffs):
                continue
            vec = [
                sum(c * basis.vectors[i][d] for i, c in enumerate(coeffs))
                for d in range(3)
            ]
            assert best_norm <= sum(x * x for x in vec)


# 5 ---------------------------------------------------------------------


def ticking(clock, ns):
    def op():
        clock.advance_ns(ns)
    return op


def random_records(rng):
    all_ops = KEM_OPS + SIG_OPS
    out = []
    for _ in range(rng.randrange(1, 8)):
        n = rng.randrange(1, 5000)
        mean = rng.randrange(0, 10**7) / 1000  # microsecond precision, 3dp
        stddev = rng.randrange(0, 10**5) / 1000 if n > 1 else 0.0
        stats = BenchStats(n=n, mean_us=mean, stddev_us=stddev,
                           total_elapsed_us=mean * n)
        out.append(BenchRecord(
            scheme=f"scheme-{rng.randrange(50)}",
            operation=rng.choice(all_ops),
            stats=stats,
            cycles=rng.choice([None, rng.randrange(10**10)]),
        ))
    return out


def test_criterion_5_bench_harness():
    with checklist(5, "adaptive floor n>=30, zero spread, emit/parse identity"):
        for ms in (50, 100, 200, 500):
            clock = FakeClock()
            stats = adaptive_bench(
                ticking(clock, ms * 1_000_000),
                BenchConfig(interval_seconds=3.0, min_samples=30, clock=clock),
            )
            assert stats.n >= 30, f"{ms}ms op sampled only {stats.n} times"

        clock = FakeClock()
        stats = run_timed(
            ticking(clock, 1_000_000),
            BenchConfig(interval_seconds=3.0, clock=clock),
        )
        assert stats.stddev_us == 0.0
        assert stats.mean_us == 1000.0

        rng = Random(0x3D5)
        for _ in range(100):
            records = random_records(rng)
            assert parse_text(emit_text(records)) == records


# 6 ---------------------------------------------------------------------


def test_criterion_6_appendix_fixture_tables():
    with checklist(6, "cycle fixtures: 31 KEM + 53 signature rows, spot exact"):
        kem_records = parse_text(fixture_text("oqs_kem_cycles.txt"))
        sig_records = parse_text(fixture_text("oqs_sig_cycles.txt"))
        assert len(kem_records) == 31
        assert len(sig_records) == 53

        kyber = next(r for r in kem_records
                     if r.scheme == "Kyber768" and r.operation == "keygen")
        assert kyber.cycles == 889439
        dilithium = next(r for r in sig_records
                         if r.scheme == "DILITHIUM_2" and r.operation == "keypair")
        assert dilithium.cycles == 955260

        # the three-column transcriptions cover the same schemes
        full_kem = parse_text(fixture_text("oqs_kem_cycles_full.txt"))
        full_sig = parse_text(fixture_text("oqs_sig_cycles_full.txt"))
        assert {r.scheme for r in full_kem} == {r.scheme for r in kem_records}
        assert {r.scheme for r in full_sig} == {r.scheme for r in sig_records}
        assert len(full_kem) == 31 * 3
        assert len(full_sig) == 53 * 3


# 7 ---------------------------------------------------------------------

TOTAL_COLUMN_ORDER = [
    "SIKEp610",
    "SABER-KEM",
    "Kyber-768",
    "ntruhps4096821",
    "NewHope1024",
    "BIKE-1-CCA",
    "FrodoKEM-976",
]


def test_criterion_7_tls_measurement_and_ordering():
    with checklist(7, "50 handshakes agree, byte linearity exact, size order"):
        started = time.perf_counter()

        kems = builtin_kems(H)
        sigs = builtin_sigs(H)
        toy = SuiteConfig(kems["lwe-toy"], sigs["wots"], H, "toy")
        for i in range(50):
            t = tlssim.run_handshake(toy, toy, rng=Random(1000 + i))
            assert t.client_key_digest == t.server_key_digest, f"run {i}"
        got = tlssim.measure_handshake(toy, iterations=50, rng=Random(77))
        assert got.iterations == 50
        assert got.bytes_read > 0 and got.bytes_written > 0

        # linearity against a zero-size baseline with the label held fixed:
        # the delta is the public key, the ciphertext, the CertificateVerify
        # signature, and the certificate's extra bytes (subject key plus
        # issuer signature)
        for label, pk, ct, sp, sb in [
            ("alpha", 100, 200, 50, 75),
            ("alpha", 1184, 1088, 1312, 2420),
            ("alpha", 1, 0, 0, 3),
            ("beta-9", 462, 330, 64, 128),
        ]:
            base = stub_suite(label, 0, 0, sig_public_bytes=0, signature_bytes=0)
            cfg = stub_suite(label, pk, ct, sig_public_bytes=sp, signature_bytes=sb)
            delta = handshake_total_bytes(cfg)[2] - handshake_total_bytes(base)[2]
            cert_delta = sp + sb
            assert delta == pk + ct + sb + cert_delta, (label, pk, ct, sp, sb)

        # ... and for every registry-sized suite against its own baseline
        registry = default_registry()
        suites_by_label = {s.label: s for s in tlssim.registry_kem_suites()}
        for label, cfg in suites_by_label.items():
            pk = registry.lookup(label).public_key_bytes
            base = stub_suite(label, 0, 0, sig_public_bytes=0, signature_bytes=0)
            delta = handshake_total_bytes(cfg)[2] - handshake_total_bytes(base)[2]
            assert delta == (pk + tlssim.STUB_CIPHERTEXT_BYTES
                             + tlssim.STUB_SIGNATURE_BYTES
                             + tlssim.STUB_SIG_PUBLIC_BYTES
                             + tlssim.STUB_SIGNATURE_BYTES), label

        totals = {label: handshake_total_bytes(cfg)[2]
                  for label, cfg in suites_by_label.items()}
        assert sorted(totals, key=totals.get) == TOTAL_COLUMN_ORDER
        assert time.perf_counter() - started < 30.0


# 8 ---------------------------------------------------------------------


def test_criterion_8_tamper_sensitivity():
    with checklist(8, "single-byte tamper rejected in 1000 of 1000 trials"):
        rng = Random(0x7A3)
        trials = 0
        rejected = 0

        def flip(data, index):
            return (data[:index]
                    + bytes([data[index] ^ rng.randrange(1, 256)])
                    + data[index + 1:])

        # hash-based signatures: every byte of the blob is fair game
        sig_table = builtin_sigs(H)
        for name, count in (("lamport", 100), ("wots", 100), ("mss", 150)):
            inst = sig_table[name]
            public, secret = inst.keypair(Random(rng.randrange(2**63)))
            for i in range(count):
                trials += 1
                msg = b"%s tamper %d" % (name.encode(), i)
                good = inst.sign(secret, msg)
                assert inst.verify(public, msg, good)
                bad = flip(good, rng.randrange(len(good)))
                if not inst.verify(public, msg, bad):
                    rejected += 1

        # Fiat-Shamir transcripts: the response is the final 8 bytes of
        # the packed blob; any flip there moves the exponent off its
        # residue class, so rejection is certain, not just overwhelming
        fs = sig_table["fs-dlog"]
        fs_public, fs_secret = fs.keypair(Random(rng.randrange(2**63)))
        for i in range(250):
            trials += 1
            msg = b"fs tamper %d" % i
            good = fs.sign(fs_secret, msg)
            assert fs.verify(fs_public, msg, good)
            bad = flip(good, len(good) - 1 - rng.randrange(8))
            if not fs.verify(fs_public, msg, bad):
                rejected += 1

        # handshake artifacts: certificate, CertificateVerify, and both
        # Finished MACs, corrupted in flight; payload bytes only so the
        # outer frame length stays honest
        cfg = stub_suite("tamper", 96, 128, sig_public_bytes=48, signature_bytes=64)
        for i in range(400):
            trials += 1
            tag = (4, 5, 6, 7)[i % 4]
            hit = {"done": False}

            def hook(data, tag=tag, hit=hit):
                if data and data[0] == tag and not hit["done"]:
                    hit["done"] = True
                    return flip(data, 5 + rng.randrange(len(data) - 5))
                return data

            if tag == 7:
                transport = tlssim.memory_pair(client_send_hook=hook)
            else:
                transport = tlssim.memory_pair(server_send_hook=hook)
            try:
                tlssim.run_handshake(cfg, cfg, transport,
                                     rng=Random(rng.randrange(2**63)))
            except PqbenchError:
                rejected += 1
            assert hit["done"], f"trial {i}: frame with tag {tag} never sent"

        assert trials == 1000
        assert rejected == trials, f"{trials - rejected} corrupted artifacts accepted"
