import pytest

from pqbench.registry import (
    AlgoClass,
    AlgoClassKind,
    Family,
    Kind,
    NotFound,
    OutOfRangeLevel,
    Registry,
    RegistryFormatError,
    SchemeMetadata,
    SecurityAssessment,
    Tristate,
    UnknownStrengthEntry,
    assessment_line,
    classical_security_bits,
    default_registry,
    nist_level_equivalent,
    parse_assessment_line,
    parse_metadata_line,
    postquantum_security_bits,
)

SYM = AlgoClassKind.SYMMETRIC
HASH = AlgoClassKind.HASH
RSA = AlgoClassKind.FACTORING_PK
ECC = AlgoClassKind.DISCRETE_LOG_PK

# (kind, size) -> (classical, post-quantum), the full strength table
STRENGTH_TABLE = {
    (RSA, 1024): (80, 0),
    (RSA, 2048): (112, 0),
    (ECC, 256): (128, 0),
    (ECC, 384): (256, 0),
    (SYM, 128): (128, 64),
    (SYM, 256): (256, 128),
    (HASH, 256): (128, 85),
    (HASH, 512): (256, 170),
}

# the 14 names the packaged registry.assess covers
ASSESSED = (
    "Saber", "Kyber", "Frodo", "NewHope", "NTRU", "BIKE", "SIKE", "Dilithium",
    "qTESLA", "MQDSS", "Rainbow", "SPHINCS+(Haraka)", "SPHINCS+(SHA256)",
    "SPHINCS+(SHAKE256)",
)


def test_strength_table_exact():
    for (kind, size), (classical, pq) in STRENGTH_TABLE.items():
        a = AlgoClass(kind, size)
        assert classical_security_bits(a) == classical, (kind, size)
        assert postquantum_security_bits(a) == pq, (kind, size)


def test_symmetric_and_hash_are_computed_not_tabulated():
    assert classical_security_bits(AlgoClass(SYM, 192)) == 192
    assert postquantum_security_bits(AlgoClass(SYM, 192)) == 96
    assert classical_security_bits(AlgoClass(HASH, 384)) == 192
    # collision search drops to a third, floor division
    assert postquantum_security_bits(AlgoClass(HASH, 384)) == 128
    assert postquantum_security_bits(AlgoClass(HASH, 256)) == 85


def test_unknown_public_key_sizes_raise():
    with pytest.raises(UnknownStrengthEntry):
        classical_security_bits(AlgoClass(RSA, 4096))
    with pytest.raises(UnknownStrengthEntry):
        classical_security_bits(AlgoClass(ECC, 521))
    # post-quantum path answers 0 for every pk size, no table involved
    assert postquantum_security_bits(AlgoClass(RSA, 4096)) == 0


def test_nist_level_equivalents():
    expected = {
        1: (SYM, 128),
        2: (HASH, 256),
        3: (SYM, 192),
        4: (HASH, 384),
        5: (SYM, 256),
    }
    for level, (kind, size) in expected.items():
        a = nist_level_equivalent(level)
        assert (a.kind, a.size_bits) == (kind, size)
    for bad in (0, 6, -1, 100):
        with pytest.raises(OutOfRangeLevel):
            nist_level_equivalent(bad)


def test_metadata_line_roundtrip():
    # the record and its line in the packaged registry.kem
    m = SchemeMetadata("Kyber-768", Family.LATTICE_LWE, Kind.KEM, 3, 2400, 1184, 0, True)
    assert parse_metadata_line("Kyber-768|lattice-lwe|kem|3|2400|1184|0|y") == m


def test_assessment_line_roundtrip():
    a = SecurityAssessment(41, Tristate.YES, Tristate.YES, Tristate.YES, Tristate.NO)
    name, back = parse_assessment_line(assessment_line("BIKE", a))
    assert (name, back) == ("BIKE", a)


def test_metadata_validation():
    with pytest.raises(ValueError):
        SchemeMetadata("x", Family.CODE, Kind.KEM, 7, 1, 1, 0, True)
    with pytest.raises(ValueError):
        SchemeMetadata("x", Family.CODE, Kind.KEM, 3, -1, 1, 0, True)
    with pytest.raises(ValueError):
        SchemeMetadata("a|b", Family.CODE, Kind.KEM, 3, 1, 1, 0, True)


def test_parse_rejects_malformed():
    for bad in ("too|few", "a|code|kem|3|1|1|0|maybe", "a|nosuch|kem|3|1|1|0|y"):
        with pytest.raises(RegistryFormatError):
            parse_metadata_line(bad)
    with pytest.raises(RegistryFormatError):
        parse_assessment_line("name|notanint|y|y|y|y")


def test_default_registry_contents():
    reg = default_registry()
    kems = reg.schemes(Kind.KEM)
    sigs = reg.schemes(Kind.SIGNATURE)
    assert len(kems) == 7
    assert len(sigs) == 7
    for name in ASSESSED:
        reg.assess(name)

    kyber = reg.lookup("Kyber-768")
    assert kyber.private_key_bytes == 2400
    assert kyber.public_key_bytes == 1184
    assert kyber.family is Family.LATTICE_LWE
    assert kyber.nist_level == 3
    assert kyber.in_liboqs

    sike = reg.lookup("SIKEp610")
    assert (sike.private_key_bytes, sike.public_key_bytes) == (524, 462)
    assert sike.family is Family.ISOGENY

    frodo = reg.lookup("FrodoKEM-976")
    assert (frodo.private_key_bytes, frodo.public_key_bytes) == (31296, 15632)

    dil = reg.lookup("Dilithium-IV")
    assert (dil.private_key_bytes, dil.public_key_bytes, dil.payload_bytes) == (96, 1760, 3366)

    mqdss = reg.lookup("MQDSS-31-64")
    assert mqdss.payload_bytes == 43728
    assert mqdss.family is Family.MQ


def test_lookup_is_case_insensitive():
    reg = default_registry()
    assert reg.lookup("kyber-768") == reg.lookup("KYBER-768")
    with pytest.raises(NotFound):
        reg.lookup("Kyber-9999")


def test_assessments_exact():
    reg = default_registry()
    saber = reg.assess("Saber")
    assert saber.venerability_years == 14
    assert saber.np_hard is Tristate.YES
    assert saber.problem_reduction is Tristate.NO
    assert saber.rom_secure is Tristate.YES
    assert saber.qrom_secure is Tristate.YES

    sike = reg.assess("SIKE")
    assert (sike.venerability_years, sike.np_hard) == (5, Tristate.NO)

    with pytest.raises(NotFound):
        reg.assess("Kyber-768-nope")


def test_hash_based_assessments_all_na():
    reg = default_registry()
    for name in ("SPHINCS+(Haraka)", "SPHINCS+(SHA256)", "SPHINCS+(SHAKE256)"):
        a = reg.assess(name)
        assert a.np_hard is Tristate.NA
        assert a.problem_reduction is Tristate.NA
        assert a.rom_secure is Tristate.NA
        assert a.qrom_secure is Tristate.NA


def test_env_var_overrides_registry(tmp_path, monkeypatch):
    (tmp_path / "registry.kem").write_text("pqbench-registry v1\nOnly-One|hash|kem|1|10|20|30|n\n")
    (tmp_path / "registry.sig").write_text("pqbench-registry v1\n")
    (tmp_path / "registry.assess").write_text("pqbench-registry v1\n")
    monkeypatch.setenv("PQBENCH_REGISTRY", str(tmp_path))
    loaded = default_registry()
    assert loaded.lookup("only-one").public_key_bytes == 20
    with pytest.raises(NotFound):
        loaded.lookup("Kyber-768")


def test_missing_header_rejected(tmp_path):
    (tmp_path / "registry.kem").write_text("no header\n")
    (tmp_path / "registry.sig").write_text("pqbench-registry v1\n")
    (tmp_path / "registry.assess").write_text("pqbench-registry v1\n")
    with pytest.raises(RegistryFormatError):
        Registry.load(tmp_path)


def test_duplicate_names_rejected():
    m = SchemeMetadata("Dup", Family.CODE, Kind.KEM, 3, 1, 1, 0, True)
    reg = Registry(schemes=[m])
    with pytest.raises(RegistryFormatError):
        reg.add(SchemeMetadata("dup", Family.CODE, Kind.KEM, 3, 2, 2, 0, True))
