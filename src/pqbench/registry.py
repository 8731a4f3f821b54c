"""Scheme registry: key sizes, family taxonomy, and security assessments.

The registry answers three kinds of question:

* how strong is a primitive of a given class and size, against classical
  and against quantum attackers (bits of security);
* what attack effort does each NIST security category correspond to;
* for a named scheme: family, key/payload sizes in bytes, and a coarse
  maturity assessment (years since the underlying problem was published,
  plus yes/no/not-applicable flags for hardness and proof properties).

Data lives in three line-oriented UTF-8 files (registry.kem, registry.sig,
registry.assess).  Each starts with the header line ``pqbench-registry v1``,
then one record per line with ``|``-separated fields.  Lines starting with
``#`` are comments.  Yes/no/not-applicable fields use ``y``/``n``/``-``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import PqbenchError

REGISTRY_HEADER = "pqbench-registry v1"
REGISTRY_ENV_VAR = "PQBENCH_REGISTRY"


class NotFound(PqbenchError):
    """No registry record under that name."""


class UnknownStrengthEntry(PqbenchError):
    """No strength figure on file for that algorithm class and size."""


class OutOfRangeLevel(PqbenchError):
    """NIST security category outside 1..5."""


class RegistryFormatError(PqbenchError):
    """A registry data file does not parse."""


class AlgoClassKind(str, enum.Enum):
    SYMMETRIC = "symmetric"
    HASH = "hash"
    FACTORING_PK = "factoring-pk"
    DISCRETE_LOG_PK = "dlog-pk"


@dataclass(frozen=True)
class AlgoClass:
    """An algorithm class plus its parameter size in bits."""

    kind: AlgoClassKind
    size_bits: int

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("size_bits must be positive")


# Classical strength of public-key sizes is tabulated, not computed: the
# figures are conventional estimates, including the 384-bit curve entry.
_PK_CLASSICAL_BITS = {
    (AlgoClassKind.FACTORING_PK, 1024): 80,
    (AlgoClassKind.FACTORING_PK, 2048): 112,
    (AlgoClassKind.DISCRETE_LOG_PK, 256): 128,
    (AlgoClassKind.DISCRETE_LOG_PK, 384): 256,
}


def classical_security_bits(a: AlgoClass) -> int:
    """Bits of security against a classical attacker."""
    if a.kind is AlgoClassKind.SYMMETRIC:
        return a.size_bits
    if a.kind is AlgoClassKind.HASH:
        return a.size_bits // 2
    try:
        return _PK_CLASSICAL_BITS[(a.kind, a.size_bits)]
    except KeyError:
        raise UnknownStrengthEntry(f"no entry for {a.kind.value}-{a.size_bits}") from None


def postquantum_security_bits(a: AlgoClass) -> int:
    """Bits of security against a quantum attacker.

    Key search halves (quadratic speedup), collision search drops to a
    third, and both public-key classes fall to polynomial attacks: 0 bits.
    """
    if a.kind is AlgoClassKind.SYMMETRIC:
        return a.size_bits // 2
    if a.kind is AlgoClassKind.HASH:
        return a.size_bits // 3
    if a.kind in (AlgoClassKind.FACTORING_PK, AlgoClassKind.DISCRETE_LOG_PK):
        return 0
    raise UnknownStrengthEntry(f"no entry for {a.kind.value}-{a.size_bits}")


_NIST_LEVELS = {
    1: AlgoClass(AlgoClassKind.SYMMETRIC, 128),
    2: AlgoClass(AlgoClassKind.HASH, 256),
    3: AlgoClass(AlgoClassKind.SYMMETRIC, 192),
    4: AlgoClass(AlgoClassKind.HASH, 384),
    5: AlgoClass(AlgoClassKind.SYMMETRIC, 256),
}


def nist_level_equivalent(level: int) -> AlgoClass:
    """The attack effort a NIST category is defined against.

    Odd levels are exhaustive key search on a block cipher, even levels
    are collision search on a hash.
    """
    try:
        return _NIST_LEVELS[level]
    except KeyError:
        raise OutOfRangeLevel(f"NIST level {level} outside 1..5") from None


class Family(str, enum.Enum):
    LATTICE_LWE = "lattice-lwe"
    LATTICE_RLWE = "lattice-rlwe"
    LATTICE_NTRU = "lattice-ntru"
    CODE = "code"
    ISOGENY = "isogeny"
    MQ = "mq"
    HASH = "hash"


class Kind(str, enum.Enum):
    KEM = "kem"
    SIGNATURE = "signature"


@dataclass(frozen=True)
class SchemeMetadata:
    """Published sizes and classification for one named parameter set.

    payload_bytes is the ciphertext size for a KEM and the signature size
    for a signature scheme; 0 when the source tables do not list one.
    """

    name: str
    family: Family
    kind: Kind
    nist_level: int
    private_key_bytes: int
    public_key_bytes: int
    payload_bytes: int
    in_liboqs: bool

    def __post_init__(self):
        if not self.name or "|" in self.name:
            raise ValueError(f"bad scheme name {self.name!r}")
        if self.nist_level not in range(1, 6):
            raise ValueError(f"nist_level {self.nist_level} outside 1..5")
        for f in ("private_key_bytes", "public_key_bytes", "payload_bytes"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")


class Tristate(str, enum.Enum):
    YES = "y"
    NO = "n"
    NA = "-"


@dataclass(frozen=True)
class SecurityAssessment:
    """Coarse maturity record for a scheme family.

    venerability_years counts how long the underlying hard problem has
    been in the literature.  The flags record NP-hardness of the general
    problem, whether security reduces to that problem, and proofs in the
    random-oracle and quantum-random-oracle models.  Hash-based schemes
    carry ``-`` throughout: the questions do not apply.
    """

    venerability_years: int
    np_hard: Tristate
    problem_reduction: Tristate
    rom_secure: Tristate
    qrom_secure: Tristate

    def __post_init__(self):
        if self.venerability_years < 0:
            raise ValueError("venerability_years must be >= 0")


def parse_metadata_line(line: str) -> SchemeMetadata:
    parts = line.split("|")
    if len(parts) != 8:
        raise RegistryFormatError(f"expected 8 fields, got {len(parts)}: {line!r}")
    name, family, kind, level, sk, pk, payload, liboqs = parts
    try:
        return SchemeMetadata(
            name=name,
            family=Family(family),
            kind=Kind(kind),
            nist_level=int(level),
            private_key_bytes=int(sk),
            public_key_bytes=int(pk),
            payload_bytes=int(payload),
            in_liboqs={"y": True, "n": False}[liboqs],
        )
    except (ValueError, KeyError) as e:
        raise RegistryFormatError(f"bad record {line!r}: {e}") from None


def assessment_line(name: str, a: SecurityAssessment) -> str:
    return "|".join(
        [
            name,
            str(a.venerability_years),
            a.np_hard.value,
            a.problem_reduction.value,
            a.rom_secure.value,
            a.qrom_secure.value,
        ]
    )


def parse_assessment_line(line: str) -> tuple[str, SecurityAssessment]:
    parts = line.split("|")
    if len(parts) != 6:
        raise RegistryFormatError(f"expected 6 fields, got {len(parts)}: {line!r}")
    name, years, np_hard, red, rom, qrom = parts
    try:
        return name, SecurityAssessment(
            venerability_years=int(years),
            np_hard=Tristate(np_hard),
            problem_reduction=Tristate(red),
            rom_secure=Tristate(rom),
            qrom_secure=Tristate(qrom),
        )
    except ValueError as e:
        raise RegistryFormatError(f"bad record {line!r}: {e}") from None


def _data_lines(text: str, label: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != REGISTRY_HEADER:
        raise RegistryFormatError(f"{label}: missing {REGISTRY_HEADER!r} header")
    for raw in lines[1:]:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


class Registry:
    """Lookup over scheme metadata and assessments, case-insensitive on name."""

    def __init__(self, schemes=(), assessments=()):
        self._schemes: dict[str, SchemeMetadata] = {}
        self._assessments: dict[str, tuple[str, SecurityAssessment]] = {}
        for m in schemes:
            self.add(m)
        for name, a in assessments:
            self.add_assessment(name, a)

    def add(self, m: SchemeMetadata) -> None:
        key = m.name.lower()
        if key in self._schemes:
            raise RegistryFormatError(f"duplicate scheme name {m.name!r}")
        self._schemes[key] = m

    def add_assessment(self, name: str, a: SecurityAssessment) -> None:
        key = name.lower()
        if key in self._assessments:
            raise RegistryFormatError(f"duplicate assessment for {name!r}")
        self._assessments[key] = (name, a)

    def lookup(self, name: str) -> SchemeMetadata:
        try:
            return self._schemes[name.lower()]
        except KeyError:
            raise NotFound(f"no scheme named {name!r}") from None

    def assess(self, name: str) -> SecurityAssessment:
        try:
            return self._assessments[name.lower()][1]
        except KeyError:
            raise NotFound(f"no assessment for {name!r}") from None

    def schemes(self, kind: Kind | None = None) -> list[SchemeMetadata]:
        out = [m for m in self._schemes.values() if kind is None or m.kind is kind]
        return sorted(out, key=lambda m: m.name.lower())

    @classmethod
    def from_texts(cls, kem_text: str, sig_text: str, assess_text: str) -> "Registry":
        reg = cls()
        for label, text, kind in (
            ("registry.kem", kem_text, Kind.KEM),
            ("registry.sig", sig_text, Kind.SIGNATURE),
        ):
            for line in _data_lines(text, label):
                m = parse_metadata_line(line)
                if m.kind is not kind:
                    raise RegistryFormatError(f"{label}: {m.name} has kind {m.kind.value}")
                reg.add(m)
        for line in _data_lines(assess_text, "registry.assess"):
            reg.add_assessment(*parse_assessment_line(line))
        return reg

    @classmethod
    def load(cls, directory) -> "Registry":
        """The three files in directory, a Path or a package resource."""
        read = lambda n: (directory / n).read_text(encoding="utf-8")
        return cls.from_texts(read("registry.kem"), read("registry.sig"), read("registry.assess"))


def default_registry() -> Registry:
    """The packaged registry, unless PQBENCH_REGISTRY points elsewhere."""
    override = os.environ.get(REGISTRY_ENV_VAR)
    return Registry.load(Path(override) if override else resources.files("pqbench") / "data")
