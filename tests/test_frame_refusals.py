"""Every crafted frame ends the same way whichever reader meets it.

Each frame of the table goes to three readers: decode_message over the
whole frame, a server side that reads it in place of the ClientHello
(the client's send hook swaps it in), and a client side that reads it in
place of the ServerHello.  Each outcome is pinned as the exception's
class and message text, or, for a frame that decodes, as the name its
tag is logged by, so a change to the frame codec keeps every refusal,
and the order of its checks, as it was.
"""

from random import Random

import pytest

from pqbench import tlssim
from pqbench.errors import PqbenchError
from pqbench.hashing import DEFAULT_HASH as H
from pqbench.serialize import pack, u32
from pqbench.suites import builtin_kems, builtin_sigs
from pqbench.tlssim import (
    MAX_FRAME_BYTES,
    SuiteConfig,
    client_handshake,
    decode_message,
    memory_pair,
    run_handshake,
)

CFG = SuiteConfig(builtin_kems(H)["stub-kem"], builtin_sigs(H)["fs-dlog"], H, "toy")
NOT_UTF8 = b"\xff\xfe"


def frame(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + u32(len(payload)) + payload


def cut(tag: int) -> bytes:
    """A frame that announces 10 payload bytes and carries 3."""
    return bytes([tag]) + u32(10) + b"abc"


FRAMES = {
    "unknown-tag": frame(0x99, b""),
    "unknown-tag-with-payload": frame(0, b"abc"),
    "unknown-tag-cut": cut(0x99),
    "wrong-tag": frame(7, b"mac"),
    "wrong-tag-malformed": frame(4, pack(b"s", b"fs-dlog", b"key")),
    "header-cut": b"\x01\x00\x00",
    "header-empty": b"",
    **{f"payload-cut-tag-{tag}": cut(tag) for tag in range(1, 8)},
    "over-cap": b"\x01" + u32(MAX_FRAME_BYTES + 1),
    "client-hello-label-not-utf8": frame(1, u32(1) + pack(NOT_UTF8, b"key")),
    "server-hello-label-not-utf8": frame(2, pack(NOT_UTF8, b"ct")),
    "certificate-subject-not-utf8": frame(4, pack(NOT_UTF8, b"fs-dlog", b"key", b"sig")),
    "certificate-scheme-not-utf8": frame(4, pack(b"s", NOT_UTF8, b"key", b"sig")),
    "client-hello-count-cut": frame(1, b"\0\0"),
    "client-hello-count-too-high": frame(1, u32(2) + pack(b"toy", b"key")),
    "client-hello-count-too-low": frame(1, u32(0) + pack(b"toy", b"key")),
    "server-hello-one-field": frame(2, pack(b"toy")),
    "server-hello-three-fields": frame(2, pack(b"toy", b"ct", b"x")),
    "server-hello-field-overruns": frame(2, u32(100) + b"toy"),
    "server-hello-length-cut": frame(2, pack(b"toy") + b"\0\0"),
    "certificate-five-fields": frame(4, pack(b"s", b"fs-dlog", b"k", b"sig", b"x")),
}


def outcome(call):
    """(class name, message) of the PqbenchError call ends in, or (what it
    returned, None)."""
    try:
        got = call()
    except PqbenchError as e:
        return type(e).__name__, str(e)
    return got, None


def decoded_as(raw: bytes) -> str:
    """The logged name of the message decode_message reads raw as."""
    tag, _ = decode_message(raw)
    return tlssim._NAMES[tag]


def server_reads(raw: bytes):
    swapped = []

    def hook(data):
        if swapped:
            return data
        swapped.append(data)
        return raw

    return run_handshake(CFG, CFG, memory_pair(client_send_hook=hook), Random(0))


def client_reads(raw: bytes):
    client, server = memory_pair()
    server.send(raw)
    return client_handshake(CFG, client, Random(0))


def outcomes(raw: bytes):
    return (outcome(lambda: decoded_as(raw)),
            outcome(lambda: server_reads(raw)),
            outcome(lambda: client_reads(raw)))


def _cut_payload(name: str) -> tuple:
    live = ("ConnectionClosed", f"{name} frame announced 10 payload bytes, 3 arrived: "
                                "peer has nothing more to send: 3 of 10 bytes read")
    return ("MalformedFrame", "frame announces 10 payload bytes, carries 3"), live, live


def _same(kind: str, text: str) -> tuple:
    return ((kind, text),) * 3


UTF8_ERROR = ("label is not valid utf-8: 'utf-8' codec can't decode byte 0xff "
              "in position 0: invalid start byte")
MESSAGE_NAMES = ("ClientHello", "ServerHello", "EncryptedExtensions", "CertificateMessage",
                 "CertificateVerify", "FinishedServer", "FinishedClient")

# (decode_message, server side, client side) for each frame, as the
# codec that read every message through a dataclass gave them; the one
# frame that decodes shows as its tag's logged name
EXPECTED = {
    "unknown-tag": _same("MalformedFrame", "unknown message tag 153"),
    "unknown-tag-with-payload": _same("MalformedFrame", "unknown message tag 0"),
    "unknown-tag-cut": _cut_payload("unknown tag 153"),
    "wrong-tag": (
        ("FinishedClient", None),
        ("UnexpectedMessage", "wanted ClientHello, got FinishedClient"),
        ("UnexpectedMessage", "wanted ServerHello, got FinishedClient"),
    ),
    "wrong-tag-malformed": _same("MalformedFrame", "expected 4 chunks, found 3"),
    "header-cut": (
        ("MalformedFrame", "frame needs at least 5 bytes, got 3"),
        ("ConnectionClosed", "peer has nothing more to send: 3 of 5 bytes read"),
        ("ConnectionClosed", "peer has nothing more to send: 3 of 5 bytes read"),
    ),
    "header-empty": (
        ("MalformedFrame", "frame needs at least 5 bytes, got 0"),
        ("ConnectionClosed", "peer has nothing more to send: 0 of 5 bytes read"),
        ("ConnectionClosed", "peer has nothing more to send: 0 of 5 bytes read"),
    ),
    **{f"payload-cut-tag-{tag}": _cut_payload(name)
       for tag, name in enumerate(MESSAGE_NAMES, 1)},
    "over-cap": (
        ("MalformedFrame", "frame announces 16777217 payload bytes, carries 0"),
        ("MalformedFrame", "frame announces 16777217 payload bytes, cap is 16777216"),
        ("MalformedFrame", "frame announces 16777217 payload bytes, cap is 16777216"),
    ),
    "client-hello-label-not-utf8": _same("MalformedFrame", UTF8_ERROR),
    "server-hello-label-not-utf8": _same("MalformedFrame", UTF8_ERROR),
    "certificate-subject-not-utf8": _same("MalformedFrame", UTF8_ERROR),
    "certificate-scheme-not-utf8": _same("MalformedFrame", UTF8_ERROR),
    "client-hello-count-cut": _same("MalformedFrame", "truncated 4-byte length"),
    "client-hello-count-too-high": _same("MalformedFrame", "expected 3 chunks, found 2"),
    "client-hello-count-too-low": _same("MalformedFrame", "trailing bytes after final chunk"),
    "server-hello-one-field": _same("MalformedFrame", "expected 2 chunks, found 1"),
    "server-hello-three-fields": _same("MalformedFrame", "trailing bytes after final chunk"),
    "server-hello-field-overruns": _same("MalformedFrame", "chunk claims 100 bytes, 3 remain"),
    "server-hello-length-cut": _same("MalformedFrame", "truncated 4-byte length"),
    "certificate-five-fields": _same("MalformedFrame", "trailing bytes after final chunk"),
}


def test_every_frame_has_its_pinned_outcomes():
    assert sorted(EXPECTED) == sorted(FRAMES)


@pytest.mark.parametrize("case", sorted(FRAMES))
def test_frame_ends_the_same_way_for_every_reader(case):
    assert outcomes(FRAMES[case]) == EXPECTED[case]
