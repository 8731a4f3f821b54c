import hashlib

import pytest
from hypothesis import given, strategies as st

from pqbench.hashing import DEFAULT_HASH, HashFunction, make_hash, mix64


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
    h = make_hash(32)
    d = h(b"some message")
    assert len(d) == 32
    assert d == h(b"some message")
    assert h(b"some message") != h(b"some messagf")


def test_empty_and_length_separation():
    h = make_hash(32)
    assert h(b"") != h(b"\x00")
    # absorbing happens in 8-byte words; the length absorb must keep
    # short zero-padded inputs apart
    assert h(b"\x00" * 7) != h(b"\x00" * 8)


def test_output_length_variants():
    for n in (8, 16, 32, 33, 64):
        assert len(make_hash(n)(b"x")) == n
    long = make_hash(64)(b"x")
    short = make_hash(32)(b"x")
    assert long[:32] == short  # same squeeze, truncated


def test_keyed_variant_differs():
    assert make_hash(32, key=b"k1")(b"m") != make_hash(32, key=b"k2")(b"m")
    assert make_hash(32, key=b"k1")(b"m") != make_hash(32)(b"m")


def test_single_bit_flip_diffuses():
    h = make_hash(32)
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


def test_apply_must_honor_declared_length():
    bad = HashFunction("bad", 32, lambda data: b"short")
    with pytest.raises(ValueError):
        bad(b"x")


def test_default_is_hashlibs_blake2b_256():
    # BLAKE2b-256("abc"), the RFC 7693 function at a 32-byte digest size
    assert DEFAULT_HASH(b"abc").hex() == (
        "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
    )
    for n in (0, 1, 63, 64, 65, 1024):
        want = hashlib.blake2b(message(n), digest_size=32).digest()
        assert DEFAULT_HASH(message(n)) == want
        assert DEFAULT_HASH.new().update(message(n)).digest() == want


# 64-byte pqh digests of message(n) under three keys, frozen from the
# one-shot implementation before streaming existed; shorter outputs are
# prefixes of the same squeeze
VECTOR_KEYS = (b"", b"k", b"nineteen-byte-key!!")
PQH_VECTORS = {
    b"": {
        0: "5391d8fe60c81574549d14aed29a0d7ecff38bc1675c542e570a7ce3562ea683"
            "736210067bf488e85fb37dd2fee40cfc21e104516a3c7a144ad60d6a8423e6a7",
        1: "817cb7033e5beee67b3f0db2436698b770cbe695b906b60f647ca32f8b037eff"
            "7964bfab00d79ff9eec011f4f03f679f1a3bdb24905e1e5ee11940b3fbac4aa1",
        2: "ba46c94f6080d6bf78cd81356e3bb6e2ed31803bed493578bcf7ff7d5aa6333c"
            "580e4864b65cde928ee5abad5755e85fd8566b54a7ffaae25eb0fd6d657d9d3a",
        3: "26a59e7c9b23fff7f76b51aee9b1f8044aac506da26375dfb20c039cbeb77c39"
            "547bfc2d3430953756862d38fcd9b9881548ac1ae4aaddca6f56bf544a70d1b9",
        4: "1925562c830cddf789b8ee352b27beae12e73e65135ce769c1035eb7cdc591ec"
            "0f4d2b6e895985ba7dd54f150cfd1653d744b5e817c432a33e342b048f86bc41",
        5: "22aa60cfc63291c589095a3c2ca9487b6633f5472bfacce250912549a219cbb0"
            "da486117ee8f4e897413ef28a9b4f2cc136447499816f56a0e4356b33405a9d2",
        6: "e7d4a87be84e9b8d61e0548ca40fbc054b1920dbc1231697b5a8f579d1439a77"
            "b2833ef7d02641722a0b93cc4e587b5ffffc2faaca5cfda3a6ae4839c7de89fd",
        7: "7fa2eadaac3f4b6a88db20a07ed818bcd06b2e6e2e27b3db4434f247890e695f"
            "3be9bddb70a4aa243480f9fedc731db1616eba445fa9a079d3bbfdb53a4210e6",
        8: "07a72388a6b253174e2ee5c86d57286bedd9e3c14d91a8074e8bbbd0b10df931"
            "10bf3ed24ab71c1df450b1cbff2d30c4507dda55c09b4899b45502c8172fdd60",
        9: "874b82ad8c94b70b4d2f56e312b50e314eb4d10aba063f3776fa45659866d379"
            "a8aa1d1471b1693bcd8a256d32a02320163c3028290162760f61128b36798983",
        10: "d7ce52981d30b0c50b0f99299c50fe7a6782257541f306d35a3bb8cdc44c339f"
            "3a8b84048b84fcf02c90c36cf8a6c24689e07062876f52412219fae63efcf663",
        11: "c5ae4e616de9a30fc2d2cd9d2c4eb038d3add8a17347bfff02490e541301002c"
            "4b267e1cbee4315f736abce0f912b44c9c333aaee10b937197057665ccb5732a",
        12: "472f151c9d93b2b9d83b0019e734d5ec8fdf451380e8b72e7890e533ffaefc1c"
            "242ce7c7497930f3a9fd03f444354c5b6c27b494bfa8e6d101c194b99f903543",
        13: "77e8f03c90fccddccb8f2680683783375eae61d5924ab8f65012a1e1cb796acd"
            "48cdcc2e964289bcfb5020dadbc513bc5da18d84d38e616007c315f0c1b9d21c",
        14: "0ee65cf23707c671ac822964867e75902ebfb978746d69e5f722a9ddf0cedaba"
            "a660bc14bde4da400a02c5789eeddb6131366978ac8409ea87037485f9938b5d",
        15: "236f3c77d3cae879d31dda6e201b5e285c945c5b281c51e71d9d67c881ec8521"
            "1ec8612aab928a5ea630dfe2ad2cadb6a9c1f6c5ad0ed52d0049c243f2d0be0a",
        16: "6c3650f0e0409e50fe086f3c8d0bc35e6860a8fc5a2b66f0b1c4383d0875668b"
            "0e7d5362c6a0c5eaa1ef3921f7e7fe2e3b8e04be899a312f5c863055762c3dc4",
        17: "37685370d43a80351b918e45df55fe78e75cd93d3d670800abf5ef826328c22b"
            "c0333e78be5e632dcc8f7b4accede950772d6f57a9e973ad4c6a05e0dd0d02a0",
        63: "a7b795f82f1de338987ed94778d07b3048fbcc4c45613d49c928f69889f6cd53"
            "46412f0f8728be219e665f335f202699ac1f92c1cd1d1277e36852b4cdcf87fa",
        64: "f17f299b2651b30ac9eaf94b5b00a959dadba77e7a61812588cce8add702ba96"
            "180bcd0f1e696566089446c4736556ffda64a8c3d16e048a21786d34dc292d0d",
        65: "d10b9d829364bd778c29587737bf75d359e4297f4bdf58f7f1d110b4e3007765"
            "baa0b588e099f4f4537c87b57498bcc72459f922065b762c172b687052ce1737",
        1024: "b931163992aa6d0e9bc731a4a66beb65a012590f14cb4597db3892002170dbf4"
            "1146070a5a5e8449febde8fd03046c3247ec479d5519e0d47255cca81cbf46fb",
        20480: "fbe4e8729bf68ae8af845bd9fdc12b109534e599503d51b87577fece26e8ab93"
            "e60974717df23dd012500455bad2f0341226bf26a273bef770c7d05243825e2a",
    },
    b"k": {
        0: "9b7d5608749803964237fe63784a75fb41b3c47b6f1ff3c2cfd46f1390d83d53"
            "187bd2b4d1f571b61b9580dca81cce7bff1a2c64d3c2b6c954881fa97bbbcd25",
        1: "e97590e44983c9ed02b663ae385d8af572df768b6c1f55e39236dc98bdddbe72"
            "38de4ff28f08f807846804233a165b03484c1dcd29a4a6d97a3002d52625dee9",
        2: "78c0ebfa1c4a3ee245df3f0b973fde2bd1588efbfba8b4a0a4c385bffa49b878"
            "f4b964af675e11fc60422565d022346cea8033cc962f9f4118edb1262a5f5c55",
        3: "83a666e53e3278d175078183e2996420ffc49aee629d281aed56d92bba3b15b7"
            "bd889e1139097405e42e7407a95724ef92cf333652bee14addaa65de54e6bcf2",
        4: "e0b7f398730b7f310100b7961b7ca4cec92376226d03749d24e57aa1b554d903"
            "2cdbcbef845a3a29b8d2fa8898ce036e829ca416c9ee616bee456807f1d6ca19",
        5: "255bdec07195f150d5166fa72f72badb1c23125cfa3ea7db0cee96df14c76a15"
            "a40fe606199194e0d5dd132a0e619c7b2c687a0bc5e80405c871c15fbdd617cc",
        6: "f899e2e8616d7fd5f2a5c84438c089ce9a47490ed97d8252681c95c51dd51b9d"
            "7960be2cf526424aee08e0107118d5cef983c51ba5000f60c2b80b9197a38147",
        7: "e0a73fab276c0de273b5dc4e8dc2bb6af14f813cfa50938aa05d07c22d80ed72"
            "52b37d2250e25060cb0e5b7076bf308f93709095ed7700691659eebbbd9c9e32",
        8: "54b12bd32a9f4e7ace5a62589d86a7f526fcaeda116cfabdddb4aee893a6fe64"
            "62e2b8b9ab40a93ba1e9177c9a17445c1aa2e96934b304d990ddec5ff3c63b8e",
        9: "174bfdc902e7caff2dbace3931755baf2659cc86f7d163901b716dc535a3f515"
            "a9601f1dbd7f6252b88bf68b5d1129555fdf5e1e4ee0610d9fc75ba91a7cf95f",
        10: "c8733bb53e4542d792ac21a5ccb853a5b7efae412f99b4514d77365052c8edd2"
            "5e21dcd14815e63b664f8feb6180084b393a144356d40c5312b16438324cddb9",
        11: "64d2e7d2505aab0e7483e6cb67b4983a5682cc1f2e57704451015e789973d507"
            "747a2c4c3c5c7d103b41ceef400a62a7739242d67b907a61278908e90e6bf2a5",
        12: "9fdf60efd00549dcfd400274994b73f4cfb6651ced159e0dd6d3cf27b99c7a31"
            "4bf8920b6519df00b38a12d0465379e2e1a258305895aacdf9cd3322084b3f5b",
        13: "395ceecde03ee22b7bcfaafda4b053865721a15d03326b4fe389aa775acbdbab"
            "5daecec04d1725bfc457507ea719cbad807ad288fbb3021e98643ad819970ef5",
        14: "ef1fe5ef0b05d96ecf2b27129a741cdcc646d422c6a2b72a6119a5af44477a4c"
            "927801d001ba71758916331293a83187f134b72663402d6a3592603e24992f52",
        15: "978d367250a015fe392f0d5cec8541e24ea63a0700d0a54f9fb9920efa5d5384"
            "0d3e251bd9e005fac01230db1dcf8c6064e13856870e104fdae402b0d4e5d3ca",
        16: "d9888e52acc4b0795c11abe769ea95c72b1c4f2ae804d7c6bf9a2084cfd674ac"
            "c472adef63b0ac43a8ecbaa23a2e76896dcc98ead5485094fa514330999e8e8f",
        17: "9d4e0ead4f9e56747214079f519623bfe17fd6f2bc428bc2d98e1ed378b89b11"
            "d5c7822bb2be5b93ecee26e6ca4100eec2b83bcfed76b5f5fe50383002a7dc02",
        63: "4549f52bcce6f7395251db97055f7480a4ff86e63879848f0f5b44703fb0e65e"
            "d91fb452a14bc0d79a082166099d0b295ffffbc96f4f764bb8bb8630d0073a7b",
        64: "bfb2f048d4c02c5c1ca73310b13596a8f0eb7eb536dc5637709e0cc0bf804ad5"
            "164b9ddf4c6b879b6af8efddbed5bc63e4e2560b04678f4137f0c23c0c4e429c",
        65: "060172591452bb2fc3f274a4a022c0350aee6332100ba6d8f2b18d83c11d7611"
            "3f4f0aaf8c1b2399b1d7940b40530ea6604985febd81b1d31940b204944f7b42",
        1024: "dd3f01757bf6bcba5047ed05636ecd11446fd24e39082ecb741a97119c2d599e"
            "a16294d99adf670cb4bc60c0263db4f36636b4a0f331d85426ab0a99fac61bbd",
        20480: "4d9397ccc54240fc2f2214d48cb88a99335d7505560e562449681a34236d57a1"
            "36bb7b753e5214274cb423839b5fd5be1c1b5dceca07699933dc6b13ba0b6854",
    },
    b"nineteen-byte-key!!": {
        0: "f14b92eea146d11f3580785a62e77a453e80988a1d3ab2cf199184905cacf512"
            "972ee53c78e5b54d444dc41a5ac4ab22150f022699ca325218313d3cce908fad",
        1: "2e59dd9717f19e746e5ca4588f179ba1bec38307b10ae4fbee3ba57148a86b77"
            "aeac7139fd69b53b8c17be61f18a6fdd095aba1925eaf5fd0e65d641a06e00e3",
        2: "0f9cc06cd265e7be33b5f48819f8cea1ea3dd8586130cb2679ecd8c241361920"
            "2146f2b8f5c8b622e52037609272934cf3c2c218e68ef568a49f15ddf4e41f6f",
        3: "3e2185a0835157ad7a2f5439af26a93c226e39d26b8833bacc69a4c7f2bb17c8"
            "aa44c0cf543fc88df9a08d00574b1c73ebbf689d70ce64a9e4f42ec854639ec4",
        4: "087ff9009af448af421123df6b656d9d0f0e13aba55eecb265d43036a0bace53"
            "a4e539c4a20cb882eeda05c9283c691c9c1881868d61bc9a71ecabf6c209804c",
        5: "338793c5e2be3c983a3fb0fd65d91a3bec64ef6728579fc781c68f0aa935e9e1"
            "7b69f6916bf244e672075f3edd28c8372180eedc855f2f7d1b8c582268598665",
        6: "65d01b0ea76ac5cf4dc315c57c4c3a4dd6dd5f9b6ee5d952709cce550cb02945"
            "00f101ccef8238c6050f2eba36940f0f5140f904ebcac079faaad5883332b685",
        7: "87577aeb7f8a1008f9e2fdf9f92aa82328a8a0a8ec56598f43ea15403d42504b"
            "53289163ca87f6bc94bc324e882626257eb6bec46f76872604eddbbd5a89b4fc",
        8: "e349df0cbe518868522378eee9f9f14d3feaa308aff5fe6b1b574061003d3941"
            "67b512ba030f8818e5d8891789ac1092a5c38e6e3769d8cbf8bfd27810fda8d6",
        9: "d8ff374581baa8ae1dee33005c8741b10d14cf3a9745004be062042ad84ea3f3"
            "0fbcbe11cb180c2de146a4149d8d38b584917a9c754ae0dcba570b449d7f44eb",
        10: "8cb48b0bf14db2cf7cf14c51c44f01a67b2ed879e3b7e42d1a354c058c14b989"
            "9d5f7dcd70a33256d91aadd9e594086c27547a951c85cb161a359c6654a8ed1b",
        11: "7ad8fdb64be5bf8668c2b7df123b92c7e5bdc3fad2cde583dbbc7652c180bc38"
            "2dcaad9118f70b45c163cf39e4b19137f2eecea66e4a50919faf81c42c0e726d",
        12: "d8eccf67d1042c94c3851199683a2743048dc1734858d778d0b41bb6fa52b08c"
            "584c1ac80d398a8d67fa95d4c5e6ddb639f364756abbca81a00199687a87eb16",
        13: "89ad8ba0346b556dbbdf9a83af7b724af0833701f25fd00a078946af2030376c"
            "462e6434350915d5d8a0281f2d6392154be6ea6a453b17b6ac7d503fe1830a14",
        14: "065fadd693fef1b05ac781c8e19e31f5c24003af19a87c87a314097b25df18dd"
            "58630c0f65dba8f0cd89a9e3b32acb198ed9c8f4b1bf09b165e31f93cf9748ee",
        15: "82607dd5d22d0284b971c9a1fafb92bb5761fef6a4975bf61f517c1b3f7f8329"
            "7e28786f866405b717c368a440c2fc299908f40dd76730299d52eafc9ae0da42",
        16: "570b572dde156493ada41d99397f07baa2d5c073ceb4e1e976798be6413d35ca"
            "2fe51cfa945b5752b409cc19451f8a47c0cac60a9d1aa3626a83edd085bc5d50",
        17: "0e22e6b4cdb602ffb52a56aa3893e7a2142cbc8c99cb868a2548a5765ff32a68"
            "c9cfa7ee991ec91d69d7ea4035df46e404a13ac366252c55e949921eaab61fb9",
        63: "c220b8bdf0a4ee11557683a57738585c02d1d157e11ba29a650677263abd17cf"
            "758ca26eb3214ac9be4eac5050bd6357439d17abd4cf21a3a801279cb82a2681",
        64: "94376b86eadc9277b31d96097b459c37f28279f2d3f7b455a2f365c0f345909e"
            "b640fd6d2a428e212f73dce560803aaf585d606759c7834ecfea6760a68b0889",
        65: "70f97d757383cebdeb78a78429b98f27c1c09da31c1f10e1b3dd800aacbea83d"
            "88229e50ed51f4fa352298d078fb7ae6be6040da6c4ccb38b9c6332c9d93d49e",
        1024: "5f1d249f530c7f40a718a311a1422b80e9efd79a81f921f151ea0970fbe49072"
            "8c69d6a87f301752a4932a4595a203806c0ea9cc140ac9be2161c67ca0a5cf59",
        20480: "5a8c2e0c77e81e0dfeac174de438c564c5b8fbd9892f1464a00df074f2c01f5e"
            "dfc7be3eea838b2abc2cacfc28451801291a2fce257407637f6135d436e0ddb2",
    },
}


def message(n):
    return (bytes(range(256)) * 80)[:n]


@pytest.mark.parametrize("key", VECTOR_KEYS)
def test_frozen_vectors(key):
    for output_bytes in (8, 32, 33, 64):
        h = make_hash(output_bytes, key)
        for n, expected in PQH_VECTORS[key].items():
            assert h(message(n)).hex() == expected[: 2 * output_bytes], (n, output_bytes)


def bare(h):
    """The same hash known only by its one-shot apply, as test doubles and
    tracing wrappers build it: it streams by buffering."""
    return HashFunction(h.name, h.output_bytes, h.apply)


HASHES = [make_hash(n, key) for n in (8, 32, 33) for key in VECTOR_KEYS] + [DEFAULT_HASH]
hashes = st.sampled_from(HASHES + [bare(h) for h in HASHES])


@given(hashes, st.binary(max_size=80), st.lists(st.integers(0, 80), max_size=6))
def test_any_split_streams_to_the_one_shot_digest(h, data, cuts):
    state = h.new()
    bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
    for start, stop in zip(bounds, bounds[1:]):
        assert state.update(data[start:stop]) is state
    assert state.digest() == h(data)
    assert state.digest() == h(data)  # digest leaves the state as it was
    assert state.update(b"more").digest() == h(data + b"more")


@given(hashes, st.binary(max_size=40), st.binary(max_size=40), st.binary(max_size=40))
def test_copy_is_independent_of_the_original(h, prefix, left, right):
    original = h.new().update(prefix)
    fork = original.copy()
    original.update(left)
    fork.update(right)
    assert original.digest() == h(prefix + left)
    assert fork.digest() == h(prefix + right)
