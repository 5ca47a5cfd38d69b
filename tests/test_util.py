"""Canonical packing: literal bytes for every branch of `util.pack`.

Signatures and content digests cover these bytes, so a faster packer must
produce exactly them.  The expected values were computed by the original
`isinstance`-chain packer.
"""

import pytest

from slidenet.auth import StatusParcel, Theta
from slidenet.codec import Packet
from slidenet.crypto import Signed
from slidenet.util import pack


class _Int(int):
    pass


CASES = [
    ("none", None, "4e"),
    ("true", True, "54"),
    ("false", False, "46"),
    ("bools_in_tuple", (True, False, None, 1, 0),
     "6c0000000554464e6900010169000100"),
    ("int_-257", -257, "690002feff"),
    ("int_-256", -256, "690002ff00"),
    ("int_-2", -2, "690001fe"),
    ("int_-1", -1, "690001ff"),
    ("int_0", 0, "69000100"),
    ("int_127", 127, "6900017f"),
    ("int_128", 128, "6900020080"),
    ("int_255", 255, "69000200ff"),
    ("int_256", 256, "6900020100"),
    ("int_4095", 4095, "6900020fff"),
    ("int_4096", 4096, "6900021000"),
    ("int_8191", 8191, "6900021fff"),
    ("int_8192", 8192, "6900022000"),
    ("int_2**63", 2**63, "690009008000000000000000"),
    ("int_subclass", _Int(300), "690002012c"),
    ("str_unicode", "héllo ✓", "730000000a68c3a96c6c6f20e29c93"),
    ("bytes", b"\x00\xffab", "620000000400ff6162"),
    ("bytearray", bytearray(b"\x00\xffab"), "620000000400ff6162"),
    ("list", [1, "a", b"b"], "6c0000000369000101730000000161620000000162"),
    ("tuple", (1, "a", b"b"), "6c0000000369000101730000000161620000000162"),
    ("signed_theta", Signed(Theta(True, None, 3), 2, b"sig"),
     "636c0000000473000000077e7369676e6564636c0000000473000000067e746865"
     "7461544e69000103690001026200000003736967"),
    ("packet", Packet(1, 2, b"ab", Signed(("packet", 1, 2, b"ab"), 0, b"s")),
     "636c0000000573000000077e7061636b6574690001016900010262000000026162"
     "636c0000000473000000077e7369676e65646c0000000473000000067061636b65"
     "7469000101690001026200000002616269000100620000000173"),
    ("hop", ("hop", 3, 17,
             Signed(StatusParcel(1, 2, ("f3",), ("edge", 0),
                                 ((1, (1, 2), 5, 3, 4, None),)), 1, b"t")),
     "6c000000047300000003686f706900010369000111636c0000000473000000077e"
     "7369676e6564636c0000000673000000077e73746174757369000101690001026c"
     "00000001730000000266336c00000002730000000465646765690001006c000000"
     "016c00000006690001016c00000002690001016900010269000105690001036900"
     "01044e69000101620000000174"),
]


@pytest.mark.parametrize("obj,expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_pack_bytes(obj, expected):
    assert pack(obj).hex() == expected


def test_pack_is_repeatable():
    # a memoised encoding must not be handed out for mutation
    for _, obj, expected in CASES:
        pack(obj)
        assert pack(obj).hex() == expected


@pytest.mark.parametrize("obj", [1.5, {1, 2}, (1, 2.0)],
                         ids=["float", "set", "float_in_tuple"])
def test_unpackable_types_raise(obj):
    with pytest.raises(TypeError):
        pack(obj)
