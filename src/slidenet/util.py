"""Small shared helpers: the invariant error, canonical byte packing,
digests."""

from __future__ import annotations

import hashlib


class InvariantError(RuntimeError):
    """A protocol invariant failed where honest behavior guarantees it."""


_CUSTOM_PACKERS = []


def register_packer(cls, fn) -> None:
    """Allow `pack` to serialize instances of cls via fn(obj) -> packable."""
    _CUSTOM_PACKERS.append((cls, fn))


def pack(obj) -> bytes:
    """Serialize a nested structure of ints/str/bytes/bool/None/tuples/lists
    into a canonical byte string.  Used as the message body for signing and
    for content digests; two equal structures always pack identically.
    """
    out = bytearray()
    _pack_into(obj, out)
    return bytes(out)


def _int_bytes(obj: int) -> bytes:
    data = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
    return b"i" + len(data).to_bytes(2, "big") + data


# Encodings of the ints in [-1, 8192).  In the auth deleter runs no
# packed int is below -1, round stamps reach L = 4D (8000 at n=5), and
# only a few sig3 sums in s2 statements pass 8191: the table holds every
# exact int packed at n=4 and 99.99% of them at n=5.  A miss takes
# _int_bytes, which gives the same bytes.
_INT_LO, _INT_HI = -1, 8192
_SMALL_INTS = [_int_bytes(v) for v in range(_INT_LO, _INT_HI)]


def _pack_into(obj, out: bytearray) -> None:
    # exact int and tuple first: they are nearly every item of a signed
    # statement; bool, subclasses and everything else take _pack_other
    t = type(obj)
    if t is int:
        out += (_SMALL_INTS[obj - _INT_LO] if _INT_LO <= obj < _INT_HI
                else _int_bytes(obj))
    elif t is tuple:
        out += b"l" + len(obj).to_bytes(4, "big")
        for item in obj:
            _pack_into(item, out)
    else:
        _pack_other(obj, out)


def _pack_other(obj, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        out += _int_bytes(obj)
    elif isinstance(obj, str):
        data = obj.encode()
        out += b"s" + len(data).to_bytes(4, "big") + data
    elif isinstance(obj, (bytes, bytearray)):
        out += b"b" + len(obj).to_bytes(4, "big") + bytes(obj)
    elif isinstance(obj, (tuple, list)):
        out += b"l" + len(obj).to_bytes(4, "big")
        for item in obj:
            _pack_into(item, out)
    else:
        for cls, fn in _CUSTOM_PACKERS:
            if isinstance(obj, cls):
                out += b"c"
                _pack_into(fn(obj), out)
                return
        raise TypeError(f"cannot pack {type(obj).__name__}")


def digest(obj) -> str:
    """Short stable content digest of a packable structure."""
    return hashlib.blake2b(pack(obj), digest_size=8).hexdigest()
