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


def _pack_into(obj, out: bytearray) -> None:
    # None, True and False ahead of int, of which bool is a subclass
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        data = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
        out += b"i" + len(data).to_bytes(2, "big") + data
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
