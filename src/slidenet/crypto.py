"""PKI bootstrap and signing for packets, receipts, reports, and parcels.

Two interchangeable backends:

* "oracle": a trusted in-simulator authority holding one secret per node;
  signatures are keyed digests recomputed on verification.  Within the
  simulation forgery is impossible by construction (no code path can
  produce a tag without the node's key handle), which makes unforgeability
  assertions exact rather than probabilistic.  This is the default.
* "ed25519": real asymmetric signatures via the `cryptography` package,
  with keys derived deterministically from the run seed.

Corrupt nodes hold their own key handles and may sign arbitrary values as
themselves; nothing in the simulator can sign on behalf of another node.

Signing is lazy.  `KeyRing.sign` checks the key handle at once, but for a
hashable value it packs the value and computes the signature only when
they are first read, and then keeps both.  Most statements are verified
by their peer and then only their value is read, so most are never packed.
A statement the ring minted this way verifies by construction; any other
(hand-built, `dataclasses.replace`d, minted by another ring, or holding an
unhashable value, which is signed eagerly) runs the backend's verify.
Equality, `repr` and the packer read the real signature bytes, so every
byte a run gives out is the same as under eager signing.  Hashing reads
only the value and the signer, so hashing a value that nests minted
statements computes none of their signatures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .util import pack, register_packer


class CryptoError(Exception):
    pass


@dataclass(frozen=True)
class Signed:
    value: object
    signer: object
    signature: bytes
    # (backend, key) of a statement KeyRing.sign minted from a hashable
    # value; its signature is computed on first read (__getattr__)
    _mint: tuple = field(default=None, init=False, repr=False, compare=False)
    # pack(value), kept once read from a minted statement
    _body: bytes = field(default=None, init=False, repr=False, compare=False)

    @property
    def body(self) -> bytes:
        """The bytes the signature covers: pack(value)."""
        body = self._body
        if body is None:
            body = pack(self.value)
            if self._mint is not None:
                object.__setattr__(self, "_body", body)
        return body

    def __hash__(self):
        # equal statements share value and signer; the signature is left
        # unread, so hashing never computes it
        return hash((self.value, self.signer))

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a minted
        # statement's signature before its first read
        if name != "signature" or self._mint is None:
            raise AttributeError(name)
        backend, key = self._mint
        signature = backend.sign(key, self.body)
        object.__setattr__(self, "signature", signature)
        return signature


register_packer(Signed, lambda s: ("~signed", s.value, s.signer, s.signature))


@dataclass(frozen=True)
class KeyPair:
    node_id: object
    _secret: bytes


class _OracleBackend:
    def __init__(self, node_ids, seed):
        root = pack(("oracle-root", str(seed)))
        self._secrets = {
            nid: hashlib.blake2b(pack(("node-key", nid)) + root,
                                 digest_size=32).digest()
            for nid in node_ids
        }

    def keypair(self, node_id):
        return KeyPair(node_id, self._secrets[node_id])

    def check(self, key: KeyPair):
        secret = self._secrets.get(key.node_id)
        if secret is None or secret != key._secret:
            raise CryptoError(f"bad key handle for {key.node_id}")

    def sign(self, key: KeyPair, body: bytes) -> bytes:
        self.check(key)
        return hashlib.blake2b(body, key=key._secret, digest_size=16).digest()

    def verify(self, node_id, body: bytes, signature: bytes) -> bool:
        secret = self._secrets.get(node_id)
        if secret is None:
            return False
        expect = hashlib.blake2b(body, key=secret, digest_size=16).digest()
        return signature == expect


class _Ed25519Backend:
    def __init__(self, node_ids, seed):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
        )
        root = pack(("ed25519-root", str(seed)))
        self._private = {}
        self._public = {}
        for nid in node_ids:
            raw = hashlib.blake2b(pack(("node-key", nid)) + root,
                                  digest_size=32).digest()
            sk = Ed25519PrivateKey.from_private_bytes(raw)
            self._private[nid] = (raw, sk)
            self._public[nid] = sk.public_key()

    def keypair(self, node_id):
        return KeyPair(node_id, self._private[node_id][0])

    def check(self, key: KeyPair):
        pair = self._private.get(key.node_id)
        if pair is None or pair[0] != key._secret:
            raise CryptoError(f"bad key handle for {key.node_id}")

    def sign(self, key: KeyPair, body: bytes) -> bytes:
        self.check(key)
        return self._private[key.node_id][1].sign(body)

    def verify(self, node_id, body: bytes, signature: bytes) -> bool:
        pub = self._public.get(node_id)
        if pub is None:
            return False
        try:
            pub.verify(signature, body)
            return True
        except Exception:
            return False


BACKENDS = {"oracle": _OracleBackend, "ed25519": _Ed25519Backend}


class KeyRing:
    """Key directory produced by `keygen`: every node can verify every
    other node's signatures; signing requires the node's KeyPair handle."""

    def __init__(self, node_ids, backend="oracle", seed=0):
        node_ids = list(node_ids)
        if len(set(node_ids)) != len(node_ids):
            raise CryptoError("duplicate node ids")
        if backend not in BACKENDS:
            raise CryptoError(f"unknown crypto backend {backend!r}")
        self.node_ids = node_ids
        self._backend = BACKENDS[backend](node_ids, seed)

    def keypair(self, node_id) -> KeyPair:
        if node_id not in self.node_ids:
            raise CryptoError(f"unknown node id {node_id!r}")
        return self._backend.keypair(node_id)

    def sign(self, key: KeyPair, value) -> Signed:
        backend = self._backend
        try:
            # a value holding a list, a bytearray or a non-frozen
            # dataclass is unhashable: it could change after signing, so
            # it is signed now and verify packs it again every time
            hash(value)
        except TypeError:
            return Signed(value, key.node_id, backend.sign(key, pack(value)))
        backend.check(key)
        signed = object.__new__(Signed)
        object.__setattr__(signed, "value", value)
        object.__setattr__(signed, "signer", key.node_id)
        object.__setattr__(signed, "_mint", (backend, key))
        return signed

    def verify(self, signed: Signed) -> bool:
        if not isinstance(signed, Signed):
            return False
        mint = signed._mint
        if mint is not None and mint[0] is self._backend:
            # minted here: its signature is this backend's, by construction
            return True
        return self._backend.verify(signed.signer, signed.body,
                                    signed.signature)

    def verify_as(self, signed: Signed, expected_signer) -> bool:
        return (isinstance(signed, Signed)
                and signed.signer == expected_signer
                and self.verify(signed))


def keygen(node_ids, backend="oracle", seed=0) -> KeyRing:
    """Run key generation for all nodes, returning the shared directory."""
    return KeyRing(node_ids, backend=backend, seed=seed)
