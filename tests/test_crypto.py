import dataclasses

import pytest

from slidenet.crypto import BACKENDS, CryptoError, KeyPair, Signed, keygen
from slidenet.engine import run_scenario
from slidenet.util import pack, register_packer
from test_golden import SCENARIOS


@pytest.fixture(params=["oracle", "ed25519"])
def ring(request):
    return keygen([0, 1, 2, 3], backend=request.param, seed=42)


def test_keygen_cardinality(ring):
    assert len(ring.node_ids) == 4
    for nid in range(4):
        assert ring.keypair(nid).node_id == nid


def test_sign_verify_roundtrip(ring):
    key = ring.keypair(1)
    signed = ring.sign(key, ("hello", 7))
    assert ring.verify(signed)
    assert ring.verify_as(signed, 1)


def test_wrong_signer_rejected(ring):
    key = ring.keypair(1)
    signed = ring.sign(key, ("hello", 7))
    assert not ring.verify_as(signed, 2)
    forged = Signed(signed.value, 2, signed.signature)
    assert not ring.verify(forged)


def test_tamper_detection(ring):
    key = ring.keypair(3)
    signed = ring.sign(key, ("payload", b"\x01\x02"))
    tampered = Signed(("payload", b"\x01\x03"), 3, signed.signature)
    assert not ring.verify(tampered)


def test_determinism(ring):
    key = ring.keypair(0)
    a = ring.sign(key, (1, 2, 3))
    b = ring.sign(key, (1, 2, 3))
    assert a == b


def test_determinism_across_rings():
    r1 = keygen([0, 1], backend="oracle", seed=9)
    r2 = keygen([0, 1], backend="oracle", seed=9)
    assert r1.sign(r1.keypair(0), "x") == r2.sign(r2.keypair(0), "x")


def test_duplicate_ids_rejected():
    with pytest.raises(CryptoError):
        keygen([0, 0, 1])


def test_foreign_key_handle_rejected():
    r1 = keygen([0, 1], backend="oracle", seed=1)
    r2 = keygen([0, 1], backend="oracle", seed=2)
    with pytest.raises(CryptoError):
        r1.sign(r2.keypair(0), "x")


def test_unknown_signer_rejected(ring):
    key = ring.keypair(0)
    signed = ring.sign(key, "x")
    assert not ring.verify(Signed("x", 99, signed.signature))


# -- the cached body: pack(value) stored by sign and reused by verify ------

def test_rebuilt_with_new_value_rejected_after_verify(ring):
    signed = ring.sign(ring.keypair(1), ("hello", 7))
    assert ring.verify(signed)
    assert not ring.verify(dataclasses.replace(signed, value=("hello", 8)))
    assert not ring.verify(Signed(("hello", 8), 1, signed.signature))


@pytest.mark.parametrize("mutable", [[1, 2], bytearray(b"\x01\x02")],
                         ids=["list", "bytearray"])
def test_mutated_after_signing_fails(ring, mutable):
    signed = ring.sign(ring.keypair(2), ("payload", (3, mutable)))
    assert ring.verify(signed)
    mutable.append(9)
    assert not ring.verify(signed)


@dataclasses.dataclass
class _Note:
    text: str


register_packer(_Note, lambda n: ("~note", n.text))


def test_mutable_custom_object_mutated_after_signing_fails(ring):
    note = _Note("a")
    signed = ring.sign(ring.keypair(0), ("note", note))
    assert ring.verify(signed)
    note.text = "b"
    assert not ring.verify(signed)


def test_cached_body_leaves_eq_and_hash_alone(ring):
    signed = ring.sign(ring.keypair(3), ("x", 1, (2, None)))
    rebuilt = Signed(signed.value, signed.signer, signed.signature)
    assert signed == rebuilt
    assert hash(signed) == hash(rebuilt)
    assert signed.body == rebuilt.body == pack(signed.value)
    assert ring.verify(rebuilt)


def test_body_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Signed("x", 0, b"sig", b"forged body")


# -- lazy signing: a minted statement verifies by construction -------------

@pytest.fixture
def backend_calls(ring, monkeypatch):
    """Counts the backend verifies `ring` runs."""
    calls = []
    verify = ring._backend.verify

    def counting_verify(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(ring._backend, "verify", counting_verify)
    return calls


def test_minted_statement_skips_backend_verify(ring, backend_calls):
    signed = ring.sign(ring.keypair(1), ("hello", 7))
    assert ring.verify(signed)
    assert ring.verify_as(signed, 1)
    assert not ring.verify_as(signed, 2)
    assert backend_calls == []


def test_unminted_statements_run_backend_verify(ring, backend_calls):
    signed = ring.sign(ring.keypair(1), ("hello", 7))
    assert ring.verify(Signed(signed.value, 1, signed.signature))
    assert ring.verify(dataclasses.replace(signed))
    listed = ring.sign(ring.keypair(1), ("hello", [7]))
    assert ring.verify(listed)
    listed.value[1].append(8)
    assert not ring.verify(listed)
    assert len(backend_calls) == 4


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_statement_minted_by_another_ring_rejected(backend):
    r1 = keygen([0, 1], backend=backend, seed=1)
    r2 = keygen([0, 1], backend=backend, seed=2)
    signed = r1.sign(r1.keypair(0), ("x", 1))
    assert not r2.verify(signed)
    assert not r2.verify_as(signed, 0)
    assert r1.verify(signed)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("value", [("x", 1), ("x", [1])],
                         ids=["hashable", "list"])
def test_foreign_key_handle_rejected_at_sign(backend, value):
    r1 = keygen([0, 1], backend=backend, seed=1)
    r2 = keygen([0, 1], backend=backend, seed=2)
    for key in (r2.keypair(0), KeyPair(0, None), KeyPair(9, None)):
        with pytest.raises(CryptoError):
            r1.sign(key, value)


def test_lazy_signature_is_the_eager_one(ring):
    key = ring.keypair(2)
    value = ("s1", 3, (4, b"\x05"))
    signed = ring.sign(key, value)
    eager = ring._backend.sign(key, pack(value))
    assert repr(signed) == repr(Signed(value, 2, eager))
    assert signed.signature == eager
    assert pack(signed) == pack(Signed(value, 2, eager))


# -- hashing reads value and signer only: it computes no lazy signature ----

def counting_signs(monkeypatch, backend_cls):
    """Counts the signatures instances of `backend_cls` compute."""
    calls = []
    sign = backend_cls.sign

    def counting_sign(self, key, body):
        calls.append(body)
        return sign(self, key, body)

    monkeypatch.setattr(backend_cls, "sign", counting_sign)
    return calls


def test_hashing_computes_no_signature(ring, monkeypatch):
    signs = counting_signs(monkeypatch, type(ring._backend))
    inner = ring.sign(ring.keypair(0), ("packet", 7))
    outer = ring.sign(ring.keypair(1), ("s2", 1, inner, (2, inner)))
    hash(inner)
    hash(("hop", 1, outer))
    assert {inner: 1, outer: 2}[outer] == 2
    assert signs == []
    assert outer.signature          # packs inner, so signs it too
    assert len(signs) == 2


def test_equal_statements_hash_equal(ring):
    key = ring.keypair(2)
    inner = ring.sign(ring.keypair(0), ("packet", 7))
    a = ring.sign(key, ("s1", inner, 3))
    b = ring.sign(key, ("s1", ring.sign(ring.keypair(0), ("packet", 7)), 3))
    eager = Signed(a.value, 2, ring._backend.sign(key, pack(a.value)))
    assert a == b == eager
    assert hash(a) == hash(b) == hash(eager)
    assert len({a, b, eager}) == 1


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_deleter_run_computes_no_signature(backend, monkeypatch):
    """Nothing in a `deleter-n4` run reads a signature's bytes, so no
    backend sign runs; the signature bytes a reader asks for after the
    run are pinned by test_golden.test_signature_bytes_digest."""
    signs = counting_signs(monkeypatch, BACKENDS[backend])
    sc = SCENARIOS["deleter-n4"]()
    sc.crypto_backend = backend
    report, _ = run_scenario(sc)
    assert report["eliminations"] and signs == []
