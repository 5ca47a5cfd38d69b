import hashlib
import random
import tracemalloc
from dataclasses import replace

import numpy as np

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from slidenet import codec
from slidenet.codec import CodecError, Message, decode, derive_params, encode
from slidenet.scenarios import FAMILIES


def make_params(n=4, lam="3/8", sigma=None, fragment_bytes=2):
    return derive_params(n, lam, sigma, fragment_bytes=fragment_bytes)


def random_message(params, seed=0):
    rng = random.Random(seed)
    payload = bytes(rng.getrandbits(8) for _ in range(params.message_bytes))
    return Message(1, payload)


def max_erasure_subset(cw, params):
    """Every parity fragment plus the fewest data fragments that decode."""
    kdata = params.data_fragments
    need = params.decode_threshold - (params.packets_per_codeword - kdata)
    return list(cw[kdata:]) + list(cw[:need])


class TestDeriveParams:
    def test_reference_values(self):
        p = make_params(4, "3/8", "1/2")
        assert p.packets_per_codeword == 1024
        assert p.decode_threshold == 640

    def test_n5(self):
        p = make_params(5, "3/8")
        assert p.packets_per_codeword == 2000
        assert p.decode_threshold == 2000 - 6 * 125

    def test_half_rejected(self):
        with pytest.raises(CodecError):
            derive_params(4, "1/2")

    def test_degenerate_graph_rejected(self):
        with pytest.raises(CodecError):
            derive_params(1, "3/8")

    def test_non_integral_d_rejected(self):
        with pytest.raises(CodecError):
            derive_params(4, "5/11")

    def test_sigma_above_mds_limit_rejected(self):
        with pytest.raises(CodecError):
            derive_params(4, "3/8", "3/4")

    def test_codeword_size_bounded(self):
        # D = 1024 at n=4: 4096-byte fragments fill the limit exactly
        assert make_params(4, fragment_bytes=4096).fragment_bytes == 4096
        with pytest.raises(CodecError, match="fragment_bytes 4098"):
            derive_params(4, "3/8", fragment_bytes=4098)

    @pytest.mark.parametrize("lam", [
        "1e-100000", "1e-10000000", "3E-1", "0." + "0" * 4000 + "1",
        10**4000, "65537/131072"],
        ids=["exp-5", "exp-7", "exp-upper", "4000-digits", "huge-int",
             "term-above-field"])
    def test_rate_refused_before_expansion(self, lam):
        with pytest.raises(CodecError, match="^lam "):
            derive_params(4, lam)

    def test_exponent_refused_before_fraction_reads_it(self, monkeypatch):
        read = []
        monkeypatch.setattr(codec, "Fraction",
                            lambda value: read.append(value) or Fraction(value))
        with pytest.raises(CodecError, match="^lam "):
            derive_params(4, "1e-100000")
        assert read == []

    def test_default_sigma_is_max_rate(self):
        p = make_params(4, "3/8")
        assert p.sigma == Fraction(5, 8)
        assert p.data_fragments == p.decode_threshold


class TestRoundTrip:
    def test_all_fragments(self):
        p = make_params()
        msg = random_message(p, 1)
        cw = encode(msg, p)
        assert len(cw) == p.packets_per_codeword
        assert decode(cw, p) == msg

    def test_threshold_subsets(self):
        p = make_params()
        msg = random_message(p, 7)
        cw = encode(msg, p)
        rng = random.Random(7)
        for _ in range(20):
            subset = rng.sample(cw, p.decode_threshold)
            assert decode(subset, p) == msg

    def test_below_threshold_insufficient(self):
        p = make_params()
        msg = random_message(p, 3)
        cw = encode(msg, p)
        rng = random.Random(3)
        for _ in range(20):
            subset = rng.sample(cw, p.decode_threshold - 1)
            assert decode(subset, p) is None

    def test_mixed_codewords_rejected(self):
        p = make_params()
        cw1 = encode(random_message(p, 1), p)
        m2 = Message(2, random_message(p, 2).payload)
        cw2 = encode(m2, p)
        mixed = list(cw1[: p.decode_threshold]) + [cw2[-1]]
        with pytest.raises(CodecError):
            decode(mixed, p)

    # D overruns the locator's 2^m rows at n=4; -1 and 2040 < 2^m = 2048
    # index rows of it, and would decode a wrong message
    @pytest.mark.parametrize(("n", "index"), [(4, 1024), (4, -1), (5, 2040)])
    def test_fragment_index_outside_codeword_rejected(self, n, index):
        p = make_params(n)
        subset = max_erasure_subset(encode(random_message(p, n), p), p)
        stray = replace(subset.pop(), fragment_index=index)
        for fragments in (subset + [stray], [stray]):
            with pytest.raises(CodecError, match="outside"):
                decode(fragments, p)

    def test_wrong_payload_length(self):
        p = make_params()
        with pytest.raises(CodecError):
            encode(Message(1, b"\x00" * (p.message_bytes - 2)), p)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(64, 200))
def test_roundtrip_property_small_code(seed, size_hint):
    # small parameter set so hypothesis can afford many cases
    p = derive_params(4, "3/8", "1/4")
    rng = random.Random(seed)
    payload = bytes(rng.getrandbits(8) for _ in range(p.message_bytes))
    msg = Message(1, payload)
    cw = encode(msg, p)
    subset = rng.sample(cw, p.decode_threshold)
    assert decode(subset, p) == msg


def test_wide_fragments():
    p = derive_params(4, "3/8", fragment_bytes=8)
    msg = random_message(p, 5)
    cw = encode(msg, p)
    rng = random.Random(5)
    subset = rng.sample(cw, p.decode_threshold)
    assert decode(subset, p) == msg


def test_signature_binds_each_fragment():
    # flipping one payload byte invalidates exactly that fragment
    from slidenet.codec import Packet
    from slidenet.crypto import keygen
    ring = keygen([0, 1, 2, 3], seed=3)
    key = ring.keypair(0)
    p = make_params()
    msg = random_message(p, 6)
    cw = [replace(f, sender_signature=ring.sign(key, f.signed_body()))
          for f in encode(msg, p)]

    def valid(frag):
        return (ring.verify_as(frag.sender_signature, 0)
                and frag.sender_signature.value == frag.signed_body())

    assert all(valid(f) for f in cw)
    victim = cw[7]
    payload = bytes([victim.payload[0] ^ 1]) + victim.payload[1:]
    tampered = Packet(victim.codeword_index, victim.fragment_index, payload,
                      victim.sender_signature)
    assert not valid(tampered)
    others = [f for f in cw if f.fragment_index != 7]
    assert all(valid(f) for f in others)
    # the engine drops such a fragment before it reaches a buffer:
    # tests/test_auth.py::TestPacketMsg::test_bad_sender_signature_dropped


def test_field_tables_invert():
    # exp is the GF_MOD powers of the generator, held twice; log inverts it
    exp, log = codec._GF_EXP, codec._GF_LOG
    assert len(exp) == 2 * codec.GF_MOD
    assert (exp[:codec.GF_MOD] == exp[codec.GF_MOD:]).all()
    assert (exp[log[1:]] == np.arange(1, codec.GF_SIZE)).all()
    assert (log[exp[:codec.GF_MOD]] == np.arange(codec.GF_MOD)).all()
    assert log[0] == 0


# sha256 of the concatenated fragment payloads of encode(random_message(p,
# n), p), computed with the dense int64 encoder before the blocked kernel
ENCODE_PINS = {
    (4, 8): "8f80f9cece2648bb8767bf3bd79a1f0c26e7a4b8f656c1b13becbabd7e55150f",
    (6, 2): "5274b1a50cb3dadd5572d6051d2bc273e934e8761511275c126635eb690a25ff",
    (8, 2): "42a769d73447501678f9f9b625d3f39c3f67066c27076c92cf741959a381fc0c",
}


@pytest.mark.parametrize(("n", "fragment_bytes"), sorted(ENCODE_PINS))
def test_encoder_bytes_pinned(n, fragment_bytes):
    p = make_params(n, fragment_bytes=fragment_bytes)
    cw = encode(random_message(p, n), p)
    digest = hashlib.sha256(b"".join(f.payload for f in cw))
    assert digest.hexdigest() == ENCODE_PINS[(n, fragment_bytes)]


@pytest.mark.parametrize(("n", "fragment_bytes"), [(4, 8), (8, 2)])
def test_max_erasure_decode(n, fragment_bytes):
    p = make_params(n, fragment_bytes=fragment_bytes)
    msg = random_message(p, n)
    subset = max_erasure_subset(encode(msg, p), p)
    assert len(subset) == p.decode_threshold
    assert decode(subset, p) == msg
    assert decode(subset[:-1], p) is None


def test_n8_codec_memory_bounded():
    # the dense (D-K, K) int64 kernel peaked near 700 MB at n=8; n=16 is
    # D = 65536, the field limit
    for p in (make_params(8), make_params(16)):
        msg = random_message(p, p.n)
        tracemalloc.start()
        try:
            cw = encode(msg, p)
            assert decode(max_erasure_subset(cw, p), p) == msg
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@pytest.mark.parametrize(("n", "lam", "d"), [(8, "3/32", 32768),
                                             (16, "3/8", 65536)])
def test_threshold_round_trip_at_scale(n, lam, d):
    p = make_params(n, lam)
    assert p.packets_per_codeword == d
    msg = random_message(p, n)
    cw = encode(msg, p)
    rng = random.Random(n)
    for _ in range(2):
        assert decode(rng.sample(cw, p.decode_threshold), p) == msg


def _direct_sums(points, xs):
    """For each p in points, the sum over y in xs of log(p ^ y), mod
    GF_MOD, in row blocks of about 2^20 table reads."""
    step = max(1, 2**20 // len(xs))
    return np.concatenate([
        codec._GF_LOG[points[s:s + step, None] ^ xs].sum(axis=1,
                                                         dtype=np.int64)
        for s in range(0, len(points), step)]) % codec.GF_MOD


# the decoder's erasure locator logs: at each point, the log sum over a
# set, by Walsh-Hadamard transform
def _locator_sums(points, xs, size):
    member = np.zeros(size, dtype=bool)
    member[xs] = True
    return codec._locator_logs(member)[points]


@pytest.mark.parametrize("m", range(17))
def test_block_sums_match_direct_sum(m):
    # random subsets of V = [0, 2^m), summed at points in and out of xs
    size = 1 << m
    rng = np.random.default_rng(m)
    for _ in range(4):
        xs = np.sort(rng.choice(size, rng.integers(1, size + 1),
                                replace=False)).astype(np.int32)
        points = np.unique(np.concatenate([
            rng.choice(size, min(size, 40), replace=False),
            [0, size - 1]])).astype(np.int32)
        assert (_locator_sums(points, xs, size)
                == _direct_sums(points, xs)).all()


@pytest.mark.parametrize("xs", [
    np.arange(1 << 16),                              # the whole field
    np.arange(1 << 10),                              # all of V: no complement
    np.array([0]),                                   # one point, and it is 0
    np.array([1023]),                                # one point, 0 outside
    np.array([0, 1, 2, 3, 7, 8, 100, 511, 512, 1000]),
    np.arange(3, 1024, 5),                           # 0 outside, many blocks
], ids=["field", "all-of-V", "zero", "single", "mixed", "strided"])
def test_block_sums_edge_cases(xs):
    xs = xs.astype(np.int32)
    size = 1 << int(xs.max()).bit_length()
    outside = np.setdiff1d(np.arange(size), xs)
    rng = np.random.default_rng(len(xs))
    points = np.concatenate([xs[:50], rng.permutation(outside)[:50],
                             [0, size - 1]]).astype(np.int32)
    assert (_locator_sums(points, xs, size) == _direct_sums(points, xs)).all()


@pytest.mark.parametrize(("n", "lam", "d"), [(5, "3/8", 2000),
                                             (7, "7/16", 4704)])
def test_threshold_round_trip_non_power_of_two(n, lam, d):
    p = make_params(n, lam)
    assert p.packets_per_codeword == d
    msg = random_message(p, n)
    cw = list(encode(msg, p))
    rng = random.Random(n)
    rng.shuffle(cw)
    subset = cw[:p.decode_threshold]
    assert decode(subset, p) == msg


def _planted(rng, kdata, words):
    """Random field words with zeros planted: about a tenth of the words,
    and one whole fragment."""
    data = rng.integers(0, codec.GF_SIZE, (kdata, words)).astype(np.int32)
    data[rng.random(data.shape) < 0.1] = 0
    data[rng.integers(kdata)] = 0
    return data


def _lagrange(xs, values, targets):
    """The polynomial of degree < len(xs) that is values[i] at xs[i], at
    each target outside xs: P(t) = sum_i v_i prod_{j != i} (t + x_j) /
    (x_i + x_j).  Each log sum over xs is taken over xs, or as the sum
    over all of V = [0, 2^m) less the sum over V minus xs, whichever is
    shorter: every point of V has the same log sum over V."""
    log, exp = codec._GF_LOG, codec._GF_EXP
    size = 1 << int(max(xs.max(), targets.max())).bit_length()
    rest = np.setdiff1d(np.arange(size), xs)

    def log_sums(points):
        if len(rest) < len(xs):
            total = log[:size].sum(dtype=np.int64)
            return (total - _direct_sums(points, rest)) % codec.GF_MOD
        return _direct_sums(points, xs)

    log_u = (log[values] - log_sums(xs)[:, None]) % codec.GF_MOD  # v_i/w_i
    log_n = log_sums(targets)
    out = np.zeros((len(targets), values.shape[1]), dtype=np.int32)
    step = max(1, 2**20 // values.size)
    for s in range(0, len(targets), step):
        # log of N(t) / (t + x_i), with N(t) = prod_j (t + x_j), a row per t
        log_c = (log_n[s:s + step, None]
                 - log[targets[s:s + step, None] ^ xs]) % codec.GF_MOD
        terms = exp[log_u + log_c[:, :, None]]
        terms[:, values == 0] = 0
        out[s:s + step] = np.bitwise_xor.reduce(terms, axis=1)
    return out


def _lagrange_parity(data, targets):
    return _lagrange(np.arange(len(data)), data, targets)


def _parity(data, d):
    """encode's parity: rows [K, d) of the shared interpolation routine,
    fitted to the data at [0, K)."""
    kdata = len(data)
    return codec._interpolate(data, np.arange(kdata), d)[kdata:d]


FAMILY_CODES = sorted({(sc.n, sc.lam, sc.sigma, sc.fragment_bytes)
                       for n in range(4, 9) for family in FAMILIES.values()
                       for sc in family(n)}, key=str)


@pytest.mark.parametrize(("n", "lam", "sigma", "fragment_bytes"),
                         FAMILY_CODES)
def test_fft_parity_matches_lagrange_on_family_codes(n, lam, sigma,
                                                     fragment_bytes):
    p = derive_params(n, lam, sigma, fragment_bytes)
    d, kdata = p.packets_per_codeword, p.data_fragments
    data = _planted(np.random.default_rng(n), kdata, fragment_bytes // 2)
    expected = _lagrange_parity(data, np.arange(kdata, d))
    assert (_parity(data, d) == expected).all()


# (K, D): one block, a power of two, K = D - 1, D not a power of two
@pytest.mark.parametrize(("kdata", "d"), [
    (1, 2), (1, 777), (2, 3), (64, 1000), (512, 1024), (1023, 1024),
    (1024, 1025), (1000, 1001), (5, 9), (1250, 2000), (4097, 5000)])
@pytest.mark.parametrize("words", [1, 2, 3, 4])
def test_fft_parity_matches_lagrange(kdata, d, words):
    data = _planted(np.random.default_rng(kdata * d + words), kdata, words)
    expected = _lagrange_parity(data, np.arange(kdata, d))
    assert (_parity(data, d) == expected).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3000), st.floats(0, 1), st.integers(1, 4),
       st.integers(0, 2**31))
def test_fft_parity_matches_lagrange_random_codes(d, share, words, seed):
    kdata = min(d - 1, max(1, round(share * d)))
    data = _planted(np.random.default_rng(seed), kdata, words)
    expected = _lagrange_parity(data, np.arange(kdata, d))
    assert (_parity(data, d) == expected).all()


@pytest.mark.parametrize("kdata", [65536 - 384, 65535, 20000])
def test_fft_parity_full_field_sampled(kdata):
    # D = 65536: every point of the field; 64 parity points checked
    rng = np.random.default_rng(kdata)
    data = _planted(rng, kdata, 2)
    targets = np.sort(rng.choice(np.arange(kdata, 65536),
                                 min(64, 65536 - kdata), replace=False))
    parity = _parity(data, 65536)
    assert parity.shape == (65536 - kdata, 2)
    assert (parity[targets - kdata] == _lagrange_parity(data, targets)).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3000), st.floats(0, 1), st.integers(1, 4),
       st.integers(0, 2**31))
def test_interpolate_matches_lagrange_from_any_points(d, share, words, seed):
    # a random K-subset of [0, d); targets off it, in [0, 2^m)
    rng = np.random.default_rng(seed)
    kdata = min(d - 1, max(1, round(share * d)))
    points = np.sort(rng.choice(d, kdata, replace=False)).astype(np.int32)
    values = _planted(rng, kdata, words)
    out = codec._interpolate(values, points, d)
    assert out.shape == (1 << (d - 1).bit_length(), words)
    assert (out[points] == values).all()
    off = np.setdiff1d(np.arange(len(out)), points)
    targets = np.sort(rng.choice(off, min(64, len(off)), replace=False))
    assert (out[targets] == _lagrange(points, values, targets)).all()
