"""Erasure coding layer: messages <-> codewords <-> packets.

The code is a systematic Reed-Solomon (MDS) erasure code over GF(2^16).
A codeword consists of D fragments; any ceil((1-lam)*D) distinct fragments
recover the message.  Only erasures occur in this system: fragments with
bad signatures are discarded before decoding, never fed to the decoder.

Encoding fits the polynomial through the K data points [0, K) and
evaluates it on [K, D) by the additive FFT of Lin, Chung and Han, in
O(D log^2 D).  Decoding's points are whatever arrived, so it evaluates
the barycentric form in row blocks of about _BLOCK table entries, with
the denominators and numerators summed over the points' maximal aligned
XOR blocks.  Neither holds more than a few MB, whatever D is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .util import register_packer

GF_BITS = 16
GF_SIZE = 1 << GF_BITS          # 65536
GF_MOD = GF_SIZE - 1            # multiplicative group order
_PRIM_POLY = 0x1100B            # x^16 + x^12 + x^3 + x + 1
_BLOCK = 1 << 18                # table entries per kernel block: the int32
                                # temporaries (1 MB each) stay in a core's L2
# the most bytes one codeword (D x fragment_bytes) may hold: a run keeps
# about 11 bytes of memory and ~1.3 us of host time per codeword byte
MAX_CODEWORD_BYTES = 1 << 22


def _build_tables():
    """int32 exp/log tables of the generator x.  The powers double:
    p[m:2m] = x^m p[0:m], read from a table of that linear map.  exp holds
    them twice, so a sum of two logs indexes it without a modulo.  log[0]
    is 0 (no logarithm), so a zero difference adds nothing to a sum."""
    p = np.ones(1, dtype=np.int32)
    while len(p) < GF_MOD:
        times, v = np.zeros(1, dtype=np.int32), int(p[-1])
        for _ in range(GF_BITS):            # x^m 2^b, b = 0..15, spanned
            v = v << 1 ^ (_PRIM_POLY if v >> GF_BITS - 1 else 0)
            times = np.concatenate([times, times ^ v])
        p = np.concatenate([p, times[p]])[:GF_MOD]
    log = np.zeros(GF_SIZE, dtype=np.int32)
    log[p] = np.arange(GF_MOD, dtype=np.int32)
    return np.concatenate([p, p]), log


_GF_EXP, _GF_LOG = _build_tables()


class CodecError(ValueError):
    """Invalid coding parameters or malformed encode/decode input."""


@dataclass(frozen=True)
class CodingParams:
    """Network-wide coding configuration, built by `derive_params`.

    n: node count, lam/sigma: error and information rate of the code,
    packets_per_codeword: D = 6n^3/lam, decode_threshold: the distinct
    fragments that decode, (1-lam)*D = D - 6n^3, data_fragments: the
    sigma*D information-bearing (systematic) fragments.
    """

    n: int
    lam: Fraction
    sigma: Fraction
    fragment_bytes: int
    packets_per_codeword: int
    decode_threshold: int
    data_fragments: int

    @property
    def message_bytes(self) -> int:
        return self.data_fragments * self.fragment_bytes


@dataclass(frozen=True)
class Message:
    index: int                  # 1-based sequence number
    payload: bytes


@dataclass(frozen=True)
class Packet:
    codeword_index: int
    fragment_index: int
    payload: bytes
    sender_signature: object = None

    def label(self):
        return (self.codeword_index, self.fragment_index)

    def signed_body(self):
        return ("packet", self.codeword_index, self.fragment_index, self.payload)


register_packer(Packet, lambda p: ("~packet", p.codeword_index, p.fragment_index,
                                   p.payload, p.sender_signature))


def _fraction(name, value) -> Fraction:
    """Parse '3/8', '0.375' or a number into an exact Fraction.  A decimal
    exponent or a term above the field size is refused before it grows."""
    try:
        if isinstance(value, str) and "e" in value.lower():
            raise ValueError("a decimal exponent")
        out = Fraction(value)
        out = out.limit_denominator(10**9) if isinstance(value, float) else out
        if max(abs(out.numerator), out.denominator) > GF_SIZE:
            raise ValueError("a term above the field size")
        return out
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CodecError(f"{name} must be a fraction such as 3/8, "
                         f"got {value!r:.80}") from exc


def derive_params(n, lam, sigma=None, fragment_bytes: int = 2) -> CodingParams:
    """Validate and freeze coding parameters.

    Requires n >= 4, 0 < lam < 1/2 with 6n^3/lam integral, and
    0 < sigma <= 1 - lam with sigma*D integral.  sigma defaults to 1 - lam
    (maximal information rate for an MDS code at this decode threshold).
    """
    if not isinstance(n, int) or n < 4:
        raise CodecError(f"node count must be an integer >= 4, got {n!r}")
    lam = _fraction("lam", lam)
    if not (0 < lam < Fraction(1, 2)):
        raise CodecError(f"error rate must satisfy 0 < lam < 1/2, got {lam}")
    d = Fraction(6 * n**3) / lam
    if d.denominator != 1:
        raise CodecError(f"6*n^3/lam = {d} is not an integer")
    d = int(d)
    if d > GF_SIZE:
        raise CodecError(f"D = 6*n^3/lam = {d} > {GF_SIZE}, the field size")
    sigma = Fraction(1) - lam if sigma is None else _fraction("sigma", sigma)
    if not (0 < sigma <= 1):
        raise CodecError(f"information rate must satisfy 0 < sigma <= 1, got {sigma}")
    if sigma > 1 - lam:
        raise CodecError(f"sigma = {sigma} exceeds 1 - lam = {1 - lam}; "
                         "no MDS code reaches that rate at this threshold")
    if (sigma * d).denominator != 1:
        raise CodecError(f"sigma*D = {sigma * d} is not an integer")
    if type(fragment_bytes) is not int or fragment_bytes < 2 \
            or fragment_bytes % 2:
        raise CodecError("fragment_bytes must be a positive multiple of 2")
    if d * fragment_bytes > MAX_CODEWORD_BYTES:
        raise CodecError(f"fragment_bytes {fragment_bytes} makes a codeword "
                         f"of {d} x {fragment_bytes} bytes, above the "
                         f"{MAX_CODEWORD_BYTES}-byte limit")
    return CodingParams(n, lam, sigma, fragment_bytes, d, d - 6 * n**3,
                        int(sigma * d))


def _to_words(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype=">u2").astype(np.int32)


def _to_bytes(words: np.ndarray) -> bytes:
    return words.astype(">u2").tobytes()


def _scale(v: np.ndarray, logs) -> np.ndarray:
    """v times the field elements whose logs are logs (broadcast)."""
    out = _GF_EXP[_GF_LOG[v] + logs]
    out[v == 0] = 0
    return out


def _aligned_blocks(member: np.ndarray) -> list:
    """The maximal aligned blocks of the set whose indicator over [0, 2^m)
    is member, by level: entry j holds the ids k of the blocks
    [k*2^j, (k+1)*2^j) that the set holds whole and whose parent it does
    not."""
    levels = []
    while len(member) > 1:
        whole = member[0::2] & member[1::2]
        levels.append(np.flatnonzero(member & ~np.repeat(whole, 2))
                      .astype(np.int32))
        member = whole
    levels.append(np.flatnonzero(member).astype(np.int32))
    return levels


def _block_sums(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """For each p in points, the sum over y in xs of log(p ^ y), mod GF_MOD.

    The points lie in V = [0, 2^m), which is closed under XOR, and p ^ B
    is an aligned block for every aligned block B of V.  So a block
    [k*2^j, (k+1)*2^j) of xs adds level_j[(p >> j) ^ k], where level_j
    holds the log sums of V's aligned blocks of size 2^j.  Every p sums
    to the same total over all of V, so xs or V minus xs, whichever
    splits into fewer blocks, gives the sum: each point costs one table
    read per block, never more than min(|xs|, |V| - |xs|).
    """
    size = 1 << int(max(points.max(), xs.max())).bit_length()
    member = np.zeros(size, dtype=bool)
    member[xs] = True
    inside, outside = _aligned_blocks(member), _aligned_blocks(~member)
    complement = sum(map(len, outside)) < sum(map(len, inside))
    out = np.zeros(len(points), dtype=np.int64)
    level = _GF_LOG[:size]
    for j, ids in enumerate(outside if complement else inside):
        if len(ids):
            shifted = points >> j
            step = max(1, _BLOCK // len(ids))
            for s in range(0, len(points), step):
                block = level[shifted[s:s + step, None] ^ ids[None, :]]
                out[s:s + step] += block.sum(axis=1, dtype=np.int64)
        level = (level[0::2] + level[1::2]) % GF_MOD
    if complement:
        out = _GF_LOG[:size].sum(dtype=np.int64) - out
    return out % GF_MOD


def _lagrange_eval(xs: np.ndarray, values: np.ndarray,
                   targets: np.ndarray) -> np.ndarray:
    """Evaluate, at each target point, the unique polynomial of degree
    < len(xs) interpolating values[i] at xs[i].  Barycentric form over
    GF(2^16); targets must be disjoint from xs.  values has shape
    (len(xs), words); returns (len(targets), words).
    """
    words = values.shape[1]
    # a point's own term is log 0 = 0, so the sums at xs are the
    # barycentric denominators; the sums at the targets are the numerators
    sums = _block_sums(np.concatenate([xs, targets]), xs)
    denom, numers = sums[:len(xs)], sums[len(xs):]
    # log(v_j / denom_j), offset by GF_MOD so that subtracting a log stays
    # a valid index into the doubled exp table
    log_u = (_GF_LOG[values.T] - denom) % GF_MOD
    log_u = (log_u + GF_MOD).astype(np.int32)
    zero = values.T == 0
    out = np.zeros((len(targets), words), dtype=np.int32)
    step = max(1, _BLOCK // len(xs))
    for s in range(0, len(targets), step):
        log_tdiff = _GF_LOG[targets[s:s + step, None] ^ xs[None, :]]
        numer = numers[s:s + step]
        for w in range(words):
            # weight_ij = v_j / ((t_i ^ x_j) * denom_j); a zero v_j adds nothing
            terms = _GF_EXP[log_u[w] - log_tdiff]
            terms[:, zero[w]] = 0
            out[s:s + step, w] = _scale(np.bitwise_xor.reduce(terms, axis=1),
                                        numer)
    return out


@functools.lru_cache(maxsize=None)
def _subspace_logs(bits: int) -> tuple:
    """Entry j < bits: the logs of s_j(m << j+1), m < 2^(bits-j-1), where
    s_j(x) = prod_{a < 2^j} (x ^ a) / (2^j ^ a) vanishes on [0, 2^j), is 1
    at 2^j and is GF(2)-linear.  log s_j(0) reads as 0."""
    s, out = np.arange(1 << bits), []   # s[i] = s_j(i << j); s_0(x) = x
    for j in range(bits):
        s = _scale(s[::2], GF_MOD - _GF_LOG[s[1]])  # s_j(2^j) = 1, m << j+1
        out.append(_GF_LOG[s])
        s = _scale(s, _GF_LOG[s]) ^ s   # s_j(s_j + 1) = s_j(x) s_j(x ^ 2^j)
    return tuple(out)


def _fft(a, start, k, tw, inverse=False):
    """The additive FFT of Lin, Chung and Han (FOCS 2014), in place: row i
    of a holds the coefficient of X_i = prod_{bit j of i} s_j and becomes
    the value at start + i, on each coset of [0, 2^k) (inverse: back).  A
    butterfly's twiddle is s_j at its block's first point."""
    for j in range(k) if inverse else reversed(range(k)):
        v = a.reshape(-1, 2, 1 << j, a.shape[1])
        low, high, first = v[:, 0], v[:, 1], start >> j + 1
        skip = int(not first)             # s_j(0) = 0: block 0 adds nothing
        if inverse:
            high ^= low
        low[skip:] ^= _scale(high[skip:], tw[j][first + skip:first + len(v),
                                                None, None])
        if not inverse:
            high ^= low
    return a


def _parity(data: np.ndarray, d: int) -> np.ndarray:
    """Values at [K, d) of the polynomial of degree < K = len(data) that is
    data[i] at i: the sum of Z_0 ... Z_{t-1} Q_t over the aligned blocks
    o_t + [0, 2^k) of [0, K), one per set bit k of K, largest first.  Each
    Z_t(x) = s_k(x ^ o_t) is linear: 1 on the later blocks, constant on each
    coset of [0, 2^k).  So one inverse FFT fits Q_t (deg < 2^k) to the data
    less the earlier terms, one FFT evaluates it to d: O(d log^2 d)."""
    kdata, tw, o = len(data), _subspace_logs((d - 1).bit_length()), 0
    acc = np.zeros((1 << len(tw), data.shape[1]), dtype=np.int32)
    logz = np.zeros(len(acc), dtype=np.int32)  # log Z_0 ... Z_{t-1}
    for k in (k for k in reversed(range(GF_BITS)) if kdata >> k & 1):
        start, stop = o + (1 << k), -(-d >> k) << k
        q = _fft(data[o:start] ^ acc[o:start], o, k, tw, inverse=True)
        value = _fft(np.tile(q, ((stop - start) >> k, 1)), start, k, tw)
        acc[start:stop] ^= _scale(value, logz[start:stop, None])
        y = np.arange(start, stop) ^ o
        z = np.where(y >> k > 1, _GF_EXP[tw[k][y >> k + 1]], 0) ^ y >> k & 1
        logz[start:stop] = (logz[start:stop] + _GF_LOG[z]) % GF_MOD
        o = start
    return acc[kdata:d]


def encode(msg: Message, params: CodingParams) -> tuple:
    """Expand a message into its D-fragment codeword: the tuple of its
    unsigned packets, in fragment order.

    Fragments 0..K-1 carry the message verbatim (systematic); the rest are
    parity evaluations.
    """
    d = params.packets_per_codeword
    kdata = params.data_fragments
    if len(msg.payload) != params.message_bytes:
        raise CodecError(f"payload must be {params.message_bytes} bytes, "
                         f"got {len(msg.payload)}")
    fb = params.fragment_bytes
    data = _to_words(msg.payload).reshape(kdata, fb // 2)
    blob = msg.payload + _to_bytes(_parity(data, d))
    return tuple(map(Packet, [msg.index] * d, range(d),
                     [blob[i:i + fb] for i in range(0, d * fb, fb)]))


def decode(fragments: Iterable[Packet],
           params: CodingParams) -> Optional[Message]:
    """Recover the message from a set of fragments, or None if fewer than
    (1-lam)*D distinct fragments are available.  The caller drops
    fragments with bad signatures first.  Mixing fragments of different
    codewords is a caller error.
    """
    by_index = {}
    cw = None
    for frag in fragments:
        if cw is None:
            cw = frag.codeword_index
        elif frag.codeword_index != cw:
            raise CodecError("fragments from different codewords")
        by_index.setdefault(frag.fragment_index, frag)
    if cw is None or len(by_index) < params.decode_threshold:
        return None

    kdata = params.data_fragments
    have = sorted(by_index)[:kdata]
    xs = np.array(have, dtype=np.int32)
    values = np.stack([_to_words(by_index[i].payload) for i in have])

    data = np.zeros((kdata, params.fragment_bytes // 2), dtype=np.int32)
    is_data = xs < kdata
    data[xs[is_data]] = values[is_data]
    known = set(have)
    missing = np.array([i for i in range(kdata) if i not in known],
                       dtype=np.int32)
    if len(missing):
        data[missing] = _lagrange_eval(xs, values, missing)
    return Message(index=cw, payload=_to_bytes(data.reshape(-1)))
