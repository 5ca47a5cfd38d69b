"""Erasure coding layer: messages <-> codewords <-> packets.

The code is a systematic Reed-Solomon (MDS) erasure code over GF(2^16).
A codeword consists of D fragments; any ceil((1-lam)*D) distinct fragments
recover the message.  Only erasures occur in this system: fragments with
bad signatures are discarded before decoding, never fed to the decoder.

Both directions are one routine over the points [0, N), N = 2^m >= D:
the erasure decoder of Lin, Al-Naffouri, Han and Chung (IEEE Trans. Inf.
Theory 62(11), 2016; Leopard-RS implements it) in the additive FFT basis
of Lin, Chung and Han.  From the values at K points, one Walsh-Hadamard
transform gives the erasure locator's logs, and an inverse FFT, a formal
derivative and an FFT give the values at every other point, in
O(N log N).  Encoding erases the parity points [K, D); decoding erases
the fragments that did not arrive.  It holds a few arrays of the
codeword's size: a few MB at 2-byte fragments, whatever D is.
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


def _fft(a, inverse=False):
    """The additive FFT of Lin, Chung and Han (FOCS 2014) over [0, 2^m),
    2^m = len(a), in place: row i of a holds the coefficient of X_i =
    prod_{bit j of i} s_j and becomes the value at i (inverse: back).  A
    butterfly's twiddle is s_j at its block's first point; block 0's,
    s_j(0), is 0."""
    tw = _subspace_logs(len(a).bit_length() - 1)
    for j in range(len(tw)) if inverse else reversed(range(len(tw))):
        v = a.reshape(-1, 2, 1 << j, a.shape[1])
        low, high = v[:, 0], v[:, 1]
        if inverse:
            high ^= low
        low[1:] ^= _scale(high[1:], tw[j][1:len(v), None, None])
        if not inverse:
            high ^= low
    return a


def _fwht(a: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform of a (int64, length 2^m), in place."""
    for j in range(len(a).bit_length() - 1):
        v = a.reshape(-1, 2, 1 << j)
        low, high = v[:, 0], v[:, 1]
        low += high                     # (x, y) -> (x + y, y)
        high *= -2
        high += low                     # -> (x + y, x - y)
    return a


@functools.lru_cache(maxsize=None)
def _log_spectrum(bits: int) -> np.ndarray:
    """The Walsh-Hadamard transform of the log table on [0, 2^bits)."""
    return _fwht(_GF_LOG[:1 << bits].astype(np.int64)) % GF_MOD


def _locator_logs(member: np.ndarray) -> np.ndarray:
    """For every x < 2^m = len(member), the sum over the set y with
    member[y] of log(x ^ y), mod GF_MOD, as int32: one XOR convolution
    of the set's indicator with the log table, by Walsh-Hadamard
    transform.  2 is a unit mod GF_MOD, so the 1/2^m comes out exact."""
    spectrum = _fwht(member.astype(np.int64)) % GF_MOD
    spectrum = spectrum * _log_spectrum(len(member).bit_length() - 1) % GF_MOD
    inverse = pow(len(member), -1, GF_MOD)
    return (_fwht(spectrum) % GF_MOD * inverse % GF_MOD).astype(np.int32)


def _interpolate(values: np.ndarray, points, d: int) -> np.ndarray:
    """The values on [0, 2^m), 2^m >= d, of the polynomial P of degree
    < K = len(points) that is values[i] at the distinct points[i].

    The erasure decoder of Lin, Al-Naffouri, Han and Chung.  The erasure
    locator L(x) = prod (x + e) over the e in [0, 2^m) outside the points
    makes P L, of degree < 2^m, known everywhere: 0 off the points.  At
    an erased e, (P L)'(e) = P(e) L'(e), and L'(e) = prod_{e' != e}
    (e + e').  The log sums over the erased set give log L on the points
    and log L' off them."""
    bits = (d - 1).bit_length()
    erased = np.ones(1 << bits, dtype=bool)
    erased[points] = False
    logs = _locator_logs(erased)
    a = np.zeros((1 << bits, values.shape[1]), dtype=np.int32)
    a[points] = _scale(values, logs[points, None])
    _fft(a, inverse=True)
    # X_i' = sum over bits j of i of s_j'(0) X_(i ^ 2^j), s_j being linear
    # and s_j'(0) = prod_{0 < x < 2^j} x / prod_{2^j <= x < 2^(j+1)} x
    sums = np.cumsum(_GF_LOG[:1 << bits], dtype=np.int64)
    deriv = np.zeros_like(a)
    for j in range(bits):
        c = int(2 * sums[(1 << j) - 1] - sums[(2 << j) - 1]) % GF_MOD
        v = a.reshape(-1, 2, 1 << j, a.shape[1])
        deriv.reshape(v.shape)[:, 0] ^= _scale(v[:, 1], c)
    _fft(deriv)
    deriv[erased] = _scale(deriv[erased], GF_MOD - logs[erased, None])
    deriv[points] = values
    return deriv


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
    parity = _interpolate(data, np.arange(kdata), d)[kdata:d]
    blob = msg.payload + _to_bytes(parity)
    return tuple(map(Packet, [msg.index] * d, range(d),
                     [blob[i:i + fb] for i in range(0, d * fb, fb)]))


def decode(fragments: Iterable[Packet],
           params: CodingParams) -> Optional[Message]:
    """Recover the message from a set of fragments, or None if fewer than
    (1-lam)*D distinct fragments are available.  The caller drops
    fragments with bad signatures first.  Mixing fragments of different
    codewords, or a fragment index outside [0, D), is a caller error.
    """
    by_index = {}
    cw = None
    for frag in fragments:
        if cw is None:
            cw = frag.codeword_index
        elif frag.codeword_index != cw:
            raise CodecError("fragments from different codewords")
        by_index.setdefault(frag.fragment_index, frag)
    d = params.packets_per_codeword
    if by_index and not 0 <= min(by_index) <= max(by_index) < d:
        raise CodecError(f"a fragment index outside [0, {d})")
    if cw is None or len(by_index) < params.decode_threshold:
        return None

    kdata = params.data_fragments
    have = sorted(by_index)[:kdata]
    payloads = b"".join(by_index[i].payload for i in have)
    if have[-1] < kdata:                # every data fragment arrived
        return Message(cw, payloads)
    values = _to_words(payloads).reshape(kdata, -1)
    data = _interpolate(values, have, d)[:kdata]
    return Message(index=cw, payload=_to_bytes(data.reshape(-1)))
