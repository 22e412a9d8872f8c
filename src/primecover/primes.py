"""Prime generation and prime-derived arithmetic functions.

Covers the prime sets P_eta = {p prime : p < eta*q} viewed as residues mod q
and the factor count Omega(n) (with multiplicity).  One cached Eratosthenes
sieve holds the primes as an array, which `primes_below` slices, and as a bit
mask, of which P_eta is the low bit slice below min(eta*q, q).  `factor_sieve`
shares one Omega table per run, filled by doubling over a smallest-prime-factor
table that is freed once the build returns.
"""

from __future__ import annotations

import re
import reprlib
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modular import MAX_MODULUS, isqrt_floor, modulus_value
from .residues import ResidueSet, pack


_sieve_lock = threading.Lock()
# (limit, primes <= limit ascending, their bit mask: bit n set <=> n prime)
_prime_cache: tuple[int, np.ndarray, int] | None = None


def _sieve(x: int) -> tuple[int, np.ndarray, int]:
    """The cached sieve, grown to cover x (boolean Eratosthenes, packed once into a mask).

    A miss sieves to the power of two at or above x, capped at MAX_MODULUS (but never
    below x), so an ascending scan re-sieves O(log) times rather than once per row,
    and a run of rows near the ceiling sieves once.
    """
    global _prime_cache
    with _sieve_lock:
        if _prime_cache is None or _prime_cache[0] < x:
            top = max(x, min(1 << (x - 1).bit_length(), MAX_MODULUS))
            mask = np.ones(top + 1, dtype=bool)
            mask[:2] = False
            for p in range(2, isqrt_floor(top, 2) + 1):
                if mask[p]:
                    mask[p * p :: p] = False
            _prime_cache = (top, np.flatnonzero(mask).astype(np.int64), pack(mask))
        return _prime_cache


def primes_below(x: int) -> np.ndarray:
    """Exactly the primes p <= x, ascending int64, sliced from the cached sieve."""
    if x < 2:
        raise ValueError("primes_below expects x >= 2")
    ps = _sieve(x)[1]
    return ps[: int(np.searchsorted(ps, x, side="right"))]


def parse_fraction(text: str, flag: str) -> Fraction:
    """A decimal or a/b from the command line; a zero denominator is a ValueError, and so is a
    malformed text, or a text past 1000 characters or an exponent past 3 digits, before
    `Fraction` builds 10^N.  Every refusal but the zero denominator names its flag."""
    if len(text) > 1000 or re.search(r"[eE][-+]?[0_]*(?!0)\d(_?\d){3}", text):
        raise ValueError(f"{flag} takes at most 1000 characters and a decimal exponent below 1000")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"{flag} takes a decimal or a/b, not {reprlib.repr(text)}") from None


# q^(b+a) costs O(b log q) bits; b = 1000 takes 1 ms at q = 10^6, b = 10^4 0.4 s, 4 * 10^4 20 s
ETA_MAX_DENOMINATOR = 1000


@dataclass(frozen=True)
class Eta:
    """The prime-range parameter eta, kept exact for threshold comparisons.

    Two forms: a literal rational value, or an exact power exponent meaning
    eta = q^exponent.  The membership test "p < eta*q" is then an exact
    integer comparison in both cases, so boundary primes are never
    misclassified when eta*q lands near an integer.
    """

    value: Fraction | None = None
    exponent: Fraction | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.exponent is None):
            raise ValueError("exactly one of value / exponent must be given")
        if self.value is not None and not 0 < self.value <= 1:
            raise ValueError(f"--eta must lie in (0, 1], got {self.value}")
        if self.exponent is not None and self.exponent.denominator > ETA_MAX_DENOMINATOR:
            raise ValueError(f"--eta q^(a/b) needs a denominator b <= {ETA_MAX_DENOMINATOR}")
        if self.exponent is not None and not -1 < self.exponent <= 0:
            raise ValueError(f"--eta exponent must lie in (-1, 0], got {self.exponent}")

    @classmethod
    def literal(cls, v: float | Fraction | int) -> Eta:
        return cls(value=Fraction(v))

    @classmethod
    def power(cls, a: float | Fraction | str) -> Eta:
        return cls(exponent=Fraction(a))

    @classmethod
    def parse(cls, text: str) -> Eta:
        """Parse "0.75", "3/4" or the exponent form "q^-1/4" / "q^(-1/4)"."""
        s = text.strip()
        if s.startswith(("q^", "Q^")):
            expo = s[2:].strip()
            if expo.startswith("(") and expo.endswith(")"):
                expo = expo[1:-1]
            return cls.power(parse_fraction(expo, "--eta"))
        return cls.literal(parse_fraction(s, "--eta"))

    @classmethod
    def coerce(cls, eta: Eta | float | Fraction | int | str) -> Eta:
        if isinstance(eta, Eta):
            return eta
        if isinstance(eta, str):
            return cls.parse(eta)
        return cls.literal(Fraction(eta))

    def value_at(self, q: int) -> float:
        """eta as a float (for reporting; membership tests stay exact)."""
        if self.value is not None:
            return float(self.value)
        return float(q) ** float(self.exponent)

    def largest_admitted(self, q: int) -> int:
        """The largest integer m with m < eta*q, computed exactly."""
        if self.value is not None:  # eta = a/b: m < a*q/b  <=>  m*b <= a*q - 1
            return (self.value.numerator * q - 1) // self.value.denominator
        # eta = q^(a/b): m < q^(1+a/b)  <=>  m^b < q^(b+a)
        a, b = self.exponent.numerator, self.exponent.denominator
        if b + a <= 0:
            return 0
        return isqrt_floor(q ** (b + a) - 1, b)

    def label(self) -> str:
        if self.value is not None:
            return f"{float(self.value):.12g}"
        return f"q^{self.exponent}"


def prime_residues(q: int, eta: Eta | float | Fraction | int | str = 1) -> ResidueSet:
    """Residues mod q of all primes p < eta*q.

    Primes below q need no reduction, so the set is the sieve mask cut to
    bits <= top, with no collisions; an empty result (eta*q < 3) is valid.
    """
    qv = modulus_value(q)
    e = Eta.coerce(eta)
    top = min(e.largest_admitted(qv), qv - 1)
    if top < 2:
        return ResidueSet.empty(qv)
    return ResidueSet(qv, _sieve(top)[2] & ((2 << top) - 1))


# the int32 spf (4 bytes per n) lives only while the int8 Omega (1 byte per n) is built;
# at 10^7 omega-sum peaks near 0.21 GB, most of it the complex z^Omega(n) per n
FACTOR_SIEVE_MAX = 10**7

_factor_lock = threading.Lock()
_factor_cache: np.ndarray | None = None  # Omega over [0, limit] for the largest limit so far


def _omega_table(limit: int) -> np.ndarray:
    """Omega(n) for n in [0, limit] as int8, doubling over a smallest-prime-factor table."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt_floor(limit, 2) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.flatnonzero(spf == 0)[2:]  # untouched entries >= 2 are prime
    spf[rest] = rest
    # doubling over [lo, 2 lo): m = n // spf(n) <= n/2 is already filled, so Omega(n) = Omega(m) + 1
    omega = np.zeros(limit + 1, dtype=np.int8)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        m = np.arange(lo, hi, dtype=np.int32) // spf[lo:hi]  # spf's dtype: int64 would add 4 bytes per n
        omega[lo:hi] = omega[m] + 1
        lo = hi
    return omega


def factor_sieve(limit: int) -> np.ndarray:
    """The shared int8 table of Omega(n) for n in [0, limit] (at least), grown to the largest
    limit requested so far.  A miss drops the kept table before it builds, so one is alive."""
    global _factor_cache
    if limit < 2:
        raise ValueError("factor_sieve needs limit >= 2")
    if limit > FACTOR_SIEVE_MAX:
        raise ValueError(f"factor sieve budget is x <= 10^7, got x = {limit}")
    with _factor_lock:
        if _factor_cache is None or len(_factor_cache) <= limit:
            _factor_cache = None
            _factor_cache = _omega_table(limit)
        return _factor_cache
