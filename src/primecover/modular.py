"""Exact arithmetic in (Z/qZ)^x for prime q.

Primality is a deterministic Miller-Rabin test (bases 2, 3 below 1,373,653, a
fixed set of twelve above: every 64-bit n), so nothing downstream is
probabilistic.  A CharacterTable builds only pow_g[t] = g^t, for the least
primitive root g, in blocks of 2^15 entries: doubling fills the first block
(pow_g[m:2m] = pow_g[:m] * g^m mod q), and block i is block 0 * g^(i*2^15)
mod q, so the temporaries stay cache-sized.  Its set codec (`to_dlog`,
`member_logs`, `from_dlog`) permutes bit flags through pow_g, so the
discrete-log table is built only on first use, like the (q-1)-th roots of
unity that characters are evaluated from.

The CharacterTable is the validated form of a modulus: `modulus_value`
rejects anything but an odd prime 3 <= q <= 10^6 (the scale ceiling is
checked first, so an oversized q costs neither a primality test nor an
allocation), and it runs where `character_table(q)` builds the table.
Everything that reads a table takes q from it; the public functions that
never build one call `modulus_value` themselves.  It is memoised, so a q
checked without a table and then given one is tested for primality once.
`character_table` keeps one table alive: a miss frees the kept one first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .residues import ResidueSet, from_positions, pack, unpack

# Deterministic Miller-Rabin witnesses for every n < 3.3 * 10^24 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_TWO_BASES_BELOW = 1_373_653  # where 2 and 3 alone suffice (Pomerance, Selfridge, Wagstaff)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES[:2] if n < _MR_TWO_BASES_BELOW else _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


MAX_MODULUS = 10**6  # scale ceiling: O(q) tables and transforms stay desk-sized
# pow_g's block: 2^14 / 2^15 / 2^16 build CharacterTable(999983) in 2.5-3.0 ms, all close
_POWER_BLOCK = 1 << 15


@functools.lru_cache(maxsize=4)  # audit all: 412 / 408 / 304 is_prime calls at 1 / 4 / unbounded
def modulus_value(q: int) -> int:
    """q as an int, if it is an odd prime 3 <= q <= MAX_MODULUS; else ValueError."""
    qv = int(q)
    if qv > MAX_MODULUS:
        raise ValueError(f"modulus budget is q <= 10^6, got {qv}")
    if qv < 3 or qv % 2 == 0 or not is_prime(qv):
        raise ValueError(f"modulus must be an odd prime >= 3, got {qv}")
    return qv


def mod_inverse(a: int, q: int) -> int:
    """Multiplicative inverse of a mod q; rejects a = 0 (mod q)."""
    qv = modulus_value(q)
    if a % qv == 0:
        raise ValueError(f"{a} is 0 mod {qv}, not invertible")
    return pow(a, -1, qv)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale: n up to ~10^12)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n, sorted ascending."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


class CharacterTable:
    """Primitive root, power table, set codec and character evaluator for (Z/qZ)^x.

    Character j (0 <= j <= q-2) sends g^t to e(j*t/(q-1)); j = 0 is the
    principal character.
    """

    __slots__ = ("q", "g", "order", "pow_g", "_dlog", "_roots")

    def __init__(self, q: int):
        qv = modulus_value(q)
        self.q = qv
        self.order = qv - 1
        order_factors = list(factorize(qv - 1))
        self.g = next(
            g for g in range(2, qv) if all(pow(g, (qv - 1) // p, qv) != 1 for p in order_factors)
        )
        # doubling inside the first block (pow_g[m:2m] = pow_g[:m] * g^m mod q), then block i
        # is block 0 * g^(iB) mod q; products stay below q^2 < 2^63 at desk scale
        # whole blocks: a neighbouring q asks malloc for the same size, reusing the freed pages
        blk = min(self.order, _POWER_BLOCK)
        buf = np.empty(-(-self.order // blk) * blk, dtype=np.int64)
        first = buf[:blk]
        first[0] = 1
        m = 1
        while m < blk:
            head = first[m : 2 * m]
            np.multiply(first[: len(head)], pow(self.g, m, qv), out=head)
            head %= qv
            m *= 2
        # x - (x // q) * q through one block of scratch: numpy 2.4 divides int64 by a scalar
        # without a hardware divide (60 against 130 us per 2^15-entry block for x % q)
        scratch, step, gi = np.empty(blk, dtype=np.int64), pow(self.g, blk, qv), 1
        self.pow_g = buf[: self.order]
        for i in range(blk, self.order, blk):
            gi = gi * step % qv
            block = self.pow_g[i : i + blk]  # stops at q - 1: the rounded tail is never touched
            tmp = scratch[: len(block)]
            np.multiply(first[: len(block)], gi, out=block)
            block -= np.multiply(np.floor_divide(block, qv, out=tmp), qv, out=tmp)
        self._dlog: np.ndarray | None = None
        self._roots: np.ndarray | None = None

    @property
    def dlog(self) -> np.ndarray:
        """dlog[a] = t with g^t = a (dlog[0] = -1), built on first use."""
        if self._dlog is None:
            self._dlog = np.full(self.q, -1, dtype=np.int64)
            self._dlog[self.pow_g] = np.arange(self.order)
        return self._dlog

    def to_dlog(self, s: ResidueSet) -> int:
        """Residue-indexed set -> mask with bit t set iff g^t is a member."""
        return pack(unpack(s.bits, self.q)[self.pow_g])

    def member_logs(self, s: ResidueSet) -> np.ndarray:
        """Ascending discrete logs of the members of s."""
        return unpack(s.bits, self.q)[self.pow_g].nonzero()[0]

    def from_dlog(self, bits: int) -> ResidueSet:
        """Discrete-log-indexed mask -> residue-indexed ResidueSet."""
        if bits == (1 << self.order) - 1:
            return ResidueSet.full_units(self.q)
        flags = np.zeros(self.q, dtype=np.uint8)
        flags[self.pow_g] = unpack(bits, self.order)
        return ResidueSet(self.q, pack(flags))

    @property
    def roots(self) -> np.ndarray:
        """roots[k] = e(k/(q-1)), built on first character evaluation."""
        if self._roots is None:
            n = self.order
            self._roots = np.exp(2j * np.pi * np.arange(n) / n)
        return self._roots

    def value(self, j: int, a: int) -> complex:
        """chi_j(a) as a complex root of unity."""
        if not 0 <= j <= self.order - 1:
            raise ValueError(f"character index {j} outside [0, {self.order - 1}]")
        r = a % self.q
        if r == 0:
            raise ValueError("characters are not defined at 0")
        return complex(self.roots[(j * int(self.dlog[r])) % self.order])

    def character_values(self, j: int) -> np.ndarray:
        """chi_j on all of Z/qZ as an array indexed by residue; entry 0 is 0."""
        if not 0 <= j <= self.order - 1:
            raise ValueError(f"character index {j} outside [0, {self.order - 1}]")
        out = np.zeros(self.q, dtype=np.complex128)
        out[1:] = self.roots[(j * self.dlog[1:]) % self.order]
        return out


# lru_cache(maxsize=1)'s counts, but a miss drops the kept table before it builds: at q ~ 10^6
# one 8 MB pow_g is alive, not two, and the new one reuses the pages the old one freed.
_kept: tuple[int, CharacterTable] | None = None  # (argument, table) of the last build
_hits = _misses = 0


def character_table(q: int) -> CharacterTable:
    """Shared per-modulus CharacterTable (tables are immutable); only the last is kept."""
    global _kept, _hits, _misses
    kept = _kept
    if kept is not None and kept[0] == q:
        _hits += 1
        return kept[1]
    _misses += 1
    modulus_value(q)  # a refused q leaves the kept table in place, as lru_cache does
    _kept = kept = None  # the local too, or the old table outlives the build
    table = CharacterTable(q)
    _kept = (q, table)
    return table


def _clear_tables() -> None:
    global _kept, _hits, _misses
    _kept, _hits, _misses = None, 0, 0


character_table.cache_info = lambda: functools._CacheInfo(_hits, _misses, 1, int(_kept is not None))
character_table.cache_clear = _clear_tables


@dataclass(frozen=True)
class Subgroup:
    """The index-m subgroup of (Z/qZ)^x, i.e. the m-th powers."""

    q: int
    index: int
    elements: ResidueSet

    def __post_init__(self) -> None:
        if (self.q - 1) % self.index != 0:
            raise ValueError(f"index {self.index} does not divide {self.q - 1}")


def subgroup_of_index(q: int, m: int) -> Subgroup:
    """Subgroup {x : x^((q-1)/m) = 1} = <g^m>, of order (q-1)/m."""
    table = character_table(q)
    if table.order % m != 0:
        raise ValueError(f"{m} does not divide the group order {table.order}")
    members = ResidueSet(table.q, from_positions(table.pow_g[::m], table.q))
    return Subgroup(table.q, m, members)


def inverse_table(q: int) -> np.ndarray:
    """inv[a] = a^(-1) mod q for a in [1, q-1]; inv[0] = 0.

    One gather from the cached discrete-log table: (g^t)^(-1) = g^(-t).
    """
    table = character_table(q)
    n = table.order
    inv = np.zeros(table.q, dtype=np.int64)
    inv[table.pow_g] = table.pow_g[(-np.arange(n)) % n]
    return inv


def isqrt_floor(n: int, k: int) -> int:
    """Integer floor of n^(1/k) for n >= 0, k >= 1 (exact; pure-integer Newton)."""
    if n < 0 or k < 1:
        raise ValueError("isqrt_floor expects n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)  # power-of-two seed >= true root
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes q with lo <= q <= hi, sliced from the shared sieve."""
    from .primes import primes_below  # primes imports this module

    if hi < max(lo, 2):
        return []
    ps = primes_below(hi)
    return ps[np.searchsorted(ps, lo) :].tolist()
