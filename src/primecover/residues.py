"""Dense bit-indexed subsets of the nonzero residues modulo a prime q.

A ResidueSet is an immutable value: the modulus plus one Python integer used
as a bit mask (bit r set <=> residue r in the set).  Set algebra rides on
int bit operations; cardinality is a popcount.  Bit 0 is never set -- all
the arithmetic in this package is multiplicative.

`unpack` and `pack` are the one codec between a mask and its array of 0/1
flags; `positions` / `from_positions` (`leading_positions` for the least few)
build on them for the ascending set-bit indices: every conversion in the
package goes through them, and only the brute-force oracles still set bits
one at a time.  The product engine's residue <-> discrete-log codec
(`CharacterTable.to_dlog`, `member_logs`, `from_dlog`) permutes their flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


def unpack(bits: int, length: int) -> np.ndarray:
    """0/1 uint8 flags of a mask below 2**length: flags[i] = bit i."""
    raw = np.frombuffer(bits.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def pack(flags: np.ndarray) -> int:
    """Mask with bit i set for every nonzero flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def positions(bits: int, length: int) -> np.ndarray:
    """Ascending int64 indices of the set bits of a mask below 2**length."""
    return unpack(bits, length).nonzero()[0].astype(np.int64, copy=False)


def leading_positions(bits: int, count: int) -> list[int]:
    """The `count` least set-bit indices of a mask, ascending, decoding only a low window of it."""
    width = 64
    while (head := bits & ((1 << width) - 1)).bit_count() < count and head != bits:
        width *= 4
    return positions(head, head.bit_length())[:count].tolist()


def from_positions(idx, length: int) -> int:
    """Mask with bit i set for every i in `idx`; each index lies in [0, length)."""
    flags = np.zeros(length, dtype=np.uint8)
    flags[idx] = 1
    return pack(flags)


@dataclass(frozen=True)
class ResidueSet:
    """Subset of (Z/qZ)^x for prime q, as a bit mask over residues."""

    q: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.q < 3:
            raise ValueError("modulus must be at least 3")
        if self.bits & 1:
            raise ValueError("residue 0 is not invertible and cannot be a member")
        if self.bits < 0 or self.bits >> self.q:
            raise ValueError("bit mask has bits outside [1, q-1]")

    @classmethod
    def from_elements(cls, q: int, elements: Iterable[int]) -> ResidueSet:
        els = list(elements)
        idx = [int(a) % q for a in els]
        if 0 in idx:
            raise ValueError(f"{els[idx.index(0)]} reduces to 0 mod {q}")
        return cls(q, from_positions(idx, q))

    @classmethod
    def empty(cls, q: int) -> ResidueSet:
        return cls(q, 0)

    @classmethod
    def full_units(cls, q: int) -> ResidueSet:
        return cls(q, ((1 << q) - 2))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, a: int) -> bool:
        r = a % self.q
        return bool((self.bits >> r) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def first(self) -> int | None:
        """Least member (the lowest set bit, no decode), or None when empty."""
        return (self.bits & -self.bits).bit_length() - 1 if self.bits else None

    def elements(self) -> list[int]:
        """Members ascending, as Python ints (rows and witnesses print them)."""
        return positions(self.bits, self.q).tolist()

    def _check_same_q(self, other: ResidueSet) -> None:
        if self.q != other.q:
            raise ValueError(f"mixed moduli {self.q} and {other.q}")

    def __or__(self, other: ResidueSet) -> ResidueSet:
        self._check_same_q(other)
        return ResidueSet(self.q, self.bits | other.bits)

    def __and__(self, other: ResidueSet) -> ResidueSet:
        self._check_same_q(other)
        return ResidueSet(self.q, self.bits & other.bits)

    def __sub__(self, other: ResidueSet) -> ResidueSet:
        self._check_same_q(other)
        return ResidueSet(self.q, self.bits & ~other.bits)

    def is_subset(self, other: ResidueSet) -> bool:
        self._check_same_q(other)
        return self.bits & ~other.bits == 0

    @property
    def covers_units(self) -> bool:
        """True when the set is all of (Z/qZ)^x."""
        return self.bits == (1 << self.q) - 2

    def complement_units(self) -> ResidueSet:
        return ResidueSet(self.q, ((1 << self.q) - 2) & ~self.bits)

    def __repr__(self) -> str:
        n = len(self)
        if n <= 16:
            return f"ResidueSet(q={self.q}, {{{', '.join(map(str, self))}}})"
        return f"ResidueSet(q={self.q}, |S|={n})"
