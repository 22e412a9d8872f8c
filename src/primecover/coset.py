"""Coset obstructions and the character-sum audits surrounding them.

A set P in (Z/qZ)^x sits inside a coset x*H of the index-d subgroup H exactly
when d divides every difference of discrete logs of elements of P, so
d = gcd(q-1, all dlog differences) is the tightest obstruction.  Power residues
come first: P lies in a coset of the index-l subgroup iff (x/x0)^((q-1)/l) = 1
for every member x, and a few members usually refute each prime l | q-1, which
proves d = 1 with no CharacterTable.  A brute-force coset sweep is the oracle.

Containment in a coset is the same thing as some non-principal character
being constant on P.  A character constant (= z) on the primes below x agrees
with z^Omega(n) on all of [1, x], so the partial sums of z^Omega(n) here, whose
main term

    x * (log x)^(z-1) * ( prod_p (1-z/p)^-1 (1-1/p)^z ) / Gamma(z)

stays bounded away from zero for |z| = 1, Re(z) >= -1/2, pull against the
Polya-Vinogradov bound on prefix character sums, which `audit pv` checks.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .modular import (
    CharacterTable,
    Subgroup,
    character_table,
    divisors,
    factorize,
    modulus_value,
    subgroup_of_index,
)
from .primes import Eta, factor_sieve, prime_residues, primes_below
from .reports import RECORDED, AuditReport
from .residues import ResidueSet, from_positions, leading_positions, positions

EULER_PRODUCT_PRIME_LIMIT = 10**6
_CERTIFICATE_MEMBERS = 9  # x0 + 8: P_1 at q <= 20000 needs the table at 8 of 2,261 primes


def _dlog_gcd(p: ResidueSet) -> int:
    """gcd(q-1, pairwise dlog differences); > 1 iff trapped in a proper coset."""
    q = modulus_value(p.q)
    x0, *rest = leading_positions(p.bits, _CERTIFICATE_MEMBERS)
    inv0 = pow(x0, -1, q)
    open_exps = [(q - 1) // ell for ell in factorize(q - 1)]
    for x in rest:
        open_exps = [e for e in open_exps if pow(x * inv0, e, q) == 1]
        if not open_exps:
            return 1  # every index-l subgroup refuted: the gcd has no prime factor
    table = character_table(q)
    logs = table.member_logs(p)
    return math.gcd(table.order, int(np.gcd.reduce(logs - logs[0])))


def is_coset_trapped(p: ResidueSet) -> bool:
    if not p:
        raise ValueError("emptiness is not a coset question")
    return _dlog_gcd(p) > 1


@dataclass(frozen=True)
class CosetWitness:
    """A proper subgroup H and representative x certifying P inside x*H."""

    subgroup: Subgroup
    representative: int

    def coset(self) -> ResidueSet:
        q = self.subgroup.q
        h = positions(self.subgroup.elements.bits, q)
        return ResidueSet(q, from_positions(self.representative * h % q, q))


def coset_obstruction(p: ResidueSet) -> CosetWitness | None:
    """Tightest coset containment of P, or None when no proper coset traps it.

    A singleton {a} is trapped in a*{1} (the trivial subgroup, index q-1);
    that degenerate witness is returned as such.
    """
    if not p:
        raise ValueError("coset obstruction needs a nonempty set")
    d = _dlog_gcd(p)
    if d == 1:
        return None
    witness = CosetWitness(subgroup_of_index(p.q, d), p.first())
    if not p.is_subset(witness.coset()):
        raise AssertionError("dlog-gcd witness failed containment; bug")
    return witness


def coset_obstruction_brute(p: ResidueSet) -> CosetWitness | None:
    """Oracle: sweep all proper subgroups, largest index first.

    Containment in *some* coset of H is containment in the coset of its first
    element, since cosets partition the group.
    """
    if not p:
        raise ValueError("coset obstruction needs a nonempty set")
    q = p.q
    a0 = next(iter(p))
    for m in sorted(divisors(q - 1), reverse=True):
        if m == 1:
            continue
        h = subgroup_of_index(q, m)
        coset_bits = 0
        for v in h.elements:
            coset_bits |= 1 << (a0 * v % q)
        if p.bits & ~coset_bits == 0:
            return CosetWitness(h, a0)
    return None


def character_constant_on(p: ResidueSet, table: CharacterTable, j: int, tol: float = 1e-9) -> bool:
    """True iff chi_j takes one single value across P (within tol)."""
    if not p:
        raise ValueError("needs a nonempty set")
    if not 0 <= j <= table.order - 1:
        raise ValueError(f"character index {j} outside [0, {table.order - 1}]")
    vals = table.roots[(j * table.member_logs(p)) % table.order]
    return bool(np.abs(vals - vals[0]).max() <= tol)


# ---------------------------------------------------------------------------
# Partial sums of z^Omega(n)


@dataclass(frozen=True)
class OmegaSumReport:
    """sum_{n<=x} z^Omega(n) against its main term."""

    z: complex
    x: int
    lhs: complex
    main_term: complex
    rel_error: float
    noncancel_ratio: float
    noncancel_applicable: bool


@functools.lru_cache(maxsize=16)  # audit omega: 9 distinct z, e(1/3) at three x
def euler_product_constant(z: complex, prime_limit: int = EULER_PRODUCT_PRIME_LIMIT) -> complex:
    """prod_p (1 - z/p)^-1 * (1 - 1/p)^z, truncated at prime_limit.

    Terms are O(1/p^2), so the truncation error beyond 10^6 is below 2e-6.
    """
    ps = primes_below(prime_limit).astype(np.float64)
    total = (-np.log(1 - z / ps) + z * np.log1p(-1.0 / ps)).sum()
    return complex(cmath.exp(total))


# B_2k / (2k (2k - 1)), k = 1..8: the coefficients of Stirling's series for log Gamma
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400
)


def _stirling_tail(w: complex) -> complex:
    """sum_k B_2k / (2k (2k - 1) w^(2k - 1)) for k = 1..8."""
    inv2, acc = 1 / (w * w), 0j
    for c in reversed(_STIRLING):
        acc = acc * inv2 + c
    return acc / w


def _rgamma(z: complex) -> complex:
    """1/Gamma(z) = z(z+1)...(z+11)/12! * Gamma(13)/Gamma(z+12) for |z| <= 1.

    log(Gamma(z+12)/Gamma(13)) is Stirling's series regrouped around log(w/13),
    so no two terms of size 30 are rounded and subtracted; 1/Gamma(1) = 1 exactly.
    """
    w = z + 12
    tails = _stirling_tail(w) - _stirling_tail(13)
    log_ratio = (w - 0.5) * cmath.log(w / 13) + (z - 1) * (math.log(13) - 1) + tails
    return math.prod((z + k) / (k + 1) for k in range(12)) * cmath.exp(-log_ratio)


def omega_power_sum(z: complex, x: int) -> OmegaSumReport:
    """sum_{n<=x} z^Omega(n) = sum_k c_k z^k vs x * (log x)^(z-1) * C(z)/Gamma(z).

    The counts c_k = #{n <= x : Omega(n) = k} are exact integers; only the sum
    of the at most 24 terms c_k z^k with c_k > 0 is floating point.  Requires
    |z| = 1 and z != -1 (Gamma blows up against the (log x)^(z-1) factor there;
    that root is excluded).  The non-cancellation ratio
    |LHS| * log^(3/2)(x) / x is meaningful on Re(z) >= -1/2.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError(f"z must lie on the unit circle, got |z| = {abs(z)}")
    if abs(z + 1.0) < 1e-9:
        raise ValueError("z = -1 is excluded")
    if x < 100:
        raise ValueError("x must be at least 100")

    counts = factor_sieve(x)
    ks = np.flatnonzero(counts)
    lhs = complex((counts[ks] * z**ks).sum())

    logx = math.log(x)
    c = euler_product_constant(z)
    main = x * cmath.exp((z - 1) * cmath.log(logx)) * (c * _rgamma(z))
    rel = abs(lhs - main) / abs(main)
    re_ok = z.real >= -0.5 - 1e-12
    return OmegaSumReport(
        z=z,
        x=x,
        lhs=lhs,
        main_term=main,
        rel_error=rel,
        noncancel_ratio=abs(lhs) * logx**1.5 / x,
        noncancel_applicable=re_ok,
    )


# ---------------------------------------------------------------------------
# Experiments on the primes below eta*q


def coset_scan_report(q: int, eta: Eta | float | str = 1) -> AuditReport:
    """Run the obstruction detector on P_eta and report any witness found."""
    e = Eta.coerce(eta)
    p = prime_residues(q, e)
    qv = p.q
    if not p:
        return AuditReport(
            name="coset.obstruction-scan",
            params={"q": qv, "eta": e.label()},
            computed=0.0,
            verdict=RECORDED,
            details={"prime_count": 0, "obstructed": None, "note": "P_eta is empty"},
        )
    witness = coset_obstruction(p)
    details = {"prime_count": len(p), "obstructed": witness is not None}
    if witness is not None:
        details["subgroup_index"] = witness.subgroup.index
        details["representative"] = witness.representative
    return AuditReport(
        name="coset.obstruction-scan",
        params={"q": qv, "eta": e.label()},
        computed=float(witness.subgroup.index if witness else 1),
        verdict=RECORDED,
        witness=(witness.subgroup.index, witness.representative) if witness else None,
        details=details,
    )
