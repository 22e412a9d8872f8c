"""Upper and lower sieve weight systems on [1, x] with full clause audits.

Both systems sift the primes below z = x^xi out of the integers up to x and
expose divisor-supported coefficients lambda_d with w(n) = sum_{d | n}
lambda_d.

Upper system (quadratic construction, level D = x^(2*xi)):
    w+(n) = ( sum_{d | gcd(n, P(z)), d <= z} rho_d )^2
with the classical optimal rho for density g(p) = 1/p:
    rho_d = mu(d) * (d/phi(d)) * G_d(z/d) / G(z),
    G_d(y) = sum_{m <= y, m | P(z), (m,d)=1} 1/phi(m),   G = G_1.
Expanding the square gives lambda+_d = sum_{lcm(d1,d2)=d} rho_d1 rho_d2,
supported on squarefree d | P(z) with d <= z^2, and |lambda+_d| <= 3^nu(d)
because |rho| <= 1.  By construction w+ >= 0 everywhere and w+(n) = 1 for
z-rough n.

Lower system (combinatorial, level D = x^(2*xi+DELTA)):
    lambda-_d = mu(d) for d = p1*...*pr | P(z), p1 > ... > pr, subject to
    p1*...*p_(m-1)*p_m^3 <= D at every even position m; else lambda-_d = 0.
This truncation of Moebius inclusion-exclusion satisfies the fundamental
inequality sum_{d | m} lambda-_d <= [m = 1] for every m | P(z), which gives
w-(n) <= 1 on z-rough n and w-(n) <= 0 otherwise, with |lambda-| <= 1 and
support inside [1, D].

The slacks are constants, DELTA = GAMMA = 0.05: the theorems need only some
small fixed slack and no caller varies it, so x and xi alone shape a system.

audit_weights checks each clause above on every n in [1, x] and every d in
the support.  The sums get a verdict only on the upper side: sum w+ may be at
most WEIGHT_SUM_CEILING times the main term x / (xi log x).  The lower sum's
ratio to it is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modular import factorize
from .primes import primes_below
from .reports import FAIL, PASS, RECORDED, AuditReport

UPPER = "upper"
LOWER = "lower"

_TOL = 1e-9
# sum w+ / (x / (xi log x)) above this fails upper.weight-sum
WEIGHT_SUM_CEILING = 2.0
DELTA = 0.05  # the lower level is x^(2*xi + DELTA)
GAMMA = 0.05  # hypothesis slack: xi < (1 - GAMMA)/2, less DELTA/2 for the lower system


@dataclass(frozen=True)
class SieveParams:
    """Shape parameters: sifting range x and exponent xi; DELTA = GAMMA = 0.05 are fixed.

    z = x^xi is the sifting threshold.  The support level is x^(2*xi) for the
    upper system and x^(2*xi + DELTA) for the lower one.  The upper system
    needs xi < (1 - GAMMA)/2 and the lower one xi < (1 - GAMMA - DELTA)/2.
    """

    x: int
    xi: float

    def __post_init__(self) -> None:
        if self.x < 4:
            raise ValueError("x must be at least 4")

    @property
    def z(self) -> float:
        return float(self.x) ** self.xi

    @property
    def level_upper(self) -> float:
        return float(self.x) ** (2 * self.xi)

    @property
    def level_lower(self) -> float:
        return float(self.x) ** (2 * self.xi + DELTA)

    def check_upper(self) -> None:
        if not 0 < self.xi < 0.5 - GAMMA / 2:
            raise ValueError(f"upper sieve needs 0 < xi < (1 - GAMMA)/2; got xi={self.xi}")

    def check_lower(self) -> None:
        if not 0 < self.xi < 0.5 - GAMMA / 2 - DELTA / 2:
            raise ValueError(f"lower sieve needs 0 < xi < (1 - GAMMA - DELTA)/2; got xi={self.xi}")


def sifting_primes(z: float) -> list[int]:
    """The primes p < z (strict), ascending."""
    if z <= 2:
        return []
    top = math.ceil(z) - 1  # p < z; exact when z is integral
    if top < 2:
        return []
    return primes_below(top).tolist()


def rough_mask(x: int, z: float) -> np.ndarray:
    """Boolean mask over [0, x]: True where n has no prime factor below z (n = 1 is rough, 0 is not)."""
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for p in sifting_primes(z):
        mask[p::p] = False
    return mask


def _divisor_sum(coeffs: dict[int, float], x: int) -> np.ndarray:
    """sum_{d | n} c_d for n in [0, x] (index 0 unused), by strided adds over ascending d."""
    out = np.zeros(x + 1)
    for d, c in sorted(coeffs.items()):
        if c != 0.0:
            out[d::d] += c
    out[0] = 0.0
    return out


@dataclass
class SieveWeights:
    """A lambda_d coefficient table plus the induced w(n) on [1, x]."""

    params: SieveParams
    kind: str
    lam: dict[int, float]
    rho: dict[int, float] | None = None
    _warr: np.ndarray | None = field(default=None, repr=False)

    @property
    def z(self) -> float:
        return self.params.z

    @property
    def level(self) -> float:
        return self.params.level_upper if self.kind == UPPER else self.params.level_lower

    def support(self) -> list[int]:
        return sorted(d for d, c in self.lam.items() if c != 0.0)

    def weight_array(self) -> np.ndarray:
        """w(n) for n in [0, x] (index 0 unused), by strided divisor sums."""
        if self._warr is None:
            self._warr = _divisor_sum(self.lam, self.params.x)
        return self._warr

    def weight(self, n: int) -> float:
        if not 1 <= n <= self.params.x:
            raise ValueError(f"n={n} outside [1, {self.params.x}]")
        return float(sum(c for d, c in self.lam.items() if n % d == 0))

    def residue_array(self, q: int) -> np.ndarray:
        """w wrapped onto Z/qZ: entry r accumulates w(n) over n <= x, n = r (q)."""
        f = np.zeros(q)
        w = self.weight_array()
        if self.params.x < q:
            f[1 : self.params.x + 1] = w[1:]
        else:
            np.add.at(f, np.arange(self.params.x + 1) % q, w)
        return f


def _squarefree_smooth_products(primes: list[int], limit: float) -> list[tuple[int, int, int]]:
    """All (d, mu(d), phi(d)) with d squarefree, d | prod(primes), d <= limit."""
    out = [(1, 1, 1)]
    stack = [(0, 1, 1, 1)]
    while stack:
        idx, d, mu, phi = stack.pop()
        for i in range(idx, len(primes)):
            p = primes[i]
            nd = d * p
            if nd > limit:
                break  # primes ascend, so all further extensions overflow too
            out.append((nd, -mu, phi * (p - 1)))
            stack.append((i + 1, nd, -mu, phi * (p - 1)))
    return out


def selberg_upper(params: SieveParams) -> SieveWeights:
    """Quadratic upper weights at level x^(2*xi); see module docstring."""
    params.check_upper()
    z = params.z
    primes = sifting_primes(z)

    base = sorted(_squarefree_smooth_products(primes, z))
    # G_d(y) scans: keep (m, h(m)) ascending with h = 1/phi on squarefree m | P(z).
    ms = [m for m, _, _ in base]
    hs = [1.0 / phi for _, _, phi in base]
    g_total = math.fsum(hs)

    rho: dict[int, float] = {}
    for d, mu, phi in base:
        if d == 1:
            rho[1] = 1.0
            continue
        y = z / d
        acc = 0.0
        for m, h in zip(ms, hs):
            if m > y:
                break
            if math.gcd(m, d) == 1:
                acc += h
        rho[d] = mu * (d / phi) * acc / g_total

    lam: dict[int, float] = {}
    items = sorted(rho.items())
    for d1, r1 in items:
        for d2, r2 in items:
            l = d1 * d2 // math.gcd(d1, d2)
            lam[l] = lam.get(l, 0.0) + r1 * r2
    return SieveWeights(params, UPPER, lam, rho=rho)


def linear_lower(params: SieveParams) -> SieveWeights:
    """Combinatorial lower weights at level x^(2*xi + DELTA); see module docstring."""
    params.check_lower()
    level = params.level_lower
    primes_desc = sifting_primes(params.z)[::-1]

    lam: dict[int, float] = {1: 1.0}
    # DFS over descending prime chains; the cube condition binds at even depth.
    stack = [(0, 1, 0)]
    while stack:
        idx, prod, r = stack.pop()
        m = r + 1
        for i in range(idx, len(primes_desc)):
            p = primes_desc[i]
            if m % 2 == 0 and prod * p**3 > level:
                continue  # a smaller prime may still satisfy the cube condition
            d = prod * p
            lam[d] = float((-1) ** m)
            stack.append((i + 1, d, m))
    return SieveWeights(params, LOWER, lam)


def weight_sum(w: SieveWeights) -> float:
    """Exact sum_{n<=x} w(n) via sum_d lambda_d * floor(x/d)."""
    x = w.params.x
    return math.fsum(c * (x // d) for d, c in sorted(w.lam.items()))


def weight_sum_reference(w: SieveWeights) -> float:
    """Main-term comparison point x / (xi * log x)."""
    x, xi = w.params.x, w.params.xi
    return x / (xi * math.log(x))


def audit_weights(w: SieveWeights) -> list[AuditReport]:
    """Check every stated clause of the weight system exhaustively on [1, x].

    Both systems: support-level (every d <= level).  Upper: nonnegative (w >= 0
    on [1, x]), rough-at-least-one (w >= 1 on z-rough n), squarefree-support,
    lambda-size (|lambda_d| <= 3^nu(d)), square-form-agreement (w = (sum rho)^2)
    and weight-sum, which passes while sum w / (x / (xi log x)) stays within
    WEIGHT_SUM_CEILING.  Lower: rough-at-most-one (w <= 1 on z-rough n),
    smooth-nonpositive (w <= 0 on the other n), lambda-size (|lambda_d| <= 1)
    and weight-sum, whose ratio to the main term is recorded.  A failed clause
    names the first n or d where it fails worst.
    """
    params = w.params
    x = params.x
    if x > 10**6:
        raise ValueError("exhaustive clause audits are budgeted for x <= 10^6")
    meta = {"x": x, "xi": params.xi, "delta": DELTA, "kind": w.kind}
    warr = w.weight_array()
    rough = rough_mask(x, w.z)
    reports: list[AuditReport] = []

    def record(name, computed, bound, ok, witness=None, tolerance=_TOL, **details):
        """One clause: pass/fail by ok, or "recorded" when ok is None."""
        reports.append(
            AuditReport(
                name=f"{w.kind}.{name}",
                params=meta,
                computed=computed,
                bound=bound,
                ratio=computed / bound if bound else None,
                verdict=RECORDED if ok is None else PASS if ok else FAIL,
                tolerance=tolerance,
                witness=None if ok or ok is None else witness,
                details=details,
            )
        )

    def extreme(name, idx, bound, at_most):
        """w over the n in idx stays at most (or at least) bound; else name its first extreme n."""
        vals = warr[idx]
        i = int(vals.argmax() if at_most else vals.argmin())
        value = float(vals[i])
        ok = value <= bound + _TOL if at_most else value >= bound - _TOL
        record(name, value, bound, ok, int(idx[i]))

    support = w.support()
    top = max(support) if support else 1
    record("support-level", float(top), w.level, top <= w.level * (1 + 1e-12), top)
    rough_idx = np.flatnonzero(rough)
    total, ref = weight_sum(w), weight_sum_reference(w)

    if w.kind == UPPER:
        extreme("nonnegative", np.arange(1, x + 1), 0.0, at_most=False)
        extreme("rough-at-least-one", rough_idx, 1.0, at_most=False)
        factors = {d: factorize(d) for d in support}
        bad = [d for d, f in factors.items() if any(e > 1 for e in f.values())]
        record("squarefree-support", float(len(bad)), 0.0, not bad, next(iter(bad), None))
        excess = {d: abs(w.lam[d]) - 3.0 ** len(f) for d, f in factors.items()}
        worst_d = max(excess, key=excess.get, default=None)
        worst = max(0.0, excess.get(worst_d, 0.0))
        record("lambda-size", worst, 0.0, worst <= _TOL, worst_d)
        if w.rho is not None:
            gap = float(np.abs(warr[1:] - _divisor_sum(w.rho, x)[1:] ** 2).max())
            scale = max(1.0, float(np.abs(warr[1:]).max()))
            record("square-form-agreement", gap, 1e-9 * scale, gap <= 1e-9 * scale, tolerance=1e-9)
        record(
            "weight-sum",
            total,
            ref,
            total / ref <= WEIGHT_SUM_CEILING,
            tolerance=None,
            direct_equal=bool(abs(total - float(warr[1:].sum())) <= 1e-6 * max(1.0, abs(total))),
            ceiling=WEIGHT_SUM_CEILING,
        )
    else:
        extreme("rough-at-most-one", rough_idx, 1.0, at_most=True)
        smooth_idx = np.flatnonzero(~rough[1:]) + 1
        if smooth_idx.size:
            extreme("smooth-nonpositive", smooth_idx, 0.0, at_most=True)
        worst = max((abs(c) for c in w.lam.values()), default=0.0)
        worst_d = next((d for d, c in w.lam.items() if abs(c) == worst), None)
        record("lambda-size", worst, 1.0, worst <= 1 + _TOL, worst_d)
        record("weight-sum", total, ref, None, tolerance=None, positive=bool(total > 0))
    return reports
