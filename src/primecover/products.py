"""Exact product-set algebra over (Z/qZ)^x and the doubling expansion engine.

The group is cyclic of order q-1, so a set maps through discrete logs to a
subset of Z/(q-1) and product sets become sumsets.  Every product goes that
way, whatever the operand sizes; `CharacterTable.to_dlog` / `from_dlog` carry
sets into and out of the discrete-log masks, a full mask without decoding.  A
sumset is an OR of cyclic bit rotations of the larger operand B, one per member
of the smaller operand A it rotates by (only those are decoded), stopping as
soon as the group is full.  Rotating by t takes bits [n - t, 2n - t) of
D = B | B << n: below n = _BYTE_SLICE_BITS one big-int shift (`_rotl`), from
there a byte-aligned slice of one of 8 bit-shifted byte copies of D (fixed
cost: ~10 numpy calls, a loss below n ~ 2 * 10^4).  An A within
`_rotation_budget(n)` rotates in full; a larger one by its first
2 * log2(n) * n / |B| members, enough for a random-like B to fill the group
(one rotation covers a share |B| / n; fills took 0.8-1.9x ln(n) * n / |B|,
P_1 * P_1 near q = 10^6 about 200 of 510).  Only a group still not full goes
to the FFT sumset.  If |A| + |B| > q - 1 the sumset is the whole group by
pigeonhole (for any u, A and u - B must intersect), which short-circuits the
saturated tail of an expansion run.  Powers of P stay masks: `expansion_schedule`
reads the least covering exponent off its own squaring chain, and `six_fold_cover`
decodes once.  `product_set_naive` (a double loop) and `iterated_product`
(square-and-multiply) are kept only as the oracles the tests compare against.

`quotient_set` and `invert_set` work on discrete-log masks: A * A^-1 is the
sumset e + (-e), where -e is e's n-bit reversal rotated left once, so the
doubling dichotomy and the square-root rule decode no set, and an exhaustive
dichotomy check enumerates masks directly.

Every integer convolution, the FFT sumset, `solution_counts_all` and
theorem2's positivity certificate, goes through one kernel, `_cyclic_counts`.
It zero-pads the length-(q-1) arrays to `_fast_len(2(q-1) - 1)`, the least
2^a * 3^b * 5^c that long, so no `numpy.fft` transform runs at q - 1 itself,
whose large prime factors would send the FFT to Bluestein (3-4x slower near
q = 10^6); the linear convolution's tail is then wrapped back onto its head.
Squaring a set, as every pair-product row and every expansion step does,
takes one forward transform instead of two.  The result must come out integral and add up to
its known total (|A| * |B| for a sumset), or the kernel raises.

All pair counts use ORDERED pairs throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coset import is_coset_trapped
from .modular import CharacterTable, character_table
from .primes import Eta, prime_residues
from .reports import FAIL, PASS, RECORDED, AuditReport
from .residues import ResidueSet, leading_positions, pack, positions, unpack

_BYTE_SLICE_BITS = 2**15  # n from which byte-sliced rotations beat big-int ones


def _rotation_budget(n: int) -> int:
    """Rotations that cost about one FFT squaring; budget^2 > 2 * log2(n) * n up to 10^6.

    n // 18 fits the crossovers measured with squarings, the commands' only sumsets: 1.8-1.9k
    at n = 2^15, 5.4-6.8k at 10^5, 20k at 5 * 10^5, 24-26k at 10^6 (pair products: 1.4x later).
    """
    return 1024 if n < _BYTE_SLICE_BITS else min(n // 18, 20_000)


def _rotl(d: int, t: int, n: int, mask: int) -> int:
    """B rotated left by t in [0, n): bits [n - t, 2n - t) of D = B | B << n."""
    return (d >> (n - t)) & mask


def _rotl_bytes(copies: np.ndarray, t: int, n: int) -> np.ndarray:
    """_rotl as a byte view: bits [n - t, 2n - t) of D; the tail byte's bits past n are junk."""
    b, s = divmod(n - t, 8)
    return copies[s][b : b + (n + 7) // 8]


def _fast_len(m: int) -> int:
    """Least 2^a * 3^b * 5^c >= m, an FFT length numpy transforms quickly."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _cyclic_counts(a: np.ndarray, b: np.ndarray, total: int) -> np.ndarray:
    """Exact cyclic convolution of two integer-valued arrays of length n.

    The inputs may be signed: 0/1 indicators for the sumsets and pair counts,
    and theorem2's lower-sieve weights (sums of +-1 coefficients) against the
    pair counts.
    The linear convolution is zero-padded to a fast length >= 2n - 1, so no
    transform runs at an awkward length n (a large prime factor in n sends a
    length-n FFT to Bluestein), and its tail is wrapped back onto the head.
    Squaring (`b is a`) takes one forward transform.  The largest drift from
    integers measured is 7e-12 for pair counts and 8e-7 for theorem2's
    convolution near q = 10^6, far below the 1e-2 at which the integrality
    check raises; it and the check that the result adds up to `total` make
    any drift a hard failure rather than a wrong answer.
    """
    n = len(a)
    size = _fast_len(2 * n - 1)
    spectrum = np.fft.rfft(a, size)
    if b is a:
        spectrum *= spectrum
    else:
        spectrum *= np.fft.rfft(b, size)
    conv = np.fft.irfft(spectrum, size)
    cyclic = conv[:n]
    cyclic[: n - 1] += conv[n : 2 * n - 1]
    counts = np.rint(cyclic)
    if float(np.abs(cyclic - counts).max()) > 1e-2:
        raise AssertionError("FFT convolution drifted away from integers")
    if int(counts.sum()) != total:
        raise AssertionError("FFT convolution pair total mismatch")
    return counts.astype(np.int64)


def _sumset_exp_fft(e1: int, e2: int, n: int) -> int:
    """Sumset support: the nonzero entries of the exact pair counts."""
    a = unpack(e1, n).astype(np.float64)
    b = a if e1 == e2 else unpack(e2, n).astype(np.float64)
    counts = _cyclic_counts(a, b, e1.bit_count() * e2.bit_count())
    return pack(counts > 0)


def _sumset_exp(e1: int, e2: int, n: int) -> int:
    mask = (1 << n) - 1
    c1, c2 = e1.bit_count(), e2.bit_count()
    if c1 + c2 > n:
        return mask  # pigeonhole: u - e2 meets e1 for every u
    small, big, members, size = (e1, e2, c1, c2) if c1 <= c2 else (e2, e1, c2, c1)
    if members <= _rotation_budget(n):
        shifts = positions(small, n).tolist()
    else:  # rotate up to the fill estimate, with margin; it is below the budget
        shifts = leading_positions(small, 2 * n.bit_length() * n // size)
    if n < _BYTE_SLICE_BITS:
        d = big | big << n
        acc = 0
        for t in shifts:
            acc |= _rotl(d, t, n, mask)
            if acc == mask:
                break
    else:
        acc = _sliced_rotations(big, shifts, n)
    if acc != mask and len(shifts) < members:
        return _sumset_exp_fft(e1, e2, n)  # the estimate did not fill the group
    return acc


def _sliced_rotations(big: int, shifts: list[int], n: int) -> int:
    """`_sumset_exp`'s rotation loop on bytes; it tests for a full group every 16 rotations."""
    words = n // 32 + 2  # D's 2n bits, and a zero word to shift in
    w = np.frombuffer((big | big << n).to_bytes(8 * words, "little"), dtype="<u8")
    copies = np.empty((8, words - 1), dtype="<u8")  # row s: D >> s, shifted as 64-bit words
    copies[0] = w[:-1]
    for s in range(1, 8):
        np.right_shift(w[:-1], s, out=copies[s])
        copies[s] |= w[1:] << (64 - s)
    copies = copies.view(np.uint8)
    acc = np.zeros((n + 7) // 8, dtype=np.uint8)
    acc[-1] = (0xFF << (n - 1) % 8 + 1) & 0xFF  # bits past n stay set: a full group is all 0xFF
    for i, t in enumerate(shifts):
        np.bitwise_or(acc, _rotl_bytes(copies, t, n), out=acc)
        if i % 16 == 15 and acc.min() == 0xFF:
            break
    return int.from_bytes(acc, "little") & ((1 << n) - 1)


def product_set(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x*y mod q : x in A, y in B}."""
    if a.q != b.q:
        raise ValueError(f"mixed moduli {a.q} and {b.q}")
    if not a or not b:
        return ResidueSet.empty(a.q)
    table = character_table(a.q)
    ea = table.to_dlog(a)
    eb = ea if b is a else table.to_dlog(b)
    return table.from_dlog(_sumset_exp(ea, eb, table.order))


def product_set_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Definition-chasing double loop (oracle path)."""
    if a.q != b.q:
        raise ValueError(f"mixed moduli {a.q} and {b.q}")
    q = a.q
    bits = 0
    for x in a:
        for y in b:
            bits |= 1 << (x * y % q)
    return ResidueSet(q, bits)


def iterated_product(p: ResidueSet, k: int) -> ResidueSet:
    """P^(k): all products of k elements, by square-and-multiply on k.

    Valid because P^(2m) = P^(m) * P^(m) and P^(m+1) = P^(m) * P.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = character_table(p.q)
    n = p.q - 1
    base = table.to_dlog(p)
    acc: int | None = None
    e = base
    while k:
        if k & 1:
            acc = e if acc is None else _sumset_exp(acc, e, n)
        k >>= 1
        if k:
            e = _sumset_exp(e, e, n)
    return table.from_dlog(acc)


def iterated_product_chain(p: ResidueSet, k: int) -> ResidueSet:
    """P^(k) by k-1 successive products (oracle path)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = p
    for _ in range(k - 1):
        out = product_set(out, p)
    return out


COVER_FACTORS = 6  # Theorem 2: products of at most six primes cover the units


def six_fold_cover(p: ResidueSet) -> tuple[int | None, ResidueSet]:
    """Least k <= COVER_FACTORS with P u P^(2) u ... u P^(k) = units, and that union.

    Stops at the first cover, since later products cannot grow the whole
    group; (None, the union up to P^(COVER_FACTORS)) when none covers.
    """
    table = character_table(p.q)
    n = table.order
    full = (1 << n) - 1
    base = cur = union = table.to_dlog(p)
    k = 1
    while union != full and k < COVER_FACTORS:
        cur = _sumset_exp(cur, base, n)
        union, k = union | cur, k + 1
    return (k if union == full else None), table.from_dlog(union)


def invert_set(e: int, n: int) -> int:
    """A^-1 as a discrete-log mask: bit t to (n - t) mod n, the n-bit reversal rotated left once."""
    r = int(format(e, f"0{n}b")[::-1], 2)
    return (r << 1 | r >> (n - 1)) & ((1 << n) - 1)


def quotient_set(e: int, n: int) -> int:
    """A * A^-1 = {x y^-1 : x, y in A} as a discrete-log mask: the sumset e + (-e)."""
    return _sumset_exp(e, invert_set(e, n), n)


def solution_count_naive(p: ResidueSet, a: int) -> int:
    q = p.q
    a = a % q
    if a == 0:
        raise ValueError("a must be a unit")
    els = p.elements()
    return sum(1 for x in els for y in els if x * y % q == a)


def solution_counts_all(p: ResidueSet) -> np.ndarray:
    """Counts for every target a at once, indexed by residue.

    The exact cyclic autoconvolution of the discrete-log indicator, which
    `_cyclic_counts` checks to be integral and to total |P|^2.
    """
    q = p.q
    table = character_table(q)
    ind = np.zeros(q - 1)
    ind[table.member_logs(p)] = 1.0
    out = np.zeros(q, dtype=np.int64)
    out[table.pow_g] = _cyclic_counts(ind, ind, len(p) ** 2)
    return out


@dataclass(frozen=True)
class FreimanVerdict:
    """Which disjunct of the doubling dichotomy a set witnesses."""

    q: int
    size: int
    trapped: bool
    quotient_covers: bool
    grows_three_halves: bool
    product_size: int

    @property
    def holds(self) -> bool:
        return self.quotient_covers or self.grows_three_halves


def freiman_dichotomy(table: CharacterTable, e: int) -> FreimanVerdict:
    """Either A * A^-1 is the whole group or |A*A| >= (3/2)|A|, for A with discrete-log mask e.

    Sets trapped in a proper coset, gcd(n, t - t0) > 1 over the positions t of
    e, are flagged: the dichotomy hypothesis fails there.  For untrapped sets at
    least one disjunct must hold.
    """
    if not e:
        raise ValueError("dichotomy needs a nonempty set")
    n = table.order
    logs = positions(e, n)
    trapped = math.gcd(n, *(logs - logs[0]).tolist()) > 1
    covers = quotient_set(e, n) == (1 << n) - 1
    size, prod = e.bit_count(), _sumset_exp(e, e, n).bit_count()
    return FreimanVerdict(table.q, size, trapped, covers, 2 * prod >= 3 * size, prod)


def ruzsa_growth_check(a: ResidueSet) -> AuditReport:
    """|A*A| >= sqrt(|G|/|A|) * |A| whenever A * A^-1 = G.

    Rejects inputs whose quotient set is not the whole group (the triangle
    inequality consequence needs that hypothesis).  A is encoded once, and its
    quotient and product are each taken once, as discrete-log sumsets.
    """
    if not a:
        raise ValueError("needs a nonempty set")
    table = character_table(a.q)
    g = table.order
    e = table.to_dlog(a)
    if quotient_set(e, g) != (1 << g) - 1:
        raise ValueError("hypothesis A * A^-1 = G fails")
    prod = _sumset_exp(e, e, g).bit_count()
    bound = math.sqrt(g * len(a))
    ok = prod * prod >= g * len(a)  # exact integer form of prod >= sqrt(g*|A|)
    return AuditReport(
        name="product-growth.sqrt-rule",
        params={"q": a.q, "size": len(a)},
        computed=float(prod),
        bound=bound,
        ratio=prod / bound,
        verdict=PASS if ok else FAIL,
        details={"group_order": g},
    )


RULE_COMPLETE = "half-square"
RULE_SQRT = "ruzsa-sqrt"
RULE_THREE_HALVES = "freiman-3/2"


@dataclass(frozen=True)
class ExpansionStep:
    size_before: int
    rule: str
    size_after: int
    exponent: int


@dataclass(frozen=True)
class ExpansionTrace:
    """Record of repeated squaring until the whole group is covered."""

    q: int
    steps: tuple[ExpansionStep, ...]
    final_exponent: int
    min_exponent: int  # the least k with A^(k) the whole group
    theoretical_exponent = 8  # a class constant: the density >= 1/4 schedule's exponent

    @property
    def sizes(self) -> list[int]:
        return [self.steps[0].size_before] + [s.size_after for s in self.steps]


def _certified_rule(size_before: int, size_after: int, g: int) -> str:
    if size_after == g and 2 * size_before > g:
        return RULE_COMPLETE
    if size_after * size_after >= g * size_before:
        return RULE_SQRT
    if 2 * size_after >= 3 * size_before:
        return RULE_THREE_HALVES
    raise AssertionError("squaring step certified no growth rule; impossible for untrapped sets")


def expansion_schedule(a: ResidueSet) -> ExpansionTrace:
    """Square the set until it covers the group, labelling each growth step.

    The exponent doubles from 1 with each squaring, so the final exponent is
    the least power of two 2^j with A^(2^j) the whole group.  The least exponent
    comes by binary descent in j - 1 sumsets: from A^(2^(j-1)), multiply by each
    kept A^(2^i), i = j-2 .. 0, keeping the product while it falls short (covering
    is upward-monotone in k).  The rule labels are descriptive -- the strongest
    growth rule the observed sizes certify -- and never feed back into control
    flow.  The theoretical exponent follows the density >= 1/4 schedule: two
    3/2-steps then one past-half squaring, i.e. 8.
    """
    if not a:
        raise ValueError("expansion needs a nonempty set")
    if is_coset_trapped(a):
        raise ValueError("set is trapped in a proper coset; its powers never cover the group")
    q = a.q
    g = n = q - 1
    table = character_table(q)
    mask = (1 << n) - 1

    e = table.to_dlog(a)
    k = 1
    steps: list[ExpansionStep] = []
    if e == mask:
        steps.append(ExpansionStep(g, RULE_COMPLETE, g, k))
        return ExpansionTrace(q, tuple(steps), k, k)
    powers = []  # A^(2^i) for each squaring so far, none of them the whole group
    max_steps = math.ceil(math.log2(q)) + 4
    for _ in range(max_steps):
        powers.append(e)
        before = e.bit_count()
        e = _sumset_exp(e, e, n)
        k *= 2
        after = e.bit_count()
        steps.append(ExpansionStep(before, _certified_rule(before, after, g), after, k))
        if e == mask:
            short, short_k = powers.pop(), k // 2  # the largest exponent known to fall short
            for i in reversed(range(len(powers))):
                trial = _sumset_exp(short, powers[i], n)
                if trial != mask:
                    short, short_k = trial, short_k + (1 << i)
            return ExpansionTrace(q, tuple(steps), k, short_k + 1)
    raise RuntimeError(
        f"no cover after {max_steps} squarings (q={q}); this cannot happen for untrapped sets"
    )


def density_report(q: int, eta: Eta | float | str = 1, epsilon: float | None = None) -> AuditReport:
    """|P_eta^(2)| / q against the asymptotic benchmark (2e/(3+4e))^2.

    The parameter e inverts eta = q^(-1/4+e), so e = 1/4 + log_q(eta) unless
    passed explicitly; the benchmark is an asymptotic constant, so the
    verdict is recorded rather than asserted.
    """
    e = Eta.coerce(eta)
    p = prime_residues(q, e)
    qv = p.q
    p2 = product_set(p, p)
    density = len(p2) / qv
    eps = epsilon
    if eps is None:
        eps = 0.25 + math.log(e.value_at(qv)) / math.log(qv) if e.value_at(qv) > 0 else None
    benchmark = (2 * eps / (3 + 4 * eps)) ** 2 if eps and eps > 0 else None
    return AuditReport(
        name="product-density.pair-products",
        params={"q": qv, "eta": e.label()},
        computed=density,
        bound=benchmark,
        ratio=density / benchmark if benchmark else None,
        verdict=RECORDED,
        details={
            "prime_count": len(p),
            "pair_product_count": len(p2),
            "epsilon": eps,
        },
    )
