import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from primecover import primes, residues
from primecover.modular import factorize, primes_in_range
from primecover.primes import Eta, factor_sieve, prime_residues, primes_below
from primecover.residues import ResidueSet, from_positions
from primecover.sieves import rough_mask


def _is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primes_below_small():
    assert primes_below(10).tolist() == [2, 3, 5, 7]
    assert len(primes_below(100)) == 25
    assert len(primes_below(2)) == 1


def test_primes_below_million():
    pl = primes_below(10**6)
    assert len(pl) == 78498
    # independent trial-division check: every sampled entry is prime, and
    # membership agrees with trial division on a window around the top
    assert pl.dtype == np.int64
    for p in pl[::1000]:
        assert _is_prime_trial(int(p))
    tail = set(pl[-50:].tolist())
    for n in range(999900, 10**6 + 1):
        assert (n in tail) == _is_prime_trial(n)


def test_primes_below_slicing_consistency():
    big = primes_below(10**4)
    small = primes_below(100)
    assert small.tolist() == [int(p) for p in big if p <= 100]


def test_primes_below_ascending_scan_sieves_once(monkeypatch):
    # the rows of an ascending scan near the ceiling: the first miss sieves ahead to 10^6
    flags = bytearray([1]) * (10**6 + 1)
    flags[:2] = b"\0\0"
    for p in range(2, 1001):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, 10**6 + 1, p)))
    reference = [n for n, f in enumerate(flags) if f]
    monkeypatch.setattr(primes, "_prime_cache", None)
    rebuilds, cache = 0, None
    for x in [*range(999000, 999983, 61), 999983]:
        got = primes_below(x)
        rebuilds += primes._prime_cache is not cache
        cache = primes._prime_cache
        assert got.tolist() == reference[: bisect.bisect_right(reference, x)]
    assert rebuilds == 1
    # the same scan's rows built through prime_residues read the mask the same sieve packs
    monkeypatch.setattr(primes, "_prime_cache", None)
    rebuilds, cache = 0, None
    for q in reference[bisect.bisect_left(reference, 999000) :: 7]:
        got = prime_residues(q, 1)
        rebuilds += primes._prime_cache is not cache
        cache = primes._prime_cache
        assert got.elements() == reference[: bisect.bisect_left(reference, q)]
    assert rebuilds == 1


def _prime_residues_oracle(q, eta):
    """P_eta through the positions codec, the construction the sieve mask replaced."""
    top = min(Eta.coerce(eta).largest_admitted(q), q - 1)
    return ResidueSet(q, from_positions(primes_below(top), q) if top >= 2 else 0)


def test_prime_residues_matches_positions_oracle_every_prime_to_3000():
    etas = [1, Fraction(1, 2), Fraction(2, 3), "q^-1/4", "q^-1/2"]
    for q in primes_in_range(3, 3000):
        for eta in etas:
            assert prime_residues(q, eta) == _prime_residues_oracle(q, eta), (q, eta)
    empty = Fraction(2, 2999)  # eta*q = 2 at q = 2999, so p < 2 admits no prime
    assert prime_residues(2999, empty) == _prime_residues_oracle(2999, empty) == ResidueSet.empty(2999)


@pytest.mark.parametrize("q", [3, 5, 999983])
@pytest.mark.parametrize("eta", [1, Fraction(1, 10)])
def test_prime_residues_matches_positions_oracle_at_the_edges(q, eta):
    assert prime_residues(q, eta) == _prime_residues_oracle(q, eta)


def test_prime_residues_across_a_sieve_growth(monkeypatch):
    # a small sieve, then one grown to the ceiling, then the small q read off the grown mask
    monkeypatch.setattr(primes, "_prime_cache", None)
    small = prime_residues(101, 1)
    assert primes._prime_cache[0] < 999983
    big = prime_residues(999983, 1)
    assert primes._prime_cache[0] >= 999982
    assert prime_residues(101, 1) == small == _prime_residues_oracle(101, 1)
    assert big == _prime_residues_oracle(999983, 1)


def test_prime_residues_builds_no_flag_array(monkeypatch):
    expected = _prime_residues_oracle(10007, Fraction(2, 3))

    def fail(*args):
        pytest.fail("P_eta built through from_positions")

    monkeypatch.setattr(residues, "from_positions", fail)
    monkeypatch.setattr(primes, "from_positions", fail, raising=False)
    assert prime_residues(10007, Fraction(2, 3)) == expected
    assert prime_residues(3, 1).elements() == [2]


def test_prime_residues_examples():
    assert prime_residues(5, 1).elements() == [2, 3]
    assert prime_residues(13, 1).elements() == [2, 3, 5, 7, 11]
    assert prime_residues(13, 0.5).elements() == [2, 3, 5]  # primes < 6.5


def test_prime_residues_cardinality_exhaustive():
    # |P_1(q)| = pi(q-1) for every prime q <= 10^4
    for q in primes_in_range(3, 10**4):
        assert len(prime_residues(q, 1)) == len(primes_below(q - 1))


def test_prime_residues_empty_allowed():
    assert len(prime_residues(5, Eta.power(Fraction(-9, 10)))) == 0


def test_eta_parse_forms():
    assert Eta.parse("0.5").value == Fraction(1, 2)
    assert Eta.parse("3/4").value == Fraction(3, 4)
    assert Eta.parse("q^-3/4").exponent == Fraction(-3, 4)
    assert Eta.parse("q^(-1/4)").exponent == Fraction(-1, 4)
    with pytest.raises(ValueError):
        Eta.parse("2.5")
    with pytest.raises(ValueError):
        Eta.parse("q^-2")
    with pytest.raises((ValueError, ZeroDivisionError)):
        Eta.parse("nonsense")


def test_eta_exact_boundary():
    # eta*q exactly integral: strict inequality must exclude the boundary
    assert Eta.literal(Fraction(1, 2)).largest_admitted(13) == 6  # 13/2 = 6.5
    e2 = Eta.literal(Fraction(6, 13))  # eta*q = 6 exactly
    assert e2.largest_admitted(13) == 5
    # power form with q^(1 + a) landing on an integer
    e3 = Eta.power(Fraction(-1, 2))  # eta*q = sqrt(q)
    assert e3.largest_admitted(169) == 12  # m < 13 exactly


def _largest_admitted_fraction(value, q):
    """m < eta*q through the Fraction product, the form the integer division replaced."""
    t = value * q
    m = t.numerator // t.denominator
    return m - 1 if t.denominator == 1 else m


def test_eta_literal_threshold_matches_fraction_product():
    rng = random.Random(28)
    cases = [(Fraction(1), 3), (Fraction(1), 999983), (Fraction(5, 7), 7), (Fraction(5, 7), 14)]
    for _ in range(2000):
        b = rng.randint(1, 10**rng.randint(1, 12))
        cases.append((Fraction(rng.randint(1, b), b), rng.randint(3, 10**6)))
    for value, q in cases:
        assert Eta.literal(value).largest_admitted(q) == _largest_admitted_fraction(value, q), (value, q)
    assert Eta.literal(1).largest_admitted(7) == 6
    assert Eta.literal(Fraction(5, 7)).largest_admitted(7) == 4  # eta*q = 5 exactly


def test_eta_power_matches_float_generically():
    e = Eta.power(Fraction(-1, 4))
    for q in (101, 1009, 10007):
        assert abs(e.value_at(q) - q ** (-0.25)) < 1e-12
        m = e.largest_admitted(q)
        assert m < q ** 0.75 < m + 1 + 1e-9


def test_eta_power_large_denominator():
    # q^(b+a) here is a 600-digit integer; thresholding must stay exact
    e = Eta.power(Fraction(-1, 100))
    m = e.largest_admitted(10007)
    assert m == 9126  # floor of 10007^(99/100) = 9126.4286...
    assert m < 10007 ** (99 / 100) < m + 1


def omega_table(limit):
    """Omega(n) for n in [0, limit] as int8, doubling over a smallest-prime-factor table (oracle)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
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
        m = np.arange(lo, hi, dtype=np.int32) // spf[lo:hi]
        omega[lo:hi] = omega[m] + 1
        lo = hi
    return omega


def _omega_by_trial_division(n):
    return sum(factorize(n).values())


def test_big_omega_nu_examples():
    # Omega from the oracle table and the histogram, nu from trial division
    omega = omega_table(2**10)
    assert omega.dtype == np.int8 and len(omega) == 2**10 + 1
    assert omega[12] == 3 and len(factorize(12)) == 2  # 12 = 2^2 * 3
    assert omega[1] == 0 and len(factorize(1)) == 0
    assert omega[2**10] == 10 and len(factorize(2**10)) == 1
    assert omega[2 * 3 * 5 * 7] == 4 == len(factorize(210))
    # 1 | 2, 3, 5, 7, 11 | 4, 6, 9, 10 | 8, 12
    assert factor_sieve(12).tolist()[:5] == [1, 5, 4, 2, 0]


def test_factor_sieve_range_check():
    with pytest.raises(ValueError, match="limit >= 2"):
        factor_sieve(1)
    with pytest.raises(ValueError, match=r"x = 10000001"):
        factor_sieve(primes.FACTOR_SIEVE_MAX + 1)


def test_factor_sieve_is_a_read_only_histogram_memoised_per_limit():
    factor_sieve.cache_clear()
    small = factor_sieve(100)
    assert small.dtype == np.int64 and small.shape == (64,) and small.sum() == 100
    assert not small.flags.writeable
    with pytest.raises(ValueError):
        small[0] = 0
    assert factor_sieve(1000) is not small and factor_sieve(100) is small
    assert factor_sieve.cache_info().maxsize == 4


@pytest.mark.parametrize("limit", [999999, 2**19])
def test_omega_doubling_vs_factorize(limit):
    # trial division is independent of the spf table the doubling reads; the
    # chunk edges 2^k - 1, 2^k, 2^k + 1 are where a chunk hands over to the next
    omega = omega_table(limit)
    assert len(omega) == limit + 1
    edges = [2**k + d for k in range(1, 20) for d in (-1, 0, 1)]
    spots = [1, 999983, 510510, 3**12]
    for n in sorted({*range(1, 2 * 10**4 + 1), *edges, *spots}):
        if n > limit:
            continue
        assert omega[n] == _omega_by_trial_division(n), n


def test_omega_doubling_int32_matches_int64():
    # the doubling's quotient n // spf(n) kept in spf's int32, against the same doubling in int64
    limit = 3 * 2**17 + 5
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in primes_below(limit).tolist():
        block = spf[p::p]
        block[block == 0] = p
    omega = np.zeros(limit + 1, dtype=np.int8)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        m = np.arange(lo, hi, dtype=np.int64) // spf[lo:hi]
        omega[lo:hi] = omega[m] + 1
        lo = hi
    assert omega_table(limit).tobytes() == omega.tobytes()


@pytest.mark.parametrize("limit", [2**19, 999999, 2**20 + 5])
def test_factor_sieve_matches_oracle_bincount(limit):
    # 2^20 + 5 spans two blocks of the segmented count
    oracle = np.bincount(omega_table(limit)[1:], minlength=64)
    assert factor_sieve(limit).tolist() == oracle.tolist()


@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("block", [16, 64, 210])
def test_factor_sieve_block_edges_vs_trial_division(block, d, monkeypatch):
    # a small block puts every p^k and cofactor prime near a block edge
    limit = 3 * block + d
    factor_sieve.cache_clear()
    monkeypatch.setattr(primes, "_OMEGA_BLOCK", block)
    try:
        counts = factor_sieve(limit)
    finally:
        factor_sieve.cache_clear()
    oracle = np.bincount([_omega_by_trial_division(n) for n in range(1, limit + 1)], minlength=64)
    assert counts.tolist() == oracle.tolist()


def test_factor_sieve_budget_checked_before_allocation(monkeypatch):
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(ValueError, match=r"x = 10000001"):
        factor_sieve(primes.FACTOR_SIEVE_MAX + 1)


def test_omega_sum_prime_power_oracle():
    # sum_{n<=x} Omega(n) counts pairs (n, p^k) with k >= 1 and p^k | n
    x = 10**4
    lhs = int(factor_sieve(x) @ np.arange(64))
    rhs = 0
    for p in primes_below(x).tolist():
        pk = p
        while pk <= x:
            rhs += x // pk
            pk *= p
    assert lhs == rhs


def test_rough_indicator_frozen():
    # no prime factor below 3 on [1, 20]: 1 plus every odd n
    mask = rough_mask(20, 3)
    assert list(np.flatnonzero(mask)) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]


def test_rough_indicator_edges():
    assert rough_mask(50, 2)[1:].all()  # no prime < 2: everything rough
    assert rough_mask(10, 1.5)[1:].all()
    mask = rough_mask(100, 50)
    for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert mask[p]  # a prime is rough for any z <= p
    assert not mask[0] and len(mask) == 101
