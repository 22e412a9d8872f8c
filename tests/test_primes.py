import bisect
from fractions import Fraction

import numpy as np
import pytest

from primecover import primes
from primecover.primes import Eta, FactorSieve, factor_sieve, prime_residues, primes_below


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


def test_primes_below_ascending_scan_sieves_at_most_twice(monkeypatch):
    # the rows of an ascending scan near the ceiling: a miss sieves ahead to 10^6
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
    assert rebuilds <= 2


def test_prime_residues_examples():
    assert prime_residues(5, 1).elements() == [2, 3]
    assert prime_residues(13, 1).elements() == [2, 3, 5, 7, 11]
    assert prime_residues(13, 0.5).elements() == [2, 3, 5]  # primes < 6.5


def test_prime_residues_cardinality_exhaustive():
    # |P_1(q)| = pi(q-1) for every prime q <= 10^4
    from primecover.modular import primes_in_range

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


def test_big_omega_nu_examples():
    sieve = factor_sieve(2**10)
    assert sieve.omega_values[12] == 3 and sieve.nu(12) == 2  # 12 = 2^2 * 3
    assert sieve.omega_values[1] == 0 and sieve.nu(1) == 0
    assert sieve.omega_values[2**10] == 10 and sieve.nu(2**10) == 1
    assert sieve.omega_values[2 * 3 * 5 * 7] == 4 == sieve.nu(210)


def test_factor_sieve_range_check():
    sieve = FactorSieve(100)
    with pytest.raises(ValueError):
        sieve.is_squarefree(101)
    with pytest.raises(ValueError):
        sieve.nu(0)


def test_omega_nu_consistency_with_spf():
    sieve = factor_sieve(5000)
    for n in range(2, 5000, 37):
        m, om, dv = n, 0, set()
        while m > 1:
            p = int(sieve.spf[m])
            om += 1
            dv.add(p)
            m //= p
        assert sieve.omega_values[n] == om
        assert sieve.nu(n) == len(dv)


@pytest.mark.parametrize("limit", [999999, 2**19])
def test_omega_nu_doubling_vs_factorize(limit):
    # trial division is independent of the spf table the doubling reads; the
    # chunk edges 2^k - 1, 2^k, 2^k + 1 are where a chunk hands over to the next
    from primecover.modular import factorize

    sieve = FactorSieve(limit)
    assert len(sieve.omega_values) == len(sieve.nu_values) == limit + 1
    edges = [2**k + d for k in range(1, 20) for d in (-1, 0, 1)]
    spots = [1, 999983, 510510, 3**12]
    for n in sorted({*range(1, 2 * 10**4 + 1), *edges, *spots}):
        if n > limit:
            continue
        f = factorize(n)
        assert sieve.omega_values[n] == sum(f.values()), n
        assert sieve.nu(n) == len(f), n
        assert sieve.is_squarefree(n) == all(e == 1 for e in f.values()), n


def test_factor_sieve_budget_checked_before_allocation(monkeypatch):
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(ValueError, match=r"x = 10000001"):
        FactorSieve(primes.FACTOR_SIEVE_MAX + 1)


def test_omega_minus_nu_double_loop_oracle():
    # sum_{n<=x} (Omega - nu)(n) counts pairs (n, p^k) with k >= 2, p^k | n
    x = 10**4
    sieve = factor_sieve(x)
    lhs = int((sieve.omega_values[1 : x + 1] - sieve.nu_values[1 : x + 1]).sum())
    rhs = 0
    for p in primes_below(int(x**0.5) + 1):
        pk = p * p
        while pk <= x:
            rhs += x // pk
            pk *= p
    assert lhs == rhs


def test_rough_indicator_frozen():
    # spf >= 3 on [1, 20]: 1 plus every odd n
    mask = factor_sieve(20).rough_mask(3)[:21]
    assert list(np.flatnonzero(mask)) == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]


def test_rough_indicator_edges():
    assert factor_sieve(50).rough_mask(2)[1:51].all()  # no prime < 2: everything rough
    mask = factor_sieve(100).rough_mask(50)[:101]
    for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert mask[p]  # a prime is rough for any z <= p
    assert not mask[0]
    with pytest.raises(ValueError):
        factor_sieve(10).rough_mask(1.5)[:11]
