import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover.coset import coset_obstruction, coset_scan_report, is_coset_trapped
from primecover.fourier import (
    additive_transform,
    kloosterman,
    kloosterman_row,
    weil_audit,
)
from primecover.modular import (
    CharacterTable,
    character_table,
    divisors,
    factorize,
    inverse_table,
    is_prime,
    isqrt_floor,
    mod_inverse,
    modulus_value,
    primes_in_range,
    subgroup_of_index,
)
from primecover.primes import prime_residues
from primecover.products import density_report, product_set
from primecover.residues import ResidueSet

SMALL_PRIMES = primes_in_range(3, 200)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_large_pairs():
    assert is_prime(10**9 + 7)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_vs_sieve_to_a_million():
    # bases 2 and 3 decide every n below 1,373,653; about 1 s for the million calls
    n = 10**6
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p :: p] = False
    assert [is_prime(k) for k in range(n + 1)] == sieve.tolist()
    assert not is_prime(1_373_653)  # 829 * 1657, a strong pseudoprime to bases 2 and 3
    assert is_prime(1_373_677)  # the next prime, past the two-base bound


@pytest.mark.parametrize(
    "lo, hi", [(-5, 1), (0, 1), (2, 2), (3, 200), (10, 3), (14, 16), (24, 29), (0, 2000)]
)
def test_primes_in_range_vs_point_test(lo, hi):
    got = primes_in_range(lo, hi)
    assert got == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert all(type(p) is int for p in got)


def test_modulus_validation():
    modulus_value(3)
    modulus_value(10007)
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            modulus_value(bad)


def test_mod_inverse_identities():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(3, 7) == 5  # 3*5 = 15 = 1 mod 7


def test_mod_inverse_exhaustive_101():
    for a in range(1, 101):
        assert a * mod_inverse(a, 101) % 101 == 1


@pytest.mark.parametrize("q", (3, 5, 101, 2039))  # 2039 - 1 = 2 * 1019
def test_inverse_table_vs_mod_inverse(q):
    inv = inverse_table(q)
    assert inv.dtype == np.int64
    assert inv.tolist() == [0] + [mod_inverse(a, q) for a in range(1, q)]


def test_mod_inverse_rejects_zero():
    with pytest.raises(ValueError):
        mod_inverse(0, 7)
    with pytest.raises(ValueError):
        mod_inverse(14, 7)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**6))
def test_mod_inverse_property(q, a):
    if a % q == 0:
        a += 1
    assert a * mod_inverse(a, q) % q == 1


def _order_brute(a, q):
    v, k = a % q, 1
    while v != 1:
        v = v * a % q
        k += 1
    return k


def _subgroups(q):
    return [subgroup_of_index(q, m) for m in divisors(q - 1)]


def test_primitive_root_examples():
    assert character_table(5).g == 2  # orders of 2 mod 5: 2,4,3,1
    assert character_table(7).g == 3  # 2 has order 3; 3 has order 6
    g = character_table(191).g
    assert _order_brute(g, 191) == 190
    for h in range(2, g):
        assert _order_brute(h, 191) < 190  # g is the least one


def test_factorize_and_divisors():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_isqrt_floor():
    for n in (0, 1, 2, 3, 4, 8, 9, 26, 27, 28, 10**12):
        for k in (1, 2, 3, 5):
            r = isqrt_floor(n, k)
            assert r**k <= n < (r + 1) ** k


def test_dlog_bijection_exhaustive():
    # g^dlog[a] = a and dlog is a bijection, for every prime q <= 10^3
    for q in primes_in_range(3, 1000):
        t = CharacterTable(q)
        seen = sorted(int(v) for v in t.dlog[1:])
        assert seen == list(range(q - 1))
        assert all(pow(t.g, int(t.dlog[a]), q) == a for a in range(1, q))


# from 32771 on, q - 1 = B + 2, 2B, 2B + 2 and 3B + 12 for the block B = 2^15: the block edges
@pytest.mark.parametrize("q", (3, 5, 7, 17, 101, 257, 2039, 32771, 65537, 65539, 98317))
def test_doubling_power_table_exhaustive(q):
    t = CharacterTable(q)
    assert t.pow_g.dtype == np.int64
    assert t.pow_g.tolist() == [pow(t.g, k, q) for k in range(q - 1)]
    assert t.dlog[0] == -1
    assert t.dlog[t.pow_g].tolist() == list(range(q - 1))  # the inverse permutation


def test_doubling_power_table_at_ceiling():
    q = 999983
    t = CharacterTable(q)
    ks = np.random.default_rng(7).integers(0, q - 1, 1000).tolist() + [0, q - 2]
    assert [int(t.pow_g[k]) for k in ks] == [pow(t.g, k, q) for k in ks]
    assert sorted(t.pow_g[:: (q - 1) // 2].tolist()) == [1, q - 1]
    assert np.array_equal(np.sort(t.pow_g), np.arange(1, q))  # a permutation of the units


def test_neighbouring_moduli_at_ceiling_ask_for_equal_power_buffers():
    # whole-block buffers: the next table at the ceiling fits in the pages the last one freed
    sizes = {CharacterTable(q).pow_g.base.nbytes for q in (999983, 999979, 999961, 999959)}
    assert len(sizes) == 1


def test_power_table_build_holds_one_q_sized_array():
    q = 999983
    modulus_value(q)  # the primality test's allocations are not the build's
    tracemalloc.start()
    try:
        t = CharacterTable(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.pow_g.base.nbytes <= peak < t.pow_g.base.nbytes + 8 * (q - 1) // 4


@functools.cache
def _eager_dlog(q: int) -> list[int]:
    """dlog[g^k] = k by one pass of repeated multiplication (the oracle)."""
    g = character_table(q).g
    dlog, v = [-1] * q, 1
    for k in range(q - 1):
        dlog[v] = k
        v = v * g % q
    return dlog


@pytest.mark.parametrize("q", (3, 5, 2039, 10007))
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), density=st.floats(0, 1))
def test_dlog_codec_vs_eager_oracle(q, seed, density):
    t, dlog = character_table(q), _eager_dlog(q)
    rng = np.random.default_rng(seed)
    units = range(1, q)
    cases = [
        ResidueSet.empty(q),
        ResidueSet.from_elements(q, [int(rng.integers(1, q))]),
        ResidueSet.full_units(q),
        ResidueSet.from_elements(q, [a for a in units if rng.random() < density]),
    ]
    for s in cases:
        logs = sorted(dlog[a] for a in s)
        assert t.member_logs(s).tolist() == logs
        assert t.to_dlog(s) == sum(1 << k for k in logs)
        assert t.from_dlog(t.to_dlog(s)) == s
    ks = {k for k in range(q - 1) if rng.random() < density}
    members = [a for a in units if dlog[a] in ks]
    assert t.from_dlog(sum(1 << k for k in ks)) == ResidueSet.from_elements(q, members)


def test_character_table_counts_as_lru_cache_of_one():
    reference = functools.lru_cache(maxsize=1)(modulus_value)
    rng = np.random.default_rng(18)
    moduli = [int(q) for q in rng.choice([3, 5, 7, 15, 101, 103, 1000003], 300)]
    character_table.cache_clear()
    for q in moduli:
        try:
            reference(q)
        except ValueError:
            with pytest.raises(ValueError, match="modulus"):
                character_table(q)
        else:
            assert character_table(q).q == q
        assert character_table.cache_info() == reference.cache_info()
    character_table.cache_clear()
    assert character_table.cache_info() == (0, 0, 1, 0)


def test_old_power_table_freed_before_next_build(monkeypatch):
    build, tables, alive = CharacterTable.__init__, [], []

    def init(self, q):
        alive.append([t() is not None for t in tables])
        build(self, q)
        tables.append(weakref.ref(self.pow_g))  # the table has __slots__; its array does not

    monkeypatch.setattr(CharacterTable, "__init__", init)
    character_table.cache_clear()
    for q in (101, 101, 999983, 999979, 999983):
        assert character_table(q).q == q
    assert alive == [[], [False], [False, False], [False, False, False]]
    assert character_table.cache_info().misses == 4
    character_table.cache_clear()


def test_product_engine_never_builds_dlog():
    character_table.cache_clear()
    p = prime_residues(999983)
    assert len(product_set(p, p)) == 999982
    assert character_table(999983)._dlog is None
    coset_scan_report(10007)
    assert character_table(10007)._dlog is None


def test_character_values_examples():
    t5 = character_table(5)
    assert t5.value(0, 3) == 1  # principal
    # j=2 is the quadratic character; dlog_2(2) = 1 so chi_2(2) = e(1/2) = -1
    assert abs(t5.value(2, 2) - (-1)) < 1e-12
    with pytest.raises(ValueError):
        t5.value(2, 0)
    with pytest.raises(ValueError):
        t5.value(4, 1)  # j outside [0, q-2]


def test_character_orthogonality():
    # sum_a chi_j(a) = 0 for j != 0, checked for q = 11 and exhaustively to 499
    t11 = character_table(11)
    for j in range(1, 10):
        assert abs(sum(t11.value(j, a) for a in range(1, 11))) < 1e-9
    for q in primes_in_range(3, 499):
        t = character_table(q)
        n = q - 1
        sums = t.roots[np.outer(np.arange(1, n), t.dlog[1:q]) % n].sum(axis=1)
        assert float(np.abs(sums).max()) < 1e-9


def test_character_unit_modulus():
    t = character_table(13)
    for j in range(12):
        vals = t.character_values(j)[1:]
        assert np.allclose(np.abs(vals), 1.0)


def test_subgroups_q5():
    subs = _subgroups(5)
    assert [s.index for s in subs] == [1, 2, 4]
    by_index = {s.index: s.elements.elements() for s in subs}
    assert by_index[2] == [1, 4]  # the squares mod 5
    assert by_index[2] == sorted({x * x % 5 for x in range(1, 5)})
    assert by_index[4] == [1]


def test_subgroups_q7_indices():
    assert [s.index for s in _subgroups(7)] == [1, 2, 3, 6]


def test_subgroups_q13():
    # index m subgroup is {x : x^((q-1)/m) = 1}; the cube roots of 1 are the
    # ORDER-3 subgroup {1,3,9} (index 4), while the cubes {1,5,8,12} have index 3
    by_index = {s.index: s.elements.elements() for s in _subgroups(13)}
    assert by_index[3] == sorted({pow(y, 3, 13) for y in range(1, 13)}) == [1, 5, 8, 12]
    assert by_index[4] == [x for x in range(1, 13) if pow(x, 3, 13) == 1] == [1, 3, 9]
    for m, els in by_index.items():
        assert len(els) == 12 // m
        assert all(pow(x, 12 // m, 13) == 1 for x in els)


def test_subgroup_closure_exhaustive():
    # products of element pairs stay inside, every subgroup, every prime q <= 499
    for q in primes_in_range(3, 499):
        for sub in _subgroups(q):
            els = np.array(sub.elements.elements(), dtype=np.int64)
            member = np.zeros(q, dtype=bool)
            member[els] = True
            assert member[np.multiply.outer(els, els) % q].all()


def test_subgroup_of_index_rejects_nondivisor():
    with pytest.raises(ValueError):
        subgroup_of_index(7, 4)


_RAW_Q_ENTRIES = {
    f.__name__: f
    for f in (
        character_table,
        CharacterTable,
        inverse_table,
        prime_residues,
        coset_scan_report,
        density_report,
        kloosterman_row,
        weil_audit,
    )
}
_RAW_Q_ENTRIES.update(
    subgroup_of_index=lambda q: subgroup_of_index(q, 1),
    # {1, 2}, not the singleton {1}: the power-residue certificate would refute
    # it at q = 4, 15 and 1000003 with no table, so the modulus check must run first
    is_coset_trapped=lambda q: is_coset_trapped(ResidueSet(q, 0b110)),
    coset_obstruction=lambda q: coset_obstruction(ResidueSet(q, 0b110)),
    mod_inverse=lambda q: mod_inverse(2, q),
    kloosterman=lambda q: kloosterman(1, 1, q),
    additive_transform=lambda q: additive_transform(np.zeros(q), q),
)


@pytest.mark.parametrize("q", (1, 4, 15, 1000003))  # 1000003 is prime, above the ceiling
@pytest.mark.parametrize("entry", sorted(_RAW_Q_ENTRIES))
def test_raw_modulus_rejected_at_every_entry(entry, q):
    with pytest.raises(ValueError, match="modulus"):
        _RAW_Q_ENTRIES[entry](q)
