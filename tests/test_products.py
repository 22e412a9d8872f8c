import contextlib
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import products
from primecover.coset import coset_obstruction_brute, is_coset_trapped
from primecover.modular import character_table, mod_inverse, primes_in_range
from primecover.primes import prime_residues
from primecover.products import (
    COVER_FACTORS,
    RULE_COMPLETE,
    density_report,
    expansion_schedule,
    freiman_dichotomy,
    iterated_product,
    iterated_product_chain,
    product_set,
    product_set_naive,
    ruzsa_growth_check,
    six_fold_cover,
    solution_count_naive,
    solution_counts_all,
)
from primecover.residues import ResidueSet, from_positions, positions


def test_product_set_worked_example_q5():
    p = prime_residues(5, 1)
    assert p.elements() == [2, 3]
    assert product_set(p, p).elements() == [1, 4]


def test_product_identity_and_growth():
    a = ResidueSet.from_elements(11, [2, 5, 7])
    one = ResidueSet.from_elements(11, [1])
    assert product_set(a, one) == a
    b = ResidueSet.from_elements(11, [3, 4])
    assert len(product_set(a, b)) >= max(len(a), len(b))


def test_product_set_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        product_set(ResidueSet.from_elements(5, [2]), ResidueSet.from_elements(7, [2]))


@settings(deadline=None, max_examples=80)
@given(
    st.sets(st.integers(min_value=1, max_value=100), min_size=1, max_size=60),
    st.sets(st.integers(min_value=1, max_value=100), min_size=1, max_size=60),
)
def test_product_set_fast_matches_naive(xs, ys):
    a = ResidueSet.from_elements(101, xs)
    b = ResidueSet.from_elements(101, ys)
    fast = product_set(a, b)
    assert fast == product_set_naive(a, b)


def _rotate(bits, t, n):
    """bits rotated left by t mod n, independent of the engine's rotation hook."""
    return ((bits << t) | (bits >> (n - t))) & ((1 << n) - 1)


def _full_rotation(e1, e2, n):
    """The rotation loop over every element of e1, with no early exit."""
    acc = 0
    for t in positions(e1, n).tolist():
        acc |= _rotate(e2, t, n)
    return acc


def test_product_set_fft_route_matches_rotations():
    # force the FFT sumset and compare against the rotation accumulation
    rng = random.Random(21)
    for q in (1009, 2039, 10007):
        table = character_table(q)
        n = q - 1
        for size in (n // 7, n // 3, n // 2):
            a = ResidueSet.from_elements(q, rng.sample(range(1, q), size))
            b = ResidueSet.from_elements(q, rng.sample(range(1, q), size))
            ea, eb = table.to_dlog(a), table.to_dlog(b)
            assert products._sumset_exp_fft(ea, eb, n) == _full_rotation(ea, eb, n)


@contextlib.contextmanager
def _counted_paths():
    """Count the rotations, big-int or byte-sliced, and FFT-sumset calls made inside the block."""
    with (
        mock.patch.object(products, "_rotl", wraps=products._rotl) as rotl,
        mock.patch.object(products, "_rotl_bytes", wraps=products._rotl_bytes) as sliced,
        mock.patch.object(products, "_sumset_exp_fft", wraps=products._sumset_exp_fft) as fft,
    ):
        yield lambda: rotl.call_count + sliced.call_count, fft


def _traced_sumset(e1, e2, n):
    """_sumset_exp(e1, e2, n), its rotation count and its FFT-sumset call count."""
    with _counted_paths() as (rotations, fft):
        out = products._sumset_exp(e1, e2, n)
    return out, rotations(), fft.call_count


def _random_mask(rng, n, size, step=1):
    """A mask of `size` random positions among the multiples of `step` below n."""
    return from_positions(step * rng.choice(n // step, size, replace=False), n)


# q - 1 = 2, 4, 16, 2 * 1019: every operand pair below the pigeonhole size rotates in full;
# each case runs on both rotation paths; at q = 3, 5 the byte path's tail byte is its only byte,
# and at q = 17 its last byte is full
@pytest.mark.parametrize("q", (3, 5, 17, 2039))
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), da=st.floats(0, 1), db=st.floats(0, 1), square=st.booleans())
def test_sumset_full_rotation_vs_oracle(q, seed, da, db, square):
    n = q - 1
    rng = np.random.default_rng(seed)
    units = 1 + np.arange(n)
    a = ResidueSet.from_elements(q, units[rng.random(n) < da].tolist())
    b = a if square else ResidueSet.from_elements(q, units[rng.random(n) < db].tolist())
    table = character_table(q)
    ea, eb = table.to_dlog(a), table.to_dlog(b)
    budget = products._rotation_budget(n)
    for byte_slice_bits in (products._BYTE_SLICE_BITS, 0):
        with (
            mock.patch.object(products, "_BYTE_SLICE_BITS", byte_slice_bits),
            mock.patch.object(products, "_rotation_budget", lambda n: budget),
        ):
            out, rotations, fft = _traced_sumset(ea, eb, n)
        assert fft == 0
        assert out == _full_rotation(ea, eb, n)
        if len(a) + len(b) > n:  # pigeonhole exit
            assert rotations == 0 and out == (1 << n) - 1
        else:
            assert rotations <= min(len(a), len(b)) <= budget
    if q < 7:
        assert product_set(a, b) == product_set_naive(a, b)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), square=st.booleans())
def test_sumset_probe_fills_without_fft(seed, square):
    n = 10006
    rng = np.random.default_rng(seed)
    ea = _random_mask(rng, n, 3000)
    eb = ea if square else _random_mask(rng, n, 3000)
    out, rotations, fft = _traced_sumset(ea, eb, n)
    assert out == (1 << n) - 1 == _full_rotation(ea, eb, n)
    assert fft == 0
    assert 0 < rotations < products._rotation_budget(n) < 3000


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1100, 3000), square=st.booleans())
def test_sumset_probe_falls_back_to_fft(seed, size, square):
    # even discrete logs are the index-2 subgroup: the sumset never fills the group
    n = 10006
    rng = np.random.default_rng(seed)
    ea = _random_mask(rng, n, size, step=2)
    eb = ea if square else _random_mask(rng, n, size, step=2)
    out, rotations, fft = _traced_sumset(ea, eb, n)
    assert out == _full_rotation(ea, eb, n)
    assert (rotations, fft) == (2 * n.bit_length() * n // size, 1)


def test_sumset_probe_rotates_estimate_then_fft():
    # index-2-subgroup operands past the budget never fill: the probe makes every
    # rotation of the fill estimate, then one FFT computes the sumset
    n = 100002
    rng = np.random.default_rng(5)
    ea, eb = _random_mask(rng, n, 10000, step=2), _random_mask(rng, n, 10000, step=2)
    estimate = 2 * n.bit_length() * n // 10000
    assert estimate == 340 < products._rotation_budget(n) < 10000
    for e1, e2 in ((ea, ea), (ea, eb)):
        out, rotations, fft = _traced_sumset(e1, e2, n)
        assert (rotations, fft) == (estimate, 1)
        assert out == _full_rotation(e1, e2, n)


def test_rotation_budget_exceeds_fill_estimate():
    # an operand past the budget has a fill estimate 2 * log2(n) * n / |B| below the budget
    budget = products._rotation_budget
    assert all(budget(n) ** 2 > 2 * n.bit_length() * n for n in range(2, 10**6))


@settings(deadline=None, max_examples=6)
@given(
    seed=st.integers(0, 2**32 - 1),
    size_a=st.integers(1100, 3000),
    size_b=st.integers(1100, 3000),
)
def test_sumset_within_budget_rotates(seed, size_a, size_b):
    # past 1024 members but within the byte path's budget: the operands rotate, never the FFT
    n = 100002
    rng = np.random.default_rng(seed)
    ea, eb = _random_mask(rng, n, size_a), _random_mask(rng, n, size_b)
    assert max(size_a, size_b) <= products._rotation_budget(n)
    for e1, e2 in ((ea, ea), (ea, eb)):
        out, rotations, fft = _traced_sumset(e1, e2, n)
        assert out == _full_rotation(e1, e2, n)
        assert fft == 0 and 0 < rotations <= min(e1.bit_count(), e2.bit_count())


def test_prime_pair_products_near_ceiling_rotate():
    # P_1 * P_1 at q = 999983 fills the group in ~200 rotations, without the FFT
    q = 999983
    p = prime_residues(q)
    with _counted_paths() as (rotations, fft):
        pp = product_set(p, p)
    assert fft.call_count == 0 and 0 < rotations() < products._rotation_budget(q - 1)
    table = character_table(q)
    e = table.to_dlog(p)
    assert pp == table.from_dlog(products._sumset_exp_fft(e, e, q - 1))


# q - 1 = 2 * 16421, 4 * 8233, 2 * 499991 (n = 2, 4, 6 mod 8), all on the byte path: P_1 fills
# within the probe; P_1/10 (9,592 members at q = 999983) rotates without the FFT; index-2-subgroup
# operands never fill, so within the budget they rotate in full, and past it they make every
# rotation of the fill estimate, then fall back to the FFT
@pytest.mark.parametrize("q", (32843, 32933, 999983))
@pytest.mark.parametrize("kind", ("P_1", "P_1/10", "index-2", "index-2-within-budget"))
def test_byte_sliced_sumset_vs_oracles(q, kind):
    n = q - 1
    assert n >= products._BYTE_SLICE_BITS
    budget = products._rotation_budget(n)
    table = character_table(q)
    rng = np.random.default_rng(q)
    if kind.startswith("index-2"):
        size = 1500 if kind == "index-2-within-budget" else 3000 if q < 10**5 else 40000
        ea, eb = _random_mask(rng, n, size, step=2), _random_mask(rng, n, size, step=2)
    elif kind == "P_1":
        ea = table.to_dlog(prime_residues(q))
        eb = _random_mask(rng, n, ea.bit_count())
    else:
        ea, eb = table.to_dlog(prime_residues(q, "1/10")), table.to_dlog(prime_residues(q))
    for e1, e2 in ((ea, ea), (ea, eb)):
        out, rotations, fft = _traced_sumset(e1, e2, n)
        assert out == products._sumset_exp_fft(e1, e2, n)
        if q < 10**5:
            assert out == _full_rotation(e1, e2, n)
        if kind == "index-2":
            assert size > budget
            assert (rotations, fft) == (2 * n.bit_length() * n // size, 1)
        elif kind == "index-2-within-budget":
            assert (rotations, fft) == (size, 0)
        else:
            assert fft == 0 and 0 < rotations <= min(e1.bit_count(), budget)


def test_fast_len_vs_scipy_exhaustive():
    from scipy.fft import next_fast_len

    assert [products._fast_len(m) for m in range(1, 5001)] == [
        next_fast_len(m, real=True) for m in range(1, 5001)
    ]


@settings(deadline=None, max_examples=300)
@given(m=st.integers(1, 2 * 10**6))
def test_fast_len_vs_scipy_sampled(m):
    from scipy.fft import next_fast_len

    assert products._fast_len(m) == next_fast_len(m, real=True)


def _cyclic_oracle(a, b):
    n = len(a)
    linear = np.convolve(a, b)  # exact on int64
    out = linear[:n].copy()
    out[: n - 1] += linear[n:]
    return out


# q - 1 = 2, 4, 12, 2 * 1019, 2 * 5003; at q = 3 the padded length is 3
@pytest.mark.parametrize("q", (3, 5, 13, 2039, 10007))
@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), da=st.floats(0, 1), db=st.floats(0, 1))
def test_cyclic_counts_vs_integer_convolution(q, seed, da, db):
    from primecover.products import _cyclic_counts

    n = q - 1
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < da).astype(np.int64)
    b = (rng.random(n) < db).astype(np.int64)
    fa, fb = a.astype(float), b.astype(float)
    square = _cyclic_counts(fa, fa, int(a.sum()) ** 2)  # one-transform branch
    assert square.dtype == np.int64
    assert square.tolist() == _cyclic_oracle(a, a).tolist()
    assert _cyclic_counts(fa, fa.copy(), int(a.sum()) ** 2).tolist() == square.tolist()
    pair = _cyclic_counts(fa, fb, int(a.sum()) * int(b.sum()))
    assert pair.tolist() == _cyclic_oracle(a, b).tolist()
    with pytest.raises(AssertionError):
        _cyclic_counts(fa, fb, int(a.sum()) * int(b.sum()) + 1)


@pytest.mark.parametrize("q", (3, 5, 13, 2039, 10007))
@pytest.mark.parametrize("seed", range(4))
def test_cyclic_counts_signed_weights_vs_integer_convolution(q, seed):
    """theorem2's shape: signed integer weights against nonnegative pair counts."""
    from primecover.products import _cyclic_counts

    n = q - 1
    rng = np.random.default_rng(seed)
    w = rng.integers(-3, 3, n)  # mean -1/2: the convolution has entries of both signs
    r = rng.integers(0, 2 * seed + 2, n)
    got = _cyclic_counts(w.astype(float), r.astype(float), int(w.sum()) * int(r.sum()))
    want = _cyclic_oracle(w, r)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert (want <= 0).any()


def test_product_commutative_associative():
    rng = random.Random(3)
    for q in (11, 61, 101):
        for _ in range(10):
            a = ResidueSet.from_elements(q, rng.sample(range(1, q), rng.randint(1, q - 1)))
            b = ResidueSet.from_elements(q, rng.sample(range(1, q), rng.randint(1, q - 1)))
            c = ResidueSet.from_elements(q, rng.sample(range(1, q), rng.randint(1, q - 1)))
            assert product_set(a, b) == product_set(b, a)
            assert product_set(product_set(a, b), c) == product_set(a, product_set(b, c))


def test_iterated_product_examples_q5():
    p = prime_residues(5, 1)
    assert iterated_product(p, 1) == p
    assert iterated_product(p, 3).elements() == [2, 3]
    assert iterated_product(p, 4).elements() == [1, 4]
    with pytest.raises(ValueError):
        iterated_product(p, 0)


def test_iterated_product_binary_vs_chain():
    rng = random.Random(4)
    for q in (11, 101, 499):
        for _ in range(5):
            p = ResidueSet.from_elements(q, rng.sample(range(1, q), rng.randint(1, 8)))
            for k in range(1, 9):
                assert iterated_product(p, k) == iterated_product_chain(p, k)


def _invert(a: ResidueSet) -> ResidueSet:
    table = character_table(a.q)
    return table.from_dlog(products.invert_set(table.to_dlog(a), table.order))


def _quotient(a: ResidueSet) -> ResidueSet:
    table = character_table(a.q)
    return table.from_dlog(products.quotient_set(table.to_dlog(a), table.order))


def _brute_inverse(a: ResidueSet) -> ResidueSet:
    return ResidueSet.from_elements(a.q, [mod_inverse(x, a.q) for x in a])


def test_quotient_set_examples():
    p = prime_residues(5, 1)
    assert _quotient(p).elements() == [1, 4]  # 2*inv(3)=4, 3*inv(2)=4
    g = ResidueSet.full_units(7)
    assert _quotient(g) == g
    # symmetry: x in Q <=> x^-1 in Q
    a = ResidueSet.from_elements(13, [2, 5, 6])
    qs = _quotient(a)
    assert _invert(qs) == qs
    assert 1 in qs


NEGATION_MODULI = (3, 5, 11, 13, 101, 2039)  # 2039 - 1 = 2 * 1019


@pytest.mark.parametrize("q", NEGATION_MODULI)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_invert_set_vs_mod_inverse(q, data):
    xs = data.draw(st.sets(st.integers(min_value=1, max_value=q - 1)))
    a = ResidueSet.from_elements(q, xs)
    assert _invert(a) == _brute_inverse(a)


@pytest.mark.parametrize("q", NEGATION_MODULI)
def test_mask_negation_edge_masks(q):
    n = q - 1
    assert products.invert_set(0, n) == 0
    assert products.invert_set((1 << n) - 1, n) == (1 << n) - 1
    for x in range(1, q):  # every singleton
        a = ResidueSet.from_elements(q, [x])
        assert _invert(a) == _brute_inverse(a)


@pytest.mark.parametrize("q", (11, 13))
def test_quotient_cover_vs_naive_every_subset(q):
    table = character_table(q)
    for e in range(1, 1 << table.order):
        a = table.from_dlog(e)
        naive = product_set_naive(a, _brute_inverse(a))
        assert _quotient(a) == naive
        assert freiman_dichotomy(table, e).quotient_covers == naive.covers_units


def test_solution_count_examples():
    p = prime_residues(5, 1)
    assert solution_count_naive(p, 4) == 2  # (2,2), (3,3)
    assert solution_count_naive(p, 2) == 0
    with pytest.raises(ValueError):
        solution_count_naive(p, 5)


def test_solution_count_total_and_naive():
    rng = random.Random(6)
    for q in (3, 5, 13, 101):
        p = ResidueSet.from_elements(q, rng.sample(range(1, q), q // 3))
        counts = solution_counts_all(p)
        assert int(counts.sum()) == len(p) ** 2
        for a in range(1, q):
            assert counts[a] == solution_count_naive(p, a)


def test_freiman_full_group():
    g = ResidueSet.full_units(7)
    table = character_table(7)
    v = freiman_dichotomy(table, table.to_dlog(g))
    assert v.quotient_covers and not v.trapped and v.holds


def test_freiman_trapped_flagged():
    squares = ResidueSet.from_elements(11, [x * x % 11 for x in range(1, 11)])
    table = character_table(11)
    v = freiman_dichotomy(table, table.to_dlog(squares))
    assert v.trapped  # proper subgroup: hypothesis fails, flagged not raised


def test_freiman_exhaustive_q11():
    table = character_table(11)
    verdicts = [freiman_dichotomy(table, e) for e in range(1, 1 << table.order)]
    untrapped = [v for v in verdicts if not v.trapped]
    assert len(untrapped) == 956
    assert all(v.holds for v in untrapped)


@pytest.mark.parametrize("q,untrapped", [(11, 956), (13, 3942)])
def test_dichotomy_mask_enumeration_vs_brute_cosets(q, untrapped):
    # every nonempty mask is one subset (t -> g^t is a bijection); trapped as the coset sweep says
    table = character_table(q)
    seen, count = set(), 0
    for e in range(1, 1 << table.order):
        a = table.from_dlog(e)
        seen.add(a.bits)
        trapped = freiman_dichotomy(table, e).trapped
        assert trapped == (coset_obstruction_brute(a) is not None) == is_coset_trapped(a)
        count += not trapped
    assert len(seen) == (1 << table.order) - 1
    assert count == untrapped


def test_ruzsa_full_group_equality():
    g = ResidueSet.full_units(101)
    rep = ruzsa_growth_check(g)
    assert rep.verdict == "pass"
    assert rep.computed == pytest.approx(100.0)  # |G*G| = |G| = sqrt(1)*|G|


def test_ruzsa_random_and_small_case():
    rng = random.Random(9)
    q = 101
    done = 0
    while done < 100:
        size = rng.randint(1, q - 1)
        a = ResidueSet.from_elements(q, rng.sample(range(1, q), size))
        if not _quotient(a).covers_units:
            continue
        rep = ruzsa_growth_check(a)
        assert rep.verdict == "pass"
        # |A| <= (4/9)|G| and A*A^-1 = G force 3/2 growth
        if 9 * len(a) <= 4 * (q - 1):
            assert 2 * len(product_set(a, a)) >= 3 * len(a)
        done += 1


def test_ruzsa_rejects_noncovering():
    a = ResidueSet.from_elements(101, [1, 2])
    with pytest.raises(ValueError):
        ruzsa_growth_check(a)


def test_expansion_full_group_trace():
    g = ResidueSet.full_units(13)
    tr = expansion_schedule(g)
    assert len(tr.steps) == 1
    assert tr.final_exponent == 1
    assert tr.steps[0].rule == RULE_COMPLETE
    assert tr.theoretical_exponent == 8


def test_expansion_monotone_sizes_and_cover():
    p = prime_residues(101, 1)
    tr = expansion_schedule(p)
    sizes = tr.sizes
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 100
    assert iterated_product(p, tr.final_exponent).covers_units


def test_expansion_rejects_trapped():
    p5 = prime_residues(5, 1)
    assert is_coset_trapped(p5)
    with pytest.raises(ValueError):
        expansion_schedule(p5)


def test_expansion_regression_q10007():
    # recorded on first run: the primes below q already square to the whole group
    p = prime_residues(10007, 1)
    tr = expansion_schedule(p)
    assert tr.final_exponent == 2
    assert tr.final_exponent <= 48


def test_min_exponent_is_least_cover_of_iterated_product():
    # every prime 5 <= q <= 2000 x eta in {1, q^-1/4, q^-1/2, q^-3/4, 4/q}, untrapped sets only:
    # P^(k_min) covers and P^(k_min - 1) does not, by square-and-multiply (covering is monotone)
    cases = 0
    for q in primes_in_range(5, 2000):
        for eta in ("1", "q^-1/4", "q^-1/2", "q^-3/4", Fraction(4, q)):
            p = prime_residues(q, eta)
            if not p or is_coset_trapped(p):
                continue
            k = expansion_schedule(p).min_exponent
            assert iterated_product(p, k).covers_units, (q, eta)
            assert k == 1 or not iterated_product(p, k - 1).covers_units, (q, eta)
            cases += 1
    assert cases > 1000


@pytest.mark.parametrize("q", [10039, 100019])
def test_min_exponent_of_two_generating_primes_is_q_minus_2(q):
    # P = {2, 3} untrapped means 2/3 generates the units, so P^(k) = 3^k {(2/3)^i : i <= k}
    # has k + 1 members until it fills the q - 1 units, at k = q - 2
    p = prime_residues(q, Fraction(4, q))
    assert p.elements() == [2, 3] and not is_coset_trapped(p)
    tr = expansion_schedule(p)
    assert tr.min_exponent == q - 2
    assert tr.final_exponent == 1 << (q - 2).bit_length()


def _six_fold_chain(p):
    """six_fold_cover's definition, by a product_set chain and ResidueSet unions."""
    union = cur = p
    for k in range(1, COVER_FACTORS + 1):
        if k > 1:
            cur = product_set(cur, p)
            union = union | cur
        if union.covers_units:
            return k, union
    return None, union


def test_six_fold_cover_vs_product_set_chain():
    for q in primes_in_range(3, 2000):
        for eta in ("1", "q^-1/2"):
            p = prime_residues(q, eta)
            assert six_fold_cover(p) == _six_fold_chain(p), (q, eta)


def test_density_report_q5():
    rep = density_report(5, 1)
    assert rep.computed == pytest.approx(0.4)  # {1,4} over q = 5
    assert rep.details["pair_product_count"] == 2
    assert rep.bound == pytest.approx(1 / 64)  # epsilon = 1/4 benchmark


def test_density_benchmark_formula():
    rep = density_report(101, "q^-1/8")  # epsilon = 1/4 - 1/8
    assert rep.bound == pytest.approx((2 * 0.125 / 3.5) ** 2)
