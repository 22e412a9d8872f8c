import cmath
import math
import tracemalloc

import numpy as np
import pytest

from primecover import fourier
from primecover.fourier import (
    SolutionCountReport,
    additive_transform,
    additive_transform_naive,
    kloosterman,
    kloosterman_row,
    l1_spectrum_norm,
    mult_convolve,
    mult_convolve_naive,
    mult_transform,
    mult_transform_naive,
    parseval_gap_additive,
    parseval_gap_multiplicative,
    solution_count_fourier,
    sup_nontrivial_mult_coeff,
    weil_audit,
)
from primecover.modular import character_table, inverse_table
from primecover.primes import prime_residues
from primecover.sieves import SieveParams, SieveWeights, linear_lower, selberg_upper
from test_sieves import dirac_weights


def _rand_fn(rng, q, real=False):
    f = np.zeros(q, dtype=np.complex128)
    f[1:] = rng.normal(size=q - 1)
    if not real:
        f[1:] += 1j * rng.normal(size=q - 1)
    return f


def test_additive_transform_delta_at_zero():
    q = 7
    f = np.zeros(q)
    f[0] = 1.0
    spec = additive_transform(f, q)
    assert np.allclose(spec, np.ones(q))


def test_additive_transform_constant():
    q = 11
    spec = additive_transform(np.ones(q), q)
    assert spec[0] == pytest.approx(q)
    assert np.abs(spec[1:]).max() < 1e-9


def test_additive_transform_two_point():
    q = 5
    f = np.zeros(q)
    f[1] = f[2] = 1.0
    spec = additive_transform(f, q)
    expected = cmath.exp(-2j * cmath.pi / 5) + cmath.exp(-4j * cmath.pi / 5)
    assert spec[1] == pytest.approx(expected, abs=1e-12)


def test_additive_fast_vs_naive():
    rng = np.random.default_rng(1)
    for q in (5, 101, 499):
        f = _rand_fn(rng, q)
        fast = additive_transform(f, q)
        slow = additive_transform_naive(f, q)
        assert np.abs(fast - slow).max() < 1e-9 * max(1.0, np.abs(slow).max())


def test_mult_transform_constant():
    q = 11
    table = character_table(q)
    f = np.zeros(q)
    f[1:] = 1.0
    spec = mult_transform(f, table)
    assert spec[0] == pytest.approx(q - 1)
    assert np.abs(spec[1:]).max() < 1e-9


def test_mult_transform_prime_indicator_q5():
    table = character_table(5)
    f = np.zeros(5)
    for p in prime_residues(5, 1):
        f[p] = 1.0
    spec = mult_transform(f, table)
    assert spec[0] == pytest.approx(2.0)  # |P_1| = 2


def test_mult_transform_fast_vs_naive():
    rng = np.random.default_rng(2)
    for q in (13, 101):
        table = character_table(q)
        f = _rand_fn(rng, q)
        fast = mult_transform(f, table)
        slow = mult_transform_naive(f, table)
        assert np.abs(fast - slow).max() < 1e-9 * max(1.0, np.abs(slow).max())


def test_mult_transform_rejects_mass_at_zero():
    table = character_table(7)
    f = np.ones(7)
    with pytest.raises(ValueError):
        mult_transform(f, table)


def test_parseval_random():
    rng = np.random.default_rng(3)
    table = character_table(101)
    for _ in range(20):
        f = _rand_fn(rng, 101)
        assert parseval_gap_additive(f, 101) < 1e-9
        assert parseval_gap_multiplicative(f, table) < 1e-9


def test_kloosterman_value_q5():
    # n = 1..4: e(2/5) + 1 + 1 + e(8/5); equals 2 + 2*cos(4*pi/5)
    v = kloosterman(1, 1, 5)
    assert v.real == pytest.approx(0.3819660112501051, abs=1e-9)
    assert abs(v.imag) < 1e-9


def test_kloosterman_rejects_degenerate():
    with pytest.raises(ValueError):
        kloosterman(0, 1, 5)
    with pytest.raises(ValueError):
        kloosterman(1, 5, 5)


def test_kloosterman_symmetry_and_reduction():
    # Kl(r,s) = Kl(s,r) (n <-> n^-1) and Kl(r,s) = Kl(1, rs) (n -> r^-1 n)
    import random

    rng = random.Random(5)
    for _ in range(100):
        q = rng.choice([7, 101, 211])
        r = rng.randint(1, q - 1)
        s = rng.randint(1, q - 1)
        a = kloosterman(r, s, q)
        assert a == pytest.approx(kloosterman(s, r, q), abs=1e-9)
        assert a == pytest.approx(kloosterman_row(q)[r * s % q], abs=1e-9)
        assert abs(a.imag) < 1e-6


def test_weil_exhaustive_small():
    for q in (5, 7, 101):
        rep = weil_audit(q)
        assert rep.verdict == "pass"
        assert rep.computed <= 2 * math.sqrt(q) + 1e-6


def _per_r_weil(q):
    """Worst |Kl2|, its pair and the largest |imaginary part|, one q x q index per r."""
    inv = inverse_table(q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    ns = np.arange(1, q)
    worst, worst_pair, max_imag = 0.0, None, 0.0
    for r in range(1, q):
        idx = (r * ns[None, :] + np.arange(1, q)[:, None] * inv[1:][None, :]) % q
        sums = roots[idx].sum(axis=1)
        max_imag = max(max_imag, float(np.abs(sums.imag).max()))
        mags = np.abs(sums)
        if float(mags.max()) > worst:
            worst, worst_pair = float(mags.max()), (r, int(mags.argmax()) + 1)
    return worst, worst_pair, max_imag


@pytest.mark.parametrize("q", [5, 7, 101, 211, 307])  # 307: two blocks of s rows
def test_weil_audit_is_bit_identical_to_per_r_formula(q):
    # a negative tolerance fails every audit, so the report names its worst pair
    rep = weil_audit(q, tol=-1.0)
    assert (rep.computed, rep.witness, rep.details["max_imag"]) == _per_r_weil(q)


def test_weil_audit_memory_is_one_index_plus_a_block():
    # the s n^-1 index is 2 MB at q = 499; a (q-1)^2 complex gather per r would add 4 MB
    tracemalloc.start()
    try:
        weil_audit(499)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("q", [5, 7, 101, 1009])
def test_kloosterman_row_is_bit_identical_to_one_shot_grid(q):
    inv = inverse_table(q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    idx = (np.arange(1, q)[None, :] + np.arange(q)[:, None] * inv[1:][None, :]) % q
    assert np.array_equal(kloosterman_row(q).view(np.float64), roots[idx].sum(axis=1).view(np.float64))


def test_kloosterman_moment_identities():
    # exact envelopes of the whole family: sum_u Kl2(1,u) = 1 and
    # sum_u Kl2(1,u)^2 = q^2 - q - 1 (orthogonality of additive characters)
    for q in (5, 7, 101, 211):
        row = kloosterman_row(q)[1:]
        assert complex(row.sum()) == pytest.approx(1.0, abs=1e-6)
        assert complex((row**2).sum()) == pytest.approx(q * q - q - 1, abs=1e-4)


def test_convolution_identity_element():
    q = 11
    table = character_table(q)
    delta1 = np.zeros(q)
    delta1[1] = 1.0
    conv = mult_convolve(delta1, delta1, table)
    assert conv[1] == pytest.approx(1.0, abs=1e-9)
    assert np.abs(np.delete(conv, 1)).max() < 1e-9


def test_convolution_prime_indicator_q5():
    # pairs (2,2),(3,3) land at 4; (2,3),(3,2) at 1
    table = character_table(5)
    f = np.zeros(5)
    f[2] = f[3] = 1.0
    conv = mult_convolve(f, f, table).real
    assert conv[1] == pytest.approx(2.0, abs=1e-9)
    assert conv[4] == pytest.approx(2.0, abs=1e-9)
    assert abs(conv[2]) < 1e-9 and abs(conv[3]) < 1e-9


def test_convolution_real_nonneg_closure():
    rng = np.random.default_rng(7)
    q = 101
    table = character_table(q)
    f = np.zeros(q)
    g = np.zeros(q)
    f[1:] = rng.random(q - 1)
    g[1:] = rng.random(q - 1)
    conv = mult_convolve(f, g, table)
    assert np.abs(conv.imag).max() < 1e-9
    assert conv.real.min() > -1e-9


def test_convolution_fast_vs_naive_complex():
    rng = np.random.default_rng(8)
    for q in (13, 101, 499):
        table = character_table(q)
        f = _rand_fn(rng, q)
        g = _rand_fn(rng, q)
        fast = mult_convolve(f, g, table)
        slow = mult_convolve_naive(f, g, q)
        assert np.abs(fast - slow).max() < 1e-6 * np.abs(slow).max()


def _add_at_convolve(f, g, q):
    """The convolution's definition scattered one x at a time with np.add.at."""
    fa = np.asarray(f, dtype=np.complex128)
    ga = np.conj(np.asarray(g, dtype=np.complex128))
    out = np.zeros(q, dtype=np.complex128)
    ys = np.arange(1, q)
    for x in range(1, q):
        if fa[x] == 0:
            continue
        np.add.at(out, x * ys % q, fa[x] * ga[1:])
    return out


@pytest.mark.parametrize("q", [3, 5, 7, 13, 101, 499])
def test_convolution_oracle_is_bit_identical_to_add_at(q):
    rng = np.random.default_rng(q)
    for _ in range(3):
        f = _rand_fn(rng, q)
        f[rng.random(q) < 0.3] = 0  # x with f(x) = 0 is skipped, as in the reference
        g = _rand_fn(rng, q)
        want = _add_at_convolve(f, g, q).view(np.float64)
        assert np.array_equal(mult_convolve_naive(f, g, q).view(np.float64), want)


def test_convolution_spectral_identity_conjugated():
    # the verified form: (f*g)^(chi) = f^(chi) * conj(g^(conj chi));
    # the unconjugated guess f^ * conj(g^) genuinely fails for complex g
    rng = np.random.default_rng(9)
    q = 101
    n = q - 1
    table = character_table(q)
    f = _rand_fn(rng, q)
    g = _rand_fn(rng, q)
    ch = mult_transform(mult_convolve(f, g, table), table)
    fh = mult_transform(f, table)
    gh = mult_transform(g, table)
    true_form = fh * np.conj(gh[(-np.arange(n)) % n])
    scale = np.abs(ch).max()
    assert np.abs(ch - true_form).max() < 1e-9 * scale
    assert np.abs(ch - fh * np.conj(gh)).max() > 0.1 * scale


def test_solution_count_dirac_is_hyperbola_count():
    q = 1009
    x = 50
    w = dirac_weights(x)
    rep = solution_count_fourier(w, 7, q)
    inv = inverse_table(q)
    brute = sum(1 for n in range(1, x + 1) if (7 * inv[n]) % q <= x)
    assert rep.direct == pytest.approx(brute, abs=1e-9)
    assert rep.rel_gap < 1e-6


def test_solution_count_direct_vs_spectral():
    import random

    rng = random.Random(11)
    q = 1009
    w = selberg_upper(SieveParams(int(q**0.75), 0.2))
    for _ in range(5):
        a = rng.randint(1, q - 1)
        rep = solution_count_fourier(w, a, q)
        assert rep.rel_gap < 1e-6
        assert rep.offdiag_abs <= rep.offdiag_weil_bound * (1 + 1e-12)


def _per_trial_grid_count(w, a, q):
    """The hyperbola count's spectral side with a q x q index grid built for this one a."""
    what = np.fft.fft(w.residue_array(q))
    w0, tail = what[0], what[1:]
    kl = kloosterman_row(q)[np.multiply.outer(np.arange(1, q), np.arange(1, q) * a % q) % q]
    offdiag = (tail[:, None] * tail[None, :] * kl).sum()
    main = (q - 1) * w0 * w0
    spectral = (main + (-1.0) * (tail.sum() * w0) + (-1.0) * (w0 * tail.sum()) + offdiag) / q**2
    abs_tail = np.abs(tail)
    offdiag_abs = float((abs_tail[:, None] * abs_tail[None, :] * np.abs(kl)).sum()) / q**2
    return float(spectral.real), float((offdiag / q**2).real), offdiag_abs


@pytest.mark.parametrize("q", [101, 1009])
@pytest.mark.parametrize("a", ["1", "2", "q-1"])
def test_solution_count_shared_grid_is_bit_identical(q, a):
    # the a = 1 index grid with permuted rows must give the very same floats, not nearly
    a = {"1": 1, "2": 2, "q-1": q - 1}[a]
    w = selberg_upper(SieveParams(int(q**0.75), 0.2))
    rep = solution_count_fourier(w, a, q)
    assert (rep.spectral, rep.offdiag_exact, rep.offdiag_abs) == _per_trial_grid_count(w, a, q)


def _one_pass_solution_count(w, a, q):
    """The hyperbola count with both q x q term grids alive at once and the index rows permuted
    up front: the form the blocked one replaced, kept as its bit-for-bit oracle."""
    a = a % q
    inv = inverse_table(q)
    farr = w.residue_array(q)
    direct = float((farr * farr[(a * inv) % q])[1:].sum())
    what = np.fft.fft(farr)
    w0, tail = what[0], what[1:]
    abs_tail = np.abs(tail)
    row = kloosterman_row(q)
    abs_row = np.abs(row)
    ns = np.arange(1, q)
    rows = (np.multiply.outer(ns, ns) % q)[ns * a % q - 1]
    terms = np.multiply.outer(tail, tail)
    abs_terms = np.multiply.outer(abs_tail, abs_tail)
    for lo in range(0, q - 1, 64):
        block = slice(lo, lo + 64)
        idx = rows[block].astype(np.intp)
        terms[block] *= row[idx]
        abs_terms[block] *= abs_row[idx]
    offdiag = terms.sum()
    cross = (-1.0) * (tail.sum() * w0)
    spectral = ((q - 1) * w0 * w0 + cross + cross + offdiag) / q**2
    spectral_real = float(spectral.real)
    return SolutionCountReport(
        q=q,
        a=a,
        direct=direct,
        spectral=spectral_real,
        offdiag_exact=float((offdiag / q**2).real),
        offdiag_abs=float(abs_terms.sum()) / q**2,
        offdiag_weil_bound=float(abs_tail.sum()) ** 2 * 2.0 * math.sqrt(q) / q**2,
        rel_gap=abs(direct - spectral_real) / max(1.0, abs(direct)),
    )


@pytest.mark.parametrize("q", [101, 1009, 2039])
def test_solution_count_blocked_matches_one_pass_bit_for_bit(q):
    # one q x q grid alive at a time, index rows gathered per block: the same floats, not nearly
    w = selberg_upper(SieveParams(int(q**0.75), 0.2))
    rng = np.random.default_rng(q)
    for a in [1, 2, q - 1, *rng.integers(3, q - 1, size=7).tolist()]:
        assert repr(solution_count_fourier(w, a, q)) == repr(_one_pass_solution_count(w, a, q))


@pytest.mark.parametrize("q", [3, 5, 101, 1009, 2039])
def test_unit_product_grid_matches_outer_product(q):
    ns = np.arange(1, q)
    grid = fourier._unit_product_grid(q)
    assert grid.dtype == np.int16
    assert np.array_equal(grid, np.multiply.outer(ns, ns) % q)


def test_solution_count_rejects_bad_inputs():
    q = 1009
    w = selberg_upper(SieveParams(int(q**0.75), 0.2))
    with pytest.raises(ValueError):
        solution_count_fourier(w, 0, q)
    with pytest.raises(ValueError):
        solution_count_fourier(dirac_weights(2000), 3, q)  # x >= q


def test_grid_routines_reject_q_above_budget_before_allocating(monkeypatch):
    # 10007 is a prime above GRID_MAX_MODULUS: refused before a table or a q x q grid exists
    def no_table(q):
        raise AssertionError("character table built before the budget check")

    monkeypatch.setattr(fourier, "character_table", no_table)
    monkeypatch.setattr(fourier, "_unit_product_grid", lambda q: pytest.fail("grid built"))
    q = 10007
    w = selberg_upper(SieveParams(int(q**0.75), 0.2))
    for call in (
        lambda: kloosterman_row(q),
        lambda: weil_audit(q),
        lambda: solution_count_fourier(w, 3, q),
        lambda: mult_convolve_naive(np.zeros(q), np.zeros(q), q),
    ):
        with pytest.raises(ValueError, match="q x q"):
            call()


def test_solution_count_checks_the_unit_before_the_grid(monkeypatch):
    monkeypatch.setattr(fourier, "_unit_product_grid", lambda q: pytest.fail("grid built"))
    w = selberg_upper(SieveParams(int(101**0.75), 0.2))
    with pytest.raises(ValueError, match="unit"):
        solution_count_fourier(w, 202, 101)


def test_l1_norm_degenerate_delta():
    # lambda tuned so w = delta at n=1: unimodular spectrum, L = q - 1 exactly
    q = 101
    params = SieveParams(4, 0.2)
    w = SieveWeights(params, "upper", {1: 1.0, 2: -1.0, 3: -1.0})
    assert list(w.weight_array()[1:]) == [1.0, 0.0, 0.0, 0.0]
    rep = l1_spectrum_norm(w, q)
    assert rep.computed == pytest.approx(q - 1, rel=1e-12)


def test_l1_norm_requires_x_below_q():
    w = selberg_upper(SieveParams(200, 0.2))
    with pytest.raises(ValueError):
        l1_spectrum_norm(w, 101)
    rep = l1_spectrum_norm(w, 1009)
    assert rep.verdict == "recorded"
    assert rep.computed > 0


def test_sup_mult_coeff_small():
    q = 499
    w = linear_lower(SieveParams(int(q**0.9), 0.15))
    rep = sup_nontrivial_mult_coeff(w, q)
    assert rep.verdict == "pass"  # the prefix-sum clause is hard
    assert rep.details["prefix_max"] <= rep.details["prefix_bound"] + 1e-6
    with pytest.raises(ValueError):
        sup_nontrivial_mult_coeff(linear_lower(SieveParams(600, 0.15)), 499)


def test_sup_mult_coeff_zero_weights():
    q = 101
    w = SieveWeights(SieveParams(50, 0.15), "lower", {})
    rep = sup_nontrivial_mult_coeff(w, q)
    assert rep.computed == 0.0


def test_sup_mult_coeff_x_equal_q_wraparound():
    # x = q is allowed; the n = q term lands on residue 0 and is dropped
    q = 101
    w = linear_lower(SieveParams(q, 0.15))
    farr = w.residue_array(q)
    warr = w.weight_array()
    assert farr[1] == pytest.approx(warr[1])
    assert farr[0] == pytest.approx(warr[q])  # wrapped mass, zeroed by the audit
    rep = sup_nontrivial_mult_coeff(w, q)
    assert rep.verdict == "pass"
