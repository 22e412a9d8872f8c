import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primecover import audits, coset
from primecover.cli import main
from primecover.coset import (
    _rgamma,
    character_constant_on,
    coset_obstruction,
    coset_obstruction_brute,
    coset_scan_report,
    euler_product_constant,
    is_coset_trapped,
    omega_power_sum,
)
from primecover.modular import CharacterTable, character_table, divisors, primes_in_range
from primecover.primes import factor_sieve, prime_residues
from primecover.residues import ResidueSet, leading_positions
from test_primes import omega_table


def test_obstruction_worked_example_q5():
    p = prime_residues(5, 1)
    w = coset_obstruction(p)
    assert w is not None
    assert w.subgroup.index == 2
    assert w.subgroup.elements.elements() == [1, 4]
    assert w.representative == 2
    assert p.is_subset(w.coset())


def test_obstruction_full_group_none():
    assert coset_obstruction(ResidueSet.full_units(11)) is None


def test_obstruction_singleton_degenerate():
    w = coset_obstruction(ResidueSet.from_elements(11, [7]))
    assert w is not None
    assert w.subgroup.index == 10  # trivial subgroup {1}
    assert w.subgroup.elements.elements() == [1]
    assert w.representative == 7


def test_obstruction_gcd_vs_brute_random():
    rng = random.Random(13)
    for q in (3, 5, 11, 31, 97, 151, 199, 2039):
        for _ in range(1000):
            s = ResidueSet.from_elements(q, rng.sample(range(1, q), rng.randint(1, q - 1)))
            a = coset_obstruction(s)
            b = coset_obstruction_brute(s)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.subgroup.index == b.subgroup.index


def _quadratic_split(q):
    """Quadratic residues below q/2 and non-residues above it."""
    half = (q - 1) // 2
    qr = [x for x in range(1, q // 2) if pow(x, half, q) == 1]
    nr = [x for x in range(q // 2 + 1, q) if pow(x, half, q) == q - 1]
    return qr, nr


_SPLITS = {q: _quadratic_split(q) for q in (2039, 10007)}  # q - 1 = 2 * prime


@st.composite
def _certificate_cases(draw):
    """(kind, set) for each exit of the power-residue certificate in _dlog_gcd."""
    kind = draw(st.sampled_from(("random", "trapped", "unrefuted")))
    if kind == "unrefuted":
        # the first nine members are quadratic residues, a later one is not,
        # so the certificate leaves l = 2 open and the table must answer
        q = draw(st.sampled_from(sorted(_SPLITS)))
        qr, nr = _SPLITS[q]
        els = draw(st.lists(st.sampled_from(qr), min_size=9, max_size=30, unique=True))
        els += draw(st.lists(st.sampled_from(nr), min_size=1, max_size=5, unique=True))
        return kind, ResidueSet.from_elements(q, els)
    q = draw(st.sampled_from((3, 5, 2039, 10007)))
    ys = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=30))
    if kind == "random":
        return kind, ResidueSet.from_elements(q, ys)
    # r * (d-th powers): inside a coset of the index-d subgroup; d = q-1 is a singleton
    d = draw(st.sampled_from([m for m in divisors(q - 1) if m > 1]))
    r = draw(st.integers(1, q - 1))
    return kind, ResidueSet.from_elements(q, [r * pow(y, d, q) % q for y in ys])


@settings(max_examples=300, deadline=None)
@given(_certificate_cases())
def test_certificate_vs_brute(case):
    kind, s = case
    fast, brute = coset_obstruction(s), coset_obstruction_brute(s)
    assert (fast is None) == (brute is None) == (not is_coset_trapped(s))
    if fast is not None:
        assert fast.subgroup.index == brute.subgroup.index
        assert s.is_subset(fast.coset())
    if kind == "unrefuted":
        assert fast is None
    if kind == "trapped":
        assert fast is not None


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 999982), max_size=40), st.integers(1, 12))
def test_leading_members_is_a_prefix_of_elements(els, count):
    s = ResidueSet.from_elements(999983, els)
    assert leading_positions(s.bits, count) == s.elements()[:count]


def test_certificate_builds_a_table_only_when_it_fails():
    qr, nr = _SPLITS[10007]
    unrefuted = ResidueSet.from_elements(10007, qr[:9] + nr[:1])
    character_table.cache_clear()
    with mock.patch.object(
        CharacterTable, "__init__", autospec=True, side_effect=CharacterTable.__init__
    ) as init:
        assert coset_scan_report(10007).details["obstructed"] is False
        assert coset_scan_report(999983).details["obstructed"] is False
        assert init.call_count == 0
        assert coset_obstruction(unrefuted) is None
        assert init.call_count == 1


def test_character_constant_examples():
    t5 = character_table(5)
    p5 = prime_residues(5, 1)
    assert character_constant_on(p5, t5, 0)  # principal: always
    assert character_constant_on(p5, t5, 2)  # both 2, 3 are non-residues mod 5
    t13 = character_table(13)
    p13 = prime_residues(13, 1)
    assert not character_constant_on(p13, t13, 6)  # 3 is a QR mod 13, 2 is not


def test_character_constant_matches_coset_kernel():
    # chi_j constant on P <=> P sits in one coset of ker(chi_j)
    rng = random.Random(17)
    for q in (13, 61, 199):
        table = character_table(q)
        n = q - 1
        for _ in range(60):
            s = ResidueSet.from_elements(q, rng.sample(range(1, q), rng.randint(1, q - 1)))
            d_found = coset_obstruction(s)
            d = d_found.subgroup.index if d_found else 1
            for j in (0, 1, n // 2, rng.randint(0, n - 1)):
                order = n // math.gcd(n, j)
                assert character_constant_on(s, table, j) == (d % order == 0)


def _prefix_max(q, j):
    """max_{x<q} |sum_{n<=x} chi_j(n)|."""
    return float(np.abs(np.cumsum(character_table(q).character_values(j)[1:])).max())


def test_prefix_max_small():
    m = _prefix_max(5, 2)
    assert m >= 1.0  # first term alone
    assert m <= math.sqrt(5) * math.log(5)


def test_prefix_max_exhaustive_to_199():
    (rep,) = audits.suite_pv(q_max=199)
    assert rep.verdict == "pass"
    assert rep.details["characters_checked"] == sum(q - 2 for q in primes_in_range(3, 199))


def test_prefix_max_quadratic_regression_q10007():
    m = _prefix_max(10007, (10007 - 1) // 2)
    assert m <= math.sqrt(10007) * math.log(10007)
    # recorded value, cross-checked against a Legendre-symbol prefix loop
    assert m == pytest.approx(130.0, abs=1e-6)


def test_omega_sum_z_one_exact():
    rep = omega_power_sum(1.0 + 0j, 10**4)
    assert rep.lhs == 10**4 + 0j  # exactly x
    assert rep.rel_error < 1e-9


def test_rgamma_vs_scipy_unit_circle():
    from scipy.special import gamma

    assert _rgamma(1 + 0j) == 1
    zs = np.exp(2j * np.pi * np.arange(10**4) / 10**4)
    zs = zs[np.abs(zs + 1) >= 1e-3]
    oracle = 1 / gamma(zs)
    ours = np.array([_rgamma(complex(z)) for z in zs])
    assert float(np.max(np.abs(ours - oracle) / np.abs(oracle))) < 2e-14


def test_omega_sum_rejects_bad_z():
    with pytest.raises(ValueError):
        omega_power_sum(-1.0 + 0j, 10**4)
    with pytest.raises(ValueError):
        omega_power_sum(0.5 + 0j, 10**4)
    with pytest.raises(ValueError):
        omega_power_sum(1j, 50)


def test_omega_sum_trend_and_floor():
    z = cmath.exp(2j * cmath.pi / 3)
    reps = [omega_power_sum(z, x) for x in (10**4, 10**5)]
    assert reps[1].rel_error < reps[0].rel_error
    assert all(r.noncancel_applicable for r in reps)
    for r in reps:
        assert r.noncancel_ratio > 1.5  # recorded floor from the 12-root grid


def _omega_by_trial_division(n):
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def test_omega_sum_lhs_against_direct_loop():
    # independent oracle: factor by trial division, accumulate z^Omega directly
    z = 1j
    x = 2000
    direct = sum(z ** _omega_by_trial_division(n) for n in range(1, x + 1))
    rep = omega_power_sum(z, x)
    assert rep.lhs == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("x", [100, 1000, 4097, 10**4])
def test_omega_histogram_counts_trial_division(x):
    counts = factor_sieve(x)
    assert counts.sum() == x
    oracle = np.bincount([_omega_by_trial_division(n) for n in range(1, x + 1)], minlength=64)
    assert np.array_equal(counts, oracle)


def _gather_omega_power_sum(z, x):
    """omega_power_sum as it summed z^Omega(n) over every n, one gathered power per n (oracle)."""
    om = omega_table(x)[1:]
    lhs = complex((z ** np.arange(int(om.max()) + 1))[om].sum())
    logx = math.log(x)
    main = x * cmath.exp((z - 1) * cmath.log(logx)) * (euler_product_constant(z) * _rgamma(z))
    return coset.OmegaSumReport(
        z=z,
        x=x,
        lhs=lhs,
        main_term=main,
        rel_error=abs(lhs - main) / abs(main),
        noncancel_ratio=abs(lhs) * logx**1.5 / x,
        noncancel_applicable=z.real >= -0.5 - 1e-12,
    )


@pytest.mark.parametrize("z", ["1/3", "1/7", "1/10", "1/4", "5001/10000"])
def test_omega_sum_rows_match_gather_oracle_byte_for_byte(z, tmp_path, monkeypatch):
    argv = ["omega-sum", "--x", "100", "1000", "12345", "100000", "--z", z]
    assert main([*argv, "--out", str(tmp_path / "histogram.csv")]) == 0
    monkeypatch.setattr(coset, "omega_power_sum", _gather_omega_power_sum)
    assert main([*argv, "--out", str(tmp_path / "gather.csv")]) == 0
    ours, oracle = ((tmp_path / f).read_bytes() for f in ("histogram.csv", "gather.csv"))
    assert ours == oracle and len(ours.splitlines()) == 5


def test_euler_product_z_one_is_one():
    assert euler_product_constant(1.0 + 0j) == pytest.approx(1.0, abs=1e-12)


def test_euler_product_truncation_stability():
    z = cmath.exp(2j * cmath.pi / 3)
    a = euler_product_constant(z, 10**5)
    b = euler_product_constant(z, 10**6)
    assert abs(a - b) < 2e-5  # tail terms are O(1/p^2)


def test_euler_product_cached_value_is_the_computed_one():
    z = cmath.exp(2j * cmath.pi / 3)
    first = euler_product_constant(z)
    assert euler_product_constant(z) is first
    assert euler_product_constant.__wrapped__(z) == first


def test_scan_report_q5_and_q10007():
    rep = coset_scan_report(5, 1)
    assert rep.details["obstructed"] is True
    assert rep.details["subgroup_index"] == 2
    rep2 = coset_scan_report(10007, 1)
    assert rep2.details["obstructed"] is False


def test_scan_report_empty_range():
    rep = coset_scan_report(101, "q^-9/10")
    assert rep.details["prime_count"] == 0


def test_scan_grid_regression_short_threshold():
    # at eta = q^(-3/4) the prime range is ~q^(1/4): tiny at desk scale, so
    # traps stay common; recorded on first run over the primes up to 2000
    from primecover.primes import Eta

    eta = Eta.parse("q^-3/4")
    tallies = {"empty": 0, "obstructed": 0, "free": 0}
    for q in primes_in_range(3, 2000):
        p = prime_residues(q, eta)
        if not p:
            tallies["empty"] += 1
        elif coset_obstruction(p) is not None:
            tallies["obstructed"] += 1
        else:
            tallies["free"] += 1
    assert tallies == {"empty": 5, "obstructed": 126, "free": 171}
