import math
from functools import reduce

import numpy as np
import pytest

from primecover.modular import factorize
from primecover.sieves import (
    LOWER,
    UPPER,
    SieveParams,
    WEIGHT_SUM_CEILING,
    SieveWeights,
    _squarefree_smooth_products,
    audit_weights,
    linear_lower,
    rough_mask,
    selberg_upper,
    sifting_primes,
    weight_sum,
    weight_sum_reference,
)

GRID = [SieveParams(10**4, xi) for xi in (0.1, 0.15, 0.2)]


def dirac_weights(x: int, xi: float = 0.25) -> SieveWeights:
    """Degenerate weights lambda = delta at d=1, i.e. w = 1 on [1, x].

    Useful as the trivial smoothing: solution counts against these weights
    reduce to raw modular-hyperbola point counts.
    """
    params = SieveParams(x, xi)
    return SieveWeights(params, UPPER, {1: 1.0}, rho={1: 1.0})


def rough_oracle(x: int, z: float) -> np.ndarray:
    """Over [0, x]: True where min(factorize(n)) >= z, by trial division (1 is rough, 0 is not)."""
    return np.array([n > 0 and min(factorize(n), default=z) >= z for n in range(x + 1)])


def divisor_subset_sums(lam: dict[int, float], m_primes: list[int]) -> float:
    """sum of lambda_d over d | prod(m_primes); m must be squarefree."""
    total = 0.0
    k = len(m_primes)
    for mask in range(1 << k):
        d = reduce(lambda acc, i: acc * m_primes[i], [i for i in range(k) if mask >> i & 1], 1)
        total += lam.get(d, 0.0)
    return total


def test_param_validation():
    with pytest.raises(ValueError):
        selberg_upper(SieveParams(10**4, 0.49))  # past (1 - GAMMA)/2 = 0.475
    with pytest.raises(ValueError):
        selberg_upper(SieveParams(10**4, 0.0))
    with pytest.raises(ValueError):
        linear_lower(SieveParams(10**4, 0.48))  # past (1 - GAMMA - DELTA)/2 = 0.45
    with pytest.raises(ValueError):
        SieveParams(2, 0.2)


def test_sifting_primes_strict():
    assert sifting_primes(7.0) == [2, 3, 5]  # strict: 7 excluded
    assert sifting_primes(7.5) == [2, 3, 5, 7]
    assert sifting_primes(1.9) == []


@pytest.mark.parametrize("z", [0.5, 1.5, 2, 3, 7, 7.5, 10**0.8, 97, 100, 100.5])
def test_rough_mask_matches_factorize(z):
    x = 10**4
    assert rough_mask(x, z).tolist() == rough_oracle(x, z).tolist()


def test_upper_normalization():
    for params in GRID:
        w = selberg_upper(params)
        assert w.lam[1] == pytest.approx(1.0, abs=1e-12)  # rho_1^2
        assert w.weight(1) == pytest.approx(1.0, abs=1e-12)
        assert w.rho[1] == 1.0
        assert all(abs(r) <= 1 + 1e-9 for r in w.rho.values())


def test_upper_rough_weight_is_one():
    # w+(n) >= 1 on z-rough n, with equality for this construction
    params = SieveParams(10**4, 0.2)
    w = selberg_upper(params)
    warr = w.weight_array()
    rough = rough_oracle(params.x, w.z)
    assert float(warr[rough].min()) >= 1 - 1e-9
    assert float(warr[rough].max()) <= 1 + 1e-9
    # and w+(p) >= 1 for every prime z <= p <= x
    from primecover.primes import primes_below

    for p in primes_below(params.x):
        if p >= w.z:
            assert warr[p] >= 1 - 1e-9


def test_upper_rho_matches_quadratic_program():
    # independent oracle: the coefficients minimize rho^T M rho with
    # M[d1,d2] = 1/lcm(d1,d2) subject to rho_1 = 1, so they must equal
    # M^-1 e_1 normalized; and the optimal value must be exactly 1/G(z)
    for xi, x in [(0.2, 10**4), (0.25, 10**5), (0.3, 31623)]:
        w = selberg_upper(SieveParams(x, xi))
        support = sorted(w.rho)
        m = len(support)
        M = np.empty((m, m))
        for i, d1 in enumerate(support):
            for j, d2 in enumerate(support):
                M[i, j] = 1.0 / (d1 * d2 // math.gcd(d1, d2))
        e1 = np.zeros(m)
        e1[support.index(1)] = 1.0
        sol = np.linalg.solve(M, e1)
        rho_qp = sol / sol[support.index(1)]
        closed = np.array([w.rho[d] for d in support])
        assert np.abs(rho_qp - closed).max() < 1e-10

        g_total = math.fsum(1.0 / phi for _, _, phi in _squarefree_smooth_products(
            sifting_primes(w.z), w.z))
        assert closed @ M @ closed == pytest.approx(1.0 / g_total, rel=1e-12)


def test_sieve_sandwich_on_rough_counts():
    # w- <= 1_rough <= w+ pointwise forces the sums to sandwich the true count
    for xi in (0.15, 0.2):
        params = SieveParams(10**4, xi)
        upper = selberg_upper(params)
        lower = linear_lower(params)
        rough_count = int(rough_oracle(params.x, params.z).sum())
        assert weight_sum(lower) <= rough_count + 1e-6
        assert rough_count <= weight_sum(upper) + 1e-6


def test_upper_square_form_identity():
    # expanded lambda representation equals the square of the rho divisor sum
    for params in GRID:
        w = selberg_upper(params)
        s = np.zeros(params.x + 1)
        for d, r in w.rho.items():
            s[d::d] += r
        assert np.abs(w.weight_array()[1:] - s[1:] ** 2).max() <= 1e-9


def test_upper_audits_pass():
    for params in GRID:
        for rep in audit_weights(selberg_upper(params)):
            assert rep.verdict in ("pass", "recorded"), rep


def test_lower_audits_pass():
    for params in GRID:
        for rep in audit_weights(linear_lower(params)):
            assert rep.verdict in ("pass", "recorded"), rep


def test_lower_basic_clauses():
    params = SieveParams(10**4, 0.15)
    w = linear_lower(params)
    assert w.weight(1) == 1.0  # lambda_1
    warr = w.weight_array()
    rough = rough_oracle(params.x, w.z)
    smooth = ~rough
    smooth[0] = False
    assert float(warr[smooth].max()) <= 1e-12
    assert all(abs(c) <= 1 for c in w.lam.values())
    assert max(w.support()) <= w.level


def test_lower_fundamental_inequality_exhaustive():
    # sum_{d | m} lambda-_d <= [m = 1] for every squarefree m | P(z), m <= x
    params = SieveParams(10**4, 0.2)
    w = linear_lower(params)
    primes = sifting_primes(w.z)

    def rec(start, chosen, prod):
        total = divisor_subset_sums(w.lam, chosen)
        limit = 1.0 if not chosen else 0.0
        assert total <= limit + 1e-12, (chosen, total)
        for i in range(start, len(primes)):
            if prod * primes[i] > params.x:
                break
            rec(i + 1, chosen + [primes[i]], prod * primes[i])

    rec(0, [], 1)


def test_weight_sum_identity():
    # divisor-sum interchange: sum_d lambda_d*floor(x/d) = sum_n w(n), exactly
    for params in GRID:
        for w in (selberg_upper(params), linear_lower(params)):
            direct = float(w.weight_array()[1:].sum())
            assert weight_sum(w) == pytest.approx(direct, rel=1e-12, abs=1e-6)


def test_weight_sum_ratios():
    params = SieveParams(10**5, 0.2)
    upper = selberg_upper(params)
    lower = linear_lower(params)
    up = weight_sum(upper) / weight_sum_reference(upper)
    lo = weight_sum(lower) / weight_sum_reference(lower)
    assert 0 < up <= 2.0  # upper ratio in (0, 2]
    assert 0 < lo <= 1.0  # linear-sieve f(s) <= 1


def test_lower_sum_positive_at_million():
    w = linear_lower(SieveParams(10**6, 0.1))
    total = weight_sum(w)
    assert total > 0
    # z < 4 here, so the weights reduce to full inclusion-exclusion over {2,3}
    assert total == 10**6 - 10**6 // 2 - 10**6 // 3 + 10**6 // 6


def test_fault_injection_caught():
    params = SieveParams(10**4, 0.2)
    good = linear_lower(params)
    bad_lam = dict(good.lam)
    bad_lam[2] = +1.0  # flip a Moebius sign
    bad = SieveWeights(params, LOWER, bad_lam)
    reps = {r.name: r for r in audit_weights(bad)}
    failed = [r for r in reps.values() if r.verdict == "fail"]
    assert failed
    assert any(r.witness is not None for r in failed)

    up = selberg_upper(params)
    bad_up = dict(up.lam)
    bad_up[max(up.support()) * 2] = 5.0  # push support past the level
    rep = {
        r.name: r
        for r in audit_weights(SieveWeights(params, UPPER, bad_up, rho=up.rho))
    }
    assert rep["upper.support-level"].verdict == "fail"


def _clause(w: SieveWeights, name: str):
    return next(r for r in audit_weights(w) if r.name == name)


# (clause, weights, n pushed, w(n) pushed to); z = 10^0.8 here, so 101 is rough and 12 is not
_PUSHED_W = [
    ("upper.nonnegative", selberg_upper, 12, -0.5),
    ("upper.rough-at-least-one", selberg_upper, 101, 0.5),
    ("lower.rough-at-most-one", linear_lower, 101, 1.5),
    ("lower.smooth-nonpositive", linear_lower, 12, 0.5),
]


@pytest.mark.parametrize("clause, make, n, value", _PUSHED_W, ids=[c[0] for c in _PUSHED_W])
def test_extreme_clause_names_the_pushed_n(clause, make, n, value):
    w = make(SieveParams(10**4, 0.2))
    assert _clause(w, clause).verdict == "pass"
    w.weight_array()[n] = value  # the cached w(n) that every clause reads
    rep = _clause(w, clause)
    assert (rep.verdict, rep.witness, rep.computed) == ("fail", n, value)


@pytest.mark.parametrize("kind", [UPPER, LOWER])
def test_lambda_size_names_the_pushed_d(kind):
    params = SieveParams(10**4, 0.2)
    good = selberg_upper(params) if kind == UPPER else linear_lower(params)
    lam = dict(good.lam)
    lam[15] = 10.0  # past both 3^nu(15) = 9 and 1
    rep = _clause(SieveWeights(params, kind, lam, rho=good.rho), f"{kind}.lambda-size")
    assert (rep.verdict, rep.witness) == ("fail", 15)


def test_squarefree_support_names_the_pushed_d():
    params = SieveParams(10**4, 0.2)
    good = selberg_upper(params)
    assert _clause(good, "upper.squarefree-support").verdict == "pass"
    lam = dict(good.lam)
    lam[12] = 1.0  # 12 = 2^2 * 3, within the level and within 3^nu(12) = 9
    rep = _clause(SieveWeights(params, UPPER, lam, rho=good.rho), "upper.squarefree-support")
    assert (rep.verdict, rep.witness) == ("fail", 12)


def test_upper_weight_sum_fails_past_its_ceiling():
    # w = 1 on [1, x] sums to x, so the ratio to x / (xi log x) is xi log x
    assert 0.2 * math.log(10**4) < WEIGHT_SUM_CEILING < 0.25 * math.log(10**4)
    for xi, verdict in ((0.2, "pass"), (0.25, "fail")):
        rep = _clause(dirac_weights(10**4, xi), "upper.weight-sum")
        assert rep.ratio == pytest.approx(xi * math.log(10**4), rel=1e-12)
        assert (rep.verdict, rep.details["ceiling"]) == (verdict, WEIGHT_SUM_CEILING)


def test_z_and_level_read_off_params():
    params = SieveParams(10**4, 0.2)
    levels = {UPPER: params.level_upper, LOWER: params.level_lower}
    for w in (selberg_upper(params), linear_lower(params), SieveWeights(params, LOWER, {})):
        assert (w.z, w.level) == (params.z, levels[w.kind])


def test_dirac_weights_trivial():
    w = dirac_weights(50)
    assert np.all(w.weight_array()[1:] == 1.0)
    assert weight_sum(w) == 50
