"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass line once its assertions have held (visible
with pytest -s), including the measured runtime where the criterion caps it.
"""

import math
import random
import time

import numpy as np
import pytest

from primecover import audits
from primecover.cli import main
from primecover.coset import coset_obstruction
from primecover.fourier import (
    parseval_gap_additive,
    parseval_gap_multiplicative,
)
from primecover.modular import character_table
from primecover.primes import prime_residues
from primecover.products import iterated_product, product_set
from primecover.residues import ResidueSet


def _announce(num, name, t0=None):
    stamp = f" ({(time.perf_counter() - t0) * 1000:.1f} ms)" if t0 is not None else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{stamp}")


def test_01_q5_worked_example():
    # warm the per-modulus caches; the criterion times the computation itself
    character_table(5)
    prime_residues(5, 1)

    t0 = time.perf_counter()
    p = prime_residues(5, 1)
    assert p.elements() == [2, 3]
    powers = {k: iterated_product(p, k).elements() for k in (2, 3, 4)}
    witness = coset_obstruction(p)
    elapsed = time.perf_counter() - t0

    assert powers[2] == [1, 4]
    assert powers[3] == [2, 3]
    assert powers[4] == [1, 4]
    assert witness is not None
    assert witness.subgroup.elements.elements() == [1, 4]
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms, budget 1 ms"
    _announce(1, "q5-worked-example", t0)


def test_02_weil_bound_exhaustive():
    t0 = time.perf_counter()
    for rep in audits.suite_weil():
        assert rep.verdict == "pass", rep
        assert rep.computed <= rep.bound + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"took {elapsed:.1f} s, budget 30 s"
    _announce(2, "weil-bound-q-5-7-101-211", t0)


def test_03_freiman_dichotomy_exhaustive():
    t0 = time.perf_counter()
    reps = audits.suite_freiman()
    for rep in reps:
        assert rep.verdict == "pass", rep
    assert {r.params["q"] for r in reps} == {11, 13}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f} s, budget 60 s"
    _announce(3, "freiman-dichotomy-exhaustive-11-13", t0)


def test_04_ruzsa_step_sampled():
    t0 = time.perf_counter()
    (rep,) = audits.suite_ruzsa(seed=0, q=101, samples=1000)
    assert rep.verdict == "pass", rep
    assert rep.computed == 0.0  # zero violations
    _announce(4, "ruzsa-sqrt-rule-1000-samples", t0)


def test_05_sieve_clause_audit():
    t0 = time.perf_counter()
    reps = audits.suite_sieve()
    hard = [r for r in reps if r.verdict != "recorded"]
    for rep in hard:
        assert rep.verdict == "pass", rep
    sums = [r for r in reps if r.name == "upper.weight-sum"]
    assert sums and all(r.computed / r.bound <= 2.0 for r in sums)
    positive = [r for r in reps if r.name == "lower.weight-sum-positive"]
    assert positive and positive[0].computed > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.1f} s, budget 5 min"
    _announce(5, "sieve-clauses-x1e4-and-lower-sum-x1e6", t0)


def test_06_parseval_random_functions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for q in (101, 1009):
        table = character_table(q)
        for _ in range(100):
            f = np.zeros(q, dtype=np.complex128)
            f[1:] = rng.normal(size=q - 1) + 1j * rng.normal(size=q - 1)
            assert parseval_gap_additive(f, q) < 1e-9
            assert parseval_gap_multiplicative(f, table) < 1e-9
    _announce(6, "parseval-100-random-functions", t0)


def test_07_convolution_duality():
    t0 = time.perf_counter()
    (rep,) = audits.suite_convolution(seed=0, pairs=50)
    assert rep.verdict == "pass", rep
    assert rep.computed < 1e-6
    _announce(7, "convolution-duality-50-pairs", t0)


def test_08_solution_count_duality():
    t0 = time.perf_counter()
    (rep,) = audits.suite_solution_count(seed=0, q=1009, trials=20)
    assert rep.verdict == "pass", rep
    assert rep.computed < 1e-6
    _announce(8, "hyperbola-count-duality-q1009", t0)


def test_09_polya_vinogradov_exhaustive():
    t0 = time.perf_counter()
    (rep,) = audits.suite_pv(q_max=499)
    assert rep.verdict == "pass", rep
    assert rep.computed <= 1.0
    _announce(9, "prefix-sums-under-sqrtq-logq-to-499", t0)


def test_10_six_fold_cover_to_2000():
    t0 = time.perf_counter()
    (rep,) = audits.suite_almost_prime(q_max=2000)
    assert rep.verdict == "pass", rep
    # regression pinned from the first oracle run
    assert rep.computed == 3.0  # worst minimal covering exponent
    assert rep.details["min_k_distribution"] == {"2": 283, "3": 19}
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f} s, budget 2 min"
    _announce(10, "six-fold-cover-all-primes-to-2000", t0)


def test_11_density_benchmark_q1e5():
    t0 = time.perf_counter()
    q = 100003
    p = prime_residues(q, 1)
    p2 = product_set(p, p)
    density = len(p2) / q
    assert density >= 1 / 64
    # exact regression, reproducible bit-identically
    assert len(p) == 9592
    assert len(p2) == 100002
    assert product_set(p, p) == p2  # same bits on recomputation
    _announce(11, "density-above-1-64-at-q-100003", t0)


def test_12_omega_sum_trend():
    t0 = time.perf_counter()
    reps = audits.suite_omega()
    by_name = {r.name: r for r in reps}
    assert by_name["omega-sum.error-trend"].verdict == "pass"
    errs = by_name["omega-sum.error-trend"].details["rel_errors"]
    assert errs[0] > errs[1] > errs[2]
    floor = by_name["omega-sum.noncancellation-floor"]
    assert floor.verdict == "pass"
    assert floor.computed >= floor.bound  # larger x stays above the x=1e4 value
    _announce(12, "omega-sum-error-trend-and-floor", t0)


CONFIGS = [
    ("erdos-scan", ["erdos-scan", "--q-min", "3", "--q-max", "300", "--eta", "1"], True),
    ("coset-scan", ["coset-scan", "--q-min", "3", "--q-max", "300", "--eta", "q^-1/2"], True),
    ("theorem1", ["theorem1", "--q", "1009", "--epsilon", "1/4", "--format", "json"], False),
    ("theorem2", ["theorem2", "--q", "101", "--mode", "i", "--format", "json"], False),
    ("theorem3", ["theorem3", "--q", "101", "--eta", "1", "--format", "json"], False),
    ("density", ["density", "--q", "1009", "--eta", "1"], False),
    ("omega-sum", ["omega-sum", "--x", "10000", "--z", "1/3"], False),
    ("audit", ["audit", "ruzsa", "--seed", "7", "--format", "json"], False),
]


@pytest.mark.parametrize("name,args,has_jobs", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_13_determinism_every_command(tmp_path, name, args, has_jobs):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    argv_a = [*args, "--out", str(a)] + (["--jobs", "1"] if has_jobs else [])
    argv_b = [*args, "--out", str(b)] + (["--jobs", "8"] if has_jobs else [])
    assert main(argv_a) == 0
    assert main(argv_b) == 0
    assert a.read_bytes() == b.read_bytes()
    print(f"ACCEPTANCE 13 determinism-{name}: PASS")
