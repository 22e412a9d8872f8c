"""The three benchmark workloads: their commands, why each exists, and output checks.

Each workload is a list of primecover CLI commands run in one fresh
interpreter with ``--jobs 1``.  The checks below recompute what they need
from a prime sieve of their own; they never call the package under test.

Layer -> per-layer metric -> end-to-end metric it should move, on which workload:

  residues  residues.elements.{calls,self_s,items}        wall_s       dense-sweep (large-q ~ 0)
  modular   modular.character_table.{calls,misses,         wall_s,      large-q, dense-sweep;
            hit_ratio,build_s}, modular.is_prime.calls,    peak_rss_mb  is_prime.calls: audit-all
            modular.primes_in_range.self_s,
            modular.mod_inverse.calls,
            modular.subgroup_of_index.self_s
  primes    primes.prime_residues.{calls,self_s},          wall_s       large-q, dense-sweep
            primes.primes_below.{calls,rebuilds,self_s},
            primes.factor_sieve.self_s
  products  products.product_set.{calls,self_s},           wall_s       fft on large-q; naive on
            products.sumset.{naive,rotation,fft,                        audit-all
            pigeonhole}.{calls,self_s},
            products.sumset.fft.points,
            products.{iterated_product,quotient_set,
            invert_set,solution_counts_all}.self_s
  coset     coset.{coset_obstruction,is_coset_trapped,     wall_s       dense-sweep
            coset_scan_report,omega_power_sum}.self_s
  fourier   fourier.mult_convolve.{calls,self_s,points},   wall_s       audit-all
            fourier.{kloosterman_row,weil_audit,
            solution_count_fourier,mult_transform}.self_s
  sieves    sieves.{selberg_upper,linear_lower,            wall_s       audit-all
            audit_weights}.self_s
  audits    audits.<suite>.s, inclusive, per suite         wall_s       audit-all
  cli       cli.row_s.{p50,p99}, reports.encode.self_s,    wall_s       dense-sweep, large-q
            cli.bytes_out
  trace     trace.attributed_share, trace.overhead_ratio   --           all
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable

SCALE_CEILING = 10**6


def primes_upto(n: int) -> list[int]:
    """Primes p <= n by a plain Eratosthenes sieve (independent of primecover)."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


PRIMES = primes_upto(SCALE_CEILING)


def count_primes_upto(x: int) -> int:
    return bisect.bisect_right(PRIMES, x)


def odd_primes_in(lo: int, hi: int) -> list[int]:
    return PRIMES[bisect.bisect_left(PRIMES, max(lo, 3)) : bisect.bisect_right(PRIMES, hi)]


def largest_prime_factor(n: int) -> int:
    p, largest = 2, 1
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n)


# An FFT of length q - 1 whose largest prime factor is above this runs as
# Bluestein at a padded length; below it, q - 1 is smooth enough for a direct
# mixed-radix plan that is 2-7x cheaper.  Mixing the two makes a window's cost
# depend on how many smooth q - 1 it happens to hold (5.1 to 8.9 s of FFT
# across the first ten seeds, 2 cores), which would swamp any real change.
BLUESTEIN_FACTOR = 2000


def large_q_window(seed: int) -> list[int]:
    """The eight largest primes q below 10^6 - 1000*(seed mod 10) whose q - 1 needs Bluestein.

    The modulo keeps every seed within 1% of the scale ceiling, so seeds
    vary the moduli without changing the size of the work: the cost of a
    row grows with q, and a window 10% lower would run 10% faster.
    """
    top = SCALE_CEILING - 1000 * (seed % 10)
    below = PRIMES[: bisect.bisect_left(PRIMES, top)]
    rough = (q for q in reversed(below) if largest_prime_factor(q - 1) > BLUESTEIN_FACTOR)
    return sorted(itertools.islice(rough, 8))


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right


def _rows(text: str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != columns:
        raise ValueError(f"header {reader.fieldnames} != {columns}")
    return list(reader)


ERDOS_COLUMNS = ("q", "prime_count", "product_count", "missing_count", "first_missing")
COSET_COLUMNS = ("q", "eta", "prime_count", "obstructed", "subgroup_index", "representative")


def _check_rows(rows, qs: list[int], prime_limit: Callable[[int], int]) -> list[str]:
    """One row per prime in range, in order, with the right |P_eta|."""
    got = [int(r["q"]) for r in rows]
    if got != qs:
        return [f"rows cover {len(got)} moduli, expected the {len(qs)} primes in range"]
    problems = []
    for r in rows:
        q = int(r["q"])
        if int(r["prime_count"]) != count_primes_upto(prime_limit(q)):
            problems.append(f"q={q}: prime_count {r['prime_count']}")
    return problems


def check_erdos(text: str, qs: list[int], prime_limit: Callable[[int], int]) -> list[str]:
    rows = _rows(text, ERDOS_COLUMNS)
    problems = _check_rows(rows, qs, prime_limit)
    for r in rows:
        q, products, missing = int(r["q"]), int(r["product_count"]), int(r["missing_count"])
        if products + missing != q - 1:
            problems.append(f"q={q}: product_count + missing_count != q - 1")
        first = r["first_missing"]
        if (first == "") != (missing == 0) or (first and not 1 <= int(first) < q):
            problems.append(f"q={q}: first_missing {first!r} with {missing} missing")
    return problems


def check_coset(text: str, qs: list[int], prime_limit: Callable[[int], int]) -> list[str]:
    rows = _rows(text, COSET_COLUMNS)
    problems = _check_rows(rows, qs, prime_limit)
    for r in rows:
        q = int(r["q"])
        if r["obstructed"] == "1":
            index, rep = int(r["subgroup_index"]), int(r["representative"])
            if index < 2 or (q - 1) % index or not 1 <= rep < q:
                problems.append(f"q={q}: bad witness index={index} rep={rep}")
        elif r["obstructed"] != "0" or r["subgroup_index"] or r["representative"]:
            problems.append(f"q={q}: unobstructed row carries {r}")
    return problems


def check_audit(text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["audit printed no reports"]
    fails = [r["name"] for r in rows if r["verdict"] == "fail"]
    return [f"verdict fail: {name}" for name in fails]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int], list[list[str]]]
    # check(stdout of each command, seed) -> problems
    check: Callable[[list[str], int], list[str]]


def _large_q_commands(seed: int) -> list[list[str]]:
    # one command per modulus: a --q-min/--q-max range would also take the
    # primes between them that the window skips
    return [["erdos-scan", "--q", str(q), "--jobs", "1"] for q in large_q_window(seed)]


def _check_large_q(outs: list[str], seed: int) -> list[str]:
    qs = large_q_window(seed)
    return [p for q, out in zip(qs, outs) for p in check_erdos(out, [q], lambda q: q - 1)]


DENSE_MAX = 20000

# Three workloads, not four: a sparse sweep (erdos-scan to 50000 at
# eta = q^-1/2, |P| <= 48) would show small-set product costs unmasked, but
# with four workloads a full check of ten seeds each, in two sets, fits its
# time budget only at 20 s a run, where wall_s on dense-sweep spread as wide
# as its bound.  Three fit at 40 s a run, and they still reach every layer:
# the naive product path runs on audit-all (freiman, ruzsa).
WORKLOADS = {
    w.name: w
    for w in (
        # The scale ceiling.  Each modulus builds a fresh 10^6-entry
        # CharacterTable, ORs ~78k prime bits in one at a time, and runs the
        # FFT sumset at a length q - 1 that needs Bluestein.  The residue
        # codec is almost idle here.  The lru_cache holds all eight tables,
        # so this is the workload that shows peak RSS.
        Workload(
            "large-q",
            "erdos-scan at 8 primes near 10^6 whose q-1 needs a Bluestein FFT: CharacterTable "
            "build, prime_residues and the FFT sumset at the scale ceiling",
            _large_q_commands,
            _check_large_q,
        ),
        # Thousands of small moduli with dense prime sets.  Time goes to
        # ResidueSet.elements / iter_bits, the discrete-log gcd in coset, one
        # CharacterTable per q, prime_residues and primes_in_range.  It never
        # reaches the FFT.  The range is exhaustive, so the seed changes nothing.
        Workload(
            "dense-sweep",
            "coset-scan over all 2261 primes to 20000: residue codec, coset gcd, "
            "per-q CharacterTable; never reaches the FFT",
            lambda seed: [["coset-scan", "--q-min", "3", "--q-max", str(DENSE_MAX), "--jobs", "1"]],
            lambda outs, seed: check_coset(outs[0], odd_primes_in(3, DENSE_MAX), lambda q: q - 1),
        ),
        # The only workload that runs fourier (convolution, Kloosterman,
        # Parseval, Weil), sieves and the Omega sums.  Its ruzsa suite stresses
        # quotient_set / invert_set / mod_inverse on the q = 101 naive path
        # (about 150k is_prime calls in the whole battery at seed 0).  It is
        # also the battery users run.
        Workload(
            "audit-all",
            "audit all --seed <seed>: the only workload running fourier, sieves, "
            "Omega sums and the ruzsa suite",
            lambda seed: [["audit", "all", "--seed", str(seed)]],
            lambda outs, seed: check_audit(outs[0]),
        ),
    )
}

# sha256 of the concatenated stdout of a workload's commands at seed 0.  The
# CLI promises byte-identical output, so any change at all is a failure.  A
# run checks the digest whenever its commands are the seed-0 commands
# (dense-sweep ignores the seed, so it is checked on every run).
PINNED_SHA256 = {
    "large-q": "90ef39d5e9140823af4317da76e84998996d1a818b6d29d04f1b330cb4f222c7",
    "dense-sweep": "455fd40d657cb48291d9edeefc1511722147df1749231f9e6df9f506c6352947",
    "audit-all": "4c9b4c29382f7d8ad066fd38bc9168118c896b8e0bfff4bd0f1f70c849e543bf",
}
