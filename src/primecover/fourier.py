"""Additive and multiplicative Fourier analysis on Z/qZ.

Conventions (e(t) = exp(2*pi*i*t)):
    additive:        f^(r)   = sum_a f(a) e(-r*a/q)
    multiplicative:  f^(chi) = sum_x f(x) conj(chi(x))     over x in (Z/qZ)^x
    convolution:     (f*g)(a) = sum_{xy=a} f(x) conj(g(y))

The additive transform is numpy's FFT verbatim; the multiplicative one is the
FFT after reindexing by discrete logs.  Note the conjugation in the
convolution: its verified spectral form is (f*g)^(chi) = f^(chi) *
conj(g^(conj chi)), which collapses to f^ * g^ for real g.

Kloosterman sums Kl2(r, s; q) = sum_{n in (Z/qZ)^x} e((r*n + s*n^-1)/q) are
evaluated by brute force and audited against the 2*sqrt(q) bound.  The
exhaustive sweeps read precomputed indices instead of reducing mod q per
element: the convolution oracle reads a*x^-1 off a cached grid of r*s mod q,
and the Weil sweep adds r*n mod q to a precomputed s*n^-1 mod q and indexes a
root table doubled to length 2q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .modular import character_table, inverse_table, modulus_value
from .reports import FAIL, PASS, RECORDED, AuditReport
from .sieves import DELTA, LOWER, UPPER, SieveWeights


def _as_mod_array(f: np.ndarray, q: int) -> np.ndarray:
    arr = np.asarray(f, dtype=np.complex128)
    if arr.shape != (q,):
        raise ValueError(f"function must be a length-{q} array indexed by residue")
    return arr


def additive_transform(f: np.ndarray, q: int) -> np.ndarray:
    """f^(r) = sum_a f(a) e(-ra/q), indexed by frequency r in [0, q-1], via FFT."""
    return np.fft.fft(_as_mod_array(f, modulus_value(q)))


def additive_transform_naive(f: np.ndarray, q: int) -> np.ndarray:
    """Direct-definition transform over the support of f (oracle path)."""
    qv = modulus_value(q)
    arr = _as_mod_array(f, qv)
    support = np.flatnonzero(arr)
    out = np.zeros(qv, dtype=np.complex128)
    rs = np.arange(qv)
    for a in support:
        out += arr[a] * np.exp(-2j * np.pi * (rs * int(a) % qv) / qv)
    return out


def mult_transform(f: np.ndarray, table) -> np.ndarray:
    """f^(chi_j), indexed by character j in [0, q-2]: FFT of f reindexed by discrete logs."""
    arr = _as_mod_array(f, table.q)
    if abs(arr[0]) != 0:
        raise ValueError("multiplicative transforms need f(0) = 0")
    return np.fft.fft(arr[table.pow_g])


def mult_transform_naive(f: np.ndarray, table) -> np.ndarray:
    """Definition-chasing transform: explicit character sums (oracle path)."""
    q = table.q
    arr = _as_mod_array(f, q)
    out = np.empty(q - 1, dtype=np.complex128)
    for j in range(q - 1):
        out[j] = (arr[1:] * np.conj(table.character_values(j)[1:])).sum()
    return out


def mult_convolve(f: np.ndarray, g: np.ndarray, table) -> np.ndarray:
    """(f*g)(a) = sum_{xy=a} f(x) conj(g(y)), via the discrete-log FFT."""
    q = table.q
    fa = _as_mod_array(f, q)[table.pow_g]
    ga = _as_mod_array(g, q)[table.pow_g]
    conv = np.fft.ifft(np.fft.fft(fa) * np.fft.fft(np.conj(ga)))
    out = np.zeros(q, dtype=np.complex128)
    out[table.pow_g] = conv
    return out


def mult_convolve_naive(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """(f*g)(a) = sum_x f(x) conj(g(a x^-1)), x ascending: the definition (oracle path).

    Row x^-1 of the unit product grid reads off a x^-1 for every a, and no
    discrete log is used.  Blocks of terms are folded into a running sum in x
    order, so every entry gets the same additions as one x at a time.  Refuses
    q > GRID_MAX_MODULUS (the grid is q x q).
    """
    qv = modulus_value(_grid_budget(q))
    fa = _as_mod_array(f, qv)
    ga = np.conj(_as_mod_array(g, qv))
    grid = _unit_product_grid(qv)
    xs = np.flatnonzero(fa[1:]) + 1
    buf = np.zeros((_CONVOLVE_ROWS + 1, qv - 1), dtype=np.complex128)  # row 0: the sum
    for lo in range(0, len(xs), _CONVOLVE_ROWS):
        block = xs[lo : lo + _CONVOLVE_ROWS]
        k = len(block)
        rows = grid[[pow(int(x), -1, qv) - 1 for x in block]]  # rows[i, a - 1] = a x_i^-1
        np.multiply(fa[block, None], ga[rows], out=buf[1 : k + 1])
        np.add.reduce(buf[: k + 1], axis=0, out=buf[0])
    out = np.zeros(qv, dtype=np.complex128)
    out[1:] = buf[0]
    return out


# ---------------------------------------------------------------------------
# Kloosterman sums


def _unit_roots(q: int) -> np.ndarray:
    """e(t/q) at t and t + q for t in [0, q-1]: a sum of two residues indexes it without % q."""
    return np.tile(np.exp(2j * np.pi * np.arange(q) / q), 2)


def kloosterman(r: int, s: int, q: int) -> complex:
    """Kl2(r, s; q) by brute force over the units; rejects r or s = 0 mod q."""
    qv = character_table(q).q
    if r % qv == 0 or s % qv == 0:
        raise ValueError("degenerate Kloosterman arguments (r or s = 0) are out of scope")
    inv = inverse_table(qv)
    ns = np.arange(1, qv)
    idx = (r % qv * ns + s % qv * inv[1:]) % qv
    return complex(_unit_roots(qv)[idx].sum())


# q x q grids at the cap: 200 MB per int64 or float64 grid (weil_audit's s n^-1 index), 400 MB
# for the one complex128 grid a hyperbola count holds at a time, 50 MB for the int16 index
GRID_MAX_MODULUS = 5000


def _grid_budget(q: int) -> int:
    """int(q), refused above GRID_MAX_MODULUS before any table or grid exists."""
    if int(q) > GRID_MAX_MODULUS:
        raise ValueError(f"modulus budget for q x q grids is q <= {GRID_MAX_MODULUS}, got {q}")
    return int(q)


_GATHER_ROWS = 64  # rows of Kl2 values gathered at once: 1 MB of complex at q = 1009
_CONVOLVE_ROWS = 32  # rows of convolution terms folded at once: 0.5 MB of complex at q = 997
_WEIL_ENTRIES = 1 << 16  # (s, n) index entries per Weil block: 1 MB of complex gathered


@functools.lru_cache(maxsize=4)
def kloosterman_row(q: int) -> np.ndarray:
    """Kl2(1, u; q) for u in [0, q-1]; entry 0 is the degenerate Ramanujan value -1.

    Every nondegenerate sum reduces to this row: Kl2(r, s; q) = Kl2(1, rs; q)
    by substituting n -> r^-1 n.  Built _GATHER_ROWS values of u at a time.
    """
    qv = character_table(_grid_budget(q)).q
    inv = inverse_table(qv)
    roots = _unit_roots(qv)
    ns = np.arange(1, qv)
    out = np.empty(qv, dtype=np.complex128)
    for lo in range(0, qv, _GATHER_ROWS):
        us = np.arange(lo, min(lo + _GATHER_ROWS, qv))
        idx = us[:, None] * inv[1:][None, :] % qv + ns[None, :]
        out[lo : lo + len(us)] = roots[idx].sum(axis=1)
    return out


@functools.lru_cache(maxsize=1)
def _unit_product_grid(q: int) -> np.ndarray:
    """(r * s) mod q for r, s in [1, q-1]; int16 holds q <= GRID_MAX_MODULUS (2 MB at q = 1009)."""
    ns = np.arange(1, q, dtype=np.int32)  # (q-1)^2 < 2^31 at the cap; int32 one block at a time
    grid = np.empty((q - 1, q - 1), dtype=np.int16)
    for lo in range(0, q - 1, _GATHER_ROWS):
        grid[lo : lo + _GATHER_ROWS] = np.multiply.outer(ns[lo : lo + _GATHER_ROWS], ns) % q
    return grid


def weil_audit(q: int, tol: float = 1e-6) -> AuditReport:
    """Exhaustive |Kl2(r, s; q)| <= 2*sqrt(q) over all (r, s) in [1, q-1]^2.

    Also verifies that every sum is real (conjugation symmetry n <-> -n)
    and symmetric under r <-> s (substitution n <-> n^-1).
    """
    qv = character_table(_grid_budget(q)).q
    inv = inverse_table(qv)
    roots = _unit_roots(qv)
    ns = np.arange(1, qv)
    s_over_n = np.multiply.outer(ns, inv[1:])  # [s - 1, n - 1] = s n^-1 mod q
    s_over_n %= qv
    rows = min(qv - 1, _WEIL_ENTRIES // (qv - 1))  # rows of s per block: q <= 257 is one
    idx = np.empty((rows, qv - 1), dtype=s_over_n.dtype)
    sums = np.empty(qv - 1, dtype=np.complex128)
    bound = 2.0 * math.sqrt(qv)
    worst = 0.0
    worst_pair = None
    max_imag = 0.0
    for r in range(1, qv):
        r_n = r * ns % qv
        for lo in range(0, qv - 1, rows):
            k = min(rows, qv - 1 - lo)
            np.add(s_over_n[lo : lo + k], r_n, out=idx[:k])
            sums[lo : lo + k] = roots[idx[:k]].sum(axis=1)
        max_imag = max(max_imag, float(np.abs(sums.imag).max()))
        mags = np.abs(sums)
        m = float(mags.max())
        if m > worst:
            worst = m
            worst_pair = (r, int(mags.argmax()) + 1)
    ok = worst <= bound + tol and max_imag <= tol
    return AuditReport(
        name="kloosterman.weil",
        params={"q": qv},
        computed=worst,
        bound=bound,
        ratio=worst / bound,
        verdict=PASS if ok else FAIL,
        tolerance=tol,
        witness=None if ok else worst_pair,
        details={"max_imag": max_imag, "pairs_checked": (qv - 1) ** 2},
    )


# ---------------------------------------------------------------------------
# Sieve-weight spectrum audits


def l1_spectrum_norm(w: SieveWeights, q: int) -> AuditReport:
    """L = sum_{r=1}^{q-1} |w^(r)| against the scaling shape q * x^(2*xi) * log q.

    The comparison is a recorded regression ratio, not a proved constant.
    Requires upper weights with x < q.
    """
    qv = modulus_value(q)
    if w.kind != UPPER:
        raise ValueError("l1_spectrum_norm expects upper weights")
    if w.params.x >= qv:
        raise ValueError("needs x < q")
    spec = additive_transform(w.residue_array(qv), qv)
    l1 = float(np.abs(spec[1:]).sum())
    shape = qv * w.params.x ** (2 * w.params.xi) * math.log(qv)
    return AuditReport(
        name="sieve-spectrum.l1-additive",
        params={"q": qv, "x": w.params.x, "xi": w.params.xi},
        computed=l1,
        bound=shape,
        ratio=l1 / shape,
        verdict=RECORDED,
        details={"dc_term": float(abs(spec[0]))},
    )


def sup_nontrivial_mult_coeff(w: SieveWeights, q: int, pv_tol: float = 1e-6) -> AuditReport:
    """sup over chi != chi_0 of |w^(chi)| vs x^(2*xi+DELTA) * sqrt(q) * log q.

    Also audits the intermediate prefix-sum step: for every nontrivial chi
    and every d in the support, |sum_{n<=x, d|n} conj(chi)(n)| must respect
    the sqrt(q)*log(q) prefix bound (hard assertion).  Requires x <= q.
    """
    table = character_table(q)
    qv = table.q
    if w.kind != LOWER:
        raise ValueError("sup_nontrivial_mult_coeff expects lower weights")
    x = w.params.x
    if x > qv:
        raise ValueError("needs x <= q")
    farr = w.residue_array(qv)
    farr[0] = 0.0
    sup = float(np.abs(mult_transform(farr, table)[1:]).max())  # q >= 3 leaves a nontrivial chi
    shape = x ** (2 * w.params.xi + DELTA) * math.sqrt(qv) * math.log(qv)

    prefix_bound = math.sqrt(qv) * math.log(qv)
    worst_prefix = 0.0
    worst_d = None
    for d in w.support():
        mult = np.zeros(qv)
        tops = np.arange(d, x + 1, d) % qv
        mult[tops[tops != 0]] = 1.0
        m = float(np.abs(mult_transform(mult, table)[1:]).max())
        if m > worst_prefix:
            worst_prefix, worst_d = m, d
    prefix_ok = worst_prefix <= prefix_bound + pv_tol
    return AuditReport(
        name="sieve-spectrum.sup-multiplicative",
        params={"q": qv, "x": x, "xi": w.params.xi, "delta": DELTA},
        computed=sup,
        bound=shape,
        ratio=sup / shape,
        verdict=PASS if prefix_ok else FAIL,
        tolerance=pv_tol,
        witness=None if prefix_ok else worst_d,
        details={
            "prefix_max": worst_prefix,
            "prefix_bound": prefix_bound,
            "support_size": len(w.support()),
        },
    )


# ---------------------------------------------------------------------------
# Modular-hyperbola solution counts weighted by sieve coefficients


@dataclass
class SolutionCountReport:
    """Dual evaluation of sum_n w(n) w(a n^-1) with the frequency-side split.

    The off-diagonal block (both frequencies nonzero) is reported exactly, as
    an absolute sum, and re-bounded through |Kl2| <= 2*sqrt(q).
    """

    q: int
    a: int
    direct: float
    spectral: float
    offdiag_exact: float
    offdiag_abs: float
    offdiag_weil_bound: float
    rel_gap: float


def _kloosterman_weighted_sum(v: np.ndarray, row: np.ndarray, perm: np.ndarray):
    """sum_{r,s} v[r] v[s] row[grid[perm[r], s]] as one .sum() of the only q x q array alive."""
    grid = _unit_product_grid(len(row))
    terms = np.multiply.outer(v, v)
    for lo in range(0, len(v), _GATHER_ROWS):
        block = slice(lo, lo + _GATHER_ROWS)
        terms[block] *= row[grid[perm[block]].astype(np.intp)]  # an int16 index gathers 3x slower
    return terms.sum()


def solution_count_fourier(w: SieveWeights, a: int, q: int) -> SolutionCountReport:
    """Evaluate sum_{n in units} w(n) w(a n^-1) directly and spectrally.

    The spectral route expands both factors by additive inversion, leaving a
    double frequency sum against complete exponential sums: Kloosterman sums
    off the axes, Ramanujan sums (-1) on them, and q-1 at the origin.  The
    off-diagonal block is also re-estimated with |Kl2| <= 2*sqrt(q) to expose
    the bound chain.  Refuses q > GRID_MAX_MODULUS (dense q x q frequency grid).
    """
    qv = character_table(_grid_budget(q)).q
    if w.kind != UPPER:
        raise ValueError("solution counts are audited for upper weights")
    if a % qv == 0:
        raise ValueError("a must be a unit")
    if w.params.x >= qv:
        raise ValueError("needs x < q")
    a = a % qv
    inv = inverse_table(qv)
    farr = w.residue_array(qv)

    partner = farr[(a * inv) % qv]
    direct = float((farr * partner)[1:].sum())

    what = np.fft.fft(farr)
    w0 = what[0]
    tail = what[1:]
    abs_tail = np.abs(tail)
    row = kloosterman_row(qv)  # row[u] = Kl2(1, u; q)
    perm = np.arange(1, qv) * a % qv - 1  # Kl2(r, s a; q) = row[(r a) s]: grid row r a mod q
    offdiag = _kloosterman_weighted_sum(tail, row, perm)
    cross = (-1.0) * (tail.sum() * w0)  # each axis: Ramanujan sum -1 against w^(0)
    main = (qv - 1) * w0 * w0
    spectral = (main + cross + cross + offdiag) / qv**2

    offdiag_abs = float(_kloosterman_weighted_sum(abs_tail, np.abs(row), perm)) / qv**2
    weil_bound = float(abs_tail.sum()) ** 2 * 2.0 * math.sqrt(qv) / qv**2

    spectral_real = float(spectral.real)
    rel_gap = abs(direct - spectral_real) / max(1.0, abs(direct))
    return SolutionCountReport(
        q=qv,
        a=a,
        direct=direct,
        spectral=spectral_real,
        offdiag_exact=float((offdiag / qv**2).real),
        offdiag_abs=offdiag_abs,
        offdiag_weil_bound=weil_bound,
        rel_gap=rel_gap,
    )


def _parseval_defect(spec: np.ndarray, arr: np.ndarray) -> float:
    """|sum|f^|^2 - N*sum|f|^2| / (N*sum|f|^2) over a group of order N = len(arr)."""
    lhs = float((np.abs(spec) ** 2).sum())
    rhs = len(arr) * float((np.abs(arr) ** 2).sum())
    return abs(lhs - rhs) / rhs if rhs else abs(lhs)


def parseval_gap_additive(f: np.ndarray, q: int) -> float:
    """Relative Parseval defect over Z/qZ."""
    spec = additive_transform(f, q)
    return _parseval_defect(spec, _as_mod_array(f, len(spec)))


def parseval_gap_multiplicative(f: np.ndarray, table) -> float:
    """Relative Parseval defect over the character group."""
    arr = _as_mod_array(f, table.q)
    return _parseval_defect(mult_transform(arr, table), arr[1:])
