"""Batch experiment driver: reproducible scans and audits over prime moduli.

Every command is deterministic given its flags (randomized audits are
seeded), rows are emitted sorted by q regardless of worker count, and floats
are printed with 12 significant digits -- so identical configurations yield
byte-identical CSV/JSON output.

Exit codes: 0 success, 1 a hard bound check failed, 2 invalid configuration,
3 an invariant broke or any other exception escaped: a bug, not a failed bound.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys

import numpy as np

from . import audits, coset, products, sieves
from .modular import MAX_MODULUS, character_table, modulus_value, primes_in_range
from .primes import FACTOR_SIEVE_MAX, Eta, parse_fraction, prime_residues
from .reports import AuditReport, _clean, _csv_cell, reports_to_csv, reports_to_json
from .residues import ResidueSet


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(columns: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(columns)]
    lines += (",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_to_json(columns: tuple[str, ...], rows: list[tuple]) -> str:
    payload = _clean([dict(zip(columns, row)) for row in rows])  # floats at 12 digits, as in CSV
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_rows(args, columns: tuple[str, ...], rows: list[tuple]) -> None:
    text = (
        _rows_to_csv(columns, rows) if args.format == "csv" else _rows_to_json(columns, rows)
    )
    _emit(text, args.out)


def _emit_reports(args, reports: list[AuditReport]) -> int:
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_json(reports)
    _emit(text, args.out)
    return 1 if any(r.failed for r in reports) else 0


def _q_list(args) -> list[int]:
    if args.q is not None:
        return [args.q]  # checked by the parser
    if args.q_min is None or args.q_max is None:
        raise ValueError("need --q or both --q-min and --q-max")
    if args.q_max > MAX_MODULUS:
        raise ValueError("scan budget is q <= 10^6")
    qs = primes_in_range(max(args.q_min, 3), args.q_max)
    if not qs:
        raise ValueError(f"no odd primes in [{args.q_min}, {args.q_max}]")
    return qs


MAX_JOBS = 64  # a pool starts all its workers at once, even with fewer tasks


def _pmap(fn, items, jobs: int):
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"--jobs must lie in [1, {MAX_JOBS}], got {jobs}")
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # deferred: ~20 ms of imports

    # the q-sorted items dealt round-robin spread the dearest rows over the chunks; callers sort
    chunks = 4 * jobs
    dealt = [it for j in range(chunks) for it in items[j::chunks]]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, dealt, chunksize=-(-len(items) // chunks)))


# ---------------------------------------------------------------------------
# erdos-scan / coset-scan


ERDOS_COLUMNS = ("q", "prime_count", "product_count", "missing_count", "first_missing")


def _erdos_row(task: tuple[int, Eta]) -> tuple:
    """|P_eta|, |P_eta^(2)| and the residues still missing."""
    q, eta = task
    p = prime_residues(q, eta)
    p2 = products.product_set(p, p)
    missing = p2.complement_units()
    return (q, len(p), len(p2), len(missing), missing.first())


COSET_COLUMNS = ("q", "eta", "prime_count", "obstructed", "subgroup_index", "representative")


def _coset_row(task: tuple[int, Eta]) -> tuple:
    """Where do the primes below eta*q sit inside a proper coset?"""
    q, eta = task
    rep = coset.coset_scan_report(q, eta)
    d = rep.details
    return (
        q,
        eta.label(),
        d.get("prime_count", 0),
        int(bool(d.get("obstructed"))) if d.get("obstructed") is not None else None,
        d.get("subgroup_index"),
        d.get("representative"),
    )


def cmd_scan(args) -> int:
    """One row per odd prime q, sorted by q for any --jobs."""
    # looked up per call, not stored in the parser: a tracer may rebind the row functions
    row = _erdos_row if args.command == "erdos-scan" else _coset_row
    eta = Eta.parse(args.eta)
    rows = _pmap(row, [(q, eta) for q in _q_list(args)], args.jobs)
    rows.sort(key=lambda r: r[0])
    _emit_rows(args, args.columns, rows)
    return 0


# ---------------------------------------------------------------------------
# theorem2 / theorem3


def _convolution_positivity(
    p: ResidueSet, eta: Eta, xi: float | None, delta: float, gamma: float
) -> AuditReport:
    """Pointwise positivity of w- * 1_P * 1_P, computed exactly on the group."""
    q = p.q
    x = min(eta.largest_admitted(q), q - 1)
    log_eta = math.log(eta.value_at(q)) / math.log(q)
    xi_ceiling = (0.25 + log_eta) / (1 + log_eta) - delta / 2
    if xi is None:
        if xi_ceiling <= 0:
            return AuditReport(
                name="almost-prime.convolution-positivity",
                params={"q": q, "eta": eta.label()},
                verdict="recorded",
                details={"note": "no admissible xi (range too short)", "xi_ceiling": xi_ceiling},
            )
        xi = 0.95 * xi_ceiling
    w = sieves.linear_lower(sieves.SieveParams(x, xi, delta=delta, gamma=gamma))
    # every lambda_d of w- is +-1, so w- is integral, and w- * r, with r(b) the number of
    # (y, z) in P^2 with yz = b, is an exact integer convolution over the discrete logs
    pow_g = character_table(q).pow_g
    warr = w.residue_array(q)
    conv = np.zeros(q, dtype=np.int64)
    conv[pow_g] = products._cyclic_counts(
        warr[pow_g], products.solution_counts_all(p)[pow_g], int(warr[1:].sum()) * len(p) ** 2
    )
    units = conv[1:]
    witnesses = (np.flatnonzero(units <= 0)[:8] + 1).tolist()
    return AuditReport(
        name="almost-prime.convolution-positivity",
        params={"q": q, "eta": eta.label(), "xi": xi, "delta": delta},
        computed=float(units.min()),
        bound=0.0,
        verdict="recorded",
        witness=witnesses or None,
        details={"positive_everywhere": not witnesses, "x": x, "xi_ceiling": xi_ceiling},
    )


def cmd_theorem2(args) -> int:
    """Six-fold prime products: direct union check plus convolution positivity."""
    q, eta = args.q, Eta.parse(args.eta)
    if min(eta.largest_admitted(q), q - 1) < 4:
        raise ValueError(
            f"the sieve range min(eta*q, q - 1) must be at least 4; raise --q or --eta "
            f"(got --q {q}, --eta {args.eta})"
        )

    p = prime_residues(q, eta)  # min(eta*q, q - 1) >= 4 puts 2 and 3 in P
    cover_k, union = products.six_fold_cover(p)
    missing = union.complement_units()
    cover = AuditReport(
        name="almost-prime.six-fold-cover",
        params={"q": q, "eta": eta.label()},
        computed=float(cover_k) if cover_k else None,
        bound=float(products.COVER_FACTORS),
        verdict="recorded",
        witness=missing.elements()[:8] or None,
        details={
            "covered": union.covers_units,
            "min_cover_k": cover_k,
            "missing_count": len(missing),
            "prime_count": len(p),
        },
    )
    positivity = _convolution_positivity(p, eta, args.xi, args.delta, args.gamma)
    return _emit_reports(args, [cover, positivity])


def cmd_theorem3(args) -> int:
    """Minimal covering exponent for P_eta, against the theoretical 48."""
    eta = Eta.parse(args.eta)
    p = prime_residues(args.q, eta)
    if not p:
        raise ValueError("P_eta is empty; nothing to expand")
    witness = coset.coset_obstruction(p)
    if witness is not None:
        fields = dict(
            witness=(witness.subgroup.index, witness.representative),
            details={
                "obstructed": True,
                "subgroup_index": witness.subgroup.index,
                "note": "coset obstruction: no power of P_eta ever covers the group",
            },
        )
    else:
        trace = products.expansion_schedule(p)
        k_min = trace.min_exponent
        details = {
            "obstructed": False,
            "prime_count": len(p),
            "doubling_trace": [
                {"before": s.size_before, "rule": s.rule, "after": s.size_after, "k": s.exponent}
                for s in trace.steps
            ],
            "theoretical_exponent": trace.theoretical_exponent,
        }
        fields = dict(computed=float(k_min), bound=48.0, ratio=k_min / 48.0, details=details)
    params = {"q": args.q, "eta": eta.label()}
    rep = AuditReport(name="covering.min-exponent", params=params, **fields)
    return _emit_reports(args, [rep])


# ---------------------------------------------------------------------------
# density / omega-sum / audit


def cmd_density(args) -> int:
    rep = products.density_report(args.q, Eta.parse(args.eta))
    return _emit_reports(args, [rep])


OMEGA_COLUMNS = (
    "x",
    "z",
    "lhs_re",
    "lhs_im",
    "main_re",
    "main_im",
    "rel_error",
    "noncancel_ratio",
    "noncancel_applicable",
)


def cmd_omega_sum(args) -> int:
    """Partial sums of z^Omega(n) against the main term, z = e(2*pi*i*a/b)."""
    rot = parse_fraction(args.z, "--z")
    z = cmath.exp(2j * cmath.pi * float(rot % 1))  # reduced first: e(a/b) has period 1
    for x in args.x:  # every x, before the first sieve is built
        if not 100 <= x <= FACTOR_SIEVE_MAX:
            raise ValueError(f"--x must lie in [100, 10^7], the factor sieve budget; got {x}")
    rows = []
    for x in args.x:
        r = coset.omega_power_sum(z, x)
        rows.append(
            (
                x,
                f"e({rot})",
                r.lhs.real,
                r.lhs.imag,
                r.main_term.real,
                r.main_term.imag,
                r.rel_error,
                r.noncancel_ratio,
                int(r.noncancel_applicable),
            )
        )
    _emit_rows(args, OMEGA_COLUMNS, rows)
    return 0


def cmd_audit(args) -> int:
    if args.seed < 0:  # numpy refuses it only when the first seeded suite runs
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    reports = audits.run_suite(args.suite, seed=args.seed)
    return _emit_reports(args, reports)


# ---------------------------------------------------------------------------
# parser


def _refusal(message: str) -> str:
    """One `error:` line; an echoed number of more than 20 digits shows as its digit count."""
    return "error: " + re.sub(r"\d{21,}", lambda m: f"<{len(m[0])}-digit number>", message) + "\n"


def _modulus(text: str) -> int:
    """--q, checked once while parsing: an odd prime <= 10^6 (memoised, so rows test it no more)."""
    try:
        return modulus_value(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with one `error:` line and exit 2, like every other refusal."""

    def error(self, message: str):
        self.exit(2, _refusal(message))


@functools.cache  # one parser per process: a rebuild costs about 1.5 ms per main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primecover",
        description="Products of primes in (Z/qZ)^x: scans, bound audits, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, fn, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(fn=fn, **defaults)
        return p

    def add_q_eta(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--q", type=_modulus, required=required)
        p.add_argument("--eta", default="1", help='decimal, fraction, or power form "q^-3/4"')

    def add_scan(name: str, help_text: str, columns: tuple[str, ...]) -> None:
        p = add_command(name, help_text, cmd_scan, columns=columns)
        add_q_eta(p, required=False)
        for flag in ("--q-min", "--q-max"):
            p.add_argument(flag, type=int)
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for scans")

    add_scan("erdos-scan", "per-prime pair-product coverage table", ERDOS_COLUMNS)

    p = add_command("theorem2", "six-fold products: union check + convolution", cmd_theorem2)
    add_q_eta(p)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--gamma", type=float, default=0.25, help="sieve hypothesis slack")

    add_q_eta(add_command("theorem3", "minimal covering exponent for P_eta", cmd_theorem3))
    add_q_eta(add_command("density", "|P_eta^(2)|/q report", cmd_density))

    add_scan("coset-scan", "coset obstruction table over a prime range", COSET_COLUMNS)

    p = add_command("omega-sum", "partial sums of z^Omega(n) vs main term", cmd_omega_sum)
    p.add_argument("--x", type=int, nargs="+", default=(10**5,))
    p.add_argument("--z", default="1/3", help="rotation a/b meaning z = e(2*pi*i*a/b)")

    p = add_command("audit", "run a named audit suite", cmd_audit)
    p.add_argument("suite", help=f"one of: {', '.join(audits.SUITES)}, all")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized audits")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(_refusal(str(exc)))
        return 2
    except Exception as exc:  # a broken invariant or any other bug: never a failed bound
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
