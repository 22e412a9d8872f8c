import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import primecover
from primecover import cli, fourier, modular, products, sieves
from primecover.cli import main
from primecover.primes import prime_residues
from primecover.products import iterated_product


def run_cli(tmp_path, name, *argv):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def exit_code(argv):
    """main's exit code, whether a command refuses its flags or the parser refuses them."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_erdos_scan_rows_frozen(tmp_path):
    code, text = run_cli(tmp_path, "e.csv", "erdos-scan", "--q-min", "3", "--q-max", "7")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "q,prime_count,product_count,missing_count,first_missing"
    assert lines[1] == "3,1,1,1,2"  # P_1 = {2}, P^2 = {1}, missing {2}
    assert lines[2] == "5,2,2,2,2"  # P^2 = {1,4}, missing {2,3}
    assert text.endswith("\n") and "\r" not in text


def test_erdos_scan_regression_q10007(tmp_path):
    code, text = run_cli(tmp_path, "e.csv", "erdos-scan", "--q", "10007")
    assert code == 0
    assert text.splitlines()[1] == "10007,1229,10006,0,"  # nothing missing


def _names(line: str, flag: str) -> bool:
    """flag appears in line as a whole option: --q does not match inside --q-min."""
    return re.search(re.escape(flag) + r"(?![\w-])", line) is not None


def test_erdos_scan_rejects_bad_range(capsys):
    cases = [
        (["--q-min", "14", "--q-max", "15"], ("--q-min", "--q-max")),
        (["--q-min", "3", "--q-max", str(2 * 10**6)], ("--q-max",)),
        (["--q", "101", "--q-min", "3", "--q-max", "50"], ("--q", "--q-min", "--q-max")),
        (["--q", "101", "--q-max", "50"], ("--q", "--q-max")),
        (["--q-min", "3"], ("--q", "--q-min", "--q-max")),
        ([], ("--q", "--q-min", "--q-max")),
    ]
    for command in ("erdos-scan", "coset-scan"):
        for flags, named in cases:
            assert main([command, *flags]) == 2, flags
            out, err = capsys.readouterr()
            assert out == ""  # no row for --q 101 when a range is given too
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), flags
            assert all(_names(lines[0], flag) for flag in named), lines[0]
    assert exit_code(["erdos-scan", "--q", "15"]) == 2  # composite modulus
    assert exit_code(["density", "--q", "4"]) == 2


# Theorem 1 is `density` at eta = q^(epsilon - 1/4)


def test_theorem1_benchmark(tmp_path):
    code, text = run_cli(
        tmp_path, "t1.json", "density", "--q", "10007", "--eta", "q^0", "--format", "json"
    )
    assert code == 0
    rep = json.loads(text)[0]
    assert rep["bound"] == pytest.approx(1 / 64)
    assert rep["computed"] >= 1 / 64
    assert rep["verdict"] == "recorded"


def test_theorem1_epsilon_formula(tmp_path):
    code, text = run_cli(
        tmp_path, "t1.json", "density", "--q", "1009", "--eta", "q^-1/8", "--format", "json"
    )
    rep = json.loads(text)[0]
    assert rep["bound"] == pytest.approx((2 * 0.125 / 3.5) ** 2)


def test_theorem1_rejects_bad_epsilon(capsys):
    assert main(["density", "--q", "101", "--eta", "q^1/4"]) == 2  # epsilon = 1/2: eta > 1
    assert capsys.readouterr().err.startswith("error: --eta ")


def test_theorem2_q5(tmp_path):
    code, text = run_cli(tmp_path, "t2.json", "theorem2", "--q", "5", "--format", "json")
    assert code == 0
    cover = json.loads(text)[0]
    assert cover["details"]["covered"] is True  # {2,3} U {1,4} is everything
    assert cover["details"]["min_cover_k"] == 2


def test_theorem2_convolution_positive_q101(tmp_path):
    code, text = run_cli(tmp_path, "t2.json", "theorem2", "--q", "101", "--format", "json")
    reps = json.loads(text)
    conv = [r for r in reps if r["name"] == "almost-prime.convolution-positivity"][0]
    assert conv["details"]["positive_everywhere"] is True
    assert conv["computed"] > 0


def test_theorem3_obstructed_q5(tmp_path):
    code, text = run_cli(tmp_path, "t3.json", "theorem3", "--q", "5", "--format", "json")
    assert code == 0
    rep = json.loads(text)[0]
    assert rep["details"]["obstructed"] is True
    assert rep["details"]["subgroup_index"] == 2


def test_theorem3_small_exponent_q13(tmp_path):
    code, text = run_cli(tmp_path, "t3.json", "theorem3", "--q", "13", "--format", "json")
    rep = json.loads(text)[0]
    assert rep["details"]["obstructed"] is False
    # brute-force oracle: P^(2) misses {5, 11}; every residue is a triple product
    assert rep["computed"] == 3.0
    assert rep["details"]["theoretical_exponent"] == 8


def test_theorem3_squares_once(tmp_path):
    # the squaring trace covers at P^8 after 3 squarings; the descent then tries P^4 * P^2
    # and P^4 * P, both full, so k = 4 + 1 in 2 more products, and no power is rebuilt
    with (
        mock.patch.object(products, "_sumset_exp", wraps=products._sumset_exp) as sumset,
        mock.patch.object(products, "_sumset_exp_fft", wraps=products._sumset_exp_fft) as fft,
    ):
        code, text = run_cli(
            tmp_path, "t3.json", "theorem3", "--q", "100003", "--eta", "q^-1/2", "--format", "json"
        )
    assert code == 0
    rep = json.loads(text)[0]
    assert rep["computed"] == 5.0
    assert [s["k"] for s in rep["details"]["doubling_trace"]] == [2, 4, 8]
    assert sumset.call_count == 5
    assert fft.call_count == 0


def test_density_command(tmp_path):
    code, text = run_cli(tmp_path, "d.csv", "density", "--q", "5", "--eta", "1")
    assert code == 0
    assert "0.4" in text


def test_coset_scan_grid(tmp_path):
    code, text = run_cli(
        tmp_path, "c.csv", "coset-scan", "--q-min", "3", "--q-max", "20", "--eta", "1"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "q,eta,prime_count,obstructed,subgroup_index,representative"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[5][3] == "1"  # obstructed
    assert rows[5][4] == "2"
    assert rows[13][3] == "0"


def test_omega_sum_command(tmp_path):
    code, text = run_cli(
        tmp_path, "o.csv", "omega-sum", "--x", "10000", "--z", "0", "--format", "csv"
    )
    assert code == 0
    row = text.splitlines()[1].split(",")
    assert row[0] == "10000"
    assert float(row[2]) == 10000.0  # z = 1: LHS is exactly x


def test_audit_command_and_exit_codes(tmp_path):
    code, text = run_cli(tmp_path, "a.csv", "audit", "weil")
    assert code == 0
    assert "kloosterman.weil,pass" in text
    assert main(["audit", "definitely-not-a-suite"]) == 2


def test_audit_exit_one_on_hard_failure(tmp_path, monkeypatch):
    from primecover import audits
    from primecover.reports import AuditReport

    def broken(seed=0):
        return [AuditReport(name="forced", verdict="fail", computed=1.0, bound=0.0)]

    monkeypatch.setitem(audits.SUITES, "weil", broken)
    code, text = run_cli(tmp_path, "f.csv", "audit", "weil")
    assert code == 1
    assert "forced,fail" in text


@pytest.mark.parametrize("q, eta", [(13, "1"), (10007, "q^-1/2"), (10039, "4/10039")])
def test_theorem3_covers_at_k_around_the_least_exponent(q, eta, tmp_path):
    argv = ["theorem3", "--q", str(q), "--eta", eta, "--format", "json"]
    code, text = run_cli(tmp_path, "t3.json", *argv)
    assert code == 0
    k_min = int(json.loads(text)[0]["computed"])
    p = prime_residues(q, eta)
    # the k-fold product, built directly, covers first at the reported exponent
    assert iterated_product(p, k_min).covers_units
    assert not iterated_product(p, k_min - 1).covers_units


def test_audit_json_structure(tmp_path):
    code, text = run_cli(tmp_path, "a.json", "audit", "freiman", "--format", "json")
    reps = json.loads(text)
    assert all(r["verdict"] == "pass" for r in reps)
    assert {"name", "params", "computed", "bound", "ratio", "verdict", "tolerance"} <= set(reps[0])


def test_float_formatting_12_digits(tmp_path):
    code, text = run_cli(tmp_path, "d.csv", "density", "--q", "10007", "--eta", "1")
    # density 10006/10007 printed with 12 significant digits
    assert "0.999900069951" in text


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["erdos-scan", "coset-scan"])
def test_jobs_below_one_rejected(command, jobs, capsys):
    assert main([command, "--q-min", "3", "--q-max", "50", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--jobs" in err


@pytest.mark.parametrize("command", ["erdos-scan", "coset-scan"])
def test_jobs_above_ceiling_rejected(command, monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **_: pytest.fail("pool"))
    jobs = str(cli.MAX_JOBS + 1)
    assert main([command, "--q-min", "3", "--q-max", "50", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--jobs" in err


def test_pmap_starts_no_more_workers_than_items(monkeypatch):
    import concurrent.futures

    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert sorted(cli._pmap(abs, [-3, -1, -2], cli.MAX_JOBS)) == [1, 2, 3]
    assert started == [3]
    assert cli._pmap(abs, [-5], cli.MAX_JOBS) == [5] and started == [3]  # one item: no pool


@pytest.mark.parametrize(
    "argv,flag",
    [
        # epsilon = 1e-12 and 1e-300 above -1/4: denominators past 1000
        (["density", "--q", "101", "--eta", "q^-0.249999999999"], "--eta"),
        (["density", "--q", "101", "--eta", "q^-1e-300"], "--eta"),
        (["theorem2", "--q", "101", "--eta", "q^-0.249999999999"], "--eta"),
        (["density", "--q", "101", "--eta", "0"], "--eta"),
        (["theorem2", "--q", "101", "--eta", "0"], "--eta"),
        (["theorem2", "--q", "101", "--eta=-1/8"], "--eta"),
        (["erdos-scan", "--q", "999983", "--eta", "q^-1/100000"], "--eta"),
        (["erdos-scan", "--q", "101", "--eta", "q^-1/1000000"], "--eta"),
        (["theorem3", "--q", "101", "--eta", "q^(-1/1001)"], "--eta"),
        # eta above 1, and an exponent outside (-1, 0]
        (["theorem2", "--q", "101", "--eta", "2"], "--eta"),
        (["theorem2", "--q", "101", "--eta", "q^1/2"], "--eta"),
    ],
)
def test_exponent_denominators_and_epsilon_sign_rejected_fast(argv, flag, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0]


def test_exponent_denominator_at_the_ceiling_runs(tmp_path):
    code, text = run_cli(tmp_path, "e.csv", "erdos-scan", "--q", "101", "--eta", "q^-1/1000")
    assert code == 0 and text.splitlines()[1] == "101,25,97,3,37"


def test_jobs_byte_identical(tmp_path):
    args = ["erdos-scan", "--q-min", "3", "--q-max", "200"]
    _, a = run_cli(tmp_path, "j1.csv", *args, "--jobs", "1")
    _, b = run_cli(tmp_path, "j8.csv", *args, "--jobs", "8")
    assert a == b
    args = ["coset-scan", "--q-min", "3", "--q-max", "2000"]
    _, a = run_cli(tmp_path, "c1.csv", *args, "--jobs", "1")
    _, b = run_cli(tmp_path, "c2.csv", *args, "--jobs", "2")
    assert a == b and a.count("\n") == 1 + 302  # a header and a row per odd prime to 2000


@pytest.mark.parametrize(
    "exc", [AssertionError, RuntimeError, IndexError, KeyError, TypeError, ZeroDivisionError]
)
def test_internal_error_exits_three(exc, monkeypatch, capsys):
    def broken(a, b):
        raise exc("forced drift")

    monkeypatch.setattr(products, "product_set", broken)
    assert main(["erdos-scan", "--q", "101"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"internal error: {exc.__name__}: {exc('forced drift')}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["erdos-scan", "--q", "101", "--eta", "1/0"],
        ["erdos-scan", "--q", "101", "--eta", "q^1/0"],
        ["density", "--q", "101", "--eta", "q^(1/0)"],
        ["theorem2", "--q", "101", "--eta", "1/0"],
        ["omega-sum", "--x", "100", "--z", "1/0"],
    ],
)
def test_zero_denominator_exits_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: zero denominator in '1/0'"]


def test_omega_sum_rejects_x_past_sieve_budget(capsys):
    assert main(["omega-sum", "--x", "2000000000"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --x must lie in [100, 10^7], the factor sieve budget; got 2000000000"
    ]


@pytest.mark.parametrize(
    "xs", [["10000000", "1000000000"], ["1000", "99"], ["99", "1000"], ["100", "10000001"]]
)
def test_omega_sum_checks_every_x_before_any_sieve(xs, monkeypatch, capsys):
    from primecover import coset

    monkeypatch.setattr(coset, "factor_sieve", lambda x: pytest.fail(f"sieve built to {x}"))
    assert main(["omega-sum", "--x", *xs]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --x ")


def test_omega_sum_at_sieve_budget(tmp_path, monkeypatch):
    from primecover import primes

    monkeypatch.setattr(primes, "_factor_cache", None)  # the 10^7 sieve leaves with the test
    code, text = run_cli(tmp_path, "o.csv", "omega-sum", "--x", "10000000", "--z", "0")
    assert code == 0
    assert text.splitlines()[1].split(",")[:3] == ["10000000", "e(0)", "10000000"]


def peak_mb_above_import(*argv):
    """Peak RSS of a child that runs `primecover argv` less that of an import-only child, in MB.

    Each child reads VmHWM, the peak of its own address space.  Its ru_maxrss would not do:
    exec keeps the larger of it and the RSS of the spawning process, here pytest's.
    """
    peak = "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln[:6] == 'VmHWM:'))\n"
    run = (
        "import contextlib, io\n"
        "from primecover import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )
    src = os.path.dirname(os.path.dirname(primecover.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    kib = []
    for script in ("from primecover import cli\n" + peak, run + peak):
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        kib.append(int(done.stdout))
    return (kib[1] - kib[0]) / 1024


# Peaks above an import-only child: the largest of nine runs (85.8, 28.0 and 109.3 MB), rounded
# up to 0.5 MB, plus a 2 MB margin for the bimodal glibc heap.  omega-sum: the Omega table's
# build (its int32 smallest-prime-factor table), nothing per n.  audit all: the solution-count
# suite's one complex q x q grid at q = 1009 (16 MB).  theorem2: the FFTs of the certificate's
# cyclic counts at q = 999983, pinned where it stands.
OMEGA_SUM_PEAK_MB = 88
AUDIT_ALL_PEAK_MB = 30
THEOREM2_PEAK_MB = 111.5


def test_omega_sum_peak_rss_ceiling():
    assert peak_mb_above_import("omega-sum", "--x", "10000000") <= OMEGA_SUM_PEAK_MB


def test_audit_all_peak_rss_ceiling():
    assert peak_mb_above_import("audit", "all", "--seed", "0") <= AUDIT_ALL_PEAK_MB


def test_theorem2_peak_rss_ceiling():
    assert peak_mb_above_import("theorem2", "--q", "999983") <= THEOREM2_PEAK_MB


# Theorem 2 (i) and (ii): eta = q^(-1/16 + epsilon) and q^(-1/4 + epsilon)
@pytest.mark.parametrize("eta", ["q^-1/16", "q^-1/4"], ids=["i", "ii"])
def test_theorem2_short_sieve_range_names_flags(eta, monkeypatch, capsys):
    monkeypatch.setattr(cli, "prime_residues", lambda *args: pytest.fail("primes sieved"))
    assert main(["theorem2", "--q", "3", "--eta", eta]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "--q 3" in err[0] and f"--eta {eta}" in err[0]


def test_theorem2_q5_mode_ii(tmp_path):
    # (ii) at epsilon = 1/4: min(eta*q, q - 1) = 4 exactly, the least admitted sieve range
    code, _ = run_cli(tmp_path, "t2.csv", "theorem2", "--q", "5", "--eta", "q^0")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["erdos-scan", "--q", "101"],
        ["theorem2", "--q", "101"],
        ["theorem3", "--q", "101"],
        ["density", "--q", "101"],
        ["coset-scan", "--q", "101"],
        ["omega-sum", "--x", "1000"],
    ],
)
def test_seed_only_on_audit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["all", "ruzsa", "parseval"])
def test_negative_seed_refused_before_any_suite(suite, monkeypatch, capsys):
    from primecover import audits

    for name in audits.SUITES:
        monkeypatch.setitem(audits.SUITES, name, lambda seed=0: pytest.fail("a suite ran"))
    assert main(["audit", suite, "--seed", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--seed" in err[0]


def test_scan_reads_the_row_function_when_it_runs(tmp_path, monkeypatch):
    cli.build_parser()  # built before the row functions are rebound, as under a tracer
    seen = []
    for name in ("_erdos_row", "_coset_row"):
        row = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda task, row=row: seen.append(task[0]) or row(task))
    run_cli(tmp_path, "e.csv", "erdos-scan", "--q", "101")
    run_cli(tmp_path, "c.csv", "coset-scan", "--q", "103")
    assert seen == [101, 103]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["theorem2", "--q", "101", "--eta", "-1/8"], "--eta"),  # -1/8 reads as an option
        (["erdos-scan", "--q", "abc"], "--q"),
        # theorem2 derives its sieve exponent from --eta; the sieve slacks are constants
        (["theorem2", "--q", "101", "--xi", "0.2"], "--xi"),
        (["theorem2", "--q", "101", "--delta", "0.05"], "--delta"),
        (["theorem2", "--q", "101", "--gamma", "0.25"], "--gamma"),
    ],
)
def test_argparse_refusal_is_one_error_line(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0]


def test_every_option_is_documented_in_readme():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        (command, flag)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert len(options) > 10
    assert sorted(o for o in options if not _names(readme, o[1])) == []


def test_cached_parser_leaks_no_option_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    code, text = run_cli(tmp_path, "a", "erdos-scan", "--q", "101", "--format", "json")
    assert code == 0 and json.loads(text)[0]["q"] == 101
    code, text = run_cli(tmp_path, "b", "erdos-scan", "--q", "101")
    assert code == 0 and text.startswith("q,prime_count,")


def test_omega_sum_default_x_survives_two_calls(tmp_path):
    outputs = [run_cli(tmp_path, "o.csv", "omega-sum") for _ in range(2)]
    assert outputs[0] == outputs[1] and outputs[0][1].splitlines()[1].startswith("100000,")
    assert cli.build_parser().parse_args(["omega-sum"]).x == (10**5,)


def test_json_rows_floats_match_csv_cells(tmp_path):
    argv = ["omega-sum", "--x", "100", "1000", "--z", "1/3"]
    _, csv_text = run_cli(tmp_path, "o.csv", *argv)
    _, json_text = run_cli(tmp_path, "o.json", *argv, "--format", "json")
    assert "-69.5," in csv_text and "-69.5," in json_text  # the raw sum is -69.50000000000006
    header, *lines = csv_text.splitlines()
    floats = 0
    for line, row in zip(lines, json.loads(json_text), strict=True):
        for column, cell in zip(header.split(","), line.split(","), strict=True):
            if isinstance(row[column], float):
                assert row[column] == float(cell)
                floats += 1
    assert floats == 2 * 6


_SINGLE_Q_COMMANDS = ("erdos-scan", "coset-scan", "theorem2", "theorem3", "density")
_COMPOSITE = "modulus must be an odd prime >= 3, got 15"
_OVERSIZED = "modulus budget is q <= 10^6, got 1000003"


@pytest.mark.parametrize(
    "argv, message",
    [([cmd, "--q", "15"], _COMPOSITE) for cmd in _SINGLE_Q_COMMANDS]
    # the parser refuses --q before the command reads its other flags
    + [(["theorem3", "--q", "15", "--eta", "banana"], _COMPOSITE)]
    + [(["density", "--q", "1000000007"], "modulus budget is q <= 10^6, got 1000000007")]
    + [([cmd, "--q", "1000003"], _OVERSIZED) for cmd in _SINGLE_Q_COMMANDS],
)
def test_bad_single_modulus_exits_two(argv, message, capsys):
    t0 = time.perf_counter()
    assert exit_code(argv) == 2
    assert time.perf_counter() - t0 < 1.0  # rejected before any sieve or table is built
    assert capsys.readouterr().err.splitlines() == [f"error: argument --q: {message}"]


@pytest.mark.parametrize(
    "argv, q_lo, q_hi",
    [
        (["coset-scan", "--q-min", "3", "--q-max", "2000"], 3, 2000),
        (["erdos-scan", "--q", "10007"], 10007, 10007),
    ],
)
def test_one_primality_test_per_modulus(argv, q_lo, q_hi, monkeypatch, capsys):
    calls = []
    real_is_prime = modular.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(modular, "is_prime", counting_is_prime)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(modular.primes_in_range(q_lo, q_hi))


@pytest.mark.parametrize("cmd", ["erdos-scan", "coset-scan"])
def test_bad_eta_rejected_before_rows_start(cmd, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_pmap", lambda *args: pytest.fail("rows started"))
    argv = [cmd, "--q-min", "3", "--q-max", "50", "--eta", "banana", "--jobs", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_commands_import_neither_scipy_nor_a_process_pool():
    script = (
        "import sys\n"
        "from primecover.cli import main\n"
        "assert main(['theorem3', '--q', '10007']) == 0\n"
        "assert main(['omega-sum', '--x', '1000']) == 0\n"
        "bad = sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')\n"
        "print('loaded:', bad, file=sys.stderr)\n"
        "sys.exit(1 if bad else 0)\n"
    )
    src = os.path.dirname(os.path.dirname(primecover.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


_BIG = "1" + "0" * 400


_UNBOUNDED = [
    (["erdos-scan", "--q", _BIG], "<401-digit number>"),
    (["erdos-scan", "--q", "101", "--eta", "1e400"], "<401-digit number>"),
    (["erdos-scan", "--q", "101", "--eta", "q^1e400"], "<401-digit number>"),
    (["omega-sum", "--x", _BIG], "<401-digit number>"),
    # refused on the text, before 10^N or a 5000-digit int is built
    (["erdos-scan", "--q", "101", "--eta", "1e10000000"], "--eta"),
    (["density", "--q", "101", "--eta", "q^-1e-10000000"], "--eta"),
    (["erdos-scan", "--q", "101", "--eta", "1e5000"], "--eta"),
    (["erdos-scan", "--q", "101", "--eta", "7" * 5000], "--eta"),
    (["omega-sum", "--x", "1000", "--z", "1e5000"], "--z"),
    # malformed: named by its flag, not by Fraction's own message
    (["erdos-scan", "--q", "101", "--eta", "banana"], "--eta"),
    (["erdos-scan", "--q", "101", "--eta", "q^(-1/2"], "--eta"),
    (["omega-sum", "--x", "1000", "--z", "1e15/3"], "--z"),
    (["theorem2", "--q", "101", "--eta", "q^abc"], "--eta"),
    (["erdos-scan", "--q", "101", "--eta", "x" * 999], "--eta"),
]


@pytest.mark.parametrize("argv, named", _UNBOUNDED, ids=[f"argv{i}" for i in range(len(_UNBOUNDED))])
def test_refusal_of_an_unbounded_number_is_one_short_line(argv, named, capsys):
    t0 = time.perf_counter()
    assert exit_code(argv) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and len(err[0]) < 120
    if named.startswith("--"):
        assert err[0].startswith(f"error: {named} ")
    else:
        assert err[0].endswith(named)


@pytest.mark.parametrize("rotations", [("0", "7", "1e20", "1e309", _BIG), ("1/3", "4/3", "-2/3")])
def test_omega_sum_rotation_is_taken_mod_one(rotations, tmp_path):
    cells = set()
    for i, z in enumerate(rotations):
        code, text = run_cli(tmp_path, f"o{i}.csv", "omega-sum", "--x", "1000", f"--z={z}")
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert row[1] == f"e({Fraction(z)})"
        cells.add(tuple(row[2:]))
    assert len(cells) == 1  # e(a/b) has period 1


def _naive_certificate(w, p):
    """theorem2's minimum and witnesses from the double-loop convolution, applied twice."""
    q = p.q
    warr = w.residue_array(q)
    pind = np.zeros(q)
    pind[p.elements()] = 1.0
    conv = fourier.mult_convolve_naive(fourier.mult_convolve_naive(warr, pind, q), pind, q).real
    units = conv[1:]
    return float(units.min()), (np.flatnonzero(units <= 0)[:8] + 1).tolist() or None


def _certificate_cases(monkeypatch, tmp_path, qs, settings):
    """(report, naive (min, witnesses)) per theorem2 run, from the weights that run built."""
    built = []
    lower = sieves.linear_lower
    monkeypatch.setattr(sieves, "linear_lower", lambda prm: built.append(lower(prm)) or built[-1])
    for q in qs:
        for setting in settings:
            argv = ["theorem2", "--q", str(q), *setting, "--format", "json"]
            code, text = run_cli(tmp_path, "t2.json", *argv)
            assert code == 0
            cover, positivity = json.loads(text)
            p = prime_residues(q, cover["params"]["eta"])
            yield positivity, _naive_certificate(built[-1], p)


def test_theorem2_certificate_vs_naive_convolution(monkeypatch, tmp_path):
    settings = ([], ["--eta", "q^-1/16"], ["--eta", "q^-1/8"])
    cases = 0
    for rep, (low, witnesses) in _certificate_cases(
        monkeypatch, tmp_path, modular.primes_in_range(5, 211), settings
    ):
        assert (rep["computed"], rep["witness"]) == (low, witnesses)
        assert rep["details"]["positive_everywhere"] is (witnesses is None)
        cases += 1
    assert cases == 3 * 45  # the primes 5..211


_WEIGHT_EDITS = {
    "negated": lambda f: -f,  # every unit negative
    "zero": lambda f: 0 * f,  # every unit exactly 0
    # -1 off residue 1 and q^2 on it: w- * r(a) = (q^2 + 1) r(a) - |P|^2 <= 0 iff a is not in P.P
    "spike": lambda f: np.where(np.arange(len(f)) == 1, len(f) ** 2, -1.0),
}


@pytest.mark.parametrize("edit", sorted(_WEIGHT_EDITS))
def test_theorem2_certificate_witnesses_vs_naive(edit, monkeypatch, tmp_path):
    real = sieves.SieveWeights.residue_array
    monkeypatch.setattr(
        sieves.SieveWeights, "residue_array", lambda w, q: _WEIGHT_EDITS[edit](real(w, q))
    )
    setting = ["--eta", "q^-1/8"]  # P.P misses 17 residues at 101, 21 at 211
    for rep, (low, witnesses) in _certificate_cases(monkeypatch, tmp_path, (101, 211), (setting,)):
        assert rep["details"]["positive_everywhere"] is False
        assert (rep["computed"], rep["witness"]) == (low, witnesses)
        if edit == "spike":
            p = prime_residues(rep["params"]["q"], "q^-1/8")
            missing = products.product_set(p, p).complement_units().elements()
            assert witnesses == missing[:8] and witnesses[0] == 11
        else:
            assert witnesses == list(range(1, 9))


def test_theorem2_non_integral_weights_are_an_internal_error(monkeypatch, capsys):
    real = sieves.SieveWeights.residue_array
    monkeypatch.setattr(sieves.SieveWeights, "residue_array", lambda w, q: real(w, q) + 0.5)
    assert main(["theorem2", "--q", "101"]) == 3  # |P| = 25: sums land on halves
    assert capsys.readouterr().err.startswith("internal error: AssertionError")


def test_theorem2_certificate_at_the_ceiling(tmp_path):
    argv = ["theorem2", "--q", "999983", "--format", "json"]
    code, text = run_cli(tmp_path, "t2.json", *argv)
    assert code == 0
    _, positivity = json.loads(text)
    assert positivity["details"]["positive_everywhere"] is True and positivity["computed"] > 0
