"""Outside-in tracer: spans around primecover functions, installed from outside the package.

The tracer wraps every public function of each ``primecover.<layer>`` module,
plus the few private functions and methods that mark a layer boundary the
public names do not show, and rebinds each wrapper under every name the
original has in any ``primecover.*`` module and in ``audits.SUITES``.  Code
inside the package therefore calls the wrapper whether it imported the
module or the name.  A target that no longer exists is recorded as missing
and its metrics are left out with a warning; the run goes on.

A span records calls, inclusive seconds and self seconds (inclusive minus
the child spans it covers).  Spans are aggregated by name as they close, so
memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

LAYERS = (
    "residues", "modular", "primes", "products", "coset",
    "fourier", "sieves", "audits", "reports", "cli",
)

# Private functions and methods that carry a layer boundary.  cli is the
# entry point: its public functions (main, cmd_*) would wrap the whole run in one
# span, so only its per-row and encoding steps are spans.
EXTRA_TARGETS = {
    "residues": ("ResidueSet.elements",),
    "products": ("_sumset_exp", "_sumset_exp_fft"),
    "cli": ("_erdos_row", "_coset_row", "_rows_to_csv", "_rows_to_json"),
}
ROW_SPANS = ("cli._erdos_row", "cli._coset_row")
ENCODE_SPANS = (
    "cli._rows_to_csv", "cli._rows_to_json",
    "reports.reports_to_csv", "reports.reports_to_json", "reports.fmt_float",
)


def _traceable(obj) -> bool:
    if hasattr(obj, "cache_info"):  # functools.lru_cache wrapper
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Stat:
    __slots__ = ("calls", "incl", "self", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Frame:
    __slots__ = ("child_s", "fft")

    def __init__(self) -> None:
        self.child_s = 0.0
        self.fft = False


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.stack: list[Frame] = []
        self.top_s = 0.0  # time inside outermost spans
        self.row_s: list[float] = []
        self.missing: list[str] = []
        self.suites: dict[str, str] = {}  # audit suite name -> span name

    def _miss(self, what: str) -> None:
        self.missing.append(what)
        print(f"warning: trace target {what} not found; its metrics are absent", file=sys.stderr)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stat = self.stats[name] = Stat()
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before() if before else None
            frame = Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.incl += dt
                stat.self += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
                else:
                    self.top_s += dt
            if after:
                after(stat, args, result, dt, frame, token)
            return result

        copied = ("__module__", "__name__", "__qualname__", "__doc__", "cache_info", "cache_clear")
        for attr in copied:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name: str, fn, modules: dict):
        """before/after probes that turn a span into the counts its metrics need."""
        if name == "modular.character_table":
            def after(stat, args, result, dt, frame, misses_before):
                if fn.cache_info().misses > misses_before:
                    stat.add("misses", 1)
                    stat.add("build_s", dt)
            return (lambda: fn.cache_info().misses), after
        if name == "primes.primes_below":
            primes = modules["primes"]
            if not hasattr(primes, "_prime_cache"):
                self._miss("primes._prime_cache")
                return None, None
            def after(stat, args, result, dt, frame, cache_before):
                stat.add("rebuilds", int(primes._prime_cache is not cache_before))
            return (lambda: primes._prime_cache), after
        if name == "residues.ResidueSet.elements":
            return None, lambda stat, args, result, dt, frame, _: stat.add("items", len(result))
        if name == "products._sumset_exp_fft":
            def after(stat, args, result, dt, frame, _):
                stat.add("points", args[2])
                if self.stack:
                    self.stack[-1].fft = True
            return None, after
        if name == "products._sumset_exp":
            def after(stat, args, result, dt, frame, _):
                e1, e2, n = args
                if frame.fft:
                    path = "fft"
                elif e1 and e2 and e1.bit_count() + e2.bit_count() > n:
                    path = "pigeonhole"
                else:
                    path = "rotation"
                stat.add(f"{path}.calls", 1)
                stat.add(f"{path}.self_s", dt - frame.child_s)
            return None, after
        if name == "fourier.mult_convolve":
            return None, lambda stat, args, result, dt, frame, _: stat.add("points", len(args[0]))
        if name in ROW_SPANS:
            return None, lambda stat, args, result, dt, frame, _: self.row_s.append(dt)
        return None, None

    def install(self, package: str = "primecover") -> None:
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        }
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        methods = []
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                self._miss(f"{package}.{layer}")
                continue
            names = []
            if layer != "cli":
                names = [
                    n
                    for n, v in vars(mod).items()
                    if not n.startswith("_") and _traceable(v) and v.__module__ == mod.__name__
                ]
            for target in names + list(EXTRA_TARGETS.get(layer, ())):
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = vars(owner).get(attr) if owner is not None else None
                if fn is None or not _traceable(fn):
                    self._miss(f"{layer}.{target}")
                    continue
                span = f"{layer}.{target}"
                wrapper = self._wrap(span, fn, *self._hooks(span, fn, modules))
                if owner_name:
                    methods.append((owner, attr, wrapper))
                else:
                    replaced[id(fn)] = (fn, wrapper)
        for owner, attr, wrapper in methods:
            setattr(owner, attr, wrapper)
        for mod in modules.values():
            for n, v in list(vars(mod).items()):
                hit = replaced.get(id(v))
                if hit is not None and hit[0] is v:
                    setattr(mod, n, hit[1])
        suites = getattr(modules.get("audits"), "SUITES", None)
        if suites is None:
            self._miss("audits.SUITES")
            return
        for key, fn in list(suites.items()):
            hit = replaced.get(id(fn))
            if hit is not None and hit[0] is fn:
                suites[key] = hit[1]
                self.suites[key] = f"audits.{fn.__name__}"

    def export(self) -> dict:
        return {
            "stats": {
                n: {"calls": s.calls, "incl": s.incl, "self": s.self, **s.extra}
                for n, s in self.stats.items()
            },
            "top_s": self.top_s,
            "row_s": self.row_s,
            "missing": self.missing,
            "suites": self.suites,
        }


# ---------------------------------------------------------------------------
# per-layer metrics from an exported trace

AUDIT_SUITES = (
    "weil", "freiman", "ruzsa", "sieve", "parseval", "convolution",
    "solution-count", "pv", "l1", "mult-coeff", "omega", "almost-prime",
)


def _nearest_rank(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered)) - 1]


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float, bytes_out: int) -> dict:
    """name -> {"value", "unit"}; a metric whose span is missing is left out with a warning."""
    stats = trace["stats"]
    out: dict[str, dict] = {}

    def put(name: str, unit: str, spans: tuple[str, ...], value) -> None:
        absent = [s for s in spans if s not in stats]
        if absent:
            print(f"warning: metric {name} absent: no span {', '.join(absent)}", file=sys.stderr)
            return
        out[name] = {"value": value(*(stats[s] for s in spans)), "unit": unit}

    def calls(metric: str, span: str) -> None:
        put(metric, "count", (span,), lambda s: s["calls"])

    def self_s(metric: str, span: str) -> None:
        put(metric, "s", (span,), lambda s: s["self"])

    def extra(metric: str, unit: str, span: str, key: str) -> None:
        put(metric, unit, (span,), lambda s: s.get(key, 0))

    el = "residues.ResidueSet.elements"
    calls("residues.elements.calls", el)
    self_s("residues.elements.self_s", el)
    extra("residues.elements.items", "count", el, "items")

    ct = "modular.character_table"
    calls("modular.character_table.calls", ct)
    extra("modular.character_table.misses", "count", ct, "misses")
    put("modular.character_table.hit_ratio", "ratio", (ct,),
        lambda s: (s["calls"] - s.get("misses", 0)) / s["calls"] if s["calls"] else 0.0)
    extra("modular.character_table.build_s", "s", ct, "build_s")
    calls("modular.is_prime.calls", "modular.is_prime")
    self_s("modular.primes_in_range.self_s", "modular.primes_in_range")
    calls("modular.mod_inverse.calls", "modular.mod_inverse")
    self_s("modular.subgroup_of_index.self_s", "modular.subgroup_of_index")

    calls("primes.prime_residues.calls", "primes.prime_residues")
    self_s("primes.prime_residues.self_s", "primes.prime_residues")
    calls("primes.primes_below.calls", "primes.primes_below")
    if "primes._prime_cache" not in trace["missing"]:
        extra("primes.primes_below.rebuilds", "count", "primes.primes_below", "rebuilds")
    self_s("primes.primes_below.self_s", "primes.primes_below")
    self_s("primes.factor_sieve.self_s", "primes.factor_sieve")

    calls("products.product_set.calls", "products.product_set")
    self_s("products.product_set.self_s", "products.product_set")
    naive = "products.product_set_naive"
    exp, fft = "products._sumset_exp", "products._sumset_exp_fft"
    calls("products.sumset.naive.calls", naive)
    self_s("products.sumset.naive.self_s", naive)
    for path in ("rotation", "pigeonhole"):
        extra(f"products.sumset.{path}.calls", "count", exp, f"{path}.calls")
        extra(f"products.sumset.{path}.self_s", "s", exp, f"{path}.self_s")
    calls("products.sumset.fft.calls", fft)
    # the dispatching _sumset_exp frame around an FFT call is part of the FFT path
    put("products.sumset.fft.self_s", "s", (exp, fft),
        lambda e, f: e.get("fft.self_s", 0) + f["self"])
    extra("products.sumset.fft.points", "count", fft, "points")
    for fn in ("iterated_product", "quotient_set", "invert_set", "solution_counts_all"):
        self_s(f"products.{fn}.self_s", f"products.{fn}")

    for fn in ("coset_obstruction", "is_coset_trapped", "coset_scan_report", "omega_power_sum"):
        self_s(f"coset.{fn}.self_s", f"coset.{fn}")

    mc = "fourier.mult_convolve"
    calls("fourier.mult_convolve.calls", mc)
    self_s("fourier.mult_convolve.self_s", mc)
    extra("fourier.mult_convolve.points", "count", mc, "points")
    for fn in ("kloosterman_row", "weil_audit", "solution_count_fourier", "mult_transform"):
        self_s(f"fourier.{fn}.self_s", f"fourier.{fn}")

    for fn in ("selberg_upper", "linear_lower", "audit_weights"):
        self_s(f"sieves.{fn}.self_s", f"sieves.{fn}")

    for suite in AUDIT_SUITES:
        span = trace["suites"].get(suite, f"audits.suite:{suite}")
        put(f"audits.{suite}.s", "s", (span,), lambda s: s["incl"])

    if any(r in stats for r in ROW_SPANS):
        out["cli.row_s.p50"] = {"value": _nearest_rank(trace["row_s"], 0.50), "unit": "s"}
        out["cli.row_s.p99"] = {"value": _nearest_rank(trace["row_s"], 0.99), "unit": "s"}
    else:
        print("warning: metrics cli.row_s.* absent: no row spans", file=sys.stderr)
    put("reports.encode.self_s", "s", ENCODE_SPANS, lambda *s: sum(x["self"] for x in s))
    out["cli.bytes_out"] = {"value": bytes_out, "unit": "bytes"}

    out["trace.attributed_share"] = {"value": trace["top_s"] / traced_wall, "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
    return out
