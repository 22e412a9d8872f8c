"""The benchmark tracer still finds every span that a per-layer metric in BENCHMARK.json names.

The tracer rebinds names across the whole package, so it runs in a child
interpreter and leaves this one untouched.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHILD = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import primecover.cli as cli
from primecover.modular import character_table
from tracer import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [
        cli.main(["erdos-scan", "--q", "101"]),
        cli.main(["coset-scan", "--q-min", "3", "--q-max", "50"]),
    ]
metrics = layer_metrics(tracer.export(), 1.0, 1.0, len(out.getvalue()))
print(json.dumps({
    "codes": codes,
    "missing": tracer.missing,
    "metrics": {name: m["value"] for name, m in metrics.items()},
    "misses": character_table.cache_info().misses,
}))
"""


def test_traced_run_carries_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "warning" not in done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert got["missing"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {m["name"] for m in declared} <= set(got["metrics"])
    assert got["metrics"]["modular.character_table.misses"] == got["misses"] > 0
