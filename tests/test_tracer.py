"""The benchmark tracer still finds every span that a per-layer metric in BENCHMARK.json names.

The tracer rebinds names across the whole package, so it runs in a child
interpreter and leaves this one untouched.  The traced benchmark run itself,
`perfbench/run.py --trace 1` on each workload, must end on a strict-JSON
result line that carries every per-layer metric.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
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
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(got["metrics"])
    assert got["metrics"]["modular.character_table.misses"] == got["misses"] > 0


def _refuse_constant(name):
    raise ValueError(f"non-finite {name} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_trace_run_ends_on_a_full_result(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    assert not [line for line in done.stderr.splitlines() if "warning:" in line]
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0
    got = result["metrics"]
    for metric in BENCHMARK["per_layer"]:
        value = got[metric["name"]]
        assert value["unit"] == metric["unit"] and math.isfinite(value["value"]), metric
