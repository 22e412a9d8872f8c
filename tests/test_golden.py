"""Golden outputs: commands whose stdout must stay byte for byte what `golden.json` pins.

Each case holds the argv, the sha256 of the whole output and a short sha256 per
line, so a changed output names its first differing line.  After a change that
is meant to alter one of these outputs, re-pin with
`PYTHONPATH=src python3 tests/test_golden.py` and show the old and new cells.
"""

import hashlib
import json
import pathlib

import pytest

from primecover.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))
COMMANDS = (
    ["audit", "all", "--seed", "0"],
    ["audit", "all", "--seed", "3", "--format", "json"],
    ["erdos-scan", "--q-min", "3", "--q-max", "3000"],
    ["erdos-scan", "--q-min", "999900", "--q-max", "1000000"],
    ["coset-scan", "--q-min", "3", "--q-max", "20000"],
    ["erdos-scan", "--q-min", "3", "--q-max", "500", "--format", "json"],
    # obstructed rows, unobstructed rows and the empty-P row at q = 3
    ["coset-scan", "--q-min", "3", "--q-max", "2000", "--eta", "q^-1/2", "--format", "json"],
    ["erdos-scan", "--q", "999983", "--eta", "1/10"],
    ["omega-sum", "--x", "10000", "100000", "1000000"],
    ["theorem1", "--q", "100003"],
    ["theorem2", "--q", "101"],
    ["theorem2", "--q", "101", "--mode", "ii", "--format", "json"],
    ["theorem2", "--q", "9973", "--mode", "ii", "--format", "json"],
    ["theorem2", "--q", "100003", "--mode", "ii", "--format", "json"],
    ["theorem2", "--q", "999983", "--mode", "ii", "--format", "json"],
    *(
        ["theorem3", "--q", q, "--eta", eta, "--format", "json"]
        for q in ("5", "13", "10007", "100003", "999983")
        for eta in ("1", "q^-1/4", "q^-1/2")
    ),
    *(  # P = {2, 3}: the least exponent is q - 2 = 100017, the longest descent in the corpus
        ["theorem3", "--q", "100019", "--eta", "4/100019", *k, "--format", "json"]
        for k in ([], ["--k", "100016"], ["--k", "100017"])
    ),
    ["density", "--q", "999983", "--eta", "1/5"],
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _line_digests(text: str) -> str:
    return " ".join(_sha(line)[:12] for line in text.splitlines())


def _run(argv: list[str], path: pathlib.Path) -> tuple[int, str]:
    code = main([*argv, "--out", str(path)])
    return code, path.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_output(case, tmp_path):
    code, text = _run(case["argv"], tmp_path / "out")
    assert code == case["exit"]
    if _sha(text) == case["sha256"]:
        return
    lines, pinned = text.splitlines(), case["line_sha256"].split()
    got = _line_digests(text).split()
    same = [a == b for a, b in zip(got, pinned)] + [False]
    first = same.index(False)
    line = repr(lines[first]) if first < len(lines) else "(output ends)"
    command = "primecover " + " ".join(case["argv"])
    pytest.fail(f"`{command}` changed; first differing line {first + 1}: {line}")


if __name__ == "__main__":
    import tempfile

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in COMMANDS:
            code, text = _run(argv, pathlib.Path(tmp) / "out")
            digests = {"sha256": _sha(text), "line_sha256": _line_digests(text)}
            out.append({"argv": argv, "exit": code, **digests})
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
