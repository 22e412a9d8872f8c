"""One workload repetition in a fresh interpreter.

    python3 perfbench/child.py TRACE COMMANDS_JSON

Imports ``primecover.cli`` from ``src/``, optionally installs the tracer,
runs each command through ``cli.main`` with its stdout captured, and prints
one JSON object: the monotonic time at which the import finished, and per
command its exit code, stdout and seconds (plus the trace when TRACE is 1).
With an empty command list it measures set-up only.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import primecover.cli as cli  # noqa: E402

READY = time.monotonic()


def main() -> None:
    trace, commands = sys.argv[1] == "1", json.loads(sys.argv[2])
    tracer = None
    if trace and commands:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for argv in commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an internal error is a failed command, not a crash of the run
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - t0
        results.append({"argv": argv, "exit": code, "stdout": buf.getvalue(), "seconds": seconds})
    report = {"ready": READY, "commands": results}
    if tracer is not None:
        report["trace"] = tracer.export()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
