"""Child process that runs roundfold's CLI in-process: `roundfold.cli.main(argv)`.

    python3 perfbench/worker.py SRC_DIR probe
    python3 perfbench/worker.py SRC_DIR census OUT_FILE ARGV_JSON [--trace]
    python3 perfbench/worker.py SRC_DIR serve

Every mode imports roundfold from SRC_DIR and then writes "ready" on stdout,
so the parent can time interpreter start-up plus import.  `census` runs one
command with stdout sent to OUT_FILE and writes one JSON line with its exit
code and wall time.  `serve` reads JSON lines from stdin, each a batch of
argv lists; it runs them one after another, single-threaded, and answers one
JSON line per batch with each request's exit code, stdout, stderr and
seconds.  A batch may ask for tracing; "report" returns the trace, and
closing stdin ends the process.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time


def _call(main, argv: list[str], stdout, stderr) -> tuple[object, float]:
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects argv
        code = exc.code
    except Exception as exc:  # reported as a failed request, never fatal
        code = f"exception: {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return code, elapsed


def main() -> int:
    src, mode = os.path.abspath(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, src)
    import roundfold
    import roundfold.cli

    if not os.path.abspath(roundfold.__file__).startswith(src + os.sep):
        print(f"roundfold imported from {roundfold.__file__}, not {src}", file=sys.stderr)
        return 2
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if mode == "probe":
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer

    tracer = Tracer()
    if mode == "census":
        out_file, argv = sys.argv[3], json.loads(sys.argv[4])
        traced = "--trace" in sys.argv
        if traced:
            tracer.install()
        err = io.StringIO()
        with open(out_file, "w", encoding="utf-8") as out:
            code, elapsed = _call(roundfold.cli.main, argv, out, err)
        reply = {"code": code, "seconds": elapsed, "stderr": err.getvalue()[-2000:]}
        if traced:
            tracer.uninstall()
            reply["trace"] = tracer.report()
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
        return 0

    if mode != "serve":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "report":
            reply = tracer.report()
        else:
            if msg.get("trace"):
                tracer.install()
            results = []
            try:
                for argv in msg["requests"]:
                    out, err = io.StringIO(), io.StringIO()
                    code, elapsed = _call(roundfold.cli.main, argv, out, err)
                    results.append([code, out.getvalue(), err.getvalue()[-2000:], elapsed])
            finally:
                tracer.uninstall()
            reply = {"results": results}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
