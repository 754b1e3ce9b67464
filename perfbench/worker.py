"""Run one foxabf CLI request in this fresh interpreter and report on it.

Reads one JSON request from stdin:

    {"src": "<dir holding the foxabf package>", "argv": [...], "trace": false}

and writes one JSON line to stdout with the request's exit code, its
captured standard output and error, the duration of a fixed reference
task (``reference_s``), the time to ``import foxabf.cli`` (``setup_s``),
the time spent in ``cli.main(argv)`` (``latency_s``), the
process's peak resident set size (VmHWM) and, when ``trace`` is set, the layer
totals recorded by ``tracing.Tracer``.

Interpreter start-up happens before this file runs, so it is not part of
either time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


# A fixed task of dict and big-integer arithmetic, the kind of work
# foxabf's Laurent polynomials do, sharing no code with foxabf.  It runs
# before foxabf is imported; run.py scales every time by the median of
# its duration, which follows the speed of the shared machine.
_REF_A = {e: (e * 7919 + 1) ** 12 for e in range(-20, 40)}
_REF_B = {e: (e * 104729 - 3) ** 9 for e in range(-30, 30)}


def reference_s() -> float:
    start = time.perf_counter()
    out: dict[int, int] = {}
    for _ in range(8):
        for ea, ca in _REF_A.items():
            for eb, cb in _REF_B.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak resident set size of this process since it started.

    ru_maxrss is not used where VmHWM exists: across fork and exec it keeps
    the parent's peak, which would report the benchmark's own size.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, request["src"])
    reference = reference_s()

    start = time.perf_counter()
    import foxabf.cli as cli

    setup_s = time.perf_counter() - start

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(request["argv"])
            else:
                rc = tracer.root(cli.main, request["argv"])
        except SystemExit as exc:  # argparse usage errors end this way
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a fault in the program: report it, do not die silently
            rc = None
            error = traceback.format_exc()
        latency_s = time.perf_counter() - start

    result = {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "reference_s": reference,
        "setup_s": setup_s,
        "latency_s": latency_s,
        "maxrss_kb": peak_rss_kb(),
        "trace": tracer.report() if tracer is not None else None,
    }
    sys.__stdout__.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
