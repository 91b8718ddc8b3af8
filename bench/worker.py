"""One cold CLI process: import the package, run commands, report.

    python3 worker.py '<spec json>'

The spec names the commands (argument lists for `ldp_osc.cli.main`) and
whether to trace. Nothing but the interpreter's own modules is imported
before `ldp_osc.cli`, so the stamp taken after that import is the set-up a
CLI user pays. The report is one JSON document on stdout: the stamps (on the
system-wide monotonic clock, so the parent can subtract its spawn time), each
command's exit code and output, the worker's peak resident set size and, when
tracing, the spans.
"""

import os
import sys
import time

import ldp_osc.cli

T_SETUP = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def _peak_rss_kib():
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main():
    spec = json.loads(sys.argv[1])
    source = os.path.realpath(ldp_osc.cli.__file__)
    if not source.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"ldp_osc imported from {source}, not from {spec['src']}",
              file=sys.stderr)
        return 1
    tracer = None
    if spec["trace"]:
        from layers import PACKAGE, TARGETS
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(PACKAGE, TARGETS)
    results = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ldp_osc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the parent counts it as a failed check
                code = "exception"
                err.write(traceback.format_exc())
        results.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    t_done = time.monotonic()
    report = {"t_setup": T_SETUP, "t_done": t_done,
              "peak_rss_kib": _peak_rss_kib(), "results": results}
    if tracer is not None:
        report["spans"] = tracer.spans
        report["absent"] = tracer.absent
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    # skip interpreter teardown: nothing is measured after t_done
    os._exit(status)
