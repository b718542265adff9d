"""Call tracer: record which functions of ``src/repro`` a process enters.

Put this directory first on ``PYTHONPATH`` and set ``CALLTRACE_DIR``. Every
Python process started with that environment (a test run, the benchmark's
child processes, the HTTP server child) then installs a profile hook on all
its threads and, when it exits, writes the ``src/repro`` functions it
entered to ``$CALLTRACE_DIR/calls-<pid>.json``::

    CALLTRACE_DIR=/tmp/trace PYTHONPATH=tools/calltrace:src \\
        python -m pytest -q tests/apps
    python tools/calltrace/report.py /tmp/trace

Without ``CALLTRACE_DIR`` importing this module does nothing. It shadows
any other ``sitecustomize`` on the path while it is first there.
"""

import atexit
import json
import os
import signal
import sys
import threading

_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro") + os.sep


def _install(out_dir: str) -> None:
    # (file, first line, name) of every entered code object under _ROOT;
    # co_firstlineno is the first decorator's line for a decorated def,
    # which is what report.py matches on.
    entered = set()
    inside = {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        under = inside.get(filename)
        if under is None:
            under = inside[filename] = os.path.abspath(filename).startswith(_ROOT)
        if under:
            entered.add((filename, code.co_firstlineno, code.co_name))

    def dump() -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        # set.copy is one C call: safe while daemon threads still run.
        calls = sorted([os.path.relpath(os.path.abspath(f), _ROOT), line, name]
                       for f, line, name in entered.copy())
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"calls-{os.getpid()}.json"), "w") as fh:
            json.dump(calls, fh)

    def on_sigterm(signum, frame):
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    atexit.register(dump)
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, on_sigterm)
    threading.setprofile(profile)
    sys.setprofile(profile)


if os.environ.get("CALLTRACE_DIR"):
    _install(os.environ["CALLTRACE_DIR"])
