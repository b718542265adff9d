"""The ``point_http`` server child and the handle its parent holds.

Run as a program, this file builds the session (the seeded ``orders``
table), starts ``TdpServer(workers=2)`` on an ephemeral port, runs every
recurring statement once, prints one readiness line
``{"port": ..., "pid": ..., "register_ms": ...}`` and serves until its
standard input closes. The parent keeps the write end of that pipe, so the
child ends when the parent does, however the parent ends.

:class:`ServerProcess` is the parent side: a context manager that starts the
child, waits for the readiness line and always reaps it.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from typing import Optional

import datagen
import harness

WORKERS = 2
READY_TIMEOUT_S = 120.0


class ServerProcess:
    def __init__(self, seed: int, scale: float, cpu: Optional[int] = None):
        self.seed = seed
        self.scale = scale
        self.cpu = cpu
        self.process = None
        self.port = 0
        self.pid = 0
        self.register_ms = 0.0

    def start(self) -> "ServerProcess":
        command = [sys.executable, os.path.abspath(__file__),
                   "--seed", str(self.seed), "--scale", str(self.scale)]
        if self.cpu is not None:
            command += ["--cpu", str(self.cpu)]
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
            line = self.process.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("point_http server child did not become ready")
            info = json.loads(line)
        except BaseException:
            self.close()
            raise
        self.port, self.pid = info["port"], info["pid"]
        self.register_ms = info["register_ms"]
        return self

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.close()

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.pid)

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            process.stdin.close()           # the child's signal to leave
            process.wait(timeout=5)
        except (subprocess.TimeoutExpired, OSError):
            process.terminate()
            try:
                process.wait(timeout=3)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        finally:
            process.stdout.close()


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def build_session(seed: int, scale: float):
    """The served session; also built in-process by the traced pass."""
    from repro.core.session import Session
    orders = datagen.make_orders(seed, scale)
    session = Session()
    start = time.perf_counter()
    session.sql.register_dict(orders, "orders")
    register_ms = (time.perf_counter() - start) * 1e3
    return session, orders, register_ms


async def _serve(seed: int, scale: float) -> None:
    from repro.core.server import TdpServer
    session, orders, register_ms = build_session(seed, scale)
    server = TdpServer(session, port=0, workers=WORKERS)
    await server.start()
    try:
        # Warm-up: every text that recurs in a run, so the plan cache and
        # the kernels are as a long-running server would have them.
        for statement in datagen.repeated_statements(seed, len(orders["o_orderkey"])):
            await asyncio.wrap_future(server.scheduler.submit(statement))
        print(json.dumps({"port": server.port, "pid": os.getpid(),
                          "register_ms": register_ms}), flush=True)
        # Blocks in a thread until the parent closes the pipe (or dies).
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
        # The parent closes its connections just before the pipe; let their
        # handlers see the end of stream before stop() cancels them.
        await asyncio.sleep(0.1)
    finally:
        await server.stop()


def split_cpus():
    """``(generator_cpu, server_cpu)``, or ``(None, None)`` on one CPU.

    Left to the scheduler, the two processes share a CPU in some runs and
    not in others, and a wake-up across CPUs costs several times one within
    a CPU on this VM: unpinned, the median latency read 1.1 to 1.6 ms from
    run to run; a CPU each, 1.1 to 1.3 ms.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[-1]


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    options = parser.parse_args(argv)
    harness.use_checkout()
    if options.cpu is not None:
        os.sched_setaffinity(0, {options.cpu})
    try:
        asyncio.run(_serve(options.seed, options.scale))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
