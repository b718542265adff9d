"""``python -m repro.serve``: stand up the TDP serving front door.

Binds the asyncio HTTP/JSON server (:mod:`repro.core.server`) over a fresh
:class:`~repro.core.session.Session`. With ``--demo`` the session is
pre-loaded with the Fig 2 multimodal tables and TinyCLIP model so the
endpoints are immediately queryable::

    python -m repro.serve --port 8734 --demo &
    curl -s localhost:8734/health
    curl -s -X POST localhost:8734/query \
         -H 'x-tdp-client: me' \
         -d '{"statement": "SELECT COUNT(*) FROM Attachments"}'

The server's two deployment settings are its scheduler's: ``--workers``
sizes the worker pool, ``--max-queue-depth`` bounds the queued backlog (0
disables the cap). No per-query config key changes either. See
docs/SERVING.md.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.core.server import TdpServer
from repro.core.session import Session


def build_demo_session() -> Session:
    """A session pre-loaded with the Fig 2 multimodal workload."""
    import numpy as np
    from repro.apps.multimodal import setup_multimodal
    from repro.datasets.attachments import make_attachments
    from repro.ml.models.clip import load_pretrained_clip
    dataset = make_attachments(100, 50, 50, rng=np.random.default_rng(0))
    model = load_pretrained_clip(dataset.images, dataset.captions)
    session = Session()
    setup_multimodal(session, dataset, model)
    return session


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.serve",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8734,
                        help="listening port (0 = ephemeral; default 8734)")
    parser.add_argument("--workers", type=int, default=4,
                        help="scheduler worker threads (default 4)")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help="queued-request cap before shedding "
                             "(0 = unbounded; default 64)")
    parser.add_argument("--demo", action="store_true",
                        help="pre-load the Fig 2 multimodal tables + model")
    return parser


async def _amain(args) -> None:
    session = build_demo_session() if args.demo else Session()
    server = TdpServer(
        session, host=args.host, port=args.port, workers=args.workers,
        max_queue_depth=args.max_queue_depth or None)
    await server.start()
    print(f"[repro.serve] listening on http://{server.host}:{server.port} "
          f"(workers={args.workers}, max_queue_depth="
          f"{args.max_queue_depth or 'unbounded'})", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("[repro.serve] shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
