#!/usr/bin/env python3
"""Start one ``incprofd`` for the ingest workload, in its own process.

Usage::

    python3 perfbench/daemon.py --root CHECKOUT --model M.ipm STORE_DIR

Launches the daemon through :func:`repro.service.server.serve` with a
:class:`~repro.service.server.ServerConfig` the CLI cannot express (the
store compaction cadence), prints ``incprofd listening on HOST:PORT``
once it accepts connections, and serves until a ``shutdown`` control
message, SIGTERM, or the end of its standard input (the launcher
died).  Refits are count-triggered only (``refit_interval=0``), so the
work done per run never depends on the wall clock; every classified
interval is archived under ``STORE_DIR``.
"""

import argparse
import signal
import sys
import threading
from pathlib import Path

#: Archive maintenance cadence (flush + compact + gc): fires about four
#: times per daemon, a dozen times in a measured window, instead of the
#: default 30 s's 0 or 1.  Each flush rewrites the archive manifest once
#: per stream with pending intervals; at 1 s those flushes stalled acks
#: for up to 0.5 s in half the rounds, and p90 moved with how many of
#: the stalls landed inside timed ops.
COMPACT_INTERVAL_S = 3.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--model", required=True)
    parser.add_argument("store_dir")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))

    from repro.core.model_io import load_model
    from repro.service import Endpoint, ServerConfig
    from repro.service.server import serve

    config = ServerConfig(
        endpoint=Endpoint.tcp("127.0.0.1", 0),
        store_dir=args.store_dir,
        store_compact_interval=COMPACT_INTERVAL_S,
        refit_interval=0.0,
        log_level="warning",
    )
    server = serve(load_model(args.model), config)
    signal.signal(signal.SIGTERM, lambda *_: server.stop())

    def stop_on_eof() -> None:
        sys.stdin.buffer.read()  # returns once the launcher is gone
        server.stop()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(f"incprofd listening on {server.endpoint}", flush=True)
    server.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
