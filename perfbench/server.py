"""Serve an OracleBackend through LoopbackServer in a process of its own.

    python3 perfbench/server.py --world W --scenes S [--trace]

Prints one JSON line `{"url": ..., "oracle_setup_s": ...}` once it accepts
connections, then serves until its standard input closes.  The server runs
a handler derived from LoopbackServer's default one (injected through
`LoopbackServer(handler=...)`) that adds GET paths; scoring traffic (POST)
never touches them.  GET /bench/cpu takes a host-speed probe in this
process (see speed.py) and returns it with the process's CPU seconds so
far, less the probes'.  With --trace the handler also counts connections
and requests and times each request, and the oracle sits behind a counting
proxy; GET /bench/stats returns those totals and /bench/reset zeroes them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from genret import LoopbackServer, OracleBackend, read_scenes, read_world  # noqa: E402

from speed import probe  # noqa: E402
from tracing import Tracer, TracedScorer  # noqa: E402

DEFAULT_HANDLER = inspect.signature(LoopbackServer).parameters["handler"].default


class BenchHandler(DEFAULT_HANDLER):
    probes_cpu_s = 0.0

    def do_GET(self):
        if self.path == "/bench/cpu":
            start = process_time()
            probe_s = probe()
            BenchHandler.probes_cpu_s += process_time() - start
            self._reply(200, {"cpu_s": process_time() - self.probes_cpu_s, "probe_s": probe_s})
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})


def traced_handler(tracer: Tracer):
    class TracedHandler(BenchHandler):
        def setup(self):
            super().setup()
            self._counted = False

        def do_POST(self):
            if not self._counted:
                tracer.count("backends.loopback.connections")
                self._counted = True
            tracer.count("backends.loopback.requests")
            with tracer.region("backends.loopback.handle", record=False):
                super().do_POST()

        def do_GET(self):
            if self.path == "/bench/stats":
                # scoring.* counts belong to the client; the server reports its own layers
                own = {k: v for k, v in tracer.counters.items() if k.startswith("backends.")}
                self._reply(200, {"counters": own, "totals": dict(tracer.totals)})
            elif self.path == "/bench/reset":
                tracer.reset()
                self._reply(200, {})
            else:
                super().do_GET()

    return TracedHandler


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--world", required=True)
    ap.add_argument("--scenes", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    spec, scenes = read_world(args.world), read_scenes(args.scenes)
    start = perf_counter()
    backend = OracleBackend(spec, scenes)
    setup_s = perf_counter() - start
    handler = BenchHandler
    if args.trace:
        tracer = Tracer()
        backend = TracedScorer(backend, tracer, "backends.oracle", record=False)
        handler = traced_handler(tracer)
    server = LoopbackServer(backend, handler=handler)
    url = server.start()
    print(json.dumps({"url": url, "oracle_setup_s": setup_s}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
