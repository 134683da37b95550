"""Serve a trained model artifact from the command line.

One-shot file mode (a JSON file holding a list of request graphs)::

    python -m repro.serve model.npz --input requests.json

Streaming mode (one JSON graph per stdin line, one JSON result per
stdout line, micro-batched through the worker-thread queue)::

    cat requests.jsonl | python -m repro.serve model.npz --stdin

Networked mode (threaded HTTP front-end, see :mod:`repro.serve.net`)::

    python -m repro.serve model.npz --http --port 8732

SIGTERM/SIGINT drain gracefully: health goes 503, in-flight requests
finish, the engine queue flushes.

A request graph is ``{"x": [[...], ...], "edge_index": [[srcs], [dsts]]}``
(``x`` rows are node feature vectors; ``edge_index`` may be omitted for an
edgeless graph).  Each response line carries the prediction, the raw
output, per-class probabilities and the energy score of the logits.
Malformed or schema-invalid requests answer in place (an ``{"error":
...}`` stream line / HTTP 400) and never take the server down.
"""

from __future__ import annotations

import argparse
import json
import queue
import signal
import sys
import threading

from repro.serve.artifact import ModelArtifact
from repro.serve.engine import InferenceEngine
from repro.serve.futures import PendingResult
from repro.serve.wire import graph_from_json, result_to_json

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the serving CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve prediction requests from a trained model artifact.",
    )
    parser.add_argument("artifact", help="model artifact written by --export-artifact / ModelArtifact.save")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--input", help="JSON file with a list of request graphs (one-shot mode)")
    mode.add_argument("--stdin", action="store_true", help="read JSON-lines requests from stdin")
    mode.add_argument("--http", action="store_true", help="serve over HTTP (POST /predict, GET /stats)")
    parser.add_argument("--host", default="127.0.0.1", help="--http: bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8732, help="--http: TCP port (default 8732; 0 = ephemeral)")
    parser.add_argument(
        "--queue-depth", type=int, default=256,
        help="--http: bounded inflight queue (admission control; over it "
        "requests shed with 429; default 256)",
    )
    parser.add_argument("--max-graphs", type=int, default=64, help="micro-batch graph budget (default 64)")
    parser.add_argument(
        "--max-nodes", type=int, default=None,
        help="micro-batch packed-node budget (default: auto — derived from the "
        "compute dtype, 2048 at float64 / 4096 at float32; 0 = unbounded)",
    )
    parser.add_argument(
        "--dtype", choices=("artifact", "float64", "float32"), default="artifact",
        help="compute precision: float32 is the fast serving mode (~2x packed "
        "throughput at a documented tolerance), float64 the reference; "
        "'artifact' (default) uses the precision the bundle was saved in",
    )
    parser.add_argument(
        "--access-log", action="store_true",
        help="--http: log one structured JSON line per request to stderr "
        "(trace id, status, latency, energy score)",
    )
    return parser


def _load_graphs(path: str) -> list:
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("graphs", [payload])
    return [graph_from_json(obj) for obj in payload]


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    artifact = ModelArtifact.load(args.artifact)
    if args.max_nodes is None:
        max_nodes = "auto"
    else:
        max_nodes = args.max_nodes or None
    engine = InferenceEngine(
        artifact,
        max_graphs=args.max_graphs,
        max_nodes=max_nodes,
        dtype=None if args.dtype == "artifact" else args.dtype,
    )

    if args.input:
        results = engine.predict(_load_graphs(args.input))
        for result in results:
            print(json.dumps(result_to_json(result)))
        return 0

    if args.http:
        return _serve_http(args, engine)

    # Streaming mode: submit each line to the queue front-end (so bursts
    # coalesce into packed forwards).  A dedicated drainer thread prints
    # results in arrival order as they complete — the reader blocks on
    # stdin, so draining there would deadlock an interactive client that
    # waits for each response before sending its next request.
    engine.start()
    handles: "queue.Queue" = queue.Queue()
    _done = object()

    def drain() -> None:
        while True:
            handle = handles.get()
            if handle is _done:
                return
            try:
                payload = result_to_json(handle.result())
            except Exception as err:  # keep the stream alive per-request
                payload = {"error": str(err)}
            print(json.dumps(payload), flush=True)

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                handle = engine.submit(graph_from_json(json.loads(line)))
            except Exception as err:
                # One malformed or schema-invalid line answers with an
                # error response in stream position; the server lives on.
                handle = PendingResult()
                handle._resolve(None, err)
            handles.put(handle)
    finally:
        engine.stop()
        handles.put(_done)
        drainer.join()
    return 0


def _serve_http(args, engine, stop: threading.Event | None = None) -> int:
    """``--http`` mode: bind, serve, drain on SIGTERM/SIGINT.

    ``stop`` injects the shutdown trigger for embedders and tests (set it
    to drain); when provided, no signal handlers are installed — handlers
    only work on the main thread anyway.
    """
    from repro.serve.net import EngineBackend, serve_http

    backend = EngineBackend(engine, queue_depth=args.queue_depth)
    server = serve_http(
        backend, host=args.host, port=args.port, access_log=args.access_log,
    )
    print(f"serving {args.artifact} on {server.url} (SIGTERM drains)", file=sys.stderr)
    if stop is None:
        stop = threading.Event()

        def _request_drain(_signum, _frame) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _request_drain)
        signal.signal(signal.SIGINT, _request_drain)
    # Poll-wait so the signal handler always gets a bytecode boundary to
    # run on, then drain outside handler context.
    while not stop.wait(timeout=0.2):
        pass
    print("draining: health 503, flushing in-flight requests", file=sys.stderr)
    server.drain()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
