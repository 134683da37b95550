"""Networked serving benchmarks: real HTTP traffic against the full stack.

Puts load on the whole serving path — socket accept, JSON wire parsing,
admission control, micro-batch coalescing — the pieces
``bench_inference.py`` deliberately bypasses:

* **closed loop** — C client threads over persistent HTTP/1.1
  connections, each sending its next request the moment the previous
  answer lands.  Measured at one client (no coalescing possible) and at
  C clients.  Reports throughput and p50/p99 latency; the best
  closed-loop rate is the stack's **saturation throughput**.
* **open loop** — requests arrive on a fixed schedule at 2x the
  C-client closed-loop rate, each carrying a ``deadline_ms``.  A correct
  server *sheds* the overload (429 from the bounded queue, 504 from
  expired deadlines) and keeps serving the rest at healthy latency
  instead of building an unbounded backlog; the report records the
  served/shed/expired split and the p50/p99 of what was served.

The one ratio is recorded, not gated, and not named a speedup.
``coalesce_ratio`` is C-client vs 1-client closed-loop throughput.  The
engine loop is work-conserving (a lone client is served as soon as the
engine is idle), so the ratio mixes packing gains with how C clients
share the machine's cores (recorded as ``cpu_count``); it measures no
property of the batching policy alone.

Standalone (writes the committed ``BENCH_serving.json`` baseline)::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --nodes 32 --requests 48
"""

import argparse
import http.client
import json
import os
import socket
import threading
import time

import numpy as np

from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.serve import FeatureSchema, InferenceEngine, ModelArtifact, ModelSpec
from repro.serve.net import EngineBackend, serve_http

NUM_NODES, EDGE_P = 256, 0.02
FEATURE_DIM, HIDDEN_DIM, NUM_LAYERS, NUM_CLASSES = 8, 64, 3, 4
NUM_REQUESTS, NUM_CLIENTS = 256, 8
# Open-loop per-request deadline; the value earlier records used, so
# their open-loop rows stay comparable.
OPEN_LOOP_DEADLINE_MS = 33.0
DTYPE = "float32"  # the fast packed serving mode (README precision matrix)

SCHEMA = FeatureSchema(
    feature_dim=FEATURE_DIM, out_dim=NUM_CLASSES, task_type="multiclass",
    metric="accuracy", num_classes=NUM_CLASSES, dataset="bench-serving",
)


def make_artifact(nodes: int, seed: int = 0) -> ModelArtifact:
    rng = np.random.default_rng(seed)
    spec = ModelSpec("gin", hidden_dim=HIDDEN_DIM, num_layers=NUM_LAYERS)
    model = spec.build(SCHEMA)
    # One training-mode pass moves the batch-norm running stats off their
    # init so served energies are finite and representative.
    model.train()
    model(GraphBatch.from_graphs(_graphs(rng, 4, nodes)))
    model.eval()
    return ModelArtifact.from_models([model], spec, SCHEMA)


def _graphs(rng, count: int, nodes: int) -> list:
    graphs = []
    for _ in range(count):
        g = erdos_renyi(nodes, EDGE_P, rng)
        g.x = rng.normal(size=(g.num_nodes, FEATURE_DIM))
        graphs.append(g)
    return graphs


def make_request_bodies(count: int, nodes: int, seed: int = 1) -> list[bytes]:
    """Pre-encoded JSON request bodies (clients measure the wire, not json.dumps)."""
    rng = np.random.default_rng(seed)
    return [
        json.dumps({"x": g.x.tolist(), "edge_index": g.edge_index.tolist()}).encode()
        for g in _graphs(rng, count, nodes)
    ]


def with_deadline(bodies: list[bytes], deadline_ms: float) -> list[bytes]:
    """Wrap each single-graph body in the batch envelope carrying a deadline."""
    return [
        json.dumps({"graphs": [json.loads(body)], "deadline_ms": deadline_ms}).encode()
        for body in bodies
    ]


def start_server(artifact: ModelArtifact):
    """An HTTP server over the in-process engine."""
    engine = InferenceEngine(artifact, dtype=DTYPE)
    return serve_http(EngineBackend(engine, queue_depth=1024))


class _Client:
    """One persistent HTTP/1.1 connection posting to /predict."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=120.0)
        self.conn.connect()
        # http.client sends headers and body as separate writes; without
        # TCP_NODELAY the body stalls on the server's delayed ACK.
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, body: bytes) -> tuple[int, float]:
        """(status, latency_seconds) for one round trip."""
        start = time.perf_counter()
        self.conn.request(
            "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        response.read()
        return response.status, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


def _percentiles_ms(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"p50_ms": float("nan"), "p99_ms": float("nan")}
    arr = np.asarray(latencies) * 1e3
    return {"p50_ms": float(np.percentile(arr, 50)), "p99_ms": float(np.percentile(arr, 99))}


def closed_loop(server, bodies: list[bytes], clients: int, total: int) -> dict:
    """C clients, each firing its next request as the previous one answers."""
    host, port = server.server_address[0], server.port
    counter = {"next": 0}
    lock = threading.Lock()
    latencies: list[list[float]] = [[] for _ in range(clients)]
    failures = [0] * clients

    def run(slot: int, client: _Client) -> None:
        try:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= total:
                        return
                    counter["next"] = i + 1
                status, latency = client.post(bodies[i % len(bodies)])
                if status == 200:
                    latencies[slot].append(latency)
                else:
                    failures[slot] += 1
        finally:
            client.close()

    # Warm the stack (BLAS, scatter kernels) off the clock, and connect
    # every client before the timed window opens.
    warm = _Client(host, port)
    warm.post(bodies[0])
    warm.close()
    pool = [_Client(host, port) for _ in range(clients)]
    threads = [
        threading.Thread(target=run, args=(slot, client)) for slot, client in enumerate(pool)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    flat = [latency for per_client in latencies for latency in per_client]
    return {
        "clients": clients,
        "requests": total,
        "errors": sum(failures),
        "throughput_rps": total / elapsed,
        **_percentiles_ms(flat),
    }


def open_loop(server, bodies: list[bytes], rate_rps: float, total: int, deadline_ms: float) -> dict:
    """Fixed-schedule arrivals at ``rate_rps``; overload must shed, not queue."""
    host, port = server.server_address[0], server.port
    deadline_bodies = with_deadline(bodies, deadline_ms)
    # Each sender has one request outstanding, so sender count bounds the
    # backlog an open-loop burst can build; keep it well above the
    # closed-loop client count or the schedule can never overrun.
    senders = 32
    counter = {"next": 0}
    lock = threading.Lock()
    outcomes: list[tuple[int, float]] = []

    def run(client: _Client) -> None:
        local: list[tuple[int, float]] = []
        try:
            while True:
                with lock:
                    i = counter["next"]
                    if i >= total:
                        return
                    counter["next"] = i + 1
                delay = epoch + i / rate_rps - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                local.append(client.post(deadline_bodies[i % len(deadline_bodies)]))
        finally:
            client.close()
            with lock:
                outcomes.extend(local)

    pool = [_Client(host, port) for _ in range(senders)]
    epoch = time.perf_counter() + 0.05
    threads = [threading.Thread(target=run, args=(client,)) for client in pool]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - epoch
    served = [latency for status, latency in outcomes if status == 200]
    by_status: dict[str, int] = {}
    for status, _latency in outcomes:
        by_status[str(status)] = by_status.get(str(status), 0) + 1
    return {
        "offered_rps": rate_rps,
        "deadline_ms": deadline_ms,
        "requests": total,
        "served": len(served),
        "shed_429": by_status.get("429", 0),
        "expired_504": by_status.get("504", 0),
        "status_counts": by_status,
        "served_rps": len(served) / elapsed,
        **_percentiles_ms(served),
    }


def measure(nodes: int, requests: int, clients: int, open_requests: int) -> dict:
    artifact = make_artifact(nodes)
    bodies = make_request_bodies(min(32, requests), nodes)
    runs: dict[str, dict] = {}
    server = start_server(artifact)
    try:
        runs["inproc_1client"] = closed_loop(server, bodies, clients=1, total=max(requests // 4, 8))
        runs["inproc"] = closed_loop(server, bodies, clients=clients, total=requests)
        runs["open_loop_inproc"] = open_loop(
            server, bodies, rate_rps=2.0 * runs["inproc"]["throughput_rps"],
            total=open_requests, deadline_ms=OPEN_LOOP_DEADLINE_MS,
        )
    finally:
        server.drain()
    return runs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=NUM_NODES, help="nodes per request graph")
    parser.add_argument(
        "--requests", type=int, default=NUM_REQUESTS, help="requests per closed-loop run"
    )
    parser.add_argument(
        "--clients", type=int, default=NUM_CLIENTS, help="concurrent closed-loop clients"
    )
    parser.add_argument(
        "--open-requests", type=int, default=None,
        help="open-loop request count (default: same as --requests)",
    )
    parser.add_argument(
        "--json",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_serving.json"),
        help="machine-readable output path (default: benchmarks/BENCH_serving.json)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    open_requests = args.open_requests if args.open_requests is not None else args.requests
    cpu_count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    runs = measure(args.nodes, args.requests, args.clients, open_requests)

    coalesce = runs["inproc"]["throughput_rps"] / runs["inproc_1client"]["throughput_rps"]
    saturation = max(run["throughput_rps"] for name, run in runs.items() if "open" not in name)
    ol = runs["open_loop_inproc"]

    print(
        f"serving bench: GIN hidden_dim={HIDDEN_DIM}, {NUM_LAYERS} layers, "
        f"{args.nodes}-node graphs, {args.clients} clients, {cpu_count} cpu(s)"
    )
    for name in ("inproc_1client", "inproc"):
        run = runs[name]
        print(
            f"  {name:>14}: {run['throughput_rps']:8.1f} req/s    "
            f"p50 {run['p50_ms']:7.2f} ms    p99 {run['p99_ms']:7.2f} ms    "
            f"errors {run['errors']}"
        )
    print(f"  {args.clients} clients vs 1: {coalesce:.2f}x")
    print(f"  saturation throughput: {saturation:.1f} req/s")
    print(
        f"  open loop at {ol['offered_rps']:.0f} req/s offered: "
        f"served {ol['served']}/{ol['requests']} ({ol['served_rps']:.1f} req/s), "
        f"shed(429) {ol['shed_429']}, expired(504) {ol['expired_504']}, "
        f"served p99 {ol['p99_ms']:.2f} ms"
    )

    payload = {
        "benchmark": "serving",
        "shape": {
            "nodes": args.nodes,
            "edge_p": EDGE_P,
            "hidden_dim": HIDDEN_DIM,
            "num_layers": NUM_LAYERS,
            "requests": args.requests,
            "clients": args.clients,
            "dtype": DTYPE,
        },
        "cpu_count": cpu_count,
        "closed_loop": {name: runs[name] for name in ("inproc_1client", "inproc")},
        "open_loop": ol,
        "saturation_rps": saturation,
        # Not "speedup"-named on purpose: tools/check_bench.py gates only
        # speedup keys, and this says nothing portable (module docstring).
        "coalesce_ratio": coalesce,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
