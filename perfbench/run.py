"""The repository benchmark: Algorithm-1 training jobs and HTTP ``/predict``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints an environment record, a detail
record and, as its last stdout line, one JSON result object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (see perfbench/README.md).  Workloads:

* ``train-triangles-k8`` / ``train-dd300-k1``: ``python -m repro.run``
  training jobs, each in a fresh process;
* ``serve-single`` / ``serve-batch16``: a ``python -m repro.serve --http``
  server process under a closed loop of two keep-alive connections.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
LAUNCH = str(HERE / "launch.py")
sys.path[:0] = [str(HERE), str(ROOT / "src")]   # repro is imported lazily, after the tree check

from tracing import summarise  # noqa: E402

CONNECTIONS = 2              # closed-loop clients = cores of the reference box
SETUP_SAMPLES = 9            # process start-ups timed per training run (median reported)
WARMUP_STARTS = 3            # untimed start-ups before a traced training run
TRACE_PAIRS = 3              # untraced/traced job pairs of a traced training run
SERVER_STARTS = 5            # server start-ups timed per serving run (median reported)
CHILD_TIMEOUT_S = 150.0
SERVE_DATASET = "proteins25"
# Served logits against in-process InferenceEngine.predict on the same
# float32 artifact: packing differs, arithmetic precision does not.
OUTPUT_RTOL, OUTPUT_ATOL = 1e-4, 1e-5


@dataclass(frozen=True)
class Training:
    argv: tuple            # python -m repro.run arguments
    seeds: int             # model seeds per job (--seeds)
    nominal_job_s: float   # sizes the number of jobs per run from --seconds

    @property
    def seeds_per_step(self) -> int:
        return self.seeds if "--batched-seeds" in self.argv else 1


@dataclass(frozen=True)
class Serving:
    graphs_per_request: int


WORKLOADS = {
    "train-triangles-k8": Training(("--dataset", "triangles", "--seeds", "8", "--batched-seeds"), 8, 6.0),
    "train-dd300-k1": Training(("--dataset", "dd300", "--seeds", "1"), 1, 5.0),
    "serve-single": Serving(1),
    "serve-batch16": Serving(16),
}


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list, timeout: float = CHILD_TIMEOUT_S) -> tuple[float, int, str]:
    """Run ``python3 args`` to completion; (spawned_at, returncode, stdout)."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return spawned_at, proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
def run_job(work: Training, offset: int, trace_out: str | None = None) -> dict:
    args = [LAUNCH, "job", "--offset", str(offset)]
    if trace_out:
        args += ["--trace-out", trace_out]
    spawned_at, rc, stdout = run_child(args + ["--", *work.argv])
    record = last_json(stdout) if rc == 0 else None
    if record is None:
        return {"ok": False}
    ok = (
        record["rc"] == 0
        and record["losses_finite"]
        and record["test_mean"] is not None
        and lines_match(record["lines"], record["test_mean"])
    )
    return {**record, "ok": ok, "setup_s": record["imported_at"] - spawned_at}


def lines_match(lines: list, test_mean: dict) -> bool:
    """The metrics ``repro.run`` printed are the ones the job returned."""
    printed = dict(
        (name.strip(), value) for name, _, value in (line.partition(": ") for line in lines)
    )
    return all(
        printed.get(split, "").startswith(f"{mean:.3f} ") for split, mean in test_mean.items()
    )


def ood_mean(record: dict) -> float:
    (value,) = record["test_mean"].values()   # the workloads have one OOD test split
    return value


def job_offsets(work: Training, seed: int, seconds: float) -> list[int]:
    """Seed offsets of the run's jobs: as many as fit ``seconds`` nominally.

    Fixed by the arguments, not by measured speed, so a seed always trains
    the same jobs; workload seed 0 starts at offset 0, the plain CLI.
    """
    jobs = max(1, int(seconds // work.nominal_job_s))
    return [(seed * jobs + j) * work.seeds for j in range(jobs)]


def setup_samples(count: int) -> list[float]:
    """Start-up times of ``count`` fresh processes that only import the stack."""
    samples = []
    for _ in range(count):
        spawned_at, rc, stdout = run_child([LAUNCH, "setup"])
        if rc == 0:
            samples.append(last_json(stdout)["imported_at"] - spawned_at)
    return samples


def training_e2e(work: Training, seed: int, seconds: float):
    offsets = job_offsets(work, seed, seconds)
    # Import-only start-ups follow each job.  On the reference box a
    # start-up after an idle stretch runs up to a third slower than one
    # right after a job, so every sample is taken in that one state, and
    # the samples still span the run.
    jobs = len(offsets)
    extra = max(0, SETUP_SAMPLES - jobs)
    setups, records = [], []
    for j, offset in enumerate(offsets):
        records.append(run_job(work, offset))
        setups += setup_samples(extra // jobs + (j < extra % jobs))
    setups += [r["setup_s"] for r in records if r["ok"]]
    checks = {}
    if seed == 0 and records[0]["ok"]:
        # Offset 0 is the CLI itself: its printed metrics must match a
        # plain `python -m repro.run` with the same arguments.
        _spawned, rc, stdout = run_child(["-m", "repro.run", *work.argv])
        checks["reproduces_cli"] = rc == 0 and stdout.splitlines() == records[0]["lines"]
    ok = [r for r in records if r["ok"]]
    attempted = len(records) + ("reproduces_cli" in checks)
    failed = len(records) - len(ok) + (checks.get("reproduces_cli") is False)
    if not ok:
        return False, attempted, failed, {}, checks
    steps = [step for r in ok for step in r["steps"]]
    step_ms = [s * 1e3 for s, _graphs in steps]
    total_job_s = sum(r["job_s"] for r in ok)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(r["job_s"] for r in ok),
        "ood_metric": statistics.fmean(ood_mean(r) for r in ok),
        "graphs_per_s": sum(g for _s, g in steps) * work.seeds_per_step / total_job_s,
        "p50_ms": percentile(step_ms, 50),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(r["max_rss_mb"] for r in ok),
    }
    checks.update(job_s=[r["job_s"] for r in ok], setup_s=setups, steps=len(step_ms),
                  p95_ms=percentile(step_ms, 95))
    return failed == 0, attempted, failed, metrics, checks


def job_layers(trace: dict, job_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced job, and its inclusive layer times."""
    layers = summarise(trace["spans"])
    counters = trace["counters"]

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    results = counters.get("reweight.results", 0.0)
    metrics = {
        "core.reweight_s": self_s("core.reweight"),
        "core.reweight_calls": calls("core.reweight"),
        "core.reweight_loss_ratio": counters.get("reweight.loss_ratio_sum", 0.0) / results if results else 0.0,
        "core.reweight_ess": counters.get("reweight.ess_sum", 0.0) / results if results else 0.0,
        "core.memory_s": self_s("core.memory"),
        "encoders.forward_s": self_s("encoders.forward"),
        "autograd.backward_s": self_s("autograd.backward"),
        "nn.head_loss_s": self_s("nn.head_loss"),
        "nn.optim_s": self_s("nn.optim"),
        "graph.batch_s": self_s("graph.batch"),
        "datasets.load_s": self_s("datasets.load"),
        "datasets.load_calls": calls("datasets.load"),
        "training.eval_s": self_s("training.eval"),
        "trace.unattributed_share": 1.0 - sum(v["self_s"] for v in layers.values()) / job_s,
    }
    return metrics, {k: v["incl_s"] for k, v in layers.items()}


def training_layers(work: Training, seed: int, seconds: float, workdir: Path):
    """Untraced and traced jobs of one seed, alternating; medians over the traced ones."""
    offset = job_offsets(work, seed, seconds)[0]
    setup_samples(WARMUP_STARTS)
    plain, traced, rows = [], [], []
    for pair in range(TRACE_PAIRS):
        plain.append(run_job(work, offset))
        trace_out = workdir / f"job-trace-{pair}.json"
        traced.append(run_job(work, offset, str(trace_out)))
        if traced[-1]["ok"]:
            with open(trace_out) as fh:
                rows.append(job_layers(json.load(fh), traced[-1]["job_s"]))
    jobs = plain + traced
    failed = sum(not r["ok"] for r in jobs)
    if failed:
        return False, len(jobs), failed, {}, {}
    metrics = {name: statistics.median(row[name] for row, _incl in rows) for name in rows[0][0]}
    plain_s = [r["job_s"] for r in plain]
    traced_s = [r["job_s"] for r in traced]
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    # Instrumentation must not change results: every job prints the same metrics.
    same = all(r["lines"] == plain[0]["lines"] for r in jobs)
    checks = {"traced_matches_untraced": same, "traced_job_s": traced_s, "untraced_job_s": plain_s,
              "inclusive_s": {k: statistics.median(incl.get(k, 0.0) for _row, incl in rows)
                              for k in rows[0][1]}}
    return same, len(jobs), int(not same), metrics, checks


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class Connection:
    """Minimal HTTP/1.1 keep-alive client over one socket."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, raw: bytes) -> tuple[int, bytes]:
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        status = int(head.split(b" ", 2)[1])
        length = int(re.search(rb"(?i)content-length:\s*(\d+)", head).group(1))
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def post_request(body: bytes) -> bytes:
    return (
        b"POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


class Server:
    """One ``repro.serve --http`` process on an ephemeral port."""

    def __init__(self, artifact: Path, workdir: Path, trace_out: str | None = None):
        self.log = workdir / f"server-{time.monotonic_ns()}.log"
        args = [LAUNCH, "serve"] + (["--trace-out", trace_out] if trace_out else [])
        args += ["--", str(artifact), "--http", "--port", "0"]
        spawned_at = time.monotonic()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                         stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._wait_for_port()
            self.setup_s = self._wait_healthy() - spawned_at
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = re.search(r"on http://[\d.]+:(\d+)", self.log.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")

    def _wait_healthy(self, timeout: float = 60.0) -> float:
        deadline = time.monotonic() + timeout
        probe = b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        while time.monotonic() < deadline:
            try:
                conn = Connection(self.port)
                try:
                    status, _body = conn.request(probe)
                finally:
                    conn.close()
                if status == 200:
                    return time.monotonic()
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz with 200")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s*(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> bool:
        """SIGTERM (graceful drain) and wait; True on a clean exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60) == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False


def closed_loop(port: int, requests: list, seconds: float) -> dict:
    """Two keep-alive clients replay ``requests`` for ``seconds``.

    Each client sends its next request as soon as its previous reply is
    in, taking the index from one shared counter that cycles over the
    probe set.  Returns per-request records ``(index, latency_s, status,
    body)``, the loop's wall time and any client errors.
    """
    counter = itertools.count()   # next() on it is one C call: atomic under the GIL
    records: list[list] = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds

    def client(slot: int) -> None:
        out = records[slot]
        try:
            conn = Connection(port)
        except OSError as err:
            errors.append(err)
            return
        try:
            while (sent := time.perf_counter()) < deadline:
                index = next(counter) % len(requests)
                status, body = conn.request(requests[index])
                out.append((index, time.perf_counter() - sent, status, body))
        except (OSError, ValueError) as err:
            errors.append(err)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": [r for out in records for r in out],
            "wall_s": time.perf_counter() - started, "errors": errors}


class ServingFixture:
    """Artifact, probe requests and reference outputs for one workload seed.

    The float32 1-seed OOD-GNN artifact is exported by ``python -m
    repro.run --export-artifact`` (the public ``ModelArtifact.from_models``
    → ``astype("float32")`` path) with the CLI's own seed 0.  The workload
    seed picks the request sample: the OOD test split of the dataset drawn
    with that seed.  (Across model seeds the served model's OOD accuracy
    spreads by a quarter of its median, which would drown the metric.)
    """

    def __init__(self, seed: int, graphs_per_request: int, workdir: Path):
        self.artifact = workdir / "model.npz"
        export = ["--dataset", SERVE_DATASET, "--seeds", "1", "--export-artifact",
                  str(self.artifact), "--artifact-dtype", "float32"]
        _spawned, rc, stdout = run_child([LAUNCH, "job", "--", *export])
        if rc != 0 or last_json(stdout)["rc"] != 0:
            raise RuntimeError("artifact export failed")
        self.sha256 = hashlib.sha256(self.artifact.read_bytes()).hexdigest()

        import numpy as np
        from repro.datasets import load_dataset
        from repro.serve.artifact import ModelArtifact
        from repro.serve.engine import InferenceEngine

        dataset = load_dataset(SERVE_DATASET, seed=seed)
        (self.graphs,) = dataset.tests.values()
        self.metric = dataset.info.metric
        self.targets = np.array([g.y for g in self.graphs])
        engine = InferenceEngine(ModelArtifact.load(self.artifact))
        self.reference = np.stack([p.output for p in engine.predict(self.graphs)])
        self.graphs_per_request = graphs_per_request
        self.requests, self.graph_ranges = [], []   # raw bytes; graph index range of each
        for lo in range(0, len(self.graphs), graphs_per_request):
            chunk = [
                {"x": g.x.tolist(), "edge_index": g.edge_index.tolist()}
                for g in self.graphs[lo:lo + graphs_per_request]
            ]
            payload = chunk[0] if graphs_per_request == 1 else {"graphs": chunk}
            self.requests.append(post_request(json.dumps(payload).encode()))
            self.graph_ranges.append((lo, lo + len(chunk)))

    def check(self, loop: dict) -> tuple[int, int, int, float | None]:
        """(requests, failed, graphs answered, OOD metric of the served outputs).

        Each graph is scored from the first good response that carried it.
        """
        import numpy as np
        from repro.training.metrics import evaluate_metric

        failed = len(loop["errors"])
        graphs = 0
        served = np.full_like(self.reference, np.nan)
        scored = set()
        for index, _latency, status, body in loop["records"]:
            lo, hi = self.graph_ranges[index]
            try:
                payload = json.loads(body) if status == 200 else None
                answers = None if payload is None else (
                    [payload] if self.graphs_per_request == 1 else payload["results"]
                )
                good = answers is not None and len(answers) == hi - lo and all(
                    a.get("prediction") is not None
                    and a.get("energy") is not None and math.isfinite(a["energy"])
                    and np.allclose(a["output"], self.reference[lo + k],
                                    rtol=OUTPUT_RTOL, atol=OUTPUT_ATOL)
                    for k, a in enumerate(answers)
                )
            except (ValueError, KeyError, TypeError):
                good = False
            if not good:
                failed += 1
                continue
            graphs += hi - lo
            if index not in scored:
                scored.add(index)
                served[lo:hi] = [a["output"] for a in answers]
        requests = len(loop["records"])
        if len(scored) < len(self.requests):
            return requests, max(failed, 1), graphs, None
        outputs = served[:, 0] if served.shape[1] == 1 else served
        return requests, failed, graphs, evaluate_metric(self.metric, outputs, self.targets)


def serving_e2e(work: Serving, seed: int, seconds: float, workdir: Path):
    fixture = ServingFixture(seed, work.graphs_per_request, workdir)
    setups, clean = [], []

    def start_and_stop(count: int) -> None:
        for _ in range(count):
            server = Server(fixture.artifact, workdir)
            setups.append(server.setup_s)
            clean.append(server.stop())

    # The timed loop's server is one set-up sample; the others start before
    # and after the loop, so the samples span the run.
    before = (SERVER_STARTS - 1) // 2
    start_and_stop(before)
    server = Server(fixture.artifact, workdir)
    setups.append(server.setup_s)
    try:
        loop = closed_loop(server.port, fixture.requests, seconds)
        rss = server.peak_rss_mb()
    finally:
        clean.append(server.stop())
    start_and_stop(SERVER_STARTS - 1 - before)
    attempted, failed, graphs, ood = fixture.check(loop)
    failed += clean.count(False)
    attempted += len(clean)
    if ood is None:
        return False, attempted, max(failed, 1), {}, {}
    latency = [r[1] * 1e3 for r in loop["records"]]
    graphs_per_s = graphs / loop["wall_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        # Time to score the whole probe set once, at the loop's rate.
        "job_s": len(fixture.graphs) / graphs_per_s,
        "ood_metric": ood,
        "graphs_per_s": graphs_per_s,
        "p50_ms": percentile(latency, 50),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
    }
    # Tail percentiles are informational: on a shared 2-core box they move
    # with other tenants' load beyond any usable bound (see README).
    checks = {"artifact_sha256": fixture.sha256, "requests": len(latency),
              "setup_s": setups, "p95_ms": percentile(latency, 95),
              "p99_ms": percentile(latency, 99)}
    return failed == 0, attempted, failed, metrics, checks


def serving_layers(work: Serving, seed: int, seconds: float, workdir: Path):
    fixture = ServingFixture(seed, work.graphs_per_request, workdir)
    loops, clean = [], []
    trace_out = str(workdir / "serve-trace.json")
    for out in (None, trace_out):
        server = Server(fixture.artifact, workdir, out)
        try:
            loops.append(closed_loop(server.port, fixture.requests, seconds / 2))
        finally:
            clean.append(server.stop())
    checked = [fixture.check(loop) for loop in loops]
    attempted = sum(c[0] for c in checked) + len(clean)
    failed = sum(c[1] for c in checked) + clean.count(False)
    if failed:
        return False, attempted, failed, {}, {}
    plain_rate, traced_rate = (c[2] / loop["wall_s"] for c, loop in zip(checked, loops))
    with open(trace_out) as fh:
        trace = json.load(fh)
    # /healthz answers pass through the wrapped _respond outside any POST;
    # only the request path counts.
    spans = [s for s in trace["spans"] if not (s[0] == "serve.net.request" and s[4] is None)]
    layers = summarise(spans)
    counters = trace["counters"]
    requests = len(loops[1]["records"])
    graphs = checked[1][2]

    def per_request_ms(layer):
        return layers.get(layer, {}).get("self_s", 0.0) * 1e3 / requests

    handler = layers["serve.net.handler"]
    client_ms = statistics.fmean(r[1] * 1e3 for r in loops[1]["records"])
    metrics = {
        "serve.net.request_ms": per_request_ms("serve.net.request"),
        "serve.wire.decode_ms": per_request_ms("serve.wire.decode"),
        "serve.wire.encode_ms": per_request_ms("serve.wire.encode"),
        "serve.artifact.validate_ms": per_request_ms("serve.artifact.validate"),
        "serve.artifact.validate_calls_per_graph":
            layers.get("serve.artifact.validate", {}).get("calls", 0) / graphs,
        "serve.engine.submit_ms": per_request_ms("serve.engine.submit"),
        "serve.engine.wait_ms": per_request_ms("serve.engine.wait"),
        "graph.pack_ms": per_request_ms("graph.pack"),
        "serve.engine.forward_ms": per_request_ms("serve.engine.forward"),
        "serve.engine.graphs_per_forward":
            counters.get("forward.graphs", 0.0) / max(counters.get("forward.calls", 0.0), 1.0),
        "serve.net.transport_ms": client_ms - handler["incl_s"] * 1e3 / requests,
        # do_POST's own time outside every wrapped call: handler work that
        # no layer names.
        "trace.unattributed_share": handler["self_s"] / handler["incl_s"],
        "trace.overhead_ratio": plain_rate / traced_rate,
    }
    checks = {"traced_requests": requests, "graphs": graphs,
              "untraced_graphs_per_s": plain_rate, "traced_graphs_per_s": traced_rate,
              "inclusive_ms_per_request": {k: v["incl_s"] * 1e3 / requests for k, v in layers.items()}}
    return True, attempted, 0, metrics, checks


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    print(json.dumps({"env": environment()}), flush=True)
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    try:
        work = WORKLOADS[args.workload]
        if isinstance(work, Training):
            outcome = (training_layers(work, args.seed, args.seconds, workdir) if args.trace
                       else training_e2e(work, args.seed, args.seconds))
        else:
            outcome = (serving_layers(work, args.seed, args.seconds, workdir) if args.trace
                       else serving_e2e(work, args.seed, args.seconds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, measured, checks = outcome
    print(json.dumps({"detail": checks}), flush=True)
    if not measured:
        print("error: the workload produced no measurements", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
