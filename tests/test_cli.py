"""Command-line entry points (python -m repro.run, python -m repro.serve)."""

import ctypes
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.run
from repro.run import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--dataset", "proteins25"])
        assert args.method == "ood-gnn"
        assert args.seeds == 2

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imagenet"])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "proteins25", "--method", "transformer"])

    def test_reweight_flags(self):
        args = build_parser().parse_args(
            ["--dataset", "proteins25", "--batched-seeds", "--sequential-reweight"]
        )
        assert args.batched_seeds and args.sequential_reweight
        assert not build_parser().parse_args(["--dataset", "proteins25"]).sequential_reweight

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "0"), ("--seeds", "-2"), ("--hidden-dim", "0"),
        ("--batch-size", "0"), ("--num-layers", "0"), ("--lr", "0"),
    ])
    def test_rejects_bad_numeric_flag(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(["--dataset", "triangles", flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {flag}:" in err


class TestMain:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "proteins25" in out
        assert "ood-gnn" in out

    def test_requires_dataset(self):
        with pytest.raises(SystemExit):
            main([])

    def test_tiny_run(self, capsys):
        code = main([
            "--dataset", "proteins25", "--method", "gcn",
            "--seeds", "1", "--epochs", "2", "--scale", "0.15",
            "--hidden-dim", "8", "--num-layers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "train" in out
        assert "Test(large)" in out

    def test_builds_the_dataset_once(self, monkeypatch, capsys):
        calls = []
        load = repro.run.load_dataset

        def counted(*args, **kwargs):
            calls.append(args)
            return load(*args, **kwargs)

        monkeypatch.setattr(repro.run, "load_dataset", counted)
        code = main([
            "--dataset", "ogbg-molbace", "--method", "gin",
            "--seeds", "1", "--epochs", "1", "--scale", "0.15",
            "--hidden-dim", "8", "--num-layers", "2",
        ])
        assert code == 0
        assert len(calls) == 1
        assert "dataset: ogbg-molbace  metric: rocauc  shift: scaffold" in capsys.readouterr().out


def _fresh_python(script: str, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this checkout's ``repro``."""
    src_dir = Path(repro.run.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


class _FakeMallopt:
    """Stands in for ``ctypes.CDLL(None).mallopt`` and records its calls."""

    def __init__(self):
        self.argtypes = self.restype = None
        self.calls = []

    def __call__(self, *args):
        self.calls.append((self.argtypes, self.restype, args))
        return 1


class TestAllocatorPolicy:
    @pytest.fixture()
    def mallopt(self, monkeypatch):
        fake = _FakeMallopt()

        def cdll(name):
            assert name is None
            return SimpleNamespace(mallopt=fake)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        return fake

    def test_main_applies_the_policy(self, mallopt, capsys):
        assert main(["--dataset", "triangles", "--seeds", "1", "--epochs", "0", "--scale", "0.15",
                     "--hidden-dim", "8", "--num-layers", "2"]) == 0
        signature = ((ctypes.c_int, ctypes.c_int), ctypes.c_int)
        assert mallopt.calls == [
            (*signature, (repro.run.M_MMAP_THRESHOLD, 32 << 20)),
            (*signature, (repro.run.M_TRIM_THRESHOLD, 1 << 30)),
        ]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_skipped_when_confstr_fails(self, mallopt, monkeypatch, error):
        def failing(name):
            raise error(name)

        monkeypatch.setattr(os, "confstr", failing)
        assert repro.run.tune_allocator() is None
        assert mallopt.calls == []

    def test_import_alone_does_not_apply_it(self):
        script = textwrap.dedent("""
            import ctypes
            calls = []
            ctypes.CDLL = lambda *args, **kwargs: calls.append(args)
            import repro.run
            print(len(calls))
        """)
        proc = _fresh_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]


class TestStartupImports:
    def test_train_and_serve_import_neither_networkx_nor_scipy(self, tmp_path):
        """A fresh interpreter trains (one seed, then two batched seeds with
        two encoders), exports and serves, then checks that no networkx,
        scipy, multiprocessing or ctypes.util module was imported.  networkx
        and scipy.cluster are used only by callers outside the entry points,
        and scipy's sparse kernels load without scipy.sparse; importing all
        three cost ~0.5 s of start-up.  Serving is in-process, so nothing
        needs multiprocessing.  The allocator policy binds ``mallopt``
        through ``ctypes.CDLL(None)``; ``ctypes.util.find_library`` would run
        ``ldconfig`` in a subprocess.
        Running jobs and a forward also catches a deferred import moved onto
        a hot path, and the fused-kernel check catches a loader that silently
        binds no kernel."""
        from repro.datasets import load_dataset

        graphs = load_dataset("triangles", seed=0, scale=0.15).tests["Test(large)"][:2]
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps(
            [{"x": g.x.tolist(), "edge_index": g.edge_index.tolist()} for g in graphs]
        ))
        script = textwrap.dedent("""
            import json, sys
            from repro.autograd.functional import fused_message_pass_enabled
            from repro.run import main
            from repro.serve.__main__ import main as serve_main

            artifact, requests = sys.argv[1:]
            assert fused_message_pass_enabled()
            job = ["--dataset", "triangles", "--epochs", "1", "--scale", "0.15",
                   "--hidden-dim", "8", "--num-layers", "2"]
            assert main(job + ["--seeds", "1", "--export-artifact", artifact]) == 0
            for method in ("ood-gnn", "gin-virtual"):  # gin-virtual: seed_gather backward
                assert main(job + ["--method", method, "--seeds", "2", "--batched-seeds"]) == 0
            assert serve_main([artifact, "--input", requests]) == 0
            print(json.dumps(sorted(
                m for m in sys.modules
                if m.startswith(("networkx", "scipy", "multiprocessing", "ctypes.util"))
            )))
        """)
        proc = _fresh_python(script, str(tmp_path / "model.npz"), str(requests), timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert sum(line.startswith('{"prediction"') for line in lines) == 2
        assert json.loads(lines[-1]) == []


class TestServe:
    """Smoke test for python -m repro.serve: train -> export -> serve -> query."""

    @pytest.fixture(scope="class")
    def artifact_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "model.npz"
        code = main([
            "--dataset", "proteins25", "--method", "gin",
            "--seeds", "2", "--epochs", "2", "--scale", "0.15",
            "--hidden-dim", "8", "--num-layers", "2", "--batched-seeds",
            "--export-artifact", str(path),
        ])
        assert code == 0 and path.exists()
        return path

    @pytest.fixture(scope="class")
    def requests_path(self, tmp_path_factory):
        from repro.datasets import load_dataset

        dataset = load_dataset("proteins25", seed=0, scale=0.15)
        payload = [
            {"x": g.x.tolist(), "edge_index": g.edge_index.tolist()}
            for g in dataset.tests["Test(large)"][:4]
        ]
        path = tmp_path_factory.mktemp("serve-req") / "requests.json"
        path.write_text(json.dumps(payload))
        return path

    def test_export_artifact_is_seed_ensemble(self, artifact_path):
        from repro.serve import ModelArtifact

        artifact = ModelArtifact.load(artifact_path)
        assert artifact.num_seeds == 2
        assert artifact.spec.method == "gin"
        assert artifact.schema.dataset == "PROTEINS25"

    def test_one_shot_file_mode(self, artifact_path, requests_path, capsys):
        from repro.serve.__main__ import main as serve_main

        code = serve_main([str(artifact_path), "--input", str(requests_path)])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4
        for line in lines:
            assert line["prediction"] in (0, 1)
            assert len(line["probs"]) == 2
            assert isinstance(line["energy"], float)
            assert set(line) == {"prediction", "output", "probs", "energy"}

    def test_stdin_streaming_mode(self, artifact_path, requests_path, capsys, monkeypatch):
        import io

        from repro.serve.__main__ import main as serve_main

        requests = json.loads(requests_path.read_text())
        stream = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        monkeypatch.setattr("sys.stdin", stream)
        code = serve_main([str(artifact_path), "--stdin"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == len(requests)

    def test_stdin_bad_line_answers_error_and_stream_survives(
        self, artifact_path, requests_path, capsys, monkeypatch
    ):
        import io

        from repro.serve.__main__ import main as serve_main

        good = json.dumps(json.loads(requests_path.read_text())[0])
        stream = io.StringIO("not json\n" + json.dumps({"edge_index": [[], []]}) + "\n" + good + "\n")
        monkeypatch.setattr("sys.stdin", stream)
        code = serve_main([str(artifact_path), "--stdin"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 3
        assert "error" in lines[0]          # malformed JSON
        assert "error" in lines[1]          # missing "x"
        assert lines[2]["prediction"] in (0, 1)  # later requests still served

    def test_stdin_interleaved_good_and_bad_lines_keep_stream_order(
        self, artifact_path, requests_path, capsys, monkeypatch
    ):
        """good/bad/good/bad: every line answers in its own position and the
        bad ones carry error objects naming what was wrong."""
        import io

        from repro.serve.__main__ import main as serve_main

        good = json.dumps(json.loads(requests_path.read_text())[0])
        bad_ragged = json.dumps({"x": [[1.0, 2.0], [3.0]]})
        bad_edges = json.dumps({"x": [[0.0] * 4] * 2, "edge_index": [[0], [9]]})
        stream = io.StringIO("\n".join([good, bad_ragged, good, bad_edges]) + "\n")
        monkeypatch.setattr("sys.stdin", stream)
        code = serve_main([str(artifact_path), "--stdin"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 4
        assert lines[0]["prediction"] in (0, 1)
        assert "rectangular" in lines[1]["error"]
        assert lines[2]["prediction"] in (0, 1)
        assert "error" in lines[3]
        assert lines[0]["output"] == lines[2]["output"]  # same request, same answer

    def test_http_mode_serves_and_drains_on_sigterm(self, artifact_path, requests_path, monkeypatch):
        """--http end to end as a user would run it: spin the CLI in a
        thread, query over TCP, SIGTERM-equivalent drain, clean exit."""
        import threading
        import time
        import urllib.request

        from repro.serve import __main__ as serve_cli
        from repro.serve.artifact import FeatureSchema

        validated = []
        validate = FeatureSchema.validate_graph
        monkeypatch.setattr(
            FeatureSchema, "validate_graph",
            lambda schema, graph: validated.append(graph) or validate(schema, graph),
        )
        captured = {}
        original_serve_http = serve_cli._serve_http
        codes = []
        thread = None
        stop = threading.Event()
        try:
            # Inject the drain trigger (what the SIGTERM handler sets) and
            # capture the bound server so the test can learn the port.
            def hooked(args, engine):
                from repro.serve import net

                original_bind = net.serve_http

                def capture(*a, **kw):
                    captured["server"] = original_bind(*a, **kw)
                    return captured["server"]

                net.serve_http = capture
                try:
                    return original_serve_http(args, engine, stop=stop)
                finally:
                    net.serve_http = original_bind

            serve_cli._serve_http = hooked

            def run():
                codes.append(serve_cli.main([
                    str(artifact_path), "--http", "--port", "0",
                ]))

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            deadline = time.monotonic() + 30.0
            while "server" not in captured and time.monotonic() < deadline:
                time.sleep(0.01)
            server = captured["server"]
            request = json.loads(requests_path.read_text())[0]
            req = urllib.request.Request(
                server.url + "/predict", data=json.dumps(request).encode(),
                headers={"Content-Type": "application/json"},
            )
            body = json.loads(urllib.request.urlopen(req, timeout=30.0).read())
            assert body["prediction"] in (0, 1)
            assert len(validated) == 1  # decoded by the handler, validated once by the engine
            health = json.loads(urllib.request.urlopen(server.url + "/healthz", timeout=30.0).read())
            assert health == {"status": "ok"}
            stop.set()  # what the SIGTERM handler does
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert codes == [0]
            assert server.draining
        finally:
            serve_cli._serve_http = original_serve_http
            stop.set()
            if thread is not None:
                thread.join(timeout=10.0)

    def test_http_mode_rejects_queue_depth_below_one_before_binding(self, artifact_path):
        """``--queue-depth 0`` fails at start-up like ``-1`` does; it used to
        serve silently with the default depth of 256."""
        import threading

        from repro.serve import InferenceEngine, ModelArtifact
        from repro.serve.__main__ import _serve_http, build_parser

        args = build_parser().parse_args(
            [str(artifact_path), "--http", "--port", "0", "--queue-depth", "0"]
        )
        engine = InferenceEngine(ModelArtifact.load(artifact_path))
        stop = threading.Event()
        stop.set()  # a server that did bind would drain at once and return 0
        with pytest.raises(ValueError, match="queue_depth"):
            _serve_http(args, engine, stop=stop)

    def test_http_mode_is_exclusive_with_stdin(self, artifact_path):
        from repro.serve.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([str(artifact_path), "--stdin", "--http"])

    def test_requires_a_mode(self, artifact_path):
        from repro.serve.__main__ import main as serve_main

        with pytest.raises(SystemExit):
            serve_main([str(artifact_path)])

    def test_rejects_plain_checkpoint(self, tmp_path, requests_path):
        import numpy as np

        from repro.nn import MLP, save_state
        from repro.serve.__main__ import main as serve_main

        path = tmp_path / "plain.npz"
        save_state(MLP([2, 2], np.random.default_rng(0)).state_dict(), path)
        with pytest.raises(ValueError, match="not a model artifact"):
            serve_main([str(path), "--input", str(requests_path)])
