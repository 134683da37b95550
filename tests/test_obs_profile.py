"""Autograd-tape profiling: patch/restore, op capture, report, CLI.

Covers :mod:`repro.obs.profile` and the ``python -m repro.obs`` CLI:

* :func:`profile_mode` patches the tape's kernel entry points *only for
  the duration of the context* — outside it the originals are bound, so
  profiling-off costs literally zero;
* a small forward/backward run inside the context lands per-op calls,
  inclusive and self wall time and output bytes in the snapshot;
* re-entrancy — nested contexts share one set of patches;
* :func:`format_report` table shape, :func:`dump_profile` JSON and the
  ``repro.obs report`` / ``repro.obs metrics`` subcommands.
"""

import json
import time

import numpy as np
import pytest

from repro.autograd import functional
from repro.autograd.tensor import Tensor
from repro.obs.__main__ import main as obs_main
from repro.obs.profile import (
    dump_profile,
    format_report,
    profile_mode,
    profile_snapshot,
    reset_profile,
)
from repro.obs.registry import FLAGS


def tensor_workload():
    a = Tensor(np.ones((8, 4)), requires_grad=True)
    b = Tensor(np.full((8, 4), 2.0))
    loss = ((a * b + a).relu()).sum()
    loss.backward()
    return loss


class TestPatchLifecycle:
    def test_patches_installed_inside_and_removed_outside(self):
        assert not hasattr(Tensor.__add__, "_obs_profiled")
        assert not hasattr(functional.scatter_add_rows, "_obs_profiled")
        with profile_mode():
            assert hasattr(Tensor.__add__, "_obs_profiled")
            assert hasattr(functional.scatter_add_rows, "_obs_profiled")
            assert FLAGS.profiling
        assert not hasattr(Tensor.__add__, "_obs_profiled")
        assert not hasattr(functional.scatter_add_rows, "_obs_profiled")
        assert not FLAGS.profiling

    def test_patches_removed_even_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with profile_mode():
                raise RuntimeError("mid-profile crash")
        assert not hasattr(Tensor.__mul__, "_obs_profiled")
        assert not FLAGS.profiling

    def test_nested_contexts_share_one_patch_set(self):
        with profile_mode():
            outer_add = Tensor.__add__
            with profile_mode(reset=False):
                assert Tensor.__add__ is outer_add  # not double-wrapped
            assert hasattr(Tensor.__add__, "_obs_profiled")  # outer still on
        assert not hasattr(Tensor.__add__, "_obs_profiled")

    def test_profiled_op_results_match_unprofiled(self):
        plain = tensor_workload().data
        with profile_mode():
            profiled = tensor_workload().data
        np.testing.assert_array_equal(plain, profiled)


class TestCapture:
    def test_workload_lands_per_op_stats(self):
        with profile_mode() as snapshot:
            tensor_workload()
            stats = snapshot()
        for op in ("tensor.add", "tensor.mul", "tensor.relu",
                   "tensor.sum", "tensor.backward"):
            assert op in stats, f"{op} missing from {sorted(stats)}"
            assert stats[op]["calls"] >= 1
            assert stats[op]["seconds"] >= 0.0
        # Elementwise ops produce 8x4 float64 outputs: 256 bytes per call.
        assert stats["tensor.add"]["bytes"] >= 256

    def test_self_time_excludes_nested_profiled_calls(self):
        """``mean`` runs over ``sum``: its self time is below its inclusive
        time, and self times add up to at most the profiled wall time."""
        with profile_mode() as snapshot:
            start = time.perf_counter()
            t = Tensor(np.ones((64, 8)))
            for _ in range(20):
                t.mean()
            wall = time.perf_counter() - start
            stats = snapshot()
        mean = stats["tensor.mean"]
        assert 0.0 <= mean["self_seconds"] < mean["seconds"]
        assert sum(entry["self_seconds"] for entry in stats.values()) <= wall

    def test_reset_on_entry_and_explicit_reset(self):
        with profile_mode():
            tensor_workload()
        assert profile_snapshot()  # survives context exit
        with profile_mode():  # reset=True default wipes the old run
            assert profile_snapshot() == {}
        reset_profile()
        assert profile_snapshot() == {}

    def test_registry_collector_mirrors_profile(self):
        from repro.obs.registry import registry

        with profile_mode():
            tensor_workload()
            text = registry.render()
        assert 'repro_profile_op_calls_total{op="tensor.add"}' in text
        assert "repro_profile_op_seconds_total" in text


class TestReporting:
    def test_format_report_table(self):
        stats = {
            "tensor.matmul": {"calls": 10, "seconds": 2.0, "bytes": 1_000_000},
            "tensor.add": {"calls": 100, "seconds": 0.5, "bytes": 2_000_000},
        }
        report = format_report(stats, top=1)
        assert "tensor.matmul" in report          # sorted by seconds
        assert "tensor.add" not in report.split("total")[0].splitlines()[2]
        assert "total (inclusive)" in report

    def test_format_report_ranks_and_shares_by_self_time(self):
        stats = {
            "tensor.backward": {"calls": 1, "seconds": 3.0, "self_seconds": 0.5, "bytes": 0},
            "msgpass.t_matmul": {"calls": 4, "seconds": 2.5, "self_seconds": 2.5, "bytes": 0},
        }
        rows = format_report(stats).splitlines()[2:4]
        assert rows[0].startswith("msgpass.t_matmul")
        assert rows[1].startswith("tensor.backward")
        shares = [float(row.split("%")[0].split()[-1]) for row in rows]
        assert shares == [pytest.approx(83.3, abs=0.1), pytest.approx(16.7, abs=0.1)]

    def test_format_report_empty(self):
        assert "no profiled ops" in format_report({})

    def test_dump_profile_round_trips_through_report_cli(self, tmp_path, capsys):
        with profile_mode():
            tensor_workload()
            dump = dump_profile(str(tmp_path / "profile.json"))
        assert dump["kind"] == "repro-obs-profile"
        assert obs_main(["report", str(tmp_path / "profile.json"), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "tensor.add" in out or "tensor.backward" in out
        assert "us/call" in out

    def test_report_cli_exec_profiles_a_script(self, tmp_path, capsys):
        script = tmp_path / "workload.py"
        script.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from repro.autograd.tensor import Tensor\n"
            "assert sys.argv[1] == 'passthrough'\n"
            "(Tensor(np.ones((4, 4)), requires_grad=True) * 2.0).sum().backward()\n"
        )
        json_out = tmp_path / "out.json"
        code = obs_main([
            "report", "--exec", str(script), "--json", str(json_out),
            "--", "passthrough",
        ])
        assert code == 0
        assert "tensor.mul" in capsys.readouterr().out
        ops = json.loads(json_out.read_text())["ops"]
        assert ops["tensor.mul"]["calls"] >= 1
        # Patches came off after the CLI run.
        assert not hasattr(Tensor.__mul__, "_obs_profiled")

    # Other tests import repro.run first; runpy warns that it re-executes it.
    @pytest.mark.filterwarnings("ignore:'repro.run' found in sys.modules:RuntimeWarning")
    def test_report_cli_module_reports_through_the_targets_system_exit(self, capsys):
        """``python -m`` targets end in SystemExit: the table still prints
        and main returns the target's exit code."""
        assert obs_main(["report", "--module", "repro.run", "--", "--list"]) == 0
        out = capsys.readouterr().out
        assert "datasets:" in out and "total (inclusive)" in out
        assert obs_main(["report", "--module", "repro.run"]) == 2  # usage error
        assert "total (inclusive)" in capsys.readouterr().out

    def test_report_cli_rejects_missing_source(self):
        with pytest.raises(SystemExit):
            obs_main(["report"])

    def test_metrics_subcommand_prints_exposition(self, capsys):
        assert obs_main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "repro_cache_events_total" in out
