"""The CI bench-regression gate (tools/check_bench.py)."""

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "tools"))

from check_bench import (  # noqa: E402
    collect_availabilities,
    collect_overheads,
    collect_speedups,
    compare,
    main,
)


def _payload(speedup, shape=None, extra=None):
    payload = {
        "benchmark": "inference",
        "shape": shape or {"nodes": 256, "requests": 64},
        "microbatch": {"speedup": speedup, "target": 3.0},
    }
    if extra:
        payload["microbatch"].update(extra)
    return payload


class TestCollect:
    def test_finds_nested_ratio_keys(self):
        ratios = collect_speedups(
            {"a": {"speedup": 2.0, "f32_fused_speedup_vs_packed": 1.8, "taped_ms": 4.0}}
        )
        assert ratios == {"a.speedup": 2.0, "a.f32_fused_speedup_vs_packed": 1.8}

    def test_ignores_non_numeric(self):
        assert collect_speedups({"speedup": "fast", "x": {"speedup": True}}) == {}


class TestCompare:
    def test_same_shape_within_tolerance_passes(self):
        regressions, _ = compare(_payload(2.0), _payload(3.0), 0.6, 0.25)
        assert not regressions

    def test_same_shape_regression_fails(self):
        regressions, _ = compare(_payload(1.0), _payload(3.0), 0.6, 0.25)
        assert regressions and "microbatch.speedup" in regressions[0]

    def test_tiny_shape_uses_loose_tolerance(self):
        fresh = _payload(1.0, shape={"nodes": 16, "requests": 4})
        regressions, notes = compare(fresh, _payload(3.0), 0.6, 0.25)
        assert not regressions
        assert any("tiny-shape" in n for n in notes)

    def test_tiny_shape_collapse_still_fails(self):
        fresh = _payload(0.2, shape={"nodes": 16, "requests": 4})
        regressions, _ = compare(fresh, _payload(3.0), 0.6, 0.25)
        assert regressions

    def test_missing_and_new_metrics_are_notes_not_failures(self):
        fresh = _payload(3.0, extra={"f32_fused_speedup_vs_packed": 1.9})
        baseline = _payload(3.0, extra={"old_speedup": 5.0})
        regressions, notes = compare(fresh, baseline, 0.6, 0.25)
        assert not regressions
        assert any("missing from fresh" in n for n in notes)
        assert any("new metric" in n for n in notes)

    def test_kind_mismatch_fails(self):
        other = dict(_payload(3.0), benchmark="fusion")
        regressions, _ = compare(other, _payload(3.0), 0.6, 0.25)
        assert regressions and "mismatch" in regressions[0]


def _obs_payload(ratio):
    return {
        "benchmark": "obs_overhead",
        "shape": {"nodes": 256, "requests": 64},
        "obs": {"metrics_overhead_ratio": ratio, "overhead_max": 1.02},
    }


class TestOverheadCeiling:
    """Overhead ratios gate against an absolute budget, not the baseline."""

    def test_collect_finds_only_measurement_keys(self):
        found = collect_overheads(_obs_payload(1.01))
        assert found == {"obs.metrics_overhead_ratio": 1.01}  # not overhead_max

    def test_within_budget_passes(self):
        regressions, notes = compare(_obs_payload(1.015), _obs_payload(1.01), 0.6, 0.25)
        assert not regressions
        assert any("ceiling" in n and "OK" in n for n in notes)

    def test_over_budget_fails_even_if_baseline_was_worse(self):
        regressions, _ = compare(_obs_payload(1.05), _obs_payload(1.10), 0.6, 0.25)
        assert regressions and "exceeds" in regressions[0]

    def test_custom_ceiling(self):
        regressions, _ = compare(
            _obs_payload(1.05), _obs_payload(1.05), 0.6, 0.25, overhead_max=1.10
        )
        assert not regressions

    def test_main_overhead_max_flag(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(_obs_payload(1.05)))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_obs_payload(1.0)))
        assert main([str(fresh), str(base)]) == 1
        assert main([str(fresh), str(base), "--overhead-max", "1.10"]) == 0
        capsys.readouterr()


def _faults_payload(availability):
    return {
        "benchmark": "faults",
        "shape": {"nodes": 64, "requests": 192},
        "availability_floor": 0.99,
        "phases": {
            "baseline": {"availability": 1.0},
            "chaos": {"availability": availability, "error_budget_used": 0.5},
        },
    }


class TestAvailabilityFloor:
    """Availability gates against an absolute floor, not the baseline."""

    def test_collect_skips_declared_budgets(self):
        found = collect_availabilities(_faults_payload(0.995))
        assert found == {
            "phases.baseline.availability": 1.0,
            "phases.chaos.availability": 0.995,
        }  # availability_floor is config, not a measurement

    def test_above_floor_passes(self):
        regressions, notes = compare(_faults_payload(0.995), _faults_payload(1.0), 0.6, 0.25)
        assert not regressions
        assert any("floor" in n and "OK" in n for n in notes)

    def test_below_floor_fails_even_if_baseline_was_worse(self):
        regressions, _ = compare(_faults_payload(0.95), _faults_payload(0.90), 0.6, 0.25)
        assert regressions and "below" in regressions[0]

    def test_custom_floor(self):
        regressions, _ = compare(
            _faults_payload(0.95), _faults_payload(0.95), 0.6, 0.25, availability_min=0.9
        )
        assert not regressions

    def test_main_availability_min_flag(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(_faults_payload(0.95)))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_faults_payload(1.0)))
        assert main([str(fresh), str(base)]) == 1
        assert main([str(fresh), str(base), "--availability-min", "0.9"]) == 0
        capsys.readouterr()


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_codes(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", _payload(2.9))
        base = self._write(tmp_path, "base.json", _payload(3.0))
        assert main([fresh, base]) == 0
        bad = self._write(tmp_path, "bad.json", _payload(0.5))
        assert main([bad, base]) == 1
        assert main([str(tmp_path / "missing.json"), base]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bench",
        ("BENCH_reweight", "BENCH_multiseed", "BENCH_inference", "BENCH_obs", "BENCH_faults"),
    )
    def test_committed_baselines_self_compare(self, bench, capsys):
        """Every committed baseline passes the gate against itself."""
        path = os.path.join(_ROOT, "benchmarks", f"{bench}.json")
        assert main([path, path]) == 0
        capsys.readouterr()
