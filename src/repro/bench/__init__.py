"""Benchmark support: shared experiment protocol and table formatting."""

from repro.bench.runner import (
    ExperimentProtocol,
    run_method_multi_seed,
    method_spec,
    MethodResult,
)
from repro.bench.tables import format_table, format_series

__all__ = [
    "ExperimentProtocol",
    "run_method_multi_seed",
    "method_spec",
    "MethodResult",
    "format_table",
    "format_series",
]
