"""Kernel profiling for the autograd tape: per-op time and bytes.

:func:`profile_mode` is a context manager that instruments the tape's
kernel entry points — :class:`~repro.autograd.tensor.Tensor` primitive
ops, the fused message-passing operator's sparse matmuls and the
row-scatter kernel — by *patching them in place* for the duration of the
context.  Outside the context the original functions are bound and the
tape runs at full speed: profiling costs literally zero when off, which
is what lets it share a process with the < 2% metrics-overhead budget
(``benchmarks/BENCH_obs.json``).

Each profiled call records wall time (:func:`time.perf_counter`,
monotonic) and output bytes into a process-wide table, mirrored into
:data:`repro.obs.registry` as ``repro_profile_op_*`` counters so a
``/metrics`` scrape of a profiled serving run carries the kernel
breakdown.  Every op gets two times.  ``seconds`` is inclusive: an op
implemented in terms of other profiled ops (``mean`` over ``sum``,
``backward`` over the message-pass transpose matmul) counts its
children's time too.  ``self_seconds`` subtracts the profiled calls
nested inside it (tracked on a per-thread stack), so self times add up
to the profiled wall time without double counting.

Report the table with::

    with profile_mode():
        trainer.fit(...)
    print(format_report(profile_snapshot()))

or from the command line for any run (see :mod:`repro.obs.__main__`)::

    python -m repro.obs report --exec train_script.py
    python -m repro.obs report profile.json --top 10
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.obs.registry import FLAGS, registry

__all__ = [
    "profile_mode",
    "profile_snapshot",
    "reset_profile",
    "dump_profile",
    "format_report",
]

_STATS: dict[str, list] = {}          # op -> [calls, seconds, self_seconds, bytes]
_STATS_LOCK = threading.Lock()
_PATCH_LOCK = threading.Lock()
_patch_depth = 0
_originals: list = []
# Per-thread stack of open profiled calls; each frame accumulates the
# inclusive time of the profiled calls nested directly inside it.
_frames = threading.local()


def _record(op: str, seconds: float, self_seconds: float, nbytes: int) -> None:
    with _STATS_LOCK:
        entry = _STATS.get(op)
        if entry is None:
            entry = _STATS[op] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += self_seconds
        entry[3] += nbytes


def _out_bytes(result) -> int:
    data = getattr(result, "data", result)
    nbytes = getattr(data, "nbytes", None)
    return int(nbytes) if nbytes is not None else 0


def _timed(fn, op: str):
    def wrapper(*args, **kwargs):
        stack = getattr(_frames, "stack", None)
        if stack is None:
            stack = _frames.stack = []
        stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += seconds
        _record(op, seconds, seconds - nested, _out_bytes(result))
        return result

    wrapper.__name__ = getattr(fn, "__name__", op)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper._obs_profiled = fn
    return wrapper


def _patch_targets():
    """(owner, attribute, op-name) triples — resolved lazily so importing
    :mod:`repro.obs` never drags the autograd stack in."""
    from repro.autograd import functional, tensor

    tensor_ops = [
        ("__matmul__", "tensor.matmul"),
        ("__add__", "tensor.add"),
        ("__sub__", "tensor.sub"),
        ("__mul__", "tensor.mul"),
        ("__truediv__", "tensor.div"),
        ("__pow__", "tensor.pow"),
        ("__getitem__", "tensor.gather"),
        ("relu", "tensor.relu"),
        ("leaky_relu", "tensor.leaky_relu"),
        ("exp", "tensor.exp"),
        ("log", "tensor.log"),
        ("sqrt", "tensor.sqrt"),
        ("tanh", "tensor.tanh"),
        ("sigmoid", "tensor.sigmoid"),
        ("sum", "tensor.sum"),
        ("mean", "tensor.mean"),
        ("max", "tensor.max"),
        ("backward", "tensor.backward"),
    ]
    targets = [(tensor.Tensor, attr, op) for attr, op in tensor_ops]
    targets += [
        (functional.MessagePassOperator, "matmul", "msgpass.matmul"),
        (functional.MessagePassOperator, "t_matmul", "msgpass.t_matmul"),
        (functional, "scatter_add_rows", "scatter.add_rows"),
        (functional, "linear", "linear"),
        (functional, "seed_linear", "seed.linear"),
    ]
    return targets


def _install() -> None:
    global _patch_depth
    with _PATCH_LOCK:
        _patch_depth += 1
        if _patch_depth > 1:
            return
        for owner, attr, op in _patch_targets():
            original = getattr(owner, attr)
            _originals.append((owner, attr, original))
            setattr(owner, attr, _timed(original, op))
        FLAGS.profiling = True


def _uninstall() -> None:
    global _patch_depth
    with _PATCH_LOCK:
        _patch_depth -= 1
        if _patch_depth > 0:
            return
        while _originals:
            owner, attr, original = _originals.pop()
            setattr(owner, attr, original)
        FLAGS.profiling = False


@contextlib.contextmanager
def profile_mode(reset: bool = True):
    """Record per-op time/bytes for everything run inside the context.

    ``reset=True`` (default) clears previously accumulated stats on
    entry, so one context equals one run.  Re-entrant: nested contexts
    share one set of patches (installed by the outermost, removed by it).
    Patching is class-level, hence **process-wide** — a coarse diagnostic
    mode, not something to leave enabled under concurrent benchmarks.
    """
    if reset:
        reset_profile()
    _install()
    try:
        yield profile_snapshot
    finally:
        _uninstall()


def profile_snapshot() -> dict:
    """``{op: {"calls", "seconds", "self_seconds", "bytes"}}`` so far."""
    with _STATS_LOCK:
        return {
            op: {"calls": entry[0], "seconds": entry[1], "self_seconds": entry[2], "bytes": entry[3]}
            for op, entry in _STATS.items()
        }


def reset_profile() -> None:
    with _STATS_LOCK:
        _STATS.clear()


def dump_profile(path: str) -> dict:
    """Write the snapshot as JSON (the file ``repro.obs report`` reads)."""
    import json

    payload = {"kind": "repro-obs-profile", "ops": profile_snapshot()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload


def _profile_collector():
    """Registry bridge: expose the profile table as Prometheus counters."""
    snapshot = profile_snapshot()
    if not snapshot:
        return
    calls = [({"op": op}, entry["calls"]) for op, entry in snapshot.items()]
    seconds = [({"op": op}, entry["seconds"]) for op, entry in snapshot.items()]
    nbytes = [({"op": op}, entry["bytes"]) for op, entry in snapshot.items()]
    yield ("repro_profile_op_calls_total", "counter",
           "Profiled kernel invocations by op (profile_mode only)", calls)
    yield ("repro_profile_op_seconds_total", "counter",
           "Inclusive wall seconds by op (profile_mode only)", seconds)
    yield ("repro_profile_op_bytes_total", "counter",
           "Output bytes produced by op (profile_mode only)", nbytes)


registry.register_collector(_profile_collector)


def _self_seconds(entry: dict) -> float:
    # Dumps written before self time was recorded carry inclusive only.
    return entry.get("self_seconds", entry["seconds"])


def format_report(stats: dict, top: int = 15) -> str:
    """Top-``top`` kernel table, sorted by self time.

    The ``%`` column is each op's self time over the summed self time, so
    it adds up to 100% across all ops, and ``us/call`` is self time per
    call; ``inclusive`` also counts the profiled calls nested inside the op.
    """
    rows = sorted(stats.items(), key=lambda kv: _self_seconds(kv[1]), reverse=True)[:top]
    self_total = sum(_self_seconds(entry) for entry in stats.values())
    lines = [
        f"{'op':<24} {'calls':>10} {'self':>12} {'%':>6} {'inclusive':>12} {'MB out':>10} {'us/call':>10}",
        "-" * 91,
    ]
    for op, entry in rows:
        seconds, calls, own = entry["seconds"], entry["calls"], _self_seconds(entry)
        share = 100.0 * own / self_total if self_total else 0.0
        per_call = own / calls * 1e6 if calls else 0.0
        lines.append(
            f"{op:<24} {calls:>10d} {own * 1e3:>10.3f}ms {share:>5.1f}% {seconds * 1e3:>10.3f}ms "
            f"{entry['bytes'] / 1e6:>9.2f} {per_call:>10.2f}"
        )
    if not rows:
        lines.append("no profiled ops recorded")
    lines.append("-" * 91)
    lines.append(
        f"{'total (self)':<24} {sum(e['calls'] for e in stats.values()):>10d} "
        f"{self_total * 1e3:>10.3f}ms"
    )
    lines.append(
        f"{'total (inclusive)':<24} {'':>10} {'':>12} {'':>6} "
        f"{sum(e['seconds'] for e in stats.values()) * 1e3:>10.3f}ms"
    )
    return "\n".join(lines)
