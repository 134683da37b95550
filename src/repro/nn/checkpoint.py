"""Checkpoint I/O: save and load state dicts as ``.npz`` archives.

Dotted parameter names are flattened into npz keys; metadata (e.g. the
training config) rides along as a JSON string under a reserved key, and
non-trainable buffers (batch-norm running statistics, see
:meth:`repro.nn.module.Module.buffer_dict`) under a reserved key prefix.

One writer and one reader, both on raw dicts — no instantiated model
needed: :func:`save_state` and :func:`load_archive`.  The model-artifact
layer (:mod:`repro.serve.artifact`) builds on them to read a bundle's
metadata *before* constructing the model it describes.

Format versioning: every archive written by this module carries
``format_version`` (:data:`CHECKPOINT_FORMAT_VERSION`) in its metadata
payload.  Version 1 files (pre-versioning: no buffers, no version field)
load transparently; :func:`load_archive` reports them as version 1.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = ["CHECKPOINT_FORMAT_VERSION", "save_state", "load_archive"]

_META_KEY = "__repro_meta__"
_BUFFER_PREFIX = "__repro_buffer__:"

#: Current archive layout.  2 added the version field and buffer entries.
CHECKPOINT_FORMAT_VERSION = 2


def _normalise_path(path) -> Path:
    """Append ``.npz`` exactly once (``m`` -> ``m.npz``, ``m.npz`` unchanged).

    ``m.ckpt`` becomes ``m.ckpt.npz`` — the suffix is appended to the full
    name rather than substituted, so save and load agree on the target.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _resolve_existing(path) -> Path:
    """The archive path to read: ``path`` as given, else with ``.npz`` appended."""
    path = Path(path)
    if not path.exists():
        normalised = _normalise_path(path)
        if normalised.exists():
            return normalised
    return path


def save_state(
    state: dict[str, np.ndarray],
    path,
    metadata: dict | None = None,
    buffers: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write a raw ``state`` dict (plus metadata and buffers) to ``path``.

    Parameters
    ----------
    state:
        Arrays keyed by dotted parameter name.
    path:
        Target file; ``.npz`` is appended exactly once if missing (the
        former behaviour could double-append for non-``.npz`` suffixes
        because ``np.savez`` adds its own).  Returns the path written.
    metadata:
        JSON-serialisable dict stored alongside the weights.  The
        ``format_version`` key is managed by this module: it is injected
        automatically, a matching value is tolerated (so
        ``load_archive`` -> ``save_state`` round-trips), and any other
        value is rejected — this writer only produces the current format.
    buffers:
        Optional non-trainable arrays (running statistics), stored under
        a reserved key prefix so they never collide with parameters.
    """
    metadata = dict(metadata or {})
    existing_version = metadata.pop("format_version", None)
    if existing_version is not None and existing_version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"cannot write metadata format_version {existing_version!r}; "
            f"this build writes format_version {CHECKPOINT_FORMAT_VERSION}"
        )
    metadata["format_version"] = CHECKPOINT_FORMAT_VERSION
    reserved = [k for k in state if k == _META_KEY or k.startswith(_BUFFER_PREFIX)]
    if reserved:
        raise ValueError(f"parameter names {reserved!r} use reserved checkpoint keys")
    payload = dict(state)
    for name, value in (buffers or {}).items():
        payload[_BUFFER_PREFIX + name] = np.asarray(value)
    payload[_META_KEY] = np.frombuffer(json.dumps(metadata).encode(), dtype=np.uint8)
    path = _normalise_path(path)
    # Atomic publish: write to a temp file in the *target* directory
    # (os.replace must not cross filesystems), fsync, then rename over
    # the destination — a crash mid-export leaves either the previous
    # archive or nothing, never a torn npz.  The explicit handle also
    # keeps np.savez from appending a second suffix ("m.npz" used to
    # risk becoming m.npz.npz).
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)  # only survives if the replace never happened
        except FileNotFoundError:
            pass
    return path


def load_archive(path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], dict]:
    """Read ``(state, buffers, metadata)`` from an archive in one pass.

    One open, one zip-directory parse.  ``state`` holds only the
    parameters; ``metadata`` includes ``format_version`` (1 for
    pre-versioning archives, which carry no buffers).
    """
    path = _resolve_existing(path)
    with np.load(path) as archive:
        if _META_KEY in archive:
            metadata = json.loads(bytes(archive[_META_KEY]).decode())
        else:
            metadata = {}
        metadata.setdefault("format_version", 1)
        state: dict[str, np.ndarray] = {}
        buffers: dict[str, np.ndarray] = {}
        for key in archive.files:
            if key == _META_KEY:
                continue
            if key.startswith(_BUFFER_PREFIX):
                buffers[key[len(_BUFFER_PREFIX):]] = archive[key]
            else:
                state[key] = archive[key]
    return state, buffers, metadata
