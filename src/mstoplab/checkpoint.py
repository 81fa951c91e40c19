"""Versioned binary checkpoint container for named parameter arrays.

Layout (all integers little-endian):

    magic           6 bytes  b"MSTOP\\0"
    format version  u32
    model count     u32      (0 when the caller names no model)
    model blocks    one scalar per model extent, named after the field
    param count     u32
    param blocks    name length (u32), utf-8 name, rank (u32),
                    extents (u64 each), payload (little-endian f64)
    adam count      u32      (0 when no optimizer state is stored)
    adam blocks     same block layout; names are "m:<param>", "v:<param>"
                    plus scalars "step", "lr", "beta1", "beta2", "eps"

Scalars are stored as rank-0 blocks.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .optim import AdamState

MAGIC = b"MSTOP\x00"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def _write_block(fh, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    for extent in arr.shape:
        fh.write(struct.pack("<Q", extent))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _bytes_left(fh):
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n):
    # a length read from the file is checked before it sizes a read
    left = _bytes_left(fh)
    if n > left:
        raise CheckpointError(f"truncated checkpoint file: {n} bytes expected, {left} left")
    return fh.read(n)


def _read_block(fh):
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    raw = _read_exact(fh, name_len)
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"array name {raw[:32]!r} is not UTF-8") from None
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    shape = tuple(struct.unpack("<Q", _read_exact(fh, 8))[0] for _ in range(rank))
    payload = _read_exact(fh, math.prod(shape) * 8)
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    return name, arr


def _read_blocks(fh):
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    blocks = {}
    for _ in range(count):
        name, arr = _read_block(fh)
        if name in blocks:
            raise CheckpointError(f"array {name!r} is stored twice")
        blocks[name] = arr
    return blocks


@contextlib.contextmanager
def atomic_write(path, mode, **open_kwargs):
    """Open ``<path>.tmp`` for writing; when the block exits normally it
    replaces ``path`` in one step. If the block raises, the temporary file
    is removed and ``path`` is left as it was. There is no ``fsync``, so this
    guards against a failed or killed process, not against power loss."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, params: dict, adam: AdamState | None = None, model: dict | None = None):
    """Write the model extents (name -> number), named arrays and Adam state
    to ``path`` with :func:`atomic_write`, so a write that fails partway
    leaves the previous file intact. ``model`` and ``adam`` may be omitted."""
    adam_blocks = []
    if adam is not None:
        adam_blocks = [("step", adam.step), ("lr", adam.lr), ("beta1", adam.beta1),
                       ("beta2", adam.beta2), ("eps", adam.eps)]
        for name in sorted(adam.m):
            adam_blocks += [(f"m:{name}", adam.m[name]), (f"v:{name}", adam.v[name])]
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for blocks in (sorted((model or {}).items()), sorted(params.items()), adam_blocks):
            fh.write(struct.pack("<I", len(blocks)))
            for name, arr in blocks:
                _write_block(fh, name, np.asarray(arr, dtype=np.float64))


def read_checkpoint(path):
    """Read a checkpoint; returns (model scalars dict, params dict, AdamState or None)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic bytes {magic!r}; not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format version {version}, expected {FORMAT_VERSION}")
        model, params, raw = (_read_blocks(fh) for _ in range(3))
        left = _bytes_left(fh)
        if left:
            raise CheckpointError(f"{left} bytes after the last block")
    if not raw:
        return model, params, None
    try:
        adam = AdamState(
            lr=float(raw["lr"]), beta1=float(raw["beta1"]), beta2=float(raw["beta2"]),
            eps=float(raw["eps"]), step=int(raw["step"]),
        )
    except (KeyError, TypeError) as err:     # a scalar is missing or has more than one entry
        raise CheckpointError(f"optimizer state without its scalars: {err}") from None
    for name, arr in raw.items():
        if name.startswith("m:"):
            adam.m[name[2:]] = arr
        elif name.startswith("v:"):
            adam.v[name[2:]] = arr
    return model, params, adam


def load_checkpoint(path):
    """Read a checkpoint's arrays; returns (params dict, AdamState or None)."""
    return read_checkpoint(path)[1:]
