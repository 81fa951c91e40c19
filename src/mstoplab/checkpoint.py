"""Versioned binary checkpoint container for named parameter arrays.

Layout (all integers little-endian):

    magic           6 bytes  b"MSTOP\\0"
    format version  u32
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
FORMAT_VERSION = 1


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


def _read_blocks(fh, count):
    blocks = {}
    for _ in range(count):
        name, arr = _read_block(fh)
        if name in blocks:
            raise CheckpointError(f"array {name!r} is stored twice")
        blocks[name] = arr
    return blocks


def _write_checkpoint(fh, params: dict, adam: AdamState | None):
    fh.write(MAGIC)
    fh.write(struct.pack("<I", FORMAT_VERSION))
    fh.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        _write_block(fh, name, np.asarray(params[name], dtype=np.float64))
    if adam is None:
        fh.write(struct.pack("<I", 0))
        return
    blocks = [("step", np.float64(adam.step)), ("lr", np.float64(adam.lr)),
              ("beta1", np.float64(adam.beta1)), ("beta2", np.float64(adam.beta2)),
              ("eps", np.float64(adam.eps))]
    for name in sorted(adam.m):
        blocks.append((f"m:{name}", adam.m[name]))
        blocks.append((f"v:{name}", adam.v[name]))
    fh.write(struct.pack("<I", len(blocks)))
    for name, arr in blocks:
        _write_block(fh, name, np.asarray(arr, dtype=np.float64))


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


def save_checkpoint(path, params: dict, adam: AdamState | None = None):
    """Write named arrays (and optional Adam state) to ``path`` with
    :func:`atomic_write`, so a write that fails partway leaves the previous
    file intact."""
    with atomic_write(path, "wb") as fh:
        _write_checkpoint(fh, params, adam)


def load_checkpoint(path):
    """Read a checkpoint; returns (params dict, AdamState or None)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic bytes {magic!r}; not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format version {version}, expected {FORMAT_VERSION}")
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        params = _read_blocks(fh, n_params)
        (n_adam,) = struct.unpack("<I", _read_exact(fh, 4))
        raw = _read_blocks(fh, n_adam)
        left = _bytes_left(fh)
        if left:
            raise CheckpointError(f"{left} bytes after the last block")
    if not raw:
        return params, None
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
    return params, adam
