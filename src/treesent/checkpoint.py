"""Binary checkpoint container: magic ``SSTB``, version, config, provenance,
then length-prefixed name/shape/float32 tensor records, all little-endian."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct

import numpy as np

from .autodiff import Tensor
from .encoder import ModelConfig, param_shapes

__all__ = [
    "MAGIC",
    "VERSION",
    "CheckpointError",
    "replacing",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"SSTB"
VERSION = 1


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def replacing(path):
    """A binary file, written as ``<path>.tmp`` and renamed over ``path``
    when the block exits cleanly; on an error ``path`` is left as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_block(fh, payload: bytes):
    fh.write(struct.pack("<I", len(payload)))
    fh.write(payload)


def _read_exact(fh, n):
    """``n`` bytes from ``fh``, or CheckpointError if fewer are left.

    The size is checked before reading, so a corrupt length field cannot
    make ``read`` allocate that many bytes.
    """
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"{fh.name}: truncated checkpoint")
    return fh.read(n)


def _read_uint(fh, fmt):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))[0]


def _read_block(fh):
    return _read_exact(fh, _read_uint(fh, "<I"))


def save_checkpoint(path, config: ModelConfig, params: dict, provenance: dict):
    """Write a name -> Tensor table; names are sorted for byte stability.

    The records stream through ``replacing``, so ``path`` is written whole
    or not at all. Raises ``FloatingPointError`` (and writes nothing) if any
    parameter is not finite.
    """
    names = sorted(params)
    tables = [np.asarray(params[name].data, dtype="<f4") for name in names]  # a 0-d one stays 0-d
    for name, data in zip(names, tables):
        if not np.isfinite(data).all():
            raise FloatingPointError(f"refusing to save {path}: {name} is not finite")
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_block(fh, json.dumps(dataclasses.asdict(config), sort_keys=True).encode("utf-8"))
        _write_block(fh, json.dumps(provenance, sort_keys=True).encode("utf-8"))
        fh.write(struct.pack("<I", len(names)))
        for name, data in zip(names, tables):
            _write_block(fh, name.encode("utf-8"))
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            payload = data.tobytes()
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


def load_checkpoint(path):
    """Read (config, params, provenance), validating shapes against config.

    Besides the encoder's, the tensors a checkpoint may hold are the
    pretraining heads ``mlm.b`` (V,), ``nsp.w`` (H, 2) and ``nsp.b`` (2,)
    and a classifier head, ``head.w`` (H, k) with ``head.b`` (k,). Any other
    tensor, a non-finite one, or a byte past the last tensor is refused.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        version = _read_uint(fh, "<I")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        config_raw, provenance_raw = _read_block(fh), _read_block(fh)
        try:
            config = ModelConfig(**json.loads(config_raw))
            provenance = json.loads(provenance_raw)
        except (TypeError, ValueError) as exc:  # bad JSON, or a config of the wrong form
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        count = _read_uint(fh, "<I")
        params = {}
        for _ in range(count):
            name = _read_block(fh).decode("utf-8", errors="replace")
            ndim = _read_uint(fh, "<I")
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            nbytes = _read_uint(fh, "<Q")
            if nbytes != 4 * math.prod(shape):
                raise CheckpointError(f"{path}: tensor {name} holds {nbytes} bytes, "
                                      f"shape {shape} needs {4 * math.prod(shape)}")
            data = np.frombuffer(_read_exact(fh, nbytes), dtype="<f4").reshape(shape)
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: tensor {name} is not finite")
            params[name] = Tensor(data.copy(), requires_grad=True)
        if (extra := os.fstat(fh.fileno()).st_size - fh.tell()) > 0:
            raise CheckpointError(f"{path}: {extra} trailing byte(s) after the last tensor")

    if ("head.w" in params) != ("head.b" in params):
        raise CheckpointError(f"{path} holds only one of head.w and head.b")
    h, k = config.hidden, (params["head.b"].data.size if "head.b" in params else 0)
    expected = {**param_shapes(config), "mlm.b": (config.vocab_size,), "nsp.w": (h, 2),
                "nsp.b": (2,), "head.w": (h, k), "head.b": (k,)}
    for name, tensor in params.items():
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name}")
        if tensor.shape != expected[name]:
            raise CheckpointError(f"{path}: tensor {name} has shape {tensor.shape}, "
                                  f"config requires {expected[name]}")
    missing = set(param_shapes(config)) - set(params)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)[:5]}")
    return config, params, provenance
