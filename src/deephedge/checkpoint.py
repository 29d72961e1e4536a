"""Checkpoint files: named float64 arrays in length-prefixed records.

Layout: magic, format version, config hash (first 8 bytes of the sha256
of the canonical config JSON), optimizer kind tag, optimizer state
version, record count, then one record per array: name length, utf-8
name, ndim, dims, raw float64 payload. Parameters and optimizer state
share the file so training can resume exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

MAGIC = b"DHCK"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


def config_hash(config_dict: dict) -> int:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(canonical.encode()).digest()[:8], "little")


def save_records(path, records: dict[str, np.ndarray], cfg_hash: int,
                 optimizer_kind: str, opt_state_version: int) -> None:
    kind = optimizer_kind.encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", MAGIC, VERSION, cfg_hash))
        fh.write(struct.pack("<I", len(kind)))
        fh.write(kind)
        fh.write(struct.pack("<II", opt_state_version, len(records)))
        for name, arr in records.items():
            # asarray, not ascontiguousarray, which would make a 0-d array 1-d;
            # tobytes writes C order either way
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def _read_exact(fh, n_bytes: int) -> bytes:
    data = fh.read(n_bytes)
    if len(data) != n_bytes:
        raise CheckpointError(f"truncated checkpoint: needs {n_bytes} more bytes, "
                              f"found {len(data)}")
    return data


def _unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def load_records(path) -> tuple[dict[str, np.ndarray], int, str, int]:
    """Returns (records, config hash, optimizer kind, optimizer state version)."""
    with open(path, "rb") as fh:
        magic, version, cfg_hash = _unpack(fh, "<4sIQ")
        if magic != MAGIC:
            raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (kind_len,) = _unpack(fh, "<I")
        kind = _read_exact(fh, kind_len).decode()
        opt_version, count = _unpack(fh, "<II")
        records: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = _unpack(fh, "<I")
            name = _read_exact(fh, name_len).decode()
            (ndim,) = _unpack(fh, "<I")
            shape = tuple(_unpack(fh, "<Q")[0] for _ in range(ndim))
            n_items = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read_exact(fh, 8 * n_items)).reshape(shape).copy()
            records[name] = data
        return records, cfg_hash, kind, opt_version
