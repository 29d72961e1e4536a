"""Checkpoint files: named float64 arrays in an uncompressed numpy ``.npz`` archive.

Each record is one archive member holding a float64 array of its own shape
(0-d included). Two metadata members sit beside them, under dunder names
that no parameter or state record uses: ``__checkpoint__``, a uint64 array
of [format version, config hash, optimizer state version], where the
config hash is the first 8 bytes of the sha256 of the canonical config
JSON; and ``__optimizer__``, the optimizer kind as a unicode array.
Parameters and optimizer state share the file so training can resume
exactly.

The zip format stores a CRC-32 for every member, so a flipped bit or a cut
file raises :class:`CheckpointError` instead of loading. A save writes
``<path>.tmp`` in the same directory, syncs it to disk and renames it onto
``path``, so a save that fails part-way leaves the previous checkpoint as it
was. Any numpy opens a checkpoint without this package::

    with np.load("checkpoint.dhck", allow_pickle=False) as archive:
        version, cfg_hash, opt_state_version = archive["__checkpoint__"]
        head = archive["head"]
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile

import numpy as np

VERSION = 2
META = "__checkpoint__"
KIND = "__optimizer__"


class CheckpointError(RuntimeError):
    pass


def config_hash(config_dict: dict) -> int:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(canonical.encode()).digest()[:8], "little")


def save_records(path, records: dict[str, np.ndarray], cfg_hash: int,
                 optimizer_kind: str, opt_state_version: int) -> None:
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            members = {name: np.asarray(arr, dtype=np.float64) for name, arr in records.items()}
            members[META] = np.array([VERSION, cfg_hash, opt_state_version], dtype=np.uint64)
            members[KIND] = np.array(optimizer_kind)
            # a file object, not a path: given a str, numpy appends ".npz"
            np.savez(fh, **members)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_records(path) -> tuple[dict[str, np.ndarray], int, str, int]:
    """Returns (records, config hash, optimizer kind, optimizer state version)."""
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            # reading every member checks every CRC
            records = {name: archive[name] for name in getattr(archive, "files", ())}
            if META not in records or KIND not in records:
                raise CheckpointError(f"not a checkpoint: no {META!r} member")
            version, cfg_hash, opt_version = (int(v) for v in records.pop(META))
            if version != VERSION:
                raise CheckpointError(f"unsupported checkpoint format version {version}, "
                                      f"this code reads version {VERSION}")
            kind = str(records.pop(KIND))
        except (zipfile.BadZipFile, ValueError, EOFError) as exc:
            raise CheckpointError(f"unreadable checkpoint archive: {exc}") from exc
    return records, cfg_hash, kind, opt_version
