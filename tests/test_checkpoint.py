import struct

import numpy as np
import pytest

from deephedge.checkpoint import CheckpointError, load_records, save_records


def _records():
    rng = np.random.default_rng(3)
    return {"embed": rng.standard_normal((4, 7)), "opt/step": np.array([[5.0]])}


def test_records_roundtrip(tmp_path):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=1234, optimizer_kind="adam", opt_state_version=2)
    records, cfg_hash, kind, version = load_records(f)
    assert (cfg_hash, kind, version) == (1234, "adam", 2)
    assert records.keys() == _records().keys()
    for name, arr in _records().items():
        assert np.array_equal(records[name], arr) and records[name].shape == arr.shape
        # resume updates optimizer state in place
        assert records[name].flags.writeable


def test_truncated_checkpoint_raises_checkpoint_error(tmp_path):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=1, optimizer_kind="kfac", opt_state_version=1)
    full = f.read_bytes()
    cut = tmp_path / "cut.dhck"
    for size in (0, 10, len(full) // 2, len(full) - 5):
        cut.write_bytes(full[:size])
        with pytest.raises(CheckpointError, match="unreadable checkpoint archive"):
            load_records(cut)


def test_zero_d_record_keeps_its_shape(tmp_path):
    f = tmp_path / "ck.dhck"
    scalars = {"zero_d": np.array(5.0), "opt/step": np.array([[7.0]]),
               "strided": np.arange(12.0).reshape(3, 4)[:, ::2]}
    save_records(f, scalars, cfg_hash=1, optimizer_kind="adam", opt_state_version=1)
    records, _, _, _ = load_records(f)
    assert records["zero_d"].shape == () and records["zero_d"] == 5.0
    # the optimizers store their scalars as (1, 1) arrays
    assert records["opt/step"].shape == (1, 1) and records["opt/step"][0, 0] == 7.0
    assert np.array_equal(records["strided"], scalars["strided"])


def test_checkpoint_is_a_plain_numpy_archive(tmp_path):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=2**64 - 1, optimizer_kind="kfac", opt_state_version=3)
    with np.load(f, allow_pickle=False) as archive:
        assert archive["__checkpoint__"].tolist() == [2, 2**64 - 1, 3]
        assert str(archive["__optimizer__"]) == "kfac"
        assert np.array_equal(archive["embed"], _records()["embed"])


def _version_1_file(f):
    # the struct-packed layout of format version 1, holding no records
    f.write_bytes(struct.pack("<4sIQI4sII", b"DHCK", 1, 1, 4, b"kfac", 1, 0))


def _archive(**metadata):
    def write(f):
        with open(f, "wb") as fh:
            np.savez(fh, **_records(), **metadata)
    return write


@pytest.mark.parametrize("write,match", [
    (_version_1_file, "unreadable checkpoint archive"),
    (_archive(), "not a checkpoint"),
    (_archive(__checkpoint__=np.array([99, 1, 1], dtype=np.uint64),
              __optimizer__=np.array("kfac")), "version 99"),
], ids=["version-1-file", "no-metadata", "version-99"])
def test_foreign_file_raises_checkpoint_error(tmp_path, write, match):
    f = tmp_path / "ck.dhck"
    write(f)
    with pytest.raises(CheckpointError, match=match):
        load_records(f)


def test_flipped_payload_bit_raises_checkpoint_error(tmp_path):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=1, optimizer_kind="kfac", opt_state_version=1)
    data = bytearray(f.read_bytes())
    at = data.find(_records()["embed"].tobytes())
    assert at >= 0
    data[at + 7] ^= 0x10   # an exponent bit of embed[0, 0]
    f.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="CRC"):
        load_records(f)


class _DiskFull:
    def __array__(self, dtype=None, copy=None):
        raise OSError(28, "No space left on device")


def test_failed_save_keeps_the_previous_checkpoint(tmp_path):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=1, optimizer_kind="kfac", opt_state_version=1)
    with pytest.raises(OSError, match="No space left"):
        save_records(f, {**_records(), "late": _DiskFull()}, cfg_hash=2,
                     optimizer_kind="kfac", opt_state_version=1)
    records, cfg_hash, _, _ = load_records(f)
    assert cfg_hash == 1 and np.array_equal(records["embed"], _records()["embed"])
    assert [p.name for p in tmp_path.iterdir()] == ["ck.dhck"]
