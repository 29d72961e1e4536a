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
    for name, arr in _records().items():
        assert np.array_equal(records[name], arr) and records[name].shape == arr.shape


def test_truncated_checkpoint_raises_checkpoint_error(tmp_path):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=1, optimizer_kind="kfac", opt_state_version=1)
    full = f.read_bytes()
    cut = tmp_path / "cut.dhck"
    for size in (10, len(full) // 2):   # inside the header, then mid-payload
        cut.write_bytes(full[:size])
        with pytest.raises(CheckpointError, match="truncated"):
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


@pytest.mark.parametrize("offset,patch,match", [(0, b"NOPE", "magic"),
                                                (4, b"\x63\x00\x00\x00", "version")])
def test_foreign_header_raises_checkpoint_error(tmp_path, offset, patch, match):
    f = tmp_path / "ck.dhck"
    save_records(f, _records(), cfg_hash=1, optimizer_kind="kfac", opt_state_version=1)
    data = bytearray(f.read_bytes())
    data[offset:offset + len(patch)] = patch
    f.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=match):
        load_records(f)
