import numpy as np
import pytest

from deephedge import rngstreams as rs


def test_a_stream_is_a_function_of_seed_tag_and_index():
    draw = rs.stream(7, rs.BATCH_SHUFFLE, 3).standard_normal(16)
    assert np.array_equal(draw, rs.stream(7, rs.BATCH_SHUFFLE, 3).standard_normal(16))
    for other in (rs.stream(8, rs.BATCH_SHUFFLE, 3), rs.stream(7, rs.PSEUDO_PATH, 3),
                  rs.stream(7, rs.BATCH_SHUFFLE, 4)):
        assert not np.array_equal(draw, other.standard_normal(16))


@pytest.mark.parametrize("index", [-1, 1 << 56])
def test_stream_index_out_of_range_raises(index):
    with pytest.raises(ValueError, match="out of range"):
        rs.stream(7, rs.MARKET_TRAIN, index)


def test_stream_index_at_the_top_of_its_range():
    assert rs.stream(7, rs.MARKET_TRAIN, (1 << 56) - 1).integers(10) in range(10)


def test_substep_normals_are_deterministic_per_path():
    full = rs.substep_normals(7, 1, 3, 100)
    assert full.shape == (100, 2) and np.isfinite(full).all()
    assert np.array_equal(full, rs.substep_normals(7, 1, 3, 100))
    # a slice of the paths reproduces the same numbers
    assert np.array_equal(rs.substep_normals(7, 1, 3, 10), full[:10])
    assert not np.array_equal(full, rs.substep_normals(7, 1, 4, 100))
    assert not np.array_equal(full, rs.substep_normals(7, 2, 3, 100))
