import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forgenet import tensor
from forgenet.errors import ShapeError


class TestFlatten:
    def test_shape_and_order(self):
        x = np.arange(72, dtype=np.float32).reshape(2, 4, 3, 3)
        flat = tensor.flatten(x)
        assert flat.shape == (2, 36)
        # row-major (c,h,w) order within a sample
        assert flat[0, 0] == x[0, 0, 0, 0]
        assert flat[0, 9] == x[0, 1, 0, 0]
        assert flat[1, 35] == x[1, 3, 2, 2]

    def test_single_value(self):
        x = np.full((1, 1, 1, 1), 5.0, dtype=np.float32)
        assert tensor.flatten(x).tolist() == [[5.0]]

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        seed=st.integers(0, 2**31),
    )
    def test_unflatten_roundtrip(self, n, c, h, w, seed):
        x = (
            np.random.default_rng(seed)
            .normal(size=(n, c, h, w))
            .astype(np.float32)
        )
        back = tensor.unflatten(tensor.flatten(x), x.shape)
        assert back.shape == x.shape
        assert np.array_equal(back, x)

    def test_unflatten_wrong_count(self):
        with pytest.raises(ShapeError):
            tensor.unflatten(np.zeros((2, 9), dtype=np.float32), (2, 1, 2, 2))


class TestRequire:
    def test_require_rank_passes(self):
        x = np.zeros((1, 2, 3, 4), dtype=np.float32)
        assert tensor.require_rank(x, 4) is x

    def test_require_rank_rejects(self):
        with pytest.raises(ShapeError):
            tensor.require_rank(np.zeros((2, 2), dtype=np.float32), 4)

