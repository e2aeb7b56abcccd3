import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgenet.errors import ContractError, NonFiniteGradientError
from forgenet.optim import ADAM_BETA1, AdamState, adam_step


def params_of(*arrays):
    return {f"p{i}": np.array(a, dtype=np.float64) for i, a in enumerate(arrays)}


class TestAdamStep:
    def test_zero_gradient_keeps_parameters(self):
        params = params_of([1.0, -2.0, 3.5])
        state = AdamState()
        adam_step(params, {"p0": np.zeros(3)}, state)
        assert state.t == 1
        assert params["p0"].tolist() == [1.0, -2.0, 3.5]

    def test_first_step_closed_form(self):
        # One step from a fresh state collapses to
        # delta = -lr * g / (|g| + eps), independent of beta1/beta2.
        params = params_of([1.0])
        g = np.array([0.5])
        state = AdamState(lr=0.001)
        adam_step(params, {"p0": g}, state)
        expected = 1.0 - 0.001 * 0.5 / (0.5 + 1e-8)
        assert abs(params["p0"][0] - expected) < 1e-9

    @given(g=st.floats(1e-6, 1e6), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=50, deadline=None)
    def test_first_step_magnitude_bounded_by_lr(self, g, sign):
        params = params_of([0.0])
        state = AdamState(lr=0.001)
        adam_step(params, {"p0": np.array([sign * g])}, state)
        assert abs(params["p0"][0]) <= 0.001 * (1.0 + 1e-9)

    @pytest.mark.parametrize("steps", [1, 5, 50])
    def test_constant_gradient_bias_correction(self, steps):
        # With constant g, m_t = (1 - beta1^t) g, so m_hat recovers g exactly.
        params = params_of([10.0])
        g = np.array([0.37])
        state = AdamState()
        for _ in range(steps):
            adam_step(params, {"p0": g.copy()}, state)
        m_hat = state.m["p0"][0] / (1.0 - ADAM_BETA1**state.t)
        assert abs(m_hat - g[0]) < 1e-6

    def test_first_step_invariant_to_gradient_scale(self):
        deltas = []
        for scale in (1.0, 1000.0):
            params = params_of([2.0])
            adam_step(params, {"p0": np.array([0.25 * scale])}, AdamState(lr=0.001))
            deltas.append(2.0 - params["p0"][0])
        assert abs(deltas[0] - deltas[1]) < 1e-9

    def test_zero_lr_freezes_parameters_but_moves_moments(self):
        params = params_of([4.0])
        state = AdamState(lr=0.0)
        adam_step(params, {"p0": np.array([1.5])}, state)
        assert params["p0"][0] == 4.0
        assert state.t == 1
        assert state.m["p0"][0] != 0.0
        assert state.v["p0"][0] > 0.0

    def test_moments_shape_congruent(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        grads = {"a": np.ones((2, 3)), "b": np.ones(4)}
        state = AdamState()
        adam_step(params, grads, state)
        assert state.m["a"].shape == (2, 3)
        assert state.v["b"].shape == (4,)
        assert np.all(state.v["a"] >= 0.0)

    def test_name_mismatch_rejected(self):
        with pytest.raises(ContractError):
            adam_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, AdamState())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            adam_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, AdamState())

    def test_non_finite_gradient_refused_without_side_effects(self):
        params = {"a": np.array([1.0]), "b": np.array([2.0])}
        grads = {"a": np.array([0.1]), "b": np.array([np.nan])}
        state = AdamState()
        with pytest.raises(NonFiniteGradientError):
            adam_step(params, grads, state)
        assert state.t == 0
        assert params["a"][0] == 1.0
        assert not state.m  # moments never allocated

    def test_t_increments_once_per_step(self):
        params = params_of([0.0])
        state = AdamState()
        for expected_t in (1, 2, 3):
            adam_step(params, {"p0": np.array([0.1])}, state)
            assert state.t == expected_t
