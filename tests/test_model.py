import dataclasses
import hashlib
import importlib
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_layers
from fdcheck import assert_close, central_diff, clone_network
from test_data import FILE_EDITS, FUZZ_SETTINGS, mutate
from forgenet import data, evaluator, layers, model
from forgenet.errors import (
    ConfigError,
    ContractError,
    ShapeError,
    WeightsFormatError,
)
from forgenet.layers import bce_loss
from forgenet.optim import AdamState, adam_step

SMALL = model.NetworkConfig(conv_layers=2, filters=2, height=12, width=12, seed=9)


class TestNetworkConfig:
    def test_default_shape(self):
        cfg = model.NetworkConfig()
        assert (cfg.conv_layers, cfg.filters) == (4, 4)
        assert (model.IN_CHANNELS, cfg.height, cfg.width) == (3, 128, 128)

    def test_spatial_boundary(self):
        ok = model.NetworkConfig(conv_layers=4, height=9, width=9)
        assert ok.feature_height == ok.feature_width == 1
        with pytest.raises(ConfigError):
            model.NetworkConfig(conv_layers=4, height=8, width=8)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError):
            model.NetworkConfig(conv_layers=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            model.NetworkConfig(seed=-1)


class TestCountParameters:
    def test_default_total_is_58221(self):
        assert model.count_parameters(model.NetworkConfig()) == 58_221

    def test_single_conv_layer(self):
        cfg = model.NetworkConfig(conv_layers=1)
        # 112 conv + 16 bn + (4*126*126 + 1) dense, expanded by hand
        assert model.count_parameters(cfg) == 112 + 16 + 63_505
        assert model.count_parameters(cfg) == 63_633

    def test_minimal_spatial_size(self):
        cfg = model.NetworkConfig(conv_layers=4, filters=1, height=9, width=9)
        assert model.count_parameters(cfg) == 28 + 3 * 10 + 4 * 4 + 2
        assert model.count_parameters(cfg) == 76

    @given(
        layers=st.integers(1, 4),
        filters=st.integers(1, 6),
        size=st.integers(9, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_built_network_stores_exactly_that_many(self, layers, filters, size):
        cfg = model.NetworkConfig(conv_layers=layers, filters=filters,
                                  height=size, width=size)
        net = model.build(cfg)
        stored = sum(t.size for t in net.state_tensors().values())
        assert stored == model.count_parameters(cfg)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = model.build(SMALL)
        b = model.build(SMALL)
        for name, tensor in a.state_tensors().items():
            assert np.array_equal(tensor, b.state_tensors()[name]), name

    def test_networks_compare_by_identity(self):
        # A generated == would compare the tensors, and raise on the truth
        # value of an array; equal tensors are a matter for state_tensors().
        a, b = model.build(SMALL), model.build(SMALL)
        assert a != b
        assert a == a and b == b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("cls", [
        layers.ConvLayer, layers.BatchNormLayer, layers.DenseLayer,
        layers.BatchNormCache, model.Network, model.ForwardCache, data.Batch,
        evaluator.ConfusionMatrix, AdamState,
    ], ids=lambda cls: cls.__name__)
    def test_array_holders_generate_no_eq(self, cls):
        assert cls.__eq__ is object.__eq__

    def test_different_seed_differs(self):
        a = model.build(SMALL)
        b = model.build(model.NetworkConfig(conv_layers=2, filters=2,
                                            height=12, width=12, seed=10))
        assert not np.array_equal(a.convs[0].weights, b.convs[0].weights)

    def test_init_values(self):
        net = model.build(SMALL)
        for conv in net.convs:
            assert not conv.bias.any()
        for bn in net.bns:
            assert np.all(bn.gamma == 1.0)
            assert not bn.beta.any()
            assert not bn.moving_mean.any()
            assert np.all(bn.moving_var == 1.0)
        assert not net.dense.bias.any()

    def test_trainable_parameters_exclude_moving_stats(self):
        net = model.build(SMALL)
        names = set(net.parameters())
        assert not any("moving" in n for n in names)
        assert not any(n.startswith("conv") and n.endswith(".bias") for n in names)
        trainable = sum(t.size for t in net.parameters().values())
        stored = sum(t.size for t in net.state_tensors().values())
        # 2 moving vectors and 1 conv bias per layer, each 2 filters long
        assert stored - trainable == 3 * SMALL.filters * SMALL.conv_layers


class TestFlatten:
    def test_shape_and_order(self):
        x = np.arange(72, dtype=np.float32).reshape(2, 4, 3, 3)
        flat = model.flatten(x)
        assert flat.shape == (2, 36)
        # row-major (c,h,w) order within a sample
        assert flat[0, 0] == x[0, 0, 0, 0]
        assert flat[0, 9] == x[0, 1, 0, 0]
        assert flat[1, 35] == x[1, 3, 2, 2]

    def test_single_value(self):
        x = np.full((1, 1, 1, 1), 5.0, dtype=np.float32)
        assert model.flatten(x).tolist() == [[5.0]]

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
        back = model.unflatten(model.flatten(x), x.shape)
        assert back.shape == x.shape
        assert np.array_equal(back, x)

    def test_unflatten_wrong_count(self):
        with pytest.raises(ShapeError):
            model.unflatten(np.zeros((2, 9), dtype=np.float32), (2, 1, 2, 2))


class TestForward:
    def test_probabilities_in_open_unit_interval(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(3, 3, 12, 12)).astype(np.float32)
        probs, _ = model.forward(net, x, training=False)
        assert probs.shape == (3,)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_inference_batch_equals_per_sample(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(5, 3, 12, 12)).astype(np.float32)
        batched, _ = model.forward(net, x, training=False)
        singles = np.concatenate(
            [model.forward(net, x[i : i + 1], training=False)[0] for i in range(5)]
        )
        assert_close(batched, singles, 1e-6)

    def test_inference_is_pure_and_deterministic(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        before = {k: v.copy() for k, v in net.state_tensors().items()}
        p1, _ = model.forward(net, x, training=False)
        p2, _ = model.forward(net, x, training=False)
        assert np.array_equal(p1, p2)
        for name, tensor in net.state_tensors().items():
            assert np.array_equal(tensor, before[name]), name

    def test_training_changes_no_state(self, rng):
        # Only the trainer writes state: Adam, and the BN statistics once
        # per epoch.
        net = model.build(SMALL)
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        before = {k: v.copy() for k, v in net.state_tensors().items()}
        _, cache = model.forward(net, x, training=True)
        model.backward(net, cache, np.array([0.0, 1.0], np.float32))
        for name, tensor in net.state_tensors().items():
            assert tensor.tobytes() == before[name].tobytes(), name

    def test_wrong_input_shape_rejected(self):
        net = model.build(SMALL)
        with pytest.raises(ShapeError):
            model.forward(net, np.zeros((1, 3, 10, 12), np.float32), training=False)

    @pytest.mark.parametrize("training", [False, True])
    def test_keeps_only_what_backward_reads(self, rng, training):
        # Training keeps each block's output and its centred values, and
        # inference its block outputs, in the workspace the first call made:
        # a repeat call keeps nothing new but the cache's small arrays.
        config = model.NetworkConfig(conv_layers=3, height=32, width=32, seed=3)
        net = model.build(config)
        x = rng.uniform(size=(16, 3, 32, 32)).astype(np.float32)
        model.forward(net, x, training)  # one-off allocations happen here
        tracemalloc.start()
        try:
            result = model.forward(net, x, training)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result[0].shape == (16,)
        assert held < 64 * 1024

    def test_backward_peak_memory(self, rng):
        # Backward writes each gradient into workspace memory whose forward
        # contents are dead.
        config = model.NetworkConfig(conv_layers=4, height=64, width=64, seed=3)
        net = model.build(config)
        x = rng.uniform(size=(16, 3, 64, 64)).astype(np.float32)
        y = (np.arange(16) % 2).astype(np.float32)
        block_bytes = sum(
            x.shape[0] * config.filters * (64 - 2 * i) ** 2 * x.itemsize
            for i in range(1, config.conv_layers + 1)
        )
        _, cache = model.forward(net, x, training=True)
        model.backward(net, cache, y)  # one-off allocations happen here
        tracemalloc.start()
        try:
            _, cache = model.forward(net, x, training=True)
            tracemalloc.reset_peak()
            model.backward(net, cache, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * block_bytes

    @pytest.mark.parametrize("training", [False, True])
    def test_leaves_input_unchanged(self, rng, training):
        net = model.build(SMALL)
        x = rng.uniform(-1.0, 1.0, size=(4, 3, 12, 12)).astype(np.float32)
        before = x.copy()
        _, cache = model.forward(net, x, training)
        assert x.tobytes() == before.tobytes()
        if training:
            model.backward(net, cache, np.array([0.0, 1.0, 0.0, 1.0], np.float32))
            assert x.tobytes() == before.tobytes()

    def test_inference_peak_memory(self, rng):
        # With each BN folded into its conv, a block allocates only its conv
        # output and ReLU output beside the shared patch buffer.
        config = model.NetworkConfig(conv_layers=3, height=64, width=64, seed=3)
        net = model.build(config)
        x = rng.uniform(size=(16, 3, 64, 64)).astype(np.float32)
        first_block_bytes = 16 * config.filters * 62 * 62 * x.itemsize
        model.forward(net, x, training=False)  # one-off allocations happen here
        tracemalloc.start()
        try:
            model.forward(net, x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * first_block_bytes

    def test_repeat_inference_allocates_less_than_a_block(self, rng):
        # The block outputs go into the net's buffers, so a repeat call
        # allocates only the patch buffer, the folded layers and the head.
        config = model.NetworkConfig(conv_layers=3, height=64, width=64, seed=3)
        net = model.build(config)
        x = rng.uniform(size=(16, 3, 64, 64)).astype(np.float32)
        last_block_bytes = 16 * config.filters * 58 * 58 * x.itemsize
        model.forward(net, x, training=False)
        tracemalloc.start()
        try:
            model.forward(net, x, training=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < last_block_bytes


class TestInferenceBuffers:
    def test_probabilities_never_alias_a_buffer(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(4, 3, 12, 12)).astype(np.float32)
        probs, _ = model.forward(net, x, training=False)
        kept = probs.copy()
        assert set(net.buffers) == {"act0", "act1"}
        for buf in net.buffers.values():
            assert not np.shares_memory(probs, buf)
        model.forward(net, x[::-1].copy(), training=False)
        assert probs.tobytes() == kept.tobytes()

    def test_input_buffer_is_never_written(self, rng):
        net = model.build(SMALL)
        x = model.input_buffer(net, 4)
        x[...] = rng.uniform(-1.0, 1.0, size=x.shape)
        before = x.copy()
        for _ in range(2):
            model.forward(net, x, training=False)
            assert x.tobytes() == before.tobytes()

    def test_float64_clone_gets_float64_buffers(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(4, 3, 12, 12))
        model.forward(net, x.astype(np.float32), training=False)
        shadow = clone_network(net, dtype=np.float64)
        probs, _ = model.forward(shadow, x, training=False)
        assert probs.dtype == np.float64
        assert {b.dtype for b in shadow.buffers.values()} == {np.dtype(np.float64)}
        assert {b.dtype for b in net.buffers.values()} == {np.dtype(np.float32)}

    def test_buffers_are_not_state(self, rng, tmp_path):
        net = model.build(SMALL)
        names = list(net.state_tensors())
        model.save_weights(net, tmp_path / "before.fgn")
        model.input_buffer(net, 4)
        model.forward(net, rng.uniform(size=(4, 3, 12, 12)).astype(np.float32), False)
        model.save_weights(net, tmp_path / "after.fgn")
        assert list(net.state_tensors()) == names
        assert (tmp_path / "after.fgn").read_bytes() == (tmp_path / "before.fgn").read_bytes()
        assert "buffers" not in repr(net) and "generation" not in repr(net)


class TestWorkspace:
    """Training and inference share the net's workspace (`Network.buffers`)."""

    def test_training_and_inference_share_the_workspace(self, rng):
        net = model.build(SMALL)
        x = model.input_buffer(net, 4)
        x[...] = rng.uniform(size=x.shape)
        _, cache = model.forward(net, x, training=True)
        model.backward(net, cache, np.array([0.0, 1.0, 0.0, 1.0], np.float32))
        names = {"batch", "conv0", "act0", "conv1", "act1"}
        assert set(net.buffers) == names
        pointers = {name: buf.ctypes.data for name, buf in net.buffers.items()}
        model.forward(net, x, training=False)
        _, cache = model.forward(net, x, training=True)
        assert {name: buf.ctypes.data for name, buf in net.buffers.items()} == pointers

    def test_cache_views_the_workspace(self, rng):
        # Four blocks, so that block i's act{i % 2} is not act{i} past block 1.
        config = model.NetworkConfig(conv_layers=4, filters=2, height=16, width=16)
        net = model.build(config)
        x = model.input_buffer(net, 4)
        x[...] = rng.uniform(size=x.shape)
        _, cache = model.forward(net, x, training=True)
        assert cache.batch is x
        for i, bn_cache in enumerate(cache.bn_caches):
            assert np.shares_memory(bn_cache.centred, net.buffers[f"conv{i}"])
        assert np.shares_memory(cache.top, net.buffers["act1"])
        # Past block 0, conv i's buffer holds conv i's input gradient too.
        assert net.buffers["conv1"].size == cache.bn_caches[0].centred.size
        model.backward(net, cache, np.array([0.0, 1.0, 0.0, 1.0], np.float32))
        # Two block outputs, not one per block.
        assert set(net.buffers) == {
            "batch", "conv0", "conv1", "conv2", "conv3", "act0", "act1",
        }

    def test_first_step_peak_memory(self, rng):
        # The workspace is four conv arrays and two block outputs, 5.75
        # block-0 outputs here; the ReLU masks, patch buffers and head add
        # under one more. One array per block output would peak at 8.3.
        config = model.NetworkConfig(conv_layers=4, height=64, width=64, seed=3)
        net = model.build(config)
        x = rng.uniform(size=(16, 3, 64, 64)).astype(np.float32)
        y = (np.arange(16) % 2).astype(np.float32)
        first_block_bytes = 16 * config.filters * 62 * 62 * x.itemsize
        tracemalloc.start()
        try:
            _, cache = model.forward(net, x, training=True)
            model.backward(net, cache, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * first_block_bytes

    @pytest.mark.parametrize("between", [True, False], ids=["training", "inference"])
    def test_stale_cache_rejected(self, rng, between):
        net = model.build(SMALL)
        a = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        b = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        y = np.array([0.0, 1.0], np.float32)
        _, cache_a = model.forward(net, a, training=True)
        model.forward(net, b, training=between)
        with pytest.raises(ContractError, match="stale"):
            model.backward(net, cache_a, y)

    def test_results_never_alias_the_workspace(self, rng):
        net = model.build(SMALL)
        x = model.input_buffer(net, 4)
        x[...] = rng.uniform(size=x.shape)
        y = np.array([0.0, 1.0, 0.0, 1.0], np.float32)
        results = []
        for training in (False, True):
            probs, cache = model.forward(net, x, training=training)
            results.append(probs)
        results.extend(model.backward(net, cache, y).values())
        for result in results:
            for name, buf in net.buffers.items():
                assert not np.shares_memory(result, buf), name

    def test_repeat_step_allocates_less_than_a_block_output(self, rng):
        # At 128px, batch 16, a second forward and backward work in the
        # workspace the first made: their peak is the ReLU masks, the conv
        # patch buffers and the head, below one block-0 output.
        config = model.NetworkConfig(height=128, width=128, seed=5)
        net = model.build(config)
        x = model.input_buffer(net, 16)
        x[...] = rng.uniform(size=x.shape)
        y = (np.arange(16) % 2).astype(np.float32)
        _, cache = model.forward(net, x, training=True)
        model.backward(net, cache, y)  # one-off allocations happen here
        tracemalloc.start()
        try:
            _, cache = model.forward(net, x, training=True)
            model.backward(net, cache, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * config.filters * 126 * 126 * x.itemsize  # one block-0 output


class TestBackward:
    def test_end_to_end_finite_differences(self, rng):
        net = clone_network(model.build(SMALL), dtype=np.float64)
        x = rng.uniform(size=(2, 3, 12, 12))
        y = np.array([0.0, 1.0])

        def objective():
            probs, _ = model.forward(net, x, training=True)
            loss, _ = bce_loss(probs, y)
            return loss

        probs, cache = model.forward(net, x, training=True)
        grads = model.backward(net, cache, y)
        params = net.parameters()
        assert set(grads) == set(params)
        for name, param in params.items():
            assert_close(
                grads[name], central_diff(objective, param), 1e-3, atol=1e-7,
                what=name,
            )

    def test_conv_biases_have_no_gradient(self, rng):
        # Each conv feeds a training-mode BN, which subtracts the channel's
        # batch mean, so the loss does not read a conv bias: neither
        # parameters() nor backward names one.
        net = clone_network(model.build(SMALL), dtype=np.float64)
        for conv in net.convs:
            conv.bias[...] = rng.normal(0.0, 0.5, size=conv.bias.shape)
        x = rng.uniform(size=(2, 3, 12, 12))
        y = np.array([0.0, 1.0])

        def objective():
            probs, _ = model.forward(net, x, training=True)
            loss, _ = bce_loss(probs, y)
            return loss

        for i, conv in enumerate(net.convs):
            assert np.abs(central_diff(objective, conv.bias)).max() <= 1e-9, i
            # the same check sees the weights of that conv
            assert np.abs(central_diff(objective, conv.weights)).max() > 1e-3, i
        _, cache = model.forward(net, x, training=True)
        grads = model.backward(net, cache, y)
        assert not any(n.startswith("conv") and n.endswith(".bias") for n in grads)

    def test_saturated_correct_predictions_give_tiny_gradients(self, rng):
        net = model.build(SMALL)
        net.dense.bias[0] = 25.0  # saturates every probability at the clamp
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        probs, cache = model.forward(net, x, training=True)
        assert np.all(probs == 1.0 - 1e-7)
        grads = model.backward(net, cache, np.ones(2, np.float32))
        for name, g in grads.items():
            assert np.linalg.norm(g) < 1e-4, name

    def test_inference_cache_rejected(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        _, cache = model.forward(net, x, training=False)
        with pytest.raises(ContractError):
            model.backward(net, cache, np.zeros(2, np.float32))

    def test_zero_variance_channel_trains(self, rng):
        # Zeroed conv weights make the layer output bitwise constant, the
        # one way float32 arithmetic yields an exactly zero batch variance.
        net = model.build(SMALL)
        net.convs[0].weights[...] = 0.0
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        y = np.array([0.0, 1.0], np.float32)
        _, cache = model.forward(net, x, training=True)
        assert not cache.bn_caches[0].var.any()
        grads = model.backward(net, cache, y)
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
        state = AdamState()
        adam_step(net.parameters(), grads, state)
        assert state.t == 1

    def test_second_backward_on_one_cache_rejected(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        y = np.array([0.0, 1.0], np.float32)
        _, cache = model.forward(net, x, training=True)
        model.backward(net, cache, y)
        with pytest.raises(ContractError, match="consumed"):
            model.backward(net, cache, y)

    def test_refused_backward_writes_nothing(self, rng):
        """A second backward on one cache, or a backward after a later
        forward, is refused before it writes the workspace."""
        net = model.build(SMALL)
        a = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        b = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        y = np.array([0.0, 1.0], np.float32)
        _, cache_a = model.forward(net, a, training=True)
        model.backward(net, cache_a, y)
        _, cache_b = model.forward(net, b, training=True)
        workspace = {name: buf.copy() for name, buf in net.buffers.items()}
        with pytest.raises(ContractError, match="stale cache, consumed"):
            model.backward(net, cache_a, y)
        for name, buf in net.buffers.items():
            np.testing.assert_array_equal(buf, workspace[name], err_msg=name)
        model.backward(net, cache_b, y)
        with pytest.raises(ContractError, match="stale cache, consumed"):
            model.backward(net, cache_b, y)

    def test_backward_refused_for_its_labels_leaves_the_cache_usable(self, rng):
        net, twin = model.build(SMALL), model.build(SMALL)
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        y = np.array([0.0, 1.0], np.float32)
        _, cache = model.forward(net, x, training=True)
        with pytest.raises(ContractError, match="labels shape"):
            model.backward(net, cache, np.zeros(3, np.float32))
        with pytest.raises(ContractError, match="labels must be 0 or 1"):
            model.backward(net, cache, np.array([0.0, 2.0], np.float32))
        grads = model.backward(net, cache, y)
        _, twin_cache = model.forward(twin, x, training=True)
        expected = model.backward(twin, twin_cache, y)
        assert grads.keys() == expected.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, expected[name], err_msg=name)

    def test_train_step_raises_no_floating_point_error(self, rng):
        config = model.NetworkConfig(conv_layers=3, height=32, width=32, seed=3)
        net = model.build(config)
        x = rng.uniform(size=(16, 3, 32, 32)).astype(np.float32)
        y = (np.arange(16) % 2).astype(np.float32)
        params = net.parameters()
        before = {k: v.copy() for k, v in params.items()}
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            probs, cache = model.forward(net, x, training=True)
            bce_loss(probs, y)
            adam_step(params, model.backward(net, cache, y), AdamState())
        assert all(np.isfinite(v).all() for v in params.values())
        assert any(not np.array_equal(v, before[k]) for k, v in params.items())

    def test_label_shape_mismatch_rejected(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(2, 3, 12, 12)).astype(np.float32)
        _, cache = model.forward(net, x, training=True)
        with pytest.raises(ContractError):
            model.backward(net, cache, np.zeros(3, np.float32))


def reference_step(net, x, y):
    """One training forward and backward through the layer functions, with a
    copy of every block output kept for backward; returns the gradients."""
    outputs, bn_caches = [x], []
    for conv, bn in zip(net.convs, net.bns):
        h, bn_cache = layers.batchnorm_forward(layers.conv2d_forward(outputs[-1], conv), bn)
        outputs.append(layers.relu_forward(h).copy())
        bn_caches.append(bn_cache)
    top = outputs[-1]
    probs = layers.sigmoid(layers.dense_forward(model.flatten(top), net.dense))
    _, d_logits = bce_loss(probs, y)
    grads = {}
    d, grads["dense.weights"], grads["dense.bias"] = layers.dense_backward(
        model.flatten(top), net.dense, d_logits
    )
    d = d.reshape(top.shape)
    for i in reversed(range(len(net.convs))):
        d = layers.relu_backward(outputs[i + 1], d)
        d, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = layers.batchnorm_backward(
            bn_caches[i], net.bns[i], d
        )
        d, grads[f"conv{i}.weights"] = layers.conv2d_backward(
            outputs[i], net.convs[i], d, input_grad=i > 0
        )
    return grads


class TestRebuiltBlockOutputs:
    """Backward rebuilds the block outputs that forward overwrote; its
    gradients are the bits of a pass that kept every block output."""

    def test_gradients_equal_a_pass_keeping_every_output(self, rng):
        config = model.NetworkConfig(conv_layers=4, height=32, width=32, seed=4)
        net, twin = model.build(config), model.build(config)
        adam, twin_adam = AdamState(), AdamState()
        for step in range(3):
            x = model.input_buffer(net, 16)
            x[...] = rng.uniform(size=x.shape)
            y = (rng.uniform(size=16) > 0.5).astype(np.float32)
            expected = reference_step(twin, x.copy(), y)
            _, cache = model.forward(net, x, training=True)
            grads = model.backward(net, cache, y)
            assert grads.keys() == expected.keys()
            for name, g in grads.items():
                assert np.array_equal(g, expected[name]), (step, name)
            adam_step(net.parameters(), grads, adam)
            adam_step(twin.parameters(), expected, twin_adam)


def reference_conv_backward(x, layer, upstream, input_grad=True, out=None):
    d_input, d_weights = reference_layers.conv2d_backward(x, layer, upstream, out=out)
    return d_input if input_grad else None, d_weights


def train_pass(monkeypatch, net, x, y, conv_forward, conv_backward):
    """One training forward and backward with the given conv functions;
    returns each block's conv output and the gradients."""
    conv_outputs = []

    def recording_forward(h, layer, out=None):
        # BN takes over the conv output, so keep a copy in its memory order.
        out = conv_forward(h, layer, out=out)
        conv_outputs.append(out.copy(order="K"))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(layers, "conv2d_forward", recording_forward)
        patch.setattr(layers, "conv2d_backward", conv_backward)
        _, cache = model.forward(net, x, training=True)
        grads = model.backward(net, cache, y)
    return conv_outputs, grads


class TestAgainstReferenceConv:
    """Whole-network passes through the program's conv against the plain
    reference conv in tests/reference_layers.py."""

    SHAPES = [(16, 32), (4, 128)]  # (batch, side): desk and paper frame size

    def _inputs(self, rng, batch, side):
        config = model.NetworkConfig(height=side, width=side, seed=5)
        x = rng.uniform(size=(batch, 3, side, side))
        y = (np.arange(batch) % 2).astype(np.float64)
        return model.build(config), x, y

    @pytest.mark.parametrize("batch,side", SHAPES)
    def test_float64_activations_and_gradients(self, rng, monkeypatch, batch, side):
        net, x, y = self._inputs(rng, batch, side)
        fast_outputs, fast_grads = train_pass(
            monkeypatch, clone_network(net, np.float64), x, y,
            layers.conv2d_forward, layers.conv2d_backward,
        )
        ref_outputs, ref_grads = train_pass(
            monkeypatch, clone_network(net, np.float64), x, y,
            reference_layers.conv2d_forward, reference_conv_backward,
        )
        for i, (got, expected) in enumerate(zip(fast_outputs, ref_outputs)):
            assert got.flags.c_contiguous
            assert_close(got, expected, 1e-9, atol=1e-9 * np.abs(expected).max(),
                         what=f"conv{i} output")
        assert set(fast_grads) == set(ref_grads)
        for name, expected in ref_grads.items():
            assert_close(fast_grads[name], expected, 1e-9,
                         atol=1e-9 * np.abs(expected).max(), what=name)

    @pytest.mark.parametrize("batch,side", SHAPES)
    @pytest.mark.parametrize("training", [True, False])
    def test_float32_probabilities(self, rng, monkeypatch, batch, side, training):
        net, x, _ = self._inputs(rng, batch, side)
        probs32, _ = model.forward(net, x.astype(np.float32), training=training)
        assert probs32.dtype == np.float32
        with monkeypatch.context() as patch:
            patch.setattr(layers, "conv2d_forward", reference_layers.conv2d_forward)
            probs64, _ = model.forward(
                clone_network(net, np.float64), x, training=training
            )
        assert np.abs(probs32 - probs64).max() <= 1e-5


class TestFoldedInference:
    """Inference folds each BN into its conv; these compare it with the
    unfolded forward composed from tests/reference_layers.py."""

    @staticmethod
    def unfolded_probabilities(net, x):
        h = x
        for conv, bn in zip(net.convs, net.bns):
            h, _ = reference_layers.batchnorm_forward(
                reference_layers.conv2d_forward(h, conv), bn, training=False
            )
            h = layers.relu_forward(h)
        return layers.sigmoid(layers.dense_forward(model.flatten(h), net.dense))

    @pytest.mark.parametrize("batch,side", TestAgainstReferenceConv.SHAPES)
    def test_matches_unfolded_in_inference_state(self, rng, monkeypatch, batch, side):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        reference = importlib.import_module("reference")
        net = model.build(model.NetworkConfig(height=side, width=side, seed=5))
        reference.set_inference_state(net)
        x = rng.uniform(size=(batch, 3, side, side)).astype(np.float32)
        folded, cache = model.forward(net, x, training=False)
        assert cache is None
        assert folded.dtype == np.float32
        expected = self.unfolded_probabilities(net, x)
        assert np.abs(folded - expected).max() <= 1e-5


class TestTrainedInference:
    """Training in float32 against a float64 twin, on the benchmark's
    reference frames at its learning rates (perfbench/reference.py)."""

    @pytest.mark.parametrize("side", [16, 32, 128])
    def test_float32_training_tracks_float64(self, monkeypatch, tmp_path, side):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        reference = importlib.import_module("reference")
        manifest = data.generate_synthetic(
            reference.VIDEOS, reference.FRAMES_PER_VIDEO, side,
            reference.DATA_SEED, tmp_path, split="test",
        )
        batch = data.assemble_batch(manifest, list(range(len(manifest.rows))))
        net = model.build(
            model.NetworkConfig(height=side, width=side, seed=reference.NET_SEED)
        )
        twin = clone_network(net, np.float64)
        x64, y64 = batch.x.astype(np.float64), batch.y.astype(np.float64)
        adam = AdamState(lr=reference.train_lr(side))
        adam64 = AdamState(lr=reference.train_lr(side))
        for _ in range(reference.TRAIN_STEPS):
            _, cache = model.forward(net, batch.x, training=True)
            adam_step(net.parameters(), model.backward(net, cache, batch.y), adam)
            _, cache = model.forward(twin, x64, training=True)
            adam_step(twin.parameters(), model.backward(twin, cache, y64), adam64)
        # Inference folds the conv biases and moving statistics in, so
        # rounding noise trained into either would show here.
        probs, _ = model.forward(net, batch.x, training=False)
        probs64, _ = model.forward(twin, x64, training=False)
        assert np.abs(probs - probs64).max() <= 1e-6


class TestWeightsFile:
    def _trained_net(self, rng):
        net = model.build(SMALL)
        x = rng.uniform(size=(4, 3, 12, 12)).astype(np.float32)
        model.forward(net, x, training=True)  # move the BN moving stats
        return net

    def test_roundtrip_bit_identical(self, rng, tmp_path):
        net = self._trained_net(rng)
        path = tmp_path / "w.fgn"
        model.save_weights(net, path)
        back = model.load_weights(path)
        for name, tensor in net.state_tensors().items():
            assert np.array_equal(tensor, back.state_tensors()[name]), name

    def test_truncated_rejected(self, rng, tmp_path):
        net = self._trained_net(rng)
        path = tmp_path / "w.fgn"
        model.save_weights(net, path)
        blob = path.read_bytes()
        clipped = tmp_path / "clipped.fgn"
        clipped.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(WeightsFormatError, match="unexpected end of file"):
            model.load_weights(clipped)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="magic"):
            model.load_weights(path)

    @given(edits=FILE_EDITS)
    @FUZZ_SETTINGS
    def test_mutated_file_loads_or_raises_format_error(self, tmp_path, edits):
        path = tmp_path / "w.fgn"
        tiny = model.NetworkConfig(conv_layers=1, filters=1, height=3, width=3)
        model.save_weights(model.build(tiny), path)
        path.write_bytes(mutate(path.read_bytes(), edits))
        try:
            model.load_weights(path)
        except WeightsFormatError:
            pass

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(SMALL), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(WeightsFormatError, match="trailing"):
            model.load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_tensor(self, tmp_path, value):
        net = model.build(SMALL)
        net.bns[1].gamma[0] = value
        net.dense.bias[0] = np.nan
        path = tmp_path / "w.fgn"
        model.save_weights(net, path)
        with pytest.raises(WeightsFormatError, match=r"^bn1\.gamma: non-finite"):
            model.load_weights(path)

    def _tamper_header(self, path, header, tail=b""):
        """Rewrite the file at `path` with another header, `tail` appended."""
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<4I", *header) + blob[20:] + tail)

    def test_filter_mismatch_names_first_tensor(self, tmp_path):
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(SMALL), path)
        # Padded to the length a filters=4 header promises, so the tensor
        # records themselves are what disagree with the header.
        wider = model.NetworkConfig(conv_layers=2, filters=4, height=12, width=12)
        padding = bytes(4 * model.count_parameters(wider))
        self._tamper_header(path, (2, 4, 12, 12), tail=padding)
        with pytest.raises(WeightsFormatError, match="conv0.weights"):
            model.load_weights(path)

    def test_invalid_header_config_rejected(self, tmp_path):
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(SMALL), path)
        self._tamper_header(path, (2, 0, 12, 12))
        with pytest.raises(WeightsFormatError, match="^header: filters must be >= 1"):
            model.load_weights(path)

    def test_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(SMALL), path)
        self._tamper_header(path, (2, 2, 2000, 2000))  # a 32 MB dense layer
        tracemalloc.start()
        try:
            with pytest.raises(WeightsFormatError, match="^header: unexpected end"):
                model.load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # Save and load share the schema order, so a roundtrip cannot notice a
    # reordered schema; these values pin the FGN1 layout itself.
    PINNED_ORDER = [
        "conv0.weights", "conv0.bias", "bn0.gamma", "bn0.beta",
        "bn0.moving_mean", "bn0.moving_var",
        "conv1.weights", "conv1.bias", "bn1.gamma", "bn1.beta",
        "bn1.moving_mean", "bn1.moving_var",
        "dense.weights", "dense.bias",
    ]
    PINNED_SHA256 = "1193222248bb4362f437e88bf0c801d8bafe6b5e91f0fa07634f8f2fce80479c"

    def _sequence_filled_net(self):
        """build(SMALL) with every tensor, in schema order, filled from one
        arithmetic sequence of exactly representable float32 values."""
        net = model.build(SMALL)
        start = 0
        for tensor in net.state_tensors().values():
            seq = np.arange(start, start + tensor.size)
            tensor[...] = ((seq % 97 - 48) / 16).reshape(tensor.shape)
            start += tensor.size
        return net

    def test_schema_order_pinned(self):
        assert list(model.build(SMALL).state_tensors()) == self.PINNED_ORDER

    def test_file_bytes_pinned(self, tmp_path):
        path = tmp_path / "w.fgn"
        model.save_weights(self._sequence_filled_net(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINNED_SHA256

    def test_load_reads_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(SMALL), path)
        reads = []
        real_read_bytes = Path.read_bytes

        def counting_read_bytes(self):
            reads.append(self)
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        model.load_weights(path)
        assert len(reads) == 1

    def test_header_covers_config(self, tmp_path):
        header_fields = ("conv_layers", "filters", "height", "width")
        config_fields = {f.name for f in dataclasses.fields(model.NetworkConfig)}
        assert config_fields - {"seed"} <= set(header_fields)
        # Every field distinct, so a swapped pair would show.
        cfg = model.NetworkConfig(conv_layers=2, filters=3, height=13, width=11, seed=4)
        path = tmp_path / "w.fgn"
        model.save_weights(model.build(cfg), path)
        from_header = model.load_weights(path).config
        assert dataclasses.replace(from_header, seed=cfg.seed) == cfg


class TestCloneNetwork:
    def test_float64_clone_is_independent(self, rng):
        net = model.build(SMALL)
        shadow = clone_network(net, dtype=np.float64)
        assert shadow.convs[0].weights.dtype == np.float64
        shadow.convs[0].weights[...] = 0.0
        assert net.convs[0].weights.any()
