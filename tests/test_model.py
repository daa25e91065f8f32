import tracemalloc

import numpy as np
import pytest

from loadcast.model import (
    ModelConfig,
    config_hash,
    decompose,
    init_params,
    loss_and_grad,
    model_forward,
    normalize_input,
)

from helpers import positive_batch, tiny_config, zero_head_params, zero_head_reference


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_defaults_are_production_settings():
    cfg = ModelConfig()
    assert (cfg.lookback, cfg.horizon, cfg.blocks) == (12, 12, 6)
    assert (cfg.fc_width, cfg.fc_layers, cfg.sharing) == (512, 3, True)
    assert (cfg.tau, cfg.nmse_weight) == (0.35, 0.35)
    assert cfg.ablation == frozenset()


def test_config_validation():
    with pytest.raises(ValueError, match="ablation"):
        ModelConfig(ablation={"noSuchFlag"})
    with pytest.raises(ValueError):
        ModelConfig(blocks=0)
    with pytest.raises(ValueError):
        ModelConfig(tau=1.5)


def test_config_roundtrip_and_hash():
    cfg = tiny_config(ablation=frozenset({"noReLU"}))
    again = ModelConfig(**cfg.to_dict())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    assert config_hash(tiny_config()) != config_hash(tiny_config(tau=0.4))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_examples():
    normed, scale = normalize_input(np.array([[2.0, 4.0]]))
    assert np.array_equal(normed, [[0.5, 1.0]]) and np.array_equal(scale, [4.0])

    normed, scale = normalize_input(np.array([[3.0, 3.0, 3.0]]))
    assert np.array_equal(normed, [[1.0, 1.0, 1.0]]) and np.array_equal(scale, [3.0])

    normed, _ = normalize_input(np.array([[0.0, 2.0, 0.0]]))
    assert np.array_equal(normed, [[0.0, 1.0, 0.0]])

    with pytest.raises(ValueError, match="positive"):
        normalize_input(np.array([[-1.0, -2.0]]))


def test_normalized_ceiling_is_exactly_one():
    rng = np.random.default_rng(0)
    batch = positive_batch(rng, (16, 12))
    normed, _ = normalize_input(batch)
    assert np.array_equal(normed.max(axis=1), np.ones(16))


# ---------------------------------------------------------------------------
# Block behaviour
# ---------------------------------------------------------------------------

def one_block(params, x, cfg):
    """(block input, backcast, forecast) of a one-block model, in the normalized scale."""
    _, forward = model_forward(params, np.atleast_2d(x), cfg)
    block = forward.blocks[0]
    return block.hidden[0][0], block.backcast[0], block.forecast[0]


def test_zero_heads_emit_input_mean():
    cfg = tiny_config(blocks=1)
    params = zero_head_params(cfg)
    x = np.array([0.2, 0.4, 0.6, 0.8, 1.0, 0.5])
    x_m, backcast, forecast = one_block(params, x, cfg)
    assert np.array_equal(x_m, x)  # already peaks at 1, so normalization is exact
    assert np.allclose(backcast, x.mean(), rtol=0, atol=0)
    assert np.allclose(forecast, x.mean(), rtol=0, atol=0)


def test_constant_input_ignores_head_values():
    # zero spread forces Std = 0, so the heads cannot move the output
    cfg = tiny_config(blocks=1)
    params = init_params(cfg, np.random.default_rng(5))
    x_m, backcast, forecast = one_block(params, np.full(6, 0.7), cfg)
    assert np.array_equal(backcast, np.full(6, x_m.mean()))
    assert np.array_equal(forecast, np.full(3, x_m.mean()))


def test_no_destd_zero_heads_emit_zero():
    cfg = tiny_config(blocks=1, ablation=frozenset({"noDestd"}))
    params = zero_head_params(cfg)
    _, backcast, forecast = one_block(params, np.array([0.2, 0.4, 0.6, 0.8, 1.0, 0.5]), cfg)
    assert np.array_equal(backcast, np.zeros(6))
    assert np.array_equal(forecast, np.zeros(3))


# ---------------------------------------------------------------------------
# Full forward pass
# ---------------------------------------------------------------------------

def test_zero_head_model_matches_independent_trace():
    for ablation in (frozenset(), frozenset({"noReLU"}), frozenset({"noDestd"})):
        for lookback, blocks in ((2, 2), (5, 3)):
            cfg = tiny_config(lookback=lookback, horizon=4, blocks=blocks, ablation=ablation)
            params = zero_head_params(cfg)
            x = np.linspace(1.0, 3.0, lookback)
            y_hat, _ = model_forward(params, x[None], cfg)
            reference = zero_head_reference(x, cfg)
            assert np.allclose(y_hat[0], reference, rtol=1e-14, atol=0)


def test_constant_series_zero_heads_forecast_exactly_c():
    cfg = tiny_config()
    params = zero_head_params(cfg)
    for c in (0.5, 7.0, 1234.5):
        y_hat, _ = model_forward(params, np.full((1, 6), c), cfg)
        assert np.array_equal(y_hat, np.full((1, 3), c))


def test_single_block_reduces_to_one_destandardized_head():
    cfg = tiny_config(blocks=1, sharing=True)
    params = init_params(cfg, np.random.default_rng(8))
    x = np.array([[10.0, 40.0, 25.0, 30.0, 15.0, 20.0]])
    y_hat, _ = model_forward(params, x, cfg)

    normed, scale = normalize_input(x)
    h = normed
    for i in range(cfg.fc_layers):
        h = np.maximum(h @ params[f"shared.fc{i}.W"].T + params[f"shared.fc{i}.b"], 0.0)
    raw = h @ params["shared.forecast.W"].T + params["shared.forecast.b"]
    expected = scale * (raw * normed.std() + normed.mean())
    assert np.allclose(y_hat, expected, rtol=1e-12)


def test_decomposition_identity():
    rng = np.random.default_rng(1)
    cfg = tiny_config(blocks=4, sharing=True)
    params = init_params(cfg, np.random.default_rng(2))
    x = positive_batch(rng, (5, 6))
    y_hat, forward = model_forward(params, x, cfg)
    contributions = decompose(forward.scale, [block.forecast for block in forward.blocks])
    assert contributions.shape == (4, 5, 3)
    total = contributions.sum(axis=0)
    assert np.max(np.abs(total - y_hat)) <= 1e-9 * np.max(np.abs(y_hat))


def test_single_block_decomposition_equals_forecast():
    cfg = tiny_config(blocks=1)
    params = init_params(cfg, np.random.default_rng(4))
    x = np.array([[4.0, 8.0, 6.0, 5.0, 7.0, 9.0]])
    y_hat, forward = model_forward(params, x, cfg)
    assert np.array_equal(decompose(forward.scale, [forward.blocks[0].forecast])[0], y_hat)


def test_residual_nonnegativity_with_gate():
    rng = np.random.default_rng(2)
    cfg = tiny_config(blocks=4)
    params = init_params(cfg, np.random.default_rng(6))
    _, forward = model_forward(params, positive_batch(rng, (8, 6)), cfg)
    for block in forward.blocks[1:]:
        assert np.all(block.hidden[0] >= 0.0)


def test_no_relu_allows_negative_residuals():
    rng = np.random.default_rng(3)
    cfg = tiny_config(blocks=4, ablation=frozenset({"noReLU"}))
    params = init_params(cfg, np.random.default_rng(6))
    _, forward = model_forward(params, positive_batch(rng, (8, 6)), cfg)
    assert any(np.any(block.hidden[0] < 0.0) for block in forward.blocks[1:])


@pytest.mark.parametrize("ablation", [(), ("noReLU",), ("noDestd",), ("noDestd", "noReLU")])
def test_forward_record_chains_the_residuals(ablation):
    rng = np.random.default_rng(6)
    cfg = tiny_config(blocks=4, ablation=frozenset(ablation))
    params = init_params(cfg, np.random.default_rng(6))
    _, forward = model_forward(params, positive_batch(rng, (8, 6)), cfg)
    assert len(forward.blocks) == cfg.blocks
    for block, following in zip(forward.blocks, forward.blocks[1:]):
        residual = block.hidden[0] - block.backcast
        expected = residual if cfg.no_relu else np.maximum(residual, 0.0)
        assert np.array_equal(following.hidden[0], expected)
    for block in forward.blocks:
        assert (block.centered is None) == cfg.no_destd
        assert (block.sd is None) == cfg.no_destd


def test_forward_scale_equivariance():
    rng = np.random.default_rng(4)
    cfg = tiny_config(blocks=3, fc_width=16, sharing=True)
    params = init_params(cfg, np.random.default_rng(9))
    x = positive_batch(rng, (4, 6))
    base, _ = model_forward(params, x, cfg)
    for k in (3.0, 1000.0, 0.004):
        scaled, _ = model_forward(params, k * x, cfg)
        assert np.allclose(scaled, k * base, rtol=1e-12, atol=0)


def test_sharing_uses_one_parameter_set():
    cfg = tiny_config(sharing=True, blocks=3)
    params = init_params(cfg, np.random.default_rng(1))
    assert all(name.startswith("shared.") for name in params)

    x = np.array([[1.0, 2.0, 1.5, 1.8, 1.2, 2.2]])
    _, before = model_forward(params, x, cfg)
    params["shared.fc0.W"] = params["shared.fc0.W"] + 0.05
    _, after = model_forward(params, x, cfg)
    for m in range(cfg.blocks):
        assert not np.allclose(before.blocks[m].forecast, after.blocks[m].forecast)


def test_unshared_blocks_are_independent_parameters():
    cfg = tiny_config(sharing=False, blocks=3)
    params = init_params(cfg, np.random.default_rng(1))
    assert {name.split(".")[0] for name in params} == {"block0", "block1", "block2"}

    x = np.array([[1.0, 2.0, 1.5, 1.8, 1.2, 2.2]])
    _, before = model_forward(params, x, cfg)
    params["block2.forecast.b"] = params["block2.forecast.b"] + 0.5
    _, after = model_forward(params, x, cfg)
    # blocks upstream of the perturbed one are untouched
    assert np.array_equal(before.blocks[0].forecast, after.blocks[0].forecast)
    assert np.array_equal(before.blocks[1].forecast, after.blocks[1].forecast)
    assert not np.allclose(before.blocks[2].forecast, after.blocks[2].forecast)


def test_gradient_flows_to_first_block():
    rng = np.random.default_rng(5)
    cfg = ModelConfig(
        lookback=6, horizon=3, blocks=6, fc_width=8, fc_layers=2, sharing=False, seed=0
    )
    params = init_params(cfg, np.random.default_rng(12))
    x = positive_batch(rng, (4, 6))
    y = positive_batch(rng, (4, 3))
    _, _, grads = loss_and_grad(params, x, y, cfg)
    block0_norm = sum(
        float(np.abs(g).sum()) for name, g in grads.items() if name.startswith("block0.")
    )
    assert block0_norm > 0.0


@pytest.mark.parametrize("sharing", [True, False])
def test_loss_and_grad_peaks_within_the_forward_record_and_four_activations(sharing):
    """One step peaks within the forward record plus 4 activations, because
    the backward lets each fc activation go once it has served and sums
    shared-weight gradients in place."""
    rows, cfg = 256, ModelConfig(fc_width=256, sharing=sharing)
    rng = np.random.default_rng(8)
    params = init_params(cfg, rng)
    x, y = positive_batch(rng, (rows, cfg.lookback)), positive_batch(rng, (rows, cfg.horizon))
    _, forward = model_forward(params, x, cfg)
    arrays = {id(a): a for block in forward.blocks for a in (*block.hidden, *block[2:])
              if a is not None}
    record = forward.scale.nbytes + sum(a.nbytes for a in arrays.values())
    del forward, arrays
    loss_and_grad(params, x, y, cfg)  # first-call imports and caches
    tracemalloc.start()
    try:
        loss_and_grad(params, x, y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= record + 4 * rows * cfg.fc_width * 8


def test_forward_graph_input_validation():
    cfg = tiny_config()
    params = init_params(cfg, np.random.default_rng(3))
    with pytest.raises(ValueError, match="shape"):
        model_forward(params, np.ones((2, 5)), cfg)
    with pytest.raises(ValueError, match="shape"):
        model_forward(params, np.ones(6), cfg)  # one row must come as a batch of one

