"""The network's building blocks: the dense layer, the ReLU and
destandardization steps of the hand-written backward pass, Adam, and the
finite-difference gradient checker."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loadcast.model import (
    ABLATION_FLAGS, ModelConfig, affine, init_params, loss_and_grad, model_forward,
)
from loadcast.train import AdamState, adam_step

from helpers import (
    GradCheckReport, batch_objective, grad_check, positive_batch, relu_margins, tiny_config,
)


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------

def dense(W, b, x):
    return affine(np.atleast_2d(x), np.asarray(W, dtype=float), np.asarray(b, dtype=float))


def test_affine_forward_identity():
    assert np.array_equal(dense(np.eye(2), np.zeros(2), [3.0, -1.0]), [[3.0, -1.0]])


def test_affine_forward_hand_value():
    assert np.array_equal(dense([[1.0, 1.0]], [1.0], [2.0, 3.0]), [[6.0]])


def test_affine_forward_batch_consistency():
    rng = np.random.default_rng(0)
    W, b = rng.normal(size=(3, 4)), rng.normal(size=3)
    batch = rng.normal(size=(4, 4))
    out = dense(W, b, batch)
    assert out.shape == (4, 3)
    for i in range(4):
        # batched GEMM may order the summation differently; ULP-level only
        assert np.allclose(out[i], dense(W, b, batch[i])[0], rtol=1e-12, atol=0)


def test_affine_rejects_input_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        dense(np.eye(2), np.zeros(2), np.ones(3))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def one_layer_model(**overrides):
    """One block, one hidden layer of width 3; the heads see its output directly."""
    return tiny_config(blocks=1, fc_width=3, fc_layers=1, sharing=True, **overrides)


def test_relu_values_and_subgradient():
    # zero weights pin the three pre-activations at their biases -1, 0 and 2
    cfg = one_layer_model()
    params = init_params(cfg, np.random.default_rng(0))
    params["shared.fc0.W"][:] = 0.0
    params["shared.fc0.b"][:] = [-1.0, 0.0, 2.0]
    rng = np.random.default_rng(1)
    x, y = positive_batch(rng, (4, 6)), positive_batch(rng, (4, 3))
    _, _, grads = loss_and_grad(params, x, y, cfg)
    # units clipped to 0 (also exactly at 0) feed nothing and pass no gradient back
    assert np.array_equal(grads["shared.forecast.W"][:, :2], np.zeros((3, 2)))
    assert np.array_equal(grads["shared.fc0.b"][:2], [0.0, 0.0])
    assert np.all(grads["shared.forecast.W"][:, 2] != 0.0)
    assert grads["shared.fc0.b"][2] != 0.0


def test_relu_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x, y = positive_batch(rng, (3, 6)), positive_batch(rng, (3, 3))
    for point in (-1.0, 2.0):
        cfg = one_layer_model()
        params = init_params(cfg, np.random.default_rng(4))
        params["shared.fc0.W"] *= 0.01  # keep every pre-activation near ``point``
        params["shared.fc0.b"][:] = point
        report = grad_check(batch_objective(x, y, cfg), params, tolerance=1e-6)
        assert report.passed, (point, report.max_rel_error)


def test_backward_sum_of_dense_gives_inputs():
    # one block without destandardization: y_hat = scale * (h @ W.T + b), so the
    # head gradients are the upstream gradient weighted by the head's inputs
    from loadcast.loss import loss_gradients
    from loadcast.model import normalize_input

    cfg = one_layer_model(ablation=frozenset({"noDestd"}))
    params = init_params(cfg, np.random.default_rng(6))
    rng = np.random.default_rng(3)
    x, y = positive_batch(rng, (5, 6)), positive_batch(rng, (5, 3))
    _, _, grads = loss_and_grad(params, x, y, cfg)

    normed, scale = normalize_input(x)
    h = np.maximum(normed @ params["shared.fc0.W"].T + params["shared.fc0.b"], 0.0)
    y_hat = scale[:, None] * (h @ params["shared.forecast.W"].T + params["shared.forecast.b"])
    upstream = loss_gradients(y, y_hat, cfg.loss_config()) * scale[:, None]
    assert np.allclose(grads["shared.forecast.W"], upstream.T @ h, rtol=1e-12, atol=0)
    assert np.allclose(grads["shared.forecast.b"], upstream.sum(axis=0), rtol=1e-12, atol=0)


def test_backward_disconnected_parameter_gets_zeros():
    # the last block's backcast feeds nothing, so its head gets exact zeros
    cfg = tiny_config(blocks=3, sharing=False)
    rng = np.random.default_rng(4)
    _, _, grads = loss_and_grad(
        init_params(cfg, np.random.default_rng(5)), positive_batch(rng, (4, 6)),
        positive_batch(rng, (4, 3)), cfg,
    )
    assert np.array_equal(grads["block2.backcast.W"], np.zeros((6, 8)))
    assert np.array_equal(grads["block2.backcast.b"], np.zeros(6))
    assert np.any(grads["block1.backcast.W"] != 0.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    blocks=st.integers(1, 3),
    fc_layers=st.integers(1, 2),
    sharing=st.booleans(),
    flag=st.sampled_from((None,) + ABLATION_FLAGS),
    seed=st.integers(0, 2**16),
)
def test_backward_random_composite_matches_fd(blocks, fc_layers, sharing, flag, seed):
    cfg = ModelConfig(
        lookback=5, horizon=3, blocks=blocks, fc_width=4, fc_layers=fc_layers,
        sharing=sharing, ablation=frozenset({flag} if flag else ()), seed=seed,
    )
    rng = np.random.default_rng(seed)
    params = init_params(cfg, np.random.default_rng(seed))
    x, y = positive_batch(rng, (2, 5)), positive_batch(rng, (2, 3))
    # finite differences are only meaningful away from the ReLU and pinball kinks
    assume(relu_margins(params, x, cfg) > 1e-4)
    y_hat, _ = model_forward(params, x, cfg)
    assume(np.min(np.abs(y - y_hat) / y) > 1e-4)
    report = grad_check(batch_objective(x, y, cfg), params, tolerance=1e-4)
    assert report.passed, report.max_rel_error


def test_row_stats_gradients():
    # block 1's last hidden layer has zero weights, so its forecast depends on its
    # input only through the destandardization mean and std; block 0 learns
    # through them
    cfg = tiny_config(blocks=2, sharing=False)
    params = init_params(cfg, np.random.default_rng(7))
    params["block1.fc1.W"][:] = 0.0
    params["block1.fc1.b"][:] = 0.5
    rng = np.random.default_rng(9)
    x, y = positive_batch(rng, (4, 6)), positive_batch(rng, (4, 3))
    report = grad_check(batch_objective(x, y, cfg), params, tolerance=1e-4)
    assert report.passed, report.max_rel_error
    _, _, grads = loss_and_grad(params, x, y, cfg)
    assert np.any(grads["block0.backcast.W"] != 0.0)


def test_row_std_zero_spread_subgradient_is_zero():
    # a constant lookback row has zero spread, so every block's heads are scaled
    # by a zero std and the next block's input is exactly zero: the loss cannot
    # move, and each gradient must be exactly zero rather than 0/0
    for ablation in (frozenset(), frozenset({"noReLU"})):
        cfg = tiny_config(blocks=3, sharing=False, ablation=ablation)
        rng = np.random.default_rng(10)
        x, y = np.full((2, 6), 42.0), positive_batch(rng, (2, 3))
        _, _, grads = loss_and_grad(init_params(cfg, np.random.default_rng(11)), x, y, cfg)
        for name, g in grads.items():
            assert np.array_equal(g, np.zeros_like(g)), name


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState(lr=0.001)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1


def test_adam_moves_against_constant_gradient():
    params = {"w": np.array([0.0])}
    state = AdamState(lr=0.001)
    for _ in range(50):
        adam_step(params, {"w": np.array([2.5])}, state)
    assert params["w"][0] < 0.0


def test_adam_single_step_magnitude():
    # g=1 at step 1: bias-corrected m/sqrt(v) = 1, so the move is -lr/(1+eps)
    params = {"w": np.array([0.3])}
    adam_step(params, {"w": np.array([1.0])}, AdamState(lr=0.001))
    assert abs((params["w"][0] - 0.3) + 0.001) < 1e-10


def test_adam_nonfinite_gradient_names_parameter():
    with pytest.raises(FloatingPointError, match="w_bad"):
        adam_step({"w_bad": np.zeros(2)}, {"w_bad": np.array([np.nan, 0.0])}, AdamState(lr=0.001))


def test_adam_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(lr=0.001))


def test_adam_update_invariant_to_gradient_rescaling():
    p1 = {"w": np.array([1.0, -1.0, 0.5])}
    p2 = {"w": np.array([1.0, -1.0, 0.5])}
    g = np.array([0.3, -0.2, 0.9])
    adam_step(p1, {"w": g}, AdamState(lr=0.001))
    adam_step(p2, {"w": 10.0 * g}, AdamState(lr=0.001))
    assert np.allclose(p1["w"], p2["w"], atol=1e-7)


# ---------------------------------------------------------------------------
# Gradient checker
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_passes_tight_tolerance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4))
    params = {"W": rng.normal(size=(2, 4)), "b": rng.normal(size=2)}

    def fn(p):
        out = affine(x, p["W"], p["b"])
        g = 2.0 * out / out.size
        return float(np.mean(out * out)), {"W": g.T @ x, "b": g.sum(axis=0)}

    report = grad_check(fn, params, tolerance=1e-6)
    assert report.passed
    assert report.worst < 1e-6


def test_grad_check_negative_control_names_block():
    cfg = tiny_config(blocks=2, sharing=False)
    rng = np.random.default_rng(3)
    x, y = positive_batch(rng, (2, 6)), positive_batch(rng, (2, 3))
    correct = batch_objective(x, y, cfg)

    def fn(p):
        loss, grads = correct(p)
        grads["block1.fc0.b"] = 2.0 * grads["block1.fc0.b"]  # deliberate gradient bug
        return loss, grads

    report = grad_check(fn, init_params(cfg, np.random.default_rng(3)), tolerance=1e-4)
    assert not report.passed
    assert report.failed == ["block1.fc0.b"]


def test_grad_check_report_surface():
    report = GradCheckReport({"a": 1e-6, "b": 1e-2}, tolerance=1e-4)
    assert report.failed == ["b"]
    assert report.worst == 1e-2


def test_grad_check_rejects_non_finite_objective():
    def fn(p):
        return float(np.sum(p["x"] * np.nan)), {"x": np.zeros_like(p["x"])}

    with pytest.raises(FloatingPointError, match="finite"):
        grad_check(fn, {"x": np.ones(2)})
