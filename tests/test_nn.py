import numpy as np
import pytest

from loadcast.nn import (
    AdamState,
    GradCheckReport,
    GradientTape,
    adam_step,
    affine,
    backward,
    grad_check,
    mean,
    mul,
    relu,
    row_mean,
    row_std,
    total,
)


# ---------------------------------------------------------------------------
# Dense layer (the tape's affine op)
# ---------------------------------------------------------------------------

def dense(W, b, x):
    tape = GradientTape()
    return affine(np.atleast_2d(x), tape.leaf("W", np.asarray(W, dtype=float)),
                  tape.leaf("b", np.asarray(b, dtype=float))).data


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
# Tape ops
# ---------------------------------------------------------------------------

def test_relu_values_and_subgradient():
    tape = GradientTape()
    x = tape.leaf("x", np.array([-1.0, 0.0, 2.0]))
    out = relu(x)
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])
    grads = backward(tape, total(out))
    assert np.array_equal(grads["x"], [0.0, 0.0, 1.0])

    tape = GradientTape()
    x = tape.leaf("x", np.array([-3.0, -0.5]))
    assert np.array_equal(relu(x).data, [0.0, 0.0])


def test_relu_gradient_matches_finite_differences():
    for point in (-1.0, 2.0):
        def build(params):
            tape = GradientTape()
            x = tape.leaf("x", params["x"])
            return tape, total(relu(x))

        report = grad_check(build, {"x": np.array([point])}, tolerance=1e-6)
        assert report.passed


def test_backward_sum_of_dense_gives_inputs():
    x = np.array([[2.0, -3.0, 5.0]])
    tape = GradientTape()
    w = tape.leaf("W", np.zeros((2, 3)))
    b = tape.leaf("b", np.zeros(2))
    grads = backward(tape, total(affine(x, w, b)))
    assert np.array_equal(grads["W"], np.vstack([x[0], x[0]]))
    assert np.array_equal(grads["b"], [1.0, 1.0])


def test_backward_disconnected_parameter_gets_zeros():
    tape = GradientTape()
    w = tape.leaf("W", np.ones((1, 2)))
    b = tape.leaf("b", np.zeros(1))
    unused = tape.leaf("unused", np.ones(4))
    grads = backward(tape, total(affine(np.ones((1, 2)), w, b)))
    assert np.array_equal(grads["unused"], np.zeros(4))


def test_backward_twice_errors_and_scalar_check():
    tape = GradientTape()
    x = tape.leaf("x", np.ones(3))
    out = relu(x)
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, out)
    loss = total(out)
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="consumed"):
        backward(tape, loss)


def test_backward_random_composite_matches_fd():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    params = {
        "W1": rng.normal(size=(4, 5)) * 0.7,
        "b1": rng.normal(size=4) * 0.1,
        "W2": rng.normal(size=(2, 4)) * 0.7,
        "b2": rng.normal(size=2) * 0.1,
    }

    def build(p):
        tape = GradientTape()
        w1, b1 = tape.leaf("W1", p["W1"]), tape.leaf("b1", p["b1"])
        w2, b2 = tape.leaf("W2", p["W2"]), tape.leaf("b2", p["b2"])
        h = relu(affine(x, w1, b1))
        out = affine(h, w2, b2)
        composite = out * out + row_mean(out) * 0.5 - row_std(h)
        return tape, mean(composite)

    report = grad_check(build, params, tolerance=1e-4)
    assert report.passed, report.max_rel_error


def test_row_stats_gradients():
    rng = np.random.default_rng(9)
    value = rng.normal(size=(4, 6))

    def build_mean(p):
        tape = GradientTape()
        x = tape.leaf("x", p["x"])
        return tape, total(row_mean(x))

    def build_std(p):
        tape = GradientTape()
        x = tape.leaf("x", p["x"])
        return tape, total(row_std(x))

    assert grad_check(build_mean, {"x": value.copy()}, tolerance=1e-6).passed
    assert grad_check(build_std, {"x": value.copy()}, tolerance=1e-6).passed


def test_row_std_zero_spread_subgradient_is_zero():
    tape = GradientTape()
    x = tape.leaf("x", np.full((2, 4), 3.0))
    out = row_std(x)
    assert np.array_equal(out.data, np.zeros((2, 1)))
    grads = backward(tape, total(out))
    assert np.array_equal(grads["x"], np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState()
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1


def test_adam_moves_against_constant_gradient():
    params = {"w": np.array([0.0])}
    state = AdamState()
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
        adam_step({"w_bad": np.zeros(2)}, {"w_bad": np.array([np.nan, 0.0])}, AdamState())


def test_adam_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState())


def test_adam_update_invariant_to_gradient_rescaling():
    p1 = {"w": np.array([1.0, -1.0, 0.5])}
    p2 = {"w": np.array([1.0, -1.0, 0.5])}
    g = np.array([0.3, -0.2, 0.9])
    adam_step(p1, {"w": g}, AdamState())
    adam_step(p2, {"w": 10.0 * g}, AdamState())
    assert np.allclose(p1["w"], p2["w"], atol=1e-7)


# ---------------------------------------------------------------------------
# Gradient checker
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_passes_tight_tolerance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4))
    params = {"W": rng.normal(size=(2, 4)), "b": rng.normal(size=2)}

    def build(p):
        tape = GradientTape()
        w, b = tape.leaf("W", p["W"]), tape.leaf("b", p["b"])
        out = affine(x, w, b)
        return tape, mean(out * out)

    report = grad_check(build, params, tolerance=1e-6)
    assert report.passed
    assert report.worst < 1e-6


def test_grad_check_negative_control_names_block():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3))
    params = {"W_ok": rng.normal(size=(2, 3)), "b_broken": rng.normal(size=2)}

    def build(p):
        tape = GradientTape()
        w = tape.leaf("W_ok", p["W_ok"])
        b = tape.leaf("b_broken", p["b_broken"])
        out = affine(x, w, b)
        node = mul(out, 1.0)
        original = node._pull
        node._pull = lambda g: original(2.0 * g)  # deliberate gradient bug
        return tape, total(node)

    report = grad_check(build, params, tolerance=1e-4)
    assert not report.passed
    assert "W_ok" in report.failed and "b_broken" in report.failed


def test_grad_check_report_surface():
    report = GradCheckReport({"a": 1e-6, "b": 1e-2}, tolerance=1e-4)
    assert report.failed == ["b"]
    assert report.worst == 1e-2


def test_grad_check_rejects_non_finite_objective():
    def build(p):
        tape = GradientTape()
        x = tape.leaf("x", p["x"])
        return tape, total(mul(x, np.nan))

    with pytest.raises(FloatingPointError, match="finite"):
        grad_check(build, {"x": np.ones(2)})
