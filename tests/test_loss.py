import numpy as np
import pytest

from loadcast.loss import (
    LossConfig,
    loss_components,
    loss_gradients,
    nmse,
    pmape,
    row_variance,
)

from helpers import positive_batch


# ---------------------------------------------------------------------------
# pmape
# ---------------------------------------------------------------------------

def test_pmape_zero_when_exact():
    y = np.array([[120.0, 80.0], [55.0, 300.0]])
    assert pmape(y, y.copy(), tau=0.35) == 0.0


def test_pmape_hand_values():
    # underprediction branch: tau * (y - yhat) / y
    assert pmape([100.0], [90.0], tau=0.5) == pytest.approx(0.05, abs=1e-15)
    # overprediction branch: (1 - tau) * (yhat - y) / y
    assert pmape([100.0], [110.0], tau=0.35) == pytest.approx(0.065, abs=1e-15)


def test_pmape_requires_positive_targets():
    with pytest.raises(ValueError, match="positive"):
        pmape([0.0], [1.0], tau=0.5)
    with pytest.raises(ValueError, match="mismatch"):
        pmape([1.0, 2.0], [1.0], tau=0.5)


def test_pmape_symmetry_at_half():
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = positive_batch(rng, (2, 5))
        d = rng.uniform(0.0, 0.5 * y.min(), size=y.shape)
        assert pmape(y, y + d, 0.5) == pytest.approx(pmape(y, y - d, 0.5), rel=1e-12)


def test_pmape_tau_monotonicity():
    rng = np.random.default_rng(1)
    taus = [0.2, 0.35, 0.5, 0.65, 0.8]
    for _ in range(200):
        y = positive_batch(rng, (1, 4))
        under = y * rng.uniform(0.5, 0.95, size=y.shape)
        over = y * rng.uniform(1.05, 1.5, size=y.shape)
        under_losses = [pmape(y, under, t) for t in taus]
        over_losses = [pmape(y, over, t) for t in taus]
        assert all(a < b for a, b in zip(under_losses, under_losses[1:]))
        assert all(a > b for a, b in zip(over_losses, over_losses[1:]))


def test_pmape_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = positive_batch(rng, (2, 3))
        y_hat = y * rng.uniform(0.7, 1.3, size=y.shape)
        value = pmape(y, y_hat, 0.35)
        assert value >= 0.0
        assert (value == 0.0) == bool(np.all(y == y_hat))


# ---------------------------------------------------------------------------
# nmse
# ---------------------------------------------------------------------------

def test_nmse_of_row_mean_baseline_is_one():
    rng = np.random.default_rng(3)
    y = positive_batch(rng, (6, 12))
    baseline = np.repeat(y.mean(axis=1, keepdims=True), 12, axis=1)
    assert abs(nmse(y, baseline, no_var=False) - 1.0) < 1e-12


def test_nmse_zero_when_exact_and_hand_value():
    y = np.array([[1.0, 3.0]])
    assert nmse(y, y.copy(), no_var=False) == 0.0
    # Var((1,3)) = 1, errors (-1, 1) -> mean(1, 1) = 1
    assert nmse(y, np.array([[2.0, 2.0]]), no_var=False) == pytest.approx(1.0, abs=1e-15)


def test_nmse_constant_row_errors_with_row_index():
    y = np.array([[2.0, 3.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match="row 1"):
        nmse(y, y * 1.1, no_var=False)
    # noVar disables the normalization and the error
    assert nmse(y, y.copy(), no_var=True) == 0.0


def test_row_variance_is_population_convention():
    assert row_variance([[1.0, 3.0]])[0] == 1.0  # divide by H, not H-1


# ---------------------------------------------------------------------------
# combined loss
# ---------------------------------------------------------------------------

def test_combined_equals_pmape_when_weight_zero():
    rng = np.random.default_rng(4)
    y = positive_batch(rng, (3, 4))
    y_hat = y * rng.uniform(0.8, 1.2, size=y.shape)
    config = LossConfig(tau=0.35, nmse_weight=0.0, no_l2=False, no_var=False)
    assert loss_components(y, y_hat, config)["loss"] == pmape(y, y_hat, 0.35)
    # constant rows are fine when the L2 term is off
    y_const = np.full((1, 3), 8.0)
    assert loss_components(y_const, y_const * 1.1, config)["loss"] > 0.0


def test_combined_no_l2_ignores_weight():
    rng = np.random.default_rng(5)
    y = positive_batch(rng, (2, 6))
    y_hat = y * 1.07
    config = LossConfig(tau=0.35, nmse_weight=0.35, no_l2=True, no_var=False)
    assert loss_components(y, y_hat, config)["loss"] == pmape(y, y_hat, 0.35)


def test_combined_hand_case_and_constant_row_error():
    config = LossConfig(tau=0.35, nmse_weight=0.35, no_l2=False, no_var=False)
    with pytest.raises(ValueError, match="row 0"):
        loss_components([[100.0, 100.0]], [[90.0, 110.0]], config)

    # finite case, expected value from the defining formulas evaluated directly
    y = np.array([[100.0, 200.0]])
    y_hat = np.array([[90.0, 110.0]])
    expected_pinball = np.where(y >= y_hat, 0.35, -0.65) * (y - y_hat) / y
    expected_nmse = (y - y_hat) ** 2 / y.var(axis=1)
    expected = expected_pinball.mean() + 0.35 * expected_nmse.mean()
    assert loss_components(y, y_hat, config)["loss"] == pytest.approx(expected, rel=1e-15)


def test_scale_invariance_of_both_components():
    rng = np.random.default_rng(6)
    y = positive_batch(rng, (4, 6))
    y_hat = y * rng.uniform(0.85, 1.15, size=y.shape)
    for k in (7.3, 1000.0, 1e-3):
        assert pmape(k * y, k * y_hat, 0.35) == pytest.approx(pmape(y, y_hat, 0.35), rel=1e-12)
        assert nmse(k * y, k * y_hat, no_var=False) == pytest.approx(
            nmse(y, y_hat, no_var=False), rel=1e-12
        )


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(tau=0.0, nmse_weight=0.35, no_l2=False, no_var=False)
    with pytest.raises(ValueError):
        LossConfig(tau=1.0, nmse_weight=0.35, no_l2=False, no_var=False)
    with pytest.raises(ValueError):
        LossConfig(tau=0.35, nmse_weight=-0.1, no_l2=False, no_var=False)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_loss_config_rejects_a_non_finite_weight(weight):
    with pytest.raises(ValueError, match="nmse_weight must be >= 0 and finite"):
        LossConfig(tau=0.35, nmse_weight=weight, no_l2=False, no_var=False)


def test_gradient_at_kink_uses_underprediction_branch():
    y = np.array([[100.0, 50.0]])
    config = LossConfig(tau=0.5, nmse_weight=0.0, no_l2=False, no_var=False)
    grad = loss_gradients(y, y.copy(), config)
    assert np.allclose(grad, -0.5 / (2.0 * y), rtol=0, atol=0)


def test_gradients_match_finite_differences_away_from_kinks():
    rng = np.random.default_rng(7)
    y = positive_batch(rng, (3, 4))
    y_hat = y * rng.uniform(0.8, 0.97, size=y.shape)  # clear of the kink
    for config in (
        LossConfig(0.35, 0.35, no_l2=False, no_var=False),
        LossConfig(0.5, 0.0, no_l2=False, no_var=False),
        LossConfig(0.2, 0.7, no_l2=False, no_var=True),
        LossConfig(0.35, 0.35, no_l2=True, no_var=False),
    ):
        grad = loss_gradients(y, y_hat, config)
        h = 1e-6
        for idx in np.ndindex(y_hat.shape):
            bumped = y_hat.copy()
            bumped[idx] += h
            up = loss_components(y, bumped, config)["loss"]
            bumped[idx] -= 2 * h
            down = loss_components(y, bumped, config)["loss"]
            fd = (up - down) / (2 * h)
            assert abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx])) < 1e-6, (config, idx)


def test_gradient_dominated_by_l2_term_at_large_weight():
    rng = np.random.default_rng(9)
    y = positive_batch(rng, (2, 4))
    y_hat = y * 1.1
    heavy = LossConfig(0.35, 1e6, no_l2=False, no_var=False)
    big = loss_gradients(y, y_hat, heavy)
    l2_only = loss_gradients(y, y_hat, heavy) - loss_gradients(
        y, y_hat, LossConfig(0.35, 0.0, no_l2=False, no_var=False)
    )
    assert np.linalg.norm(big - l2_only) / np.linalg.norm(big) < 1e-5


def test_graph_components_log_actual_contributions():
    rng = np.random.default_rng(10)
    y = positive_batch(rng, (2, 4))
    y_hat = y * 0.9

    config = LossConfig(0.35, 0.35, no_l2=False, no_var=False)
    parts = loss_components(y, y_hat, config)
    assert parts["nmse"] == nmse(y, y_hat, no_var=False)
    assert parts["nmse_term"] == pytest.approx(0.35 * parts["nmse"], rel=1e-15)
    assert parts["loss"] == parts["pmape"] + parts["nmse_term"]

    config = LossConfig(0.35, 0.35, no_l2=True, no_var=False)
    parts = loss_components(y, y_hat, config)
    assert parts["nmse"] is None and parts["nmse_term"] == 0.0
    assert parts["loss"] == parts["pmape"] == pmape(y, y_hat, 0.35)
