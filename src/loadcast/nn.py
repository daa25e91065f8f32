"""Optimizer and gradient checking for the hand-written training pass.

``adam_step`` applies one bias-corrected Adam update in place; ``grad_check``
compares a ``fn(params) -> (loss, grads)`` function with central finite
differences. Everything runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's standard moment decays and denominator floor


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    lr: float = 0.001
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, applied in place. Returns (params, state)."""
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for '{name}'")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params, state


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Max relative error per parameter block vs central finite differences."""

    max_rel_error: dict[str, float]
    tolerance: float

    @property
    def failed(self) -> list[str]:
        return [name for name, err in self.max_rel_error.items() if err > self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)


def grad_check(
    fn,
    params: dict,
    tolerance: float = 1e-4,
    *,
    step_scale: float = 1e-5,
    abs_floor: float = 1e-7,
) -> GradCheckReport:
    """Compare the gradients of ``fn`` against central finite differences.

    ``fn(params) -> (loss, grads)`` must evaluate the objective at the current
    parameter values and return its gradient for every parameter; entries are
    perturbed in place with ``h = step_scale * max(1, |theta|)`` and restored.
    Coordinates where both gradients are below ``abs_floor`` count as matching
    zeros.
    """
    loss, analytic = fn(params)
    if not np.isfinite(loss):
        raise FloatingPointError("objective is not finite at the evaluation point")
    report = {}
    for name, arr in params.items():
        g = analytic[name]
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            theta = float(arr[idx])
            h = step_scale * max(1.0, abs(theta))
            arr[idx] = theta + h
            fp = float(fn(params)[0])
            arr[idx] = theta - h
            fm = float(fn(params)[0])
            arr[idx] = theta
            fd = (fp - fm) / (2.0 * h)
            ga = float(g[idx])
            scale = max(abs(fd), abs(ga))
            if scale < abs_floor:
                continue
            worst = max(worst, abs(fd - ga) / scale)
        report[name] = worst
    return GradCheckReport(report, tolerance)
