"""Optimizer for the hand-written training pass.

``adam_step`` applies one bias-corrected Adam update in place, in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
