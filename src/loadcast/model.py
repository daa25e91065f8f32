"""Stacked residual-block forecaster with per-block destandardization.

The input lookback is normalized by its maximum, then passes through M blocks.
Each block runs a shared ReLU MLP and two linear heads (backcast + forecast);
head outputs are rescaled by the mean/std of the block's own input so the
heads only have to predict shape. Residuals are ReLU-gated between blocks and
the per-block forecasts are summed and denormalized. Ablation switches can
drop the destandardization (``noDestd``) or the residual gate (``noReLU``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .loss import LossConfig

ABLATION_FLAGS = ("noL2", "noVar", "noDestd", "noReLU")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss hyperparameters; defaults are the production settings."""

    lookback: int = 12
    horizon: int = 12
    blocks: int = 6
    fc_width: int = 512
    fc_layers: int = 3
    sharing: bool = True
    tau: float = 0.35
    nmse_weight: float = 0.35
    ablation: frozenset = field(default_factory=frozenset)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ablation", frozenset(self.ablation))
        unknown = self.ablation - set(ABLATION_FLAGS)
        if unknown:
            raise ValueError(f"unknown ablation flags: {sorted(unknown)}")
        for name in ("lookback", "horizon", "blocks", "fc_width", "fc_layers"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.nmse_weight < 0.0:
            raise ValueError("nmse_weight must be >= 0")

    @property
    def no_destd(self) -> bool:
        return "noDestd" in self.ablation

    @property
    def no_relu(self) -> bool:
        return "noReLU" in self.ablation

    def loss_config(self) -> LossConfig:
        return LossConfig(
            tau=self.tau,
            nmse_weight=self.nmse_weight,
            no_l2="noL2" in self.ablation,
            no_var="noVar" in self.ablation,
        )

    def to_dict(self) -> dict:
        return {
            "lookback": self.lookback,
            "horizon": self.horizon,
            "blocks": self.blocks,
            "fc_width": self.fc_width,
            "fc_layers": self.fc_layers,
            "sharing": self.sharing,
            "tau": self.tau,
            "nmse_weight": self.nmse_weight,
            "ablation": sorted(self.ablation),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(**{**doc, "ablation": frozenset(doc.get("ablation", ()))})


def config_hash(config: ModelConfig) -> str:
    """Stable short hash of the full configuration, embedded in all outputs."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def parameter_prefixes(config: ModelConfig) -> list[str]:
    if config.sharing:
        return ["shared"]
    return [f"block{m}" for m in range(config.blocks)]


def init_params(config: ModelConfig, seed=None) -> dict[str, np.ndarray]:
    """Fresh trainable parameters.

    Hidden layers get He-style uniform fan-in scaling; the two linear heads
    start near zero (+-0.01) so the initial outputs sit at the block-input
    mean, which keeps early training stable under the destandardization skip.
    """
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(config.seed if seed is None else seed)
    params: dict[str, np.ndarray] = {}
    for prefix in parameter_prefixes(config):
        fan_in = config.lookback
        for i in range(config.fc_layers):
            limit = float(np.sqrt(6.0 / fan_in))
            params[f"{prefix}.fc{i}.W"] = rng.uniform(-limit, limit, size=(config.fc_width, fan_in))
            params[f"{prefix}.fc{i}.b"] = np.zeros(config.fc_width)
            fan_in = config.fc_width
        for head, out_width in (("backcast", config.lookback), ("forecast", config.horizon)):
            params[f"{prefix}.{head}.W"] = rng.uniform(-0.01, 0.01, size=(out_width, config.fc_width))
            params[f"{prefix}.{head}.b"] = rng.uniform(-0.01, 0.01, size=out_width)
    return params


def normalize_input(x):
    """Divide each lookback row by its maximum; returns (normalized, scale)."""
    arr = np.asarray(x, dtype=np.float64)
    batched = arr.ndim == 2
    rows = np.atleast_2d(arr)
    scale = rows.max(axis=-1)
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        raise ValueError("lookback maximum must be positive and finite")
    normed = rows / scale[:, None]
    if batched:
        return normed, scale
    return normed[0], float(scale[0])


@dataclass
class Diagnostics:
    """Per-block traces of one forward pass, for decomposition and plotting.

    ``inputs``/``backcasts``/``forecasts`` are in the normalized scale;
    ``forecast_total`` is the final denormalized forecast.
    """

    scale: np.ndarray
    inputs: list[np.ndarray]
    backcasts: list[np.ndarray]
    forecasts: list[np.ndarray]
    forecast_total: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "scale": self.scale.tolist(),
            "inputs": [a.tolist() for a in self.inputs],
            "backcasts": [a.tolist() for a in self.backcasts],
            "forecasts": [a.tolist() for a in self.forecasts],
            "forecast_total": self.forecast_total.tolist() if self.forecast_total is not None else None,
        }


def _block_graph(tape, leaves, prefix, x_m, config):
    h = x_m
    for i in range(config.fc_layers):
        h = nn.relu(nn.affine(h, leaves[f"{prefix}.fc{i}.W"], leaves[f"{prefix}.fc{i}.b"]))
    raw_backcast = nn.affine(h, leaves[f"{prefix}.backcast.W"], leaves[f"{prefix}.backcast.b"])
    raw_forecast = nn.affine(h, leaves[f"{prefix}.forecast.W"], leaves[f"{prefix}.forecast.b"])
    if config.no_destd:
        return raw_backcast, raw_forecast
    mu = nn.row_mean(x_m)
    sd = nn.row_std(x_m)
    return raw_backcast * sd + mu, raw_forecast * sd + mu


def forward_graph(tape: nn.GradientTape, params: dict, x: np.ndarray, config: ModelConfig):
    """Record the full model on ``tape`` for a batch of lookback rows.

    Returns ``(y_hat Tensor of shape (n, horizon), Diagnostics)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.lookback:
        raise ValueError(f"expected lookback batch of shape (n, {config.lookback}), got {x.shape}")
    normed, scale = normalize_input(x)
    leaves = {name: tape.leaf(name, arr) for name, arr in params.items()}
    prefixes = parameter_prefixes(config)
    x_m = tape.constant(normed)
    diag = Diagnostics(scale=scale, inputs=[], backcasts=[], forecasts=[])
    forecast_sum = None
    for m in range(config.blocks):
        prefix = prefixes[0] if config.sharing else prefixes[m]
        diag.inputs.append(x_m.data)
        backcast, forecast = _block_graph(tape, leaves, prefix, x_m, config)
        diag.backcasts.append(backcast.data)
        diag.forecasts.append(forecast.data)
        forecast_sum = forecast if forecast_sum is None else forecast_sum + forecast
        if m + 1 < config.blocks:
            residual = x_m - backcast
            x_m = residual if config.no_relu else nn.relu(residual)
    y_hat = forecast_sum * scale[:, None]
    diag.forecast_total = y_hat.data
    return y_hat, diag


def model_forward(params: dict, x, config: ModelConfig):
    """Inference forward pass on plain arrays; accepts one row or a batch."""
    arr = np.asarray(x, dtype=np.float64)
    batched = arr.ndim == 2
    tape = nn.GradientTape()
    y_hat, diag = forward_graph(tape, params, np.atleast_2d(arr), config)
    out = np.array(y_hat.data)
    return (out if batched else out[0]), diag


def decompose(diagnostics: Diagnostics) -> np.ndarray:
    """Per-block forecast contributions in the original scale, shape (M, n, horizon).

    Contributions sum to the final forecast up to float addition order.
    """
    return np.stack([f * diagnostics.scale[:, None] for f in diagnostics.forecasts])


def forecast_series(params: dict, history, config: ModelConfig) -> np.ndarray:
    """Forecast the next ``horizon`` months from the trailing lookback of ``history``."""
    history = np.asarray(history, dtype=np.float64)
    if history.size < config.lookback:
        raise ValueError(
            f"history of {history.size} months is shorter than the lookback {config.lookback}"
        )
    y_hat, _ = model_forward(params, history[-config.lookback :], config)
    return y_hat
