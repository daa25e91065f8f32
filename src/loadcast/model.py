"""Stacked residual-block forecaster with per-block destandardization.

The input lookback is normalized by its maximum, then passes through M blocks.
Each block runs a shared ReLU MLP and two linear heads (backcast + forecast);
head outputs are rescaled by the mean/std of the block's own input so the
heads only have to predict shape. Residuals are ReLU-gated between blocks and
the per-block forecasts are summed and denormalized. Ablation switches can
drop the destandardization (``noDestd``) or the residual gate (``noReLU``).

The forward runs one block at a time (``forward_blocks``): a scoring pass
keeps only each block's forecast, and ``model_forward`` keeps every block.
The graph never changes shape, so training differentiates it by hand:
``loss_and_grad`` runs ``model_forward`` and then one reverse pass. Float
addition is not associative and checkpoints depend on the order, so gradient
sums of three or more terms fold in one fixed order: shared weights last
block first, a block input ``((residual + std) + mean) + fc0``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .loss import LossConfig, loss_components, loss_gradients

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
        self.loss_config()  # LossConfig checks tau and nmse_weight

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
        return {**asdict(self), "ablation": sorted(self.ablation)}


def config_hash(config: ModelConfig) -> str:
    """Stable short hash of the full configuration, embedded in all outputs."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def parameter_prefixes(config: ModelConfig) -> list[str]:
    if config.sharing:
        return ["shared"]
    return [f"block{m}" for m in range(config.blocks)]


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trainable parameter, in ``init_params`` order.

    Per prefix: the hidden layers ``fc<i>``, then the ``backcast`` and
    ``forecast`` heads, each a weight ``W`` shaped (out, in) and a bias ``b``
    shaped (out,).
    """
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix in parameter_prefixes(config):
        fan_in = config.lookback
        for i in range(config.fc_layers):
            shapes[f"{prefix}.fc{i}.W"] = (config.fc_width, fan_in)
            shapes[f"{prefix}.fc{i}.b"] = (config.fc_width,)
            fan_in = config.fc_width
        for head, out_width in (("backcast", config.lookback), ("forecast", config.horizon)):
            shapes[f"{prefix}.{head}.W"] = (out_width, config.fc_width)
            shapes[f"{prefix}.{head}.b"] = (out_width,)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh trainable parameters, drawn from the ``Generator`` ``rng``.

    Hidden layers get He-style uniform fan-in scaling; the two linear heads
    start near zero (+-0.01) so the initial outputs sit at the block-input
    mean, which keeps early training stable under the destandardization skip.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        _, layer, kind = name.split(".")
        if not layer.startswith("fc"):
            params[name] = rng.uniform(-0.01, 0.01, size=shape)
        elif kind == "W":
            limit = float(np.sqrt(6.0 / shape[1]))
            params[name] = rng.uniform(-limit, limit, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def normalize_input(x: np.ndarray):
    """Divide each row of a lookback batch by its maximum; returns (normalized, scale)."""
    scale = x.max(axis=-1)
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        raise ValueError("lookback maximum must be positive and finite")
    return x / scale[:, None], scale


class Block(NamedTuple):
    """What one block of ``forward_blocks`` computed, in the normalized scale.

    ``hidden`` is the block input followed by each fc layer's output; the
    backward consumes the fc outputs, so after ``_backward`` it holds the
    input alone. ``backcast`` and ``forecast`` are the raw head outputs
    rescaled by ``sd`` and shifted by the input's row mean. Under ``noDestd``
    they are the raw outputs, and ``centered`` (the input minus its row mean)
    and ``sd`` (its row std) are None.
    """

    prefix: str
    hidden: list[np.ndarray]
    raw_backcast: np.ndarray
    raw_forecast: np.ndarray
    centered: np.ndarray | None
    sd: np.ndarray | None
    backcast: np.ndarray
    forecast: np.ndarray


class Forward(NamedTuple):
    """Record of one forward pass: each row's input ``scale`` and one ``Block`` per block.

    ``_backward`` consumes each block's fc outputs (``hidden[1:]``); every
    other array stays, so ``decompose`` takes the ``scale`` and the blocks'
    forecasts before or after it.
    """

    scale: np.ndarray
    blocks: list[Block]


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched dense map ``x @ W.T + b`` with W shaped (out, in) and b (out,),
    or one map per member with W shaped (K, out, in) and b (K, out)."""
    if x.shape[-1] != w.shape[-1]:
        raise ValueError(
            f"input width {x.shape[-1]} does not match layer in-dimension {w.shape[-1]}"
        )
    out = x @ np.swapaxes(w, -1, -2)
    out += b[..., None, :]
    return out


def forward_blocks(params: dict, x, config: ModelConfig):
    """Run the model on a batch of lookback rows, one block at a time.

    Checks and normalizes ``x`` at once and returns ``(scale, blocks)``: each
    row's input scale, and an iterator that computes the next block each time
    it is advanced and yields its ``Block``. The iterator lets a block's arrays
    go as it computes the next block, so they live on only where the caller
    keeps them: ``model_forward`` keeps every block, a scoring pass only each
    forecast. Parameters with a leading member axis, each shaped
    (K, *shape), run K members on the same rows at once; each block's arrays
    then lead with the member axis too, apart from those of the input alone:
    the first block's input, ``centered`` and ``sd``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.lookback:
        raise ValueError(f"expected lookback batch of shape (n, {config.lookback}), got {x.shape}")
    normed, scale = normalize_input(x)
    return scale, _blocks(params, normed, config)


def _blocks(params: dict, x_m: np.ndarray, config: ModelConfig):
    prefixes = parameter_prefixes(config)
    for m in range(config.blocks):
        prefix = prefixes[0] if config.sharing else prefixes[m]
        hidden = [x_m]
        for i in range(config.fc_layers):
            # the pre-activation is freed once its ReLU is taken: one activation less
            hidden.append(np.maximum(
                affine(hidden[-1], params[f"{prefix}.fc{i}.W"], params[f"{prefix}.fc{i}.b"]), 0.0))
        raw_b = affine(hidden[-1], params[f"{prefix}.backcast.W"], params[f"{prefix}.backcast.b"])
        raw_f = affine(hidden[-1], params[f"{prefix}.forecast.W"], params[f"{prefix}.forecast.b"])
        if config.no_destd:
            centered = sd = None
            backcast, forecast = raw_b, raw_f
        else:
            mu = x_m.mean(axis=-1, keepdims=True)
            centered = x_m - mu
            sd = np.sqrt((centered**2).mean(axis=-1, keepdims=True))
            backcast, forecast = raw_b * sd + mu, raw_f * sd + mu
        yield Block(prefix, hidden, raw_b, raw_f, centered, sd, backcast, forecast)
        if m + 1 < config.blocks:
            residual = x_m - backcast
            x_m = residual if config.no_relu else np.maximum(residual, 0.0)


def block_sum(scale: np.ndarray, forecasts) -> np.ndarray:
    """The model's forecast from its blocks' ``forecasts``, an iterable in
    block order in the normalized scale: their sum, in that order, times each
    row's input ``scale``. It holds one forecast at a time beside the sum."""
    total = None
    for forecast in forecasts:
        total = forecast if total is None else total + forecast
    return total * scale[:, None]


def model_forward(params: dict, x, config: ModelConfig):
    """Run the model on a batch of lookback rows and keep the record of the pass.

    Returns ``(y_hat of shape (n, horizon), Forward)``: ``forward_blocks``
    with every block kept, which the backward pass reads.
    With a leading member axis on the parameters, ``y_hat`` is
    (K, n, horizon).
    """
    scale, blocks = forward_blocks(params, x, config)
    forward = Forward(scale, [])

    def forecasts():
        # the sum takes each block's forecast as the record takes the block:
        # summed only after the last block, the training step measured slower
        for block in blocks:
            forward.blocks.append(block)
            yield block.forecast

    return block_sum(scale, forecasts()), forward


def _backward(params: dict, forward: Forward, g_y_hat, config: ModelConfig):
    """Reverse pass of ``model_forward``: d(loss)/d(param) from d(loss)/d(y_hat).

    It consumes ``forward``: each fc output is popped off its block's
    ``hidden`` once the layer after it has taken its weight gradient and the
    layer itself its ReLU mask, so the record shrinks block by block. A
    shared weight's gradient terms add into the first, a fresh array, in place.
    """
    grads: dict[str, np.ndarray] = {}

    def accumulate(name, g):
        if name in grads:  # the first term is a fresh matmul or sum: add into it
            grads[name] += g
        else:
            grads[name] = g

    g_sum = g_y_hat * forward.scale[:, None]  # every block forecast gets this gradient
    g_next = None  # d(loss)/d(input of block m + 1)
    for m in reversed(range(config.blocks)):
        prefix, hidden, raw_b, raw_f, centered, sd, _, _ = forward.blocks[m]
        g_input = []  # terms of d(loss)/d(block input), summed in this order
        g_backcast = None  # stays None in the last block: its backcast feeds nothing
        if g_next is not None:
            g_residual = g_next if config.no_relu else g_next * (forward.blocks[m + 1].hidden[0] > 0.0)
            g_input.append(g_residual)
            g_backcast = -g_residual
        if config.no_destd:
            g_raw_f, g_raw_b = g_sum, g_backcast
        else:
            g_raw_f = g_sum * sd
            g_raw_b = None if g_backcast is None else g_backcast * sd
            if m > 0:  # the first block's input is data
                g_mu = g_sum.sum(axis=1, keepdims=True)
                g_sd = (g_sum * raw_f).sum(axis=1, keepdims=True)
                if g_backcast is not None:
                    g_mu = g_mu + g_backcast.sum(axis=1, keepdims=True)
                    g_sd = g_sd + (g_backcast * raw_b).sum(axis=1, keepdims=True)
                # rows with zero spread get zero subgradient through the std
                n = centered.shape[-1]
                safe = np.where(sd > 0.0, sd, 1.0) * n
                g_input.append(g_sd * np.where(sd > 0.0, centered / safe, 0.0))
                g_input.append(g_mu / n)
        accumulate(f"{prefix}.forecast.W", g_raw_f.T @ hidden[-1])
        accumulate(f"{prefix}.forecast.b", g_raw_f.sum(axis=0))
        g_h = g_raw_f @ params[f"{prefix}.forecast.W"]
        if g_raw_b is not None:
            accumulate(f"{prefix}.backcast.W", g_raw_b.T @ hidden[-1])
            accumulate(f"{prefix}.backcast.b", g_raw_b.sum(axis=0))
            g_h = g_h + g_raw_b @ params[f"{prefix}.backcast.W"]
        for i in reversed(range(config.fc_layers)):
            # fc i's output gave its weight gradient (to layer i + 1 or the
            # heads) and now gives its ReLU mask: the record lets it go
            g_pre = g_h * (hidden.pop() > 0.0)
            accumulate(f"{prefix}.fc{i}.W", g_pre.T @ hidden[i])
            accumulate(f"{prefix}.fc{i}.b", g_pre.sum(axis=0))
            if i > 0 or m > 0:
                g_h = g_pre @ params[f"{prefix}.fc{i}.W"]
        if m > 0:
            g_input.append(g_h)
            g_next = sum(g_input[1:], g_input[0])
    return {
        name: grads[name] if name in grads else np.zeros_like(p) for name, p in params.items()
    }


def loss_and_grad(params: dict, x, y, config: ModelConfig):
    """Training objective on one batch of lookback rows ``x`` and targets ``y``.

    Returns ``(loss, components, grads)``: the combined loss, its logged terms
    (see ``loss.loss_components``) and its gradient for every parameter.
    """
    y_hat, forward = model_forward(params, x, config)
    loss_config = config.loss_config()
    parts = loss_components(y, y_hat, loss_config)
    grads = _backward(params, forward, loss_gradients(y, y_hat, loss_config), config)
    return parts["loss"], parts, grads


def decompose(scale: np.ndarray, forecasts) -> np.ndarray:
    """Per-block forecast contributions: the blocks' ``forecasts`` (in block
    order, normalized) stacked on a leading block axis, times each row's input
    ``scale``; (M, n, horizon), or (M, K, n, horizon) with a member axis. They
    sum to the final forecast up to float addition order."""
    return np.stack(forecasts) * scale[:, None]
