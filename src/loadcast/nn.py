"""Dense-network substrate: gradient tape, ReLU, Adam, finite-difference checks.

A ``GradientTape`` records each forward operation in execution order; the
backward walk visits the records in reverse, so no topological sort is needed.
Only the operations the forecasting graph requires are implemented. Everything
runs in float64.

Tensors hold only a weak reference to their tape, so a finished step's graph
is reclaimed by reference counting instead of waiting for cycle collection
(training builds ~100 nodes per step; leaving them to the cyclic GC dominates
the step time).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Array node on a gradient tape; ``grad`` is filled by the backward walk."""

    __slots__ = ("data", "grad", "requires", "_tape_ref", "_pull")
    __array_ufunc__ = None  # keep numpy from hijacking ndarray <op> Tensor

    def __init__(self, data, tape, requires: bool = True, pull=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires = requires
        self._tape_ref = weakref.ref(tape)
        self._pull = pull

    @property
    def tape(self) -> "GradientTape":
        tape = self._tape_ref()
        if tape is None:
            raise RuntimeError("the gradient tape of this tensor no longer exists")
        return tape

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


class GradientTape:
    """Ordered record of one forward pass, consumable by a single backward()."""

    def __init__(self):
        self._ops: list[Tensor] = []
        self.leaves: dict[str, Tensor] = {}
        self._spent = False

    def leaf(self, name: str, array) -> Tensor:
        """Register a trainable parameter; its gradient is keyed by ``name``."""
        if name in self.leaves:
            raise ValueError(f"parameter '{name}' already registered on this tape")
        t = Tensor(array, self, requires=True)
        self.leaves[name] = t
        return t

    def constant(self, array) -> Tensor:
        """Wrap input data; receives no gradient and records nothing."""
        return Tensor(array, self, requires=False)

    def _record(self, t: Tensor) -> Tensor:
        self._ops.append(t)
        return t


def _binary(a, b):
    ta = a if isinstance(a, Tensor) else None
    tb = b if isinstance(b, Tensor) else None
    tape = (ta if ta is not None else tb).tape
    da = ta.data if ta is not None else np.asarray(a, dtype=np.float64)
    db = tb.data if tb is not None else np.asarray(b, dtype=np.float64)
    if ta is not None and not ta.requires:
        ta = None
    if tb is not None and not tb.requires:
        tb = None
    return ta, tb, da, db, tape


def add(a, b) -> Tensor:
    ta, tb, da, db, tape = _binary(a, b)
    out = Tensor(da + db, tape, requires=ta is not None or tb is not None)

    def pull(g):
        if ta is not None:
            ta._accumulate(_unbroadcast(g, da.shape))
        if tb is not None:
            tb._accumulate(_unbroadcast(g, db.shape))

    out._pull = pull
    return tape._record(out)


def sub(a, b) -> Tensor:
    ta, tb, da, db, tape = _binary(a, b)
    out = Tensor(da - db, tape, requires=ta is not None or tb is not None)

    def pull(g):
        if ta is not None:
            ta._accumulate(_unbroadcast(g, da.shape))
        if tb is not None:
            tb._accumulate(_unbroadcast(-g, db.shape))

    out._pull = pull
    return tape._record(out)


def mul(a, b) -> Tensor:
    ta, tb, da, db, tape = _binary(a, b)
    out = Tensor(da * db, tape, requires=ta is not None or tb is not None)

    def pull(g):
        if ta is not None:
            ta._accumulate(_unbroadcast(g * db, da.shape))
        if tb is not None:
            tb._accumulate(_unbroadcast(g * da, db.shape))

    out._pull = pull
    return tape._record(out)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0."""
    tape = x.tape
    out = Tensor(np.maximum(x.data, 0.0), tape, requires=x.requires)
    if x.requires:
        mask = x.data > 0.0

        def pull(g):
            x._accumulate(g * mask)

        out._pull = pull
    return tape._record(out)


def affine(x, w: Tensor, b: Tensor) -> Tensor:
    """Batched dense map ``x @ W.T + b`` with W shaped (out, in)."""
    xt = x if isinstance(x, Tensor) and x.requires else None
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if xd.shape[-1] != w.data.shape[1]:
        raise ValueError(
            f"input width {xd.shape[-1]} does not match layer in-dimension {w.data.shape[1]}"
        )
    tape = w.tape
    out_data = xd @ w.data.T
    out_data += b.data
    out = Tensor(out_data, tape)

    def pull(g):
        w._accumulate(g.T @ xd)
        b._accumulate(g.sum(axis=0))
        if xt is not None:
            xt._accumulate(g @ w.data)

    out._pull = pull
    return tape._record(out)


def row_mean(x: Tensor) -> Tensor:
    """Mean along the last axis, keepdims."""
    tape = x.tape
    out = Tensor(x.data.mean(axis=-1, keepdims=True), tape, requires=x.requires)
    if x.requires:
        n = x.data.shape[-1]

        def pull(g):
            x._accumulate(np.broadcast_to(g / n, x.data.shape))

        out._pull = pull
    return tape._record(out)


def row_std(x: Tensor) -> Tensor:
    """Population standard deviation along the last axis, keepdims.

    Rows with zero spread get zero subgradient (the forward value is exactly 0
    there and the destandardized output reduces to the row mean).
    """
    tape = x.tape
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    s = np.sqrt((centered**2).mean(axis=-1, keepdims=True))
    out = Tensor(s, tape, requires=x.requires)
    if x.requires:
        n = x.data.shape[-1]

        def pull(g):
            safe = np.where(s > 0.0, s, 1.0) * n
            x._accumulate(g * np.where(s > 0.0, centered / safe, 0.0))

        out._pull = pull
    return tape._record(out)


def mean(x: Tensor) -> Tensor:
    tape = x.tape
    out = Tensor(x.data.mean(), tape, requires=x.requires)
    if x.requires:

        def pull(g):
            x._accumulate(np.broadcast_to(g / x.data.size, x.data.shape))

        out._pull = pull
    return tape._record(out)


def total(x: Tensor) -> Tensor:
    tape = x.tape
    out = Tensor(x.data.sum(), tape, requires=x.requires)
    if x.requires:

        def pull(g):
            x._accumulate(np.broadcast_to(g, x.data.shape))

        out._pull = pull
    return tape._record(out)


def backward(tape: GradientTape, loss: Tensor) -> dict[str, np.ndarray]:
    """Reverse-propagate d(loss) through the tape; gradients keyed by leaf name.

    Parameters not connected to the loss get zero gradients. A tape can be
    consumed once; rebuild the forward pass to differentiate again.
    """
    if tape._spent:
        raise RuntimeError("gradient tape already consumed; re-record the forward pass")
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ValueError("loss must be a scalar node on the tape")
    tape._spent = True
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(tape._ops):
        if node.grad is not None and node._pull is not None:
            node._pull(node.grad)
    return {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in tape.leaves.items()
    }


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, applied in place. Returns (params, state)."""
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
    build,
    params: dict,
    tolerance: float = 1e-4,
    *,
    step_scale: float = 1e-5,
    abs_floor: float = 1e-7,
) -> GradCheckReport:
    """Compare tape gradients of ``build`` against central finite differences.

    ``build(params) -> (tape, scalar loss Tensor)`` must rebuild the graph from
    the current parameter values; entries are perturbed in place with
    ``h = step_scale * max(1, |theta|)`` and restored. Coordinates where both
    gradients are below ``abs_floor`` count as matching zeros.
    """
    tape, loss = build(params)
    if not np.isfinite(loss.data):
        raise FloatingPointError("objective is not finite at the evaluation point")
    analytic = backward(tape, loss)
    report = {}
    for name, arr in params.items():
        g = analytic[name]
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            theta = float(arr[idx])
            h = step_scale * max(1.0, abs(theta))
            arr[idx] = theta + h
            fp = float(build(params)[1].data)
            arr[idx] = theta - h
            fm = float(build(params)[1].data)
            arr[idx] = theta
            fd = (fp - fm) / (2.0 * h)
            ga = float(g[idx])
            scale = max(abs(fd), abs(ga))
            if scale < abs_floor:
                continue
            worst = max(worst, abs(fd - ga) / scale)
        report[name] = worst
    return GradCheckReport(report, tolerance)
