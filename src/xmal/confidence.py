"""Confidence-weighted factor-pair similarity.

A two-layer network with a ReLU scores each (text-factor, audio-factor) pair
from their concatenation; a logistic maps the score into (0, 1) and it
weights the pair's cosine. An (audio item, text item) score is the sum of
weighted cosines over the K factor pairs; weights are independent per pair
(no normalization across pairs). Scores come as all-pairs matrices; a single
pair is a 1 x 1 batch.

The score is one fused op, `factor_pair_similarity_matrix`, whose backward
is closed form. Training, `sim`, `grad-check` and eval's tiles all run it.
It takes factor stacks or their `factor_rows`, the per-item terms that
eval's tile scorer (`Model.strip_scorer`) prepares from a block's projected
factors on the first tile that reads the block, and an `autodiff.Workspace`
for its intermediates, which it uses only while no tape records. The same score composed from autodiff primitives
(`verify.composed_factor_pair_similarity`) is its oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import FRESH, Tensor, Workspace
from .errors import DimensionError

PARAM_NAMES = ("conf.w1", "conf.b1", "conf.w2", "conf.b2")


def _first_layer_term(x: np.ndarray, params: dict[str, Tensor], side: str) -> np.ndarray:
    """The first layer is linear in [t; a], so each item is projected once
    by its half of `conf.w1`: the (K, B, h) term of a (B, K, d) text or
    audio stack, the bias on the audio side. A pair's pre-activation is the
    sum of its two terms."""
    w1 = params["conf.w1"].value
    (b, k, d), h = x.shape, w1.shape[0]
    if w1.shape[1] != 2 * d:
        raise DimensionError(
            f"confidence input width {2 * d} does not match first layer {w1.shape}"
        )
    # One (B*K, d) product; the (K, B, h) view needs no copy.
    if side == "text":
        pre = x.reshape(b * k, d) @ w1[:, :d].T
    else:
        pre = x.reshape(b * k, d) @ w1[:, d:].T + params["conf.b1"].value
    return pre.reshape(b, k, h).transpose(1, 0, 2)


class FactorRows(NamedTuple):
    """One side's (B, K, d) factor stack with the per-item terms every score
    against it reads, so a tile loop can compute them once per block of
    items."""

    tensor: Tensor  # the stack, the parent of every op that scores it
    pre: np.ndarray  # (K, B, h) first-layer term
    unit: np.ndarray  # rows over their guarded norms
    sumsq: np.ndarray  # (B, K, 1) sums of squares

    @property
    def raw(self) -> np.ndarray:
        return self.tensor.value


def factor_rows(x, params: dict[str, Tensor], side: str) -> FactorRows:
    """The `FactorRows` of a "text" or "audio" factor stack, an array or a
    tensor; `FactorRows` pass through."""
    if isinstance(x, FactorRows):
        return x
    x = ad.as_tensor(x)
    if x.value.ndim != 3:
        raise DimensionError(f"factor stack must be (B, K, d), got {x.value.shape}")
    unit, sumsq = ad.normalized(x.value)
    return FactorRows(x, _first_layer_term(x.value, params, side), unit, sumsq)


def _confidence(hidden: np.ndarray, params: dict[str, Tensor], out: np.ndarray | None = None):
    """Logistic of the second layer over the last (hidden) axis, computed in
    `out` if given."""
    y = np.matmul(hidden, params["conf.w2"].value[0], out=out)
    y += params["conf.b2"].value[0]
    y *= 0.5  # 0.5 * (1 + tanh(y / 2))
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5
    return y


def factor_terms(text, audio, params: dict[str, Tensor], ws: Workspace = FRESH):
    """Per-factor confidences g and cosines cos of (B_t, K, d) text and
    (B_a, K, d) audio factor stacks or their `factor_rows`, each
    (K, B_a, B_t), and the (K, B_a, B_t, h) hidden layer the closed-form
    backward reads, all `ws` buffers."""
    t, a = factor_rows(text, params, "text"), factor_rows(audio, params, "audio")
    if t.raw.shape[1:] != a.raw.shape[1:]:
        raise DimensionError(f"factor stacks differ: {t.raw.shape} vs {a.raw.shape}")
    (k, bt, h), ba = t.pre.shape, a.pre.shape[1]
    hidden = ws.array("hidden", (k, ba, bt, h))
    np.add(a.pre[:, :, None, :], t.pre[:, None, :, :], out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    g = _confidence(hidden, params, out=ws.array("g", (k, ba, bt)))
    cos = ws.array("cos", (k, ba, bt))  # (K, B_a, d) @ (K, d, B_t)
    np.matmul(a.unit.transpose(1, 0, 2), t.unit.transpose(1, 2, 0), out=cos)
    return g, cos, hidden


def factor_pair_similarity_matrix(
    text, audio, params: dict[str, Tensor], ws: Workspace = FRESH
) -> Tensor:
    """All-pairs confidence-weighted factor similarity of (B_t, K, d) text
    and (B_a, K, d) audio factor stacks, tensors or their `factor_rows`, as
    one taped op; entry (i, j) scores audio item i against text item j. The
    op's parents are the two stacks' tensors and the four `conf.*`
    parameters. Intermediates are `ws` buffers only while no tape records,
    since the backward reads the saved arrays."""
    t, a = factor_rows(text, params, "text"), factor_rows(audio, params, "audio")
    weights = [params[name] for name in PARAM_NAMES]
    keep = ad.is_recording()
    g, cos, hidden = factor_terms(t, a, params, FRESH if keep else ws)

    def backward(grad):
        w1, w2 = params["conf.w1"].value, params["conf.w2"].value[0]
        (k, ba, bt, h), d = hidden.shape, t.raw.shape[2]
        # score = sum_k g * cos, g = logistic(y), y = relu(pre_a + pre_t) . w2 + b2
        g_y = grad * cos * g * (1.0 - g)
        g_cos = grad * g
        g_hidden = (hidden > 0.0) * w2
        g_hidden *= g_y[..., None]
        g_pre_a = g_hidden.sum(axis=2).transpose(1, 0, 2).reshape(ba * k, h)
        g_pre_t = g_hidden.sum(axis=1).transpose(1, 0, 2).reshape(bt * k, h)
        t2, a2 = t.raw.reshape(bt * k, d), a.raw.reshape(ba * k, d)
        g_w1 = np.concatenate([g_pre_t.T @ t2, g_pre_a.T @ a2], axis=1)
        g_w2 = (g_y.reshape(-1) @ hidden.reshape(-1, h))[None]
        # cos[k] = an[:, k] @ tn[:, k].T
        g_an = np.matmul(g_cos, t.unit.transpose(1, 0, 2)).transpose(1, 0, 2)
        g_tn = np.matmul(g_cos.transpose(0, 2, 1), a.unit.transpose(1, 0, 2)).transpose(1, 0, 2)
        return (
            (g_pre_t @ w1[:, :d]).reshape(bt, k, d) + ad.normalized_grad(g_tn, t.unit, t.sumsq),
            (g_pre_a @ w1[:, d:]).reshape(ba, k, d) + ad.normalized_grad(g_an, a.unit, a.sumsq),
            g_w1,
            g_pre_a.sum(axis=0),
            g_w2,
            np.array([g_y.sum()]),
        )

    out = np.sum(np.multiply(g, cos, out=None if keep else cos), axis=0)
    return Tensor(
        out, _op="factor_pair_similarity", _parents=(t.tensor, a.tensor, *weights),
        _backward=backward,
    )
