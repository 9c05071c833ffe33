"""Confidence-weighted factor-pair similarity.

A two-layer network with a ReLU scores each (text-factor, audio-factor) pair
from their concatenation; a logistic maps the score into (0, 1) and it
weights the pair's cosine. An (audio item, text item) score is the sum of
weighted cosines over the K factor pairs; weights are independent per pair
(no normalization across pairs). Scores come as all-pairs matrices; a single
pair is a 1 x 1 batch.

The score is one fused op, `factor_pair_similarity_matrix`, whose backward
is closed form. Training and forward-only scoring run the same op. The same
score composed from autodiff primitives
(`verify.composed_factor_pair_similarity`) is the oracle it is checked
against.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError

PARAM_NAMES = ("conf.w1", "conf.b1", "conf.w2", "conf.b2")


def init_confidence_params(
    factor_dim: int, hidden: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    fan1 = 2 * factor_dim
    params = {
        "conf.w1": ad.parameter(
            rng.uniform(-1 / np.sqrt(fan1), 1 / np.sqrt(fan1), size=(hidden, fan1)), "conf.w1"
        ),
        "conf.b1": ad.parameter(np.zeros(hidden), "conf.b1"),
        "conf.w2": ad.parameter(
            rng.uniform(-1 / np.sqrt(hidden), 1 / np.sqrt(hidden), size=(1, hidden)), "conf.w2"
        ),
        "conf.b2": ad.parameter(np.zeros(1), "conf.b2"),
    }
    return params


def _first_layer(text: np.ndarray, audio: np.ndarray, params: dict[str, Tensor]):
    """Validate (B_t, K, d) text and (B_a, K, d) audio factor stacks against
    the network. The first layer is linear in [t; a], so each item is
    projected once by its half of `conf.w1`: returns (K, B_t, h) text and
    (K, B_a, h) audio terms, the bias on the audio side. A pair's
    pre-activation is the sum of its two terms."""
    w1 = params["conf.w1"].value
    if text.ndim != 3 or audio.ndim != 3 or text.shape[1:] != audio.shape[1:]:
        raise DimensionError(f"factor stacks differ: {text.shape} vs {audio.shape}")
    (bt, k, d), ba, h = text.shape, audio.shape[0], w1.shape[0]
    if w1.shape[1] != 2 * d:
        raise DimensionError(f"confidence input width {2 * d} does not match first layer {w1.shape}")
    # One (B*K, d) product per modality; the (K, B, h) views need no copy.
    pre_t = (text.reshape(bt * k, d) @ w1[:, :d].T).reshape(bt, k, h).transpose(1, 0, 2)
    pre_a = audio.reshape(ba * k, d) @ w1[:, d:].T + params["conf.b1"].value
    return pre_t, pre_a.reshape(ba, k, h).transpose(1, 0, 2)


def _confidence(hidden: np.ndarray, params: dict[str, Tensor]) -> np.ndarray:
    """Logistic of the second layer over the last (hidden) axis."""
    y = hidden @ params["conf.w2"].value[0] + params["conf.b2"].value[0]
    return 0.5 * (1.0 + np.tanh(0.5 * y))


def matched_confidences(
    text: np.ndarray, audio: np.ndarray, params: dict[str, Tensor]
) -> np.ndarray:
    """Confidences of the matched pairs of (B, K, d) text and audio factor
    stacks: entry (b, k) scores text factor k of item b against audio factor
    k of the same item -> (B, K)."""
    if text.shape != audio.shape:
        raise DimensionError(f"factor stacks differ: {text.shape} vs {audio.shape}")
    pre_t, pre_a = _first_layer(text, audio, params)
    # C order, so a reduction over items adds them in the same order as a stack
    return np.ascontiguousarray(_confidence(np.maximum(pre_a + pre_t, 0.0), params).T)


def factor_pair_terms(text: np.ndarray, audio: np.ndarray, params: dict[str, Tensor]):
    """Per-factor confidences g and cosines cos of (B_t, K, d) text and
    (B_a, K, d) audio factor stacks, each (K, B_a, B_t), and the state the
    closed-form backward reads: the (K, B_a, B_t, h) hidden layer and the
    normalized rows with their sums of squares."""
    pre_t, pre_a = _first_layer(text, audio, params)
    hidden = np.maximum(pre_a[:, :, None, :] + pre_t[:, None, :, :], 0.0)
    g = _confidence(hidden, params)
    an, a_sumsq = ad.normalized(audio)
    tn, t_sumsq = ad.normalized(text)
    cos = an.transpose(1, 0, 2) @ tn.transpose(1, 2, 0)  # (K, B_a, d) @ (K, d, B_t)
    return g, cos, (hidden, an, a_sumsq, tn, t_sumsq)


def factor_pair_similarity_matrix(text, audio, params: dict[str, Tensor]) -> Tensor:
    """All-pairs confidence-weighted factor similarity of (B_t, K, d) text
    and (B_a, K, d) audio factor stacks as one taped op; entry (i, j) scores
    audio item i against text item j. The op's parents are the two stacks
    and the four `conf.*` parameters."""
    t, a = ad.as_tensor(text), ad.as_tensor(audio)
    weights = [params[name] for name in PARAM_NAMES]
    g, cos, (hidden, an, a_sumsq, tn, t_sumsq) = factor_pair_terms(t.value, a.value, params)

    def backward(grad):
        w1, w2 = params["conf.w1"].value, params["conf.w2"].value[0]
        (k, ba, bt, h), d = hidden.shape, t.value.shape[2]
        # score = sum_k g * cos, g = logistic(y), y = relu(pre_a + pre_t) . w2 + b2
        g_y = grad * cos * g * (1.0 - g)
        g_cos = grad * g
        g_hidden = (hidden > 0.0) * w2
        g_hidden *= g_y[..., None]
        g_pre_a = g_hidden.sum(axis=2).transpose(1, 0, 2).reshape(ba * k, h)
        g_pre_t = g_hidden.sum(axis=1).transpose(1, 0, 2).reshape(bt * k, h)
        t2, a2 = t.value.reshape(bt * k, d), a.value.reshape(ba * k, d)
        g_w1 = np.concatenate([g_pre_t.T @ t2, g_pre_a.T @ a2], axis=1)
        g_w2 = (g_y.reshape(-1) @ hidden.reshape(-1, h))[None]
        # cos[k] = an[:, k] @ tn[:, k].T
        g_an = np.matmul(g_cos, tn.transpose(1, 0, 2)).transpose(1, 0, 2)
        g_tn = np.matmul(g_cos.transpose(0, 2, 1), an.transpose(1, 0, 2)).transpose(1, 0, 2)
        return (
            (g_pre_t @ w1[:, :d]).reshape(bt, k, d) + ad.normalized_grad(g_tn, tn, t_sumsq),
            (g_pre_a @ w1[:, d:]).reshape(ba, k, d) + ad.normalized_grad(g_an, an, a_sumsq),
            g_w1,
            g_pre_a.sum(axis=0),
            g_w2,
            np.array([g_y.sum()]),
        )

    out = np.sum(g * cos, axis=0)
    return Tensor(out, _op="factor_pair_similarity", _parents=(t, a, *weights), _backward=backward)
