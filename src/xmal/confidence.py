"""Confidence-weighted factor-pair similarity.

A two-layer network with a ReLU scores each (text-factor, audio-factor) pair
from their concatenation; the score is squashed into (0, 1) and weights the
pair's cosine. An (audio item, text item) score is the sum of weighted
cosines over the K factor pairs; weights are independent per pair (no
normalization across pairs). Scores come as all-pairs matrices; a single
pair is a 1 x 1 batch.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import ConfigError, DimensionError

SQUASHES = ("logistic", "none")


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


def _check_squash(squash: str):
    if squash not in SQUASHES:
        raise ConfigError(f"squash must be one of {SQUASHES}, got {squash!r}")


def confidence_batch(
    text_factors: Tensor, audio_factors: Tensor, params: dict[str, Tensor], squash: str = "logistic"
) -> Tensor:
    """Scores for a stack of pairs: (P, d) x (P, d) -> (P,)."""
    _check_squash(squash)
    t, a = ad.as_tensor(text_factors), ad.as_tensor(audio_factors)
    if t.value.shape != a.value.shape:
        raise DimensionError(f"factor shapes differ: {t.value.shape} vs {a.value.shape}")
    x = ad.concat([t, a], axis=1)
    if x.value.shape[1] != params["conf.w1"].value.shape[1]:
        raise DimensionError(
            f"confidence input width {x.value.shape[1]} does not match "
            f"first layer {params['conf.w1'].value.shape}"
        )
    h = ad.hinge(ad.add(ad.matmul(x, ad.transpose(params["conf.w1"])), params["conf.b1"]))
    y = ad.add(ad.matmul(h, ad.transpose(params["conf.w2"])), params["conf.b2"])
    y = ad.reshape(y, (t.value.shape[0],))
    return ad.sigmoid(y) if squash == "logistic" else y


def _check_stacks(text: np.ndarray, audio: np.ndarray, params: dict[str, Tensor], squash: str) -> int:
    """Validate (B_t, K, d) and (B_a, K, d) factor stacks against the network;
    returns d."""
    _check_squash(squash)
    if text.ndim != 3 or audio.ndim != 3 or text.shape[1:] != audio.shape[1:]:
        raise DimensionError(f"factor stacks differ: {text.shape} vs {audio.shape}")
    d = text.shape[2]
    if params["conf.w1"].value.shape[1] != 2 * d:
        raise DimensionError(
            f"confidence input width {2 * d} does not match first layer "
            f"{params['conf.w1'].value.shape}"
        )
    return d


def factor_pair_similarity_matrix(
    text: Tensor,
    audio: Tensor,
    params: dict[str, Tensor],
    squash: str = "logistic",
    eps: float = EPS,
) -> Tensor:
    """All-pairs confidence-weighted factor similarity of (B_t, K, d) text
    and (B_a, K, d) audio factor stacks; entry (i, j) scores audio item i
    against text item j.

    While a tape records, the ops follow `factor_pair_kernel_terms`: each
    item is projected once through its half of `conf.w1`, and the halves are
    broadcast-added per pair as (K, B_a, 1, h) + (K, 1, B_t, h). Without a
    tape, `factor_pair_similarity_kernel` computes the scores directly,
    within 1e-12."""
    t, a = ad.as_tensor(text), ad.as_tensor(audio)
    if not ad.is_recording():
        return Tensor(factor_pair_similarity_kernel(t.value, a.value, params, squash, eps))
    d = _check_stacks(t.value, a.value, params, squash)
    (bt, k, _), ba = t.value.shape, a.value.shape[0]
    w1 = ad.transpose(params["conf.w1"])  # (2d, h): text rows, then audio rows
    h = w1.value.shape[1]
    pre_t = ad.einsum("bkd,dh->kbh", t, ad.slice_rows(w1, 0, d))
    pre_a = ad.add(ad.einsum("bkd,dh->kbh", a, ad.slice_rows(w1, d, 2 * d)), params["conf.b1"])
    hidden = ad.hinge(ad.add(ad.reshape(pre_a, (k, ba, 1, h)), ad.reshape(pre_t, (k, 1, bt, h))))
    y = ad.add(ad.einsum("kabh,h->kab", hidden, ad.reshape(params["conf.w2"], (h,))), params["conf.b2"])
    g = ad.sigmoid(y) if squash == "logistic" else y
    cos = ad.einsum("akd,bkd->kab", ad.normalize_rows(a, eps), ad.normalize_rows(t, eps))
    return ad.reduce_sum(ad.mul(g, cos), axis=0)


def _normalize(x: np.ndarray, eps: float) -> np.ndarray:
    """The value of `ad.normalize_rows`."""
    return x / ad.guarded_root(np.sum(x * x, axis=-1, keepdims=True), eps)


def factor_pair_kernel_terms(
    text: np.ndarray,
    audio: np.ndarray,
    params: dict[str, Tensor],
    squash: str = "logistic",
    eps: float = EPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-factor confidences and cosines of (B_t, K, d) text and (B_a, K, d)
    audio factor stacks -> (g, cos), each (K, B_a, B_t).

    The first layer is linear in [t; a], so each item is projected once by
    its half of `conf.w1` and the halves are broadcast-added per pair."""
    d = _check_stacks(text, audio, params, squash)
    w1 = params["conf.w1"].value
    (bt, k, _), ba, h = text.shape, audio.shape[0], w1.shape[0]
    # One (B*K, d) product per modality; the (K, B, h) views need no copy.
    pre_t = (text.reshape(bt * k, d) @ w1[:, :d].T).reshape(bt, k, h).transpose(1, 0, 2)
    pre_a = audio.reshape(ba * k, d) @ w1[:, d:].T + params["conf.b1"].value
    pre_a = pre_a.reshape(ba, k, h).transpose(1, 0, 2)
    hidden = np.maximum(pre_a[:, :, None, :] + pre_t[:, None, :, :], 0.0)  # (K, B_a, B_t, h)
    y = hidden @ params["conf.w2"].value[0] + params["conf.b2"].value[0]
    g = 0.5 * (1.0 + np.tanh(0.5 * y)) if squash == "logistic" else y
    an = _normalize(audio, eps).transpose(1, 0, 2)  # (K, B_a, d)
    tn = _normalize(text, eps).transpose(1, 2, 0)  # (K, d, B_t)
    return g, an @ tn


def factor_pair_similarity_kernel(
    text: np.ndarray,
    audio: np.ndarray,
    params: dict[str, Tensor],
    squash: str = "logistic",
    eps: float = EPS,
) -> np.ndarray:
    """Forward-only `factor_pair_similarity_matrix` on (B_t, K, d) text and
    (B_a, K, d) audio factor stacks -> (B_a, B_t) scores."""
    g, cos = factor_pair_kernel_terms(text, audio, params, squash, eps)
    return np.sum(g * cos, axis=0)
