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


def factor_pair_similarity_matrix(
    text_factors: list[Tensor],
    audio_factors: list[Tensor],
    params: dict[str, Tensor],
    squash: str = "logistic",
    eps: float = EPS,
) -> Tensor:
    """All-pairs confidence-weighted factor similarity.

    Factor lists hold (B_t, d) text and (B_a, d) audio tensors; output entry
    (i, j) scores audio item i against text item j. While a tape records, the
    B_a*B_t confidence inputs per factor run through the network as one
    stack; without one, `factor_pair_similarity_kernel` computes the scores
    directly, within 1e-12.
    """
    if len(text_factors) != len(audio_factors):
        raise DimensionError(
            f"factor counts differ: {len(text_factors)} vs {len(audio_factors)}"
        )
    if not ad.is_recording():
        return Tensor(factor_pair_similarity_kernel(
            np.stack([t.value for t in text_factors]),
            np.stack([a.value for a in audio_factors]),
            params, squash, eps,
        ))
    bt = text_factors[0].value.shape[0]
    ba = audio_factors[0].value.shape[0]
    repeat = np.repeat(np.eye(ba), bt, axis=0)  # audio row i -> rows i*B_t..i*B_t+B_t-1
    tile = np.tile(np.eye(bt), (ba, 1))  # text row j -> rows j, B_t+j, ...
    total = None
    for e_t, e_a in zip(text_factors, audio_factors):
        t_all = ad.matmul(ad.Tensor(tile), e_t)
        a_all = ad.matmul(ad.Tensor(repeat), e_a)
        g = ad.reshape(confidence_batch(t_all, a_all, params, squash), (ba, bt))
        cos = ad.matmul(ad.normalize_rows(e_a, eps), ad.transpose(ad.normalize_rows(e_t, eps)))
        term = ad.mul(g, cos)
        total = term if total is None else ad.add(total, term)
    return total


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
    """Per-factor confidences and cosines on stacked factors: (K, B_t, d)
    text and (K, B_a, d) audio -> (g, cos), each (K, B_a, B_t).

    The first layer is linear in [t; a], so each item is projected once by
    its half of `conf.w1` and the halves are broadcast-added per pair."""
    _check_squash(squash)
    if text.shape[0] != audio.shape[0] or text.shape[2] != audio.shape[2]:
        raise DimensionError(f"factor stacks differ: {text.shape} vs {audio.shape}")
    w1 = params["conf.w1"].value
    d = text.shape[2]
    if w1.shape[1] != 2 * d:
        raise DimensionError(
            f"confidence input width {2 * d} does not match first layer {w1.shape}"
        )
    pre_t = text @ w1[:, :d].T  # (K, B_t, h)
    pre_a = audio @ w1[:, d:].T + params["conf.b1"].value  # (K, B_a, h)
    hidden = np.maximum(pre_a[:, :, None, :] + pre_t[:, None, :, :], 0.0)  # (K, B_a, B_t, h)
    y = hidden @ params["conf.w2"].value[0] + params["conf.b2"].value[0]
    g = 0.5 * (1.0 + np.tanh(0.5 * y)) if squash == "logistic" else y
    cos = _normalize(audio, eps) @ _normalize(text, eps).transpose(0, 2, 1)  # (K, B_a, B_t)
    return g, cos


def factor_pair_similarity_kernel(
    text: np.ndarray,
    audio: np.ndarray,
    params: dict[str, Tensor],
    squash: str = "logistic",
    eps: float = EPS,
) -> np.ndarray:
    """Forward-only `factor_pair_similarity_matrix` on stacked factors:
    (K, B_t, d) text and (K, B_a, d) audio -> (B_a, B_t) scores."""
    g, cos = factor_pair_kernel_terms(text, audio, params, squash, eps)
    return np.sum(g * cos, axis=0)
