"""Toy trainable dual-stream encoders.

Each stream is a stack of residual token-wise blocks, y = x + relu(x W + b).
The text stream has 12 blocks tapped after blocks 4, 10 and 12. The audio
stream has 4 stages of (2, 2, 6, 2) blocks with pair-merging of tokens at the
entry of stages 2-4, tapped at the same cumulative block depths (4, 10, 12);
stage 1 output is discarded. Each stream also yields a pooled global vector:
a content-scored softmax readout for text, the token mean for audio.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError

TEXT_BLOCKS = 12
TEXT_TAPS = (4, 10, 12)
AUDIO_STAGE_BLOCKS = (2, 2, 6, 2)
MIN_AUDIO_TOKENS = 4


def audio_tap_counts(m: int) -> tuple[int, int, int]:
    """Token counts at the three audio taps for an input of m tokens."""
    m2 = math.ceil(m / 2)
    m3 = math.ceil(m2 / 2)
    m4 = math.ceil(m3 / 2)
    return m2, m3, m4


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_text_params(dim: int, rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for i in range(1, TEXT_BLOCKS + 1):
        params[f"text.block{i:02d}.w"] = ad.parameter(
            _uniform(rng, (dim, dim), dim), f"text.block{i:02d}.w"
        )
        params[f"text.block{i:02d}.b"] = ad.parameter(np.zeros(dim), f"text.block{i:02d}.b")
    params["text.readout"] = ad.parameter(np.zeros(dim), "text.readout")
    return params


def init_audio_params(dim: int, rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for i in range(1, sum(AUDIO_STAGE_BLOCKS) + 1):
        params[f"audio.block{i:02d}.w"] = ad.parameter(
            _uniform(rng, (dim, dim), dim), f"audio.block{i:02d}.w"
        )
        params[f"audio.block{i:02d}.b"] = ad.parameter(np.zeros(dim), f"audio.block{i:02d}.b")
    # Identity start keeps merged tokens in the same space as text tokens;
    # a small random map here would scramble directions before training begins.
    for s in (2, 3, 4):
        params[f"audio.merge{s}.w"] = ad.parameter(np.eye(dim), f"audio.merge{s}.w")
    return params


def _block(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add(x, ad.hinge(ad.add(ad.matmul(x, w), b)))


def _pair_mean_matrix(m: int) -> np.ndarray:
    """(ceil(m/2), m) map averaging adjacent token pairs; odd tail kept as-is."""
    m2 = math.ceil(m / 2)
    p = np.zeros((m2, m))
    for r in range(m2):
        lo = 2 * r
        hi = min(lo + 2, m)
        p[r, lo:hi] = 1.0 / (hi - lo)
    return p


# -- batched encoders ---------------------------------------------------------
#
# The residual blocks act token-wise, so a whole batch runs as one tall
# matrix. Audio token merging applies each item's pair-mean map to its own
# rows (`ad.merge_rows`), so its cost is linear in B. Both produce
# (B, tokens, D) level tensors and (B, D) globals; a single item is a batch
# of one.


def encode_text_batch(tokens: np.ndarray, params: dict[str, Tensor]) -> tuple[list[Tensor], Tensor]:
    """tokens (B, N, D) -> ([3 x (B, N, D)], (B, D))."""
    b, n, dim = tokens.shape
    if n < 1:
        raise ContractError("text input has no tokens")
    x = ad.Tensor(tokens.reshape(b * n, dim))
    taps = []
    for i in range(1, TEXT_BLOCKS + 1):
        x = _block(x, params[f"text.block{i:02d}.w"], params[f"text.block{i:02d}.b"])
        if i in TEXT_TAPS:
            taps.append(x.reshape(b, n, dim))
    x3 = x.reshape(b, n, dim)
    scores = ad.einsum("bnd,d->bn", x3, params["text.readout"])
    attn = ad.row_softmax(scores, 1.0)
    pooled = ad.einsum("bn,bnd->bd", attn, x3)
    return taps, pooled


def encode_audio_batch(frames: np.ndarray, params: dict[str, Tensor]) -> tuple[list[Tensor], Tensor]:
    """frames (B, M, D) -> ([3 x (B, M_l, D)], (B, D))."""
    b, m, dim = frames.shape
    if m < MIN_AUDIO_TOKENS:
        raise ContractError(
            f"audio input too short: need at least {MIN_AUDIO_TOKENS} tokens, got {m}"
        )
    x = ad.Tensor(frames.reshape(b * m, dim))
    taps = []
    block = 0
    tokens_now = m
    for stage, n_blocks in enumerate(AUDIO_STAGE_BLOCKS, start=1):
        if stage > 1:
            merge = ad.Tensor(_pair_mean_matrix(tokens_now))
            x = ad.matmul(ad.merge_rows(merge, x), params[f"audio.merge{stage}.w"])
            tokens_now = merge.value.shape[0]
        for _ in range(n_blocks):
            block += 1
            x = _block(x, params[f"audio.block{block:02d}.w"], params[f"audio.block{block:02d}.b"])
        if stage > 1:
            taps.append(x.reshape(b, tokens_now, dim))
    pooled = ad.reduce_sum(ad.mul(x.reshape(b, tokens_now, dim), 1.0 / tokens_now), axis=1)
    return taps, pooled
