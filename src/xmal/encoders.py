"""Toy trainable dual-stream encoders.

Each stream is a stack of residual token-wise blocks, y = x + relu(x W + b).
The text stream has 12 blocks tapped after blocks 4, 10 and 12. The audio
stream has 4 stages of (2, 2, 6, 2) blocks with pair-merging of tokens at the
entry of stages 2-4, tapped at the same cumulative block depths (4, 10, 12);
stage 1 output is discarded. Each stream also yields a pooled global vector:
a content-scored softmax readout for text, the token mean for audio.

A stream's weights live in banks: one (12, D, D) weight bank and one
(12, D) bias bank (`text.w`, `text.b`, `audio.w`, `audio.b`), and the three
audio merge maps in one (3, D, D) bank (`audio.merge`). Their shapes and
inits are rows of the model's parameter table, `model.param_specs`. Each tap
segment runs as one `autodiff.residual_blocks` op: text blocks 1-4, 5-10
and 11-12, and each audio stage with its entry merge. Under `no_grad` the op
keeps no per-block state. `verify.composed_residual_blocks`, the same blocks
composed from autodiff primitives, is the op's oracle.
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
# rows (the `merge` of `ad.residual_blocks`), so its cost is linear in B.
# Both produce (B, tokens, D) level tensors and (B, D) globals; a single
# item is a batch of one.


def encode_text_batch(tokens: np.ndarray, params: dict[str, Tensor]) -> tuple[list[Tensor], Tensor]:
    """tokens (B, N, D) -> ([3 x (B, N, D)], (B, D))."""
    b, n, dim = tokens.shape
    if n < 1:
        raise ContractError("text input has no tokens")
    x = ad.Tensor(tokens.reshape(b * n, dim))
    taps = []
    lo = 0
    for hi in TEXT_TAPS:
        x = ad.residual_blocks(x, params["text.w"], params["text.b"], lo, hi)
        taps.append(ad.reshape(x, (b, n, dim)))
        lo = hi
    x3 = ad.reshape(x, (b, n, dim))
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
    lo = 0
    tokens_now = m
    for stage, n_blocks in enumerate(AUDIO_STAGE_BLOCKS):
        merge = None
        if stage > 0:
            pair_mean = _pair_mean_matrix(tokens_now)
            merge = (pair_mean, params["audio.merge"], stage - 1)
            tokens_now = pair_mean.shape[0]
        x = ad.residual_blocks(x, params["audio.w"], params["audio.b"], lo, lo + n_blocks, merge)
        lo += n_blocks
        if stage > 0:
            taps.append(ad.reshape(x, (b, tokens_now, dim)))
    pooled = ad.reduce_sum(ad.mul(ad.reshape(x, (b, tokens_now, dim)), 1.0 / tokens_now), axis=1)
    return taps, pooled
