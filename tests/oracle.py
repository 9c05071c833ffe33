"""Tape-free numpy per-item oracle for the batched encoders and scorers.

Each function encodes one item or scores one (audio, text) pair straight
from the formulas, row by row, without the tape or any batching, so the
batched path that training and eval run has an independent reference.
Attention fusing reuses `verify._attend_oracle`.
"""

import numpy as np

from xmal.encoders import AUDIO_STAGE_BLOCKS, TEXT_BLOCKS, TEXT_TAPS
from xmal.objective import mode_components
from xmal.verify import _attend_oracle


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def _block(x, params, stream, index):
    """Block `index` (from 1) of a stream: slice index - 1 of its banks."""
    w = params[f"{stream}.w"].value[index - 1]
    return x + np.maximum(x @ w + params[f"{stream}.b"].value[index - 1], 0.0)


def encode_text(tokens, params):
    """(N, D) tokens -> ([3 x (N, D)] tap levels, (D,) softmax-readout pool)."""
    x = np.asarray(tokens, dtype=np.float64)
    levels = []
    for i in range(1, TEXT_BLOCKS + 1):
        x = _block(x, params, "text", i)
        if i in TEXT_TAPS:
            levels.append(x)
    scores = x @ params["text.readout"].value
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    return levels, weights @ x


def _pair_mean(x):
    """Average adjacent rows; an odd tail row is kept as it is."""
    return np.stack([x[lo:lo + 2].mean(axis=0) for lo in range(0, x.shape[0], 2)])


def encode_audio(frames, params):
    """(M, D) frames -> ([3 x (M_l, D)] tap levels, (D,) token-mean pool)."""
    x = np.asarray(frames, dtype=np.float64)
    levels = []
    block = 0
    for stage, n_blocks in enumerate(AUDIO_STAGE_BLOCKS, start=1):
        if stage > 1:
            x = _pair_mean(x) @ params["audio.merge"].value[stage - 2]
        for _ in range(n_blocks):
            block += 1
            x = _block(x, params, "audio", block)
        if stage > 1:
            levels.append(x)
    return levels, x.mean(axis=0)


def block_score(queries, contexts, temperature):
    """Summed cosines of each query row with its fused context row."""
    fused = _attend_oracle(queries, contexts, temperature)
    return sum(cosine(q, f) for q, f in zip(queries, fused))


def tha_score(audio_levels, text_levels, cfg):
    """Hierarchical cross-attention score of one pair under an AttentionConfig."""
    total = 0.0
    for a, t in zip(audio_levels, text_levels, strict=True):
        te = block_score(a, t, cfg.temperature)  # audio queries, text contexts
        ae = block_score(t, a, cfg.temperature)
        if cfg.direction == "text_enhanced":
            total += te
        elif cfg.direction == "audio_enhanced":
            total += ae
        else:
            total += (te + ae) / 2.0 if cfg.combine == "mean" else te + ae
    return total


def confidence(e_text, e_audio, params):
    """Confidence network output for one (text factor, audio factor) pair."""
    x = np.concatenate([e_text, e_audio])
    h = np.maximum(params["conf.w1"].value @ x + params["conf.b1"].value, 0.0)
    y = float((params["conf.w2"].value @ h + params["conf.b2"].value)[0])
    return 1.0 / (1.0 + np.exp(-y))


def dcr_score(text_factors, audio_factors, params):
    """Sum over factor pairs of confidence-weighted cosines."""
    return sum(
        confidence(t, a, params) * cosine(t, a)
        for t, a in zip(text_factors, audio_factors, strict=True)
    )


def item_factors(pooled, params, modality):
    """K factor vectors of one item's pooled (D,) embedding: row i is the
    i-th (D/K, D) slice of the modality's bank times the embedding."""
    bank = params[f"factors.{modality}"].value
    return [bank[i] @ pooled for i in range(bank.shape[0])]


def pair_score(model, audio, text, mode):
    """Score of one audio item against one text item under `mode`; audio and
    text are (levels, pooled) pairs as returned by the encoders above."""
    total = 0.0
    for component in mode_components(mode):
        if component == "DP":
            total += cosine(audio[1], text[1])
        elif component == "THA":
            total += tha_score(audio[0], text[0], model.cfg.attention)
        else:
            total += dcr_score(
                item_factors(text[1], model.params, "text"),
                item_factors(audio[1], model.params, "audio"),
                model.params,
            )
    return total
