"""Stacked cross attention between two token sequences and the similarity
scores built from it.

Token-to-token cosine similarities are clamped at zero and L2-normalized per
context column, softmaxed into attention weights, and used to fuse context
rows for each query row. A block's score is the sum of query/fused cosines;
the hierarchical score adds the three tap levels. A separate global score is
the plain cosine of the two pooled vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import ContractError

DIRECTIONS = ("text_enhanced", "audio_enhanced", "both")
COMBINES = ("mean", "sum")


@dataclass(frozen=True)
class AttentionConfig:
    temperature: float = 9.0  # sharpness applied to normalized similarities
    direction: str = "both"
    combine: str = "mean"  # how the two directions merge when direction == both
    eps: float = EPS

    def __post_init__(self):
        if self.temperature <= 0:
            raise ContractError(f"attention temperature must be positive, got {self.temperature}")
        if self.direction not in DIRECTIONS:
            raise ContractError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.combine not in COMBINES:
            raise ContractError(f"combine must be one of {COMBINES}, got {self.combine!r}")


def hinge_normalize(s, eps: float = EPS) -> Tensor:
    """Clamp at zero, then scale each column to unit L2 norm along axis -2,
    the query axis of a (..., Q, C) similarity stack (axis 0 of a matrix).

    Columns with no positive entry stay all-zero (the guarded denominator
    never divides by less than eps).
    """
    h = ad.hinge(s)
    return ad.div(h, ad.guarded_norm(h, axis=-2, keepdims=True, eps=eps))


# -- all-pairs (B x B) scores -------------------------------------------------
#
# Used for batch losses, retrieval matrices and single-pair breakdowns (a
# 1 x 1 batch). Entry (i, j) scores audio item i against text item j.


def _enhanced_scores(
    s4: Tensor, queries_n: Tensor, contexts_raw: Tensor, cfg: AttentionConfig,
    fuse_pattern: str, cos_pattern: str,
) -> Tensor:
    """Shared core of one attention direction over all pairs.

    s4 is (B, B, Q, C) with query axis 2 and context axis 3; queries_n is the
    row-normalized query tensor and contexts_raw the raw context tensor.
    """
    sbar = hinge_normalize(s4, cfg.eps)
    alpha = ad.row_softmax(sbar, cfg.temperature)
    fused = ad.einsum(fuse_pattern, alpha, contexts_raw)
    fused_n = ad.normalize_rows(fused, cfg.eps)
    return ad.reduce_sum(ad.einsum(cos_pattern, queries_n, fused_n), axis=2)


def hierarchical_similarity_matrix(
    audio_levels: list[Tensor], text_levels: list[Tensor], cfg: AttentionConfig
) -> Tensor:
    """All-pairs hierarchical score from (B_a, M_l, D) audio and (B_t, N, D)
    text level tensors: a (B_a, B_t) matrix.

    While a tape records, the score is built from differentiable ops; without
    one, `hierarchical_similarity_kernel` computes it directly, within 1e-12."""
    if len(audio_levels) != len(text_levels):
        raise ContractError(
            f"level mismatch: {len(audio_levels)} audio vs {len(text_levels)} text"
        )
    if not ad.is_recording():
        return Tensor(hierarchical_similarity_kernel(
            [a.value for a in audio_levels], [t.value for t in text_levels], cfg
        ))
    total = None
    for a3, t3 in zip(audio_levels, text_levels):
        an = ad.normalize_rows(a3, cfg.eps)
        tn = ad.normalize_rows(t3, cfg.eps)
        s4 = ad.einsum("imd,jnd->ijmn", an, tn)
        if cfg.direction in ("text_enhanced", "both"):
            te = _enhanced_scores(s4, an, t3, cfg, "ijmn,jnd->ijmd", "imd,ijmd->ijm")
        if cfg.direction in ("audio_enhanced", "both"):
            s4_swapped = ad.permute(s4, (0, 1, 3, 2))
            ae = _enhanced_scores(s4_swapped, tn, a3, cfg, "ijnm,imd->ijnd", "jnd,ijnd->ijn")
        if cfg.direction == "text_enhanced":
            score = te
        elif cfg.direction == "audio_enhanced":
            score = ae
        else:
            both = ad.add(te, ae)
            score = ad.mul(both, 0.5) if cfg.combine == "mean" else both
        total = score if total is None else ad.add(total, score)
    return total


# -- forward-only kernel -----------------------------------------------------
#
# The same scores as the composed ops above, in plain numpy and without the
# (B_a, B_t, Q, D) fused-context tensor. Similarities are laid out
# (Q, C, I, J): query token, context token, query item, context item. With
# context rows x_c = ||x_c|| * xn_c (guarded norm), the fused row f = sum_c
# alpha_c x_c has
#   qn . f = sum_c alpha_c s_c ||x_c||   and   ||f||^2 = sum_ck alpha_c alpha_k G_ck,
# where s_c is the query/context cosine and G the context Gram matrix. The
# work per pair is Q*C^2 instead of Q*C*D.


def _kernel_direction(s: np.ndarray, contexts: np.ndarray, cfg: AttentionConfig) -> np.ndarray:
    """One attention direction. s (Q, C, I, J) holds the cosine of query
    token q of item i with context token c of item j; contexts (J, C, D) are
    the raw context rows. Returns (I, J) summed query/fused cosines."""
    # contiguous (C, J) norms and (C, C, J) Gram matrices keep the einsums fast
    ctx_norms = np.ascontiguousarray(
        ad.guarded_root(np.sum(contexts * contexts, axis=-1), cfg.eps).T
    )
    gram = np.ascontiguousarray(np.einsum("jcd,jkd->ckj", contexts, contexts))
    h = np.maximum(s, 0.0)
    alpha = h / ad.guarded_root(np.einsum("qcij,qcij->cij", h, h)[None], cfg.eps)
    alpha *= cfg.temperature  # softmax over the context axis, in place
    alpha -= np.max(alpha, axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= np.sum(alpha, axis=1, keepdims=True)
    dot = np.einsum("qcij,qcij,cj->qij", alpha, s, ctx_norms)
    sq = np.einsum("qcij,ckj,qkij->qij", alpha, gram, alpha)
    return np.sum(dot / ad.guarded_root(sq, cfg.eps), axis=0)


def hierarchical_similarity_kernel(
    audio_levels: list[np.ndarray], text_levels: list[np.ndarray], cfg: AttentionConfig
) -> np.ndarray:
    """Forward-only `hierarchical_similarity_matrix` on plain arrays:
    (B_a, M_l, D) audio and (B_t, N, D) text levels -> (B_a, B_t) scores."""
    total = None
    for a3, t3 in zip(audio_levels, text_levels):
        an = a3 / ad.guarded_root(np.sum(a3 * a3, axis=-1, keepdims=True), cfg.eps)
        tn = t3 / ad.guarded_root(np.sum(t3 * t3, axis=-1, keepdims=True), cfg.eps)
        s = np.matmul(an.transpose(1, 0, 2)[:, None], tn.transpose(1, 2, 0)[None])  # (M, N, I, J)
        if cfg.direction in ("text_enhanced", "both"):
            te = _kernel_direction(s, t3, cfg)
        if cfg.direction in ("audio_enhanced", "both"):
            ae = _kernel_direction(np.ascontiguousarray(s.transpose(1, 0, 3, 2)), a3, cfg).T
        if cfg.direction == "text_enhanced":
            score = te
        elif cfg.direction == "audio_enhanced":
            score = ae
        else:
            score = (te + ae) * 0.5 if cfg.combine == "mean" else te + ae
        total = score if total is None else total + score
    return total


def global_similarity_matrix(a_globals: Tensor, t_globals: Tensor, eps: float = EPS) -> Tensor:
    """All-pairs cosine of pooled vectors: (B, D) x (B, D) -> (B, B)."""
    an = ad.normalize_rows(a_globals, eps)
    tn = ad.normalize_rows(t_globals, eps)
    return ad.matmul(an, ad.transpose(tn))
