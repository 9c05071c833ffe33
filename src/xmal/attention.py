"""Stacked cross attention between two token sequences and the similarity
scores built from it.

Token-to-token cosine similarities are clamped at zero and L2-normalized per
context column, softmaxed into attention weights, and used to fuse context
rows for each query row. A block's score is the sum of query/fused cosines;
the hierarchical score adds the three tap levels. A separate global score is
the plain cosine of the two pooled vectors.

Each level is one fused op, `tha_level`, whose backward is closed form;
under `no_grad` it keeps no backward state. Training, `sim`, `grad-check`
and eval's tiles all run it. It takes level tensors or their `level_rows`,
the per-item terms of either side, norms and Gram matrices included, that
eval's tile scorer (`Model.strip_scorer`) prepares on the first tile that
reads a block, and an `autodiff.Workspace` for its intermediates, which it
uses only while no tape records. The same score composed from autodiff
primitives (`verify.composed_hierarchical_similarity`) is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, FRESH, Tensor, Workspace
from .config import check_finite
from .errors import ContractError

DIRECTIONS = ("text_enhanced", "audio_enhanced", "both")
COMBINES = ("mean", "sum")


@dataclass(frozen=True)
class AttentionConfig:
    temperature: float = 9.0  # sharpness applied to normalized similarities
    direction: str = "both"
    combine: str = "mean"  # how the two directions merge when direction == both

    def __post_init__(self):
        check_finite(self)
        if self.temperature <= 0:
            raise ContractError(f"attention temperature must be positive, got {self.temperature}")
        if self.direction not in DIRECTIONS:
            raise ContractError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.combine not in COMBINES:
            raise ContractError(f"combine must be one of {COMBINES}, got {self.combine!r}")


def hinge_normalize(s) -> Tensor:
    """Clamp at zero, then scale each column to unit L2 norm along axis -2,
    the query axis of a (..., Q, C) similarity stack (axis 0 of a matrix).

    Columns with no positive entry stay all-zero (the guarded denominator
    never divides by less than EPS).
    """
    h = ad.hinge(s)
    return ad.div(h, ad.guarded_norm(h, axis=-2, keepdims=True))


# -- all-pairs (B x B) scores -------------------------------------------------
#
# Used for batch losses, retrieval matrices and single-pair breakdowns (a
# 1 x 1 batch). Entry (i, j) scores audio item i against text item j.
#
# Similarities are laid out (Q, C, I, J): query token, context token, query
# item, context item. The scores never build the (I, J, Q, D) fused-context
# tensor. With context rows x_c = ||x_c|| * xn_c (guarded norm), the fused row
# f = sum_c alpha_c x_c has
#   qn . f = sum_c alpha_c s_c ||x_c||   and   ||f||^2 = sum_ck alpha_c alpha_k G_ck,
# where s_c is the query/context cosine and G the context Gram matrix. The
# work per pair is Q*C^2 instead of Q*C*D. The backward differentiates the
# same expressions in closed form from the saved alpha, cosines, norms and
# Gram matrices.


def _root_grad(sumsq: np.ndarray, root: np.ndarray) -> np.ndarray:
    """d guarded_root / d sumsq: zero where the EPS floor holds."""
    return np.where(sumsq > EPS * EPS, 0.5 / root, 0.0)


class LevelRows(NamedTuple):
    """One side's (B, T, D) rows at one level, with the per-item terms every
    score against them reads, so a tile loop can compute them once per block
    of items."""

    tensor: Tensor  # the rows, the parent of every op that scores them
    unit: np.ndarray  # rows over their guarded norms
    sumsq: np.ndarray  # (B, T, 1) sums of squares
    norms: np.ndarray  # (T, B) guarded norms, contiguous
    gram: np.ndarray  # (T, T, B) Gram matrices, contiguous

    @property
    def raw(self) -> np.ndarray:
        return self.tensor.value


def level_rows(x) -> LevelRows:
    """The `LevelRows` of (B, T, D) rows, an array or a tensor; `LevelRows`
    pass through."""
    if isinstance(x, LevelRows):
        return x
    x = ad.as_tensor(x)
    unit, sumsq = ad.normalized(x.value)
    # contiguous (T, B) norms and (T, T, B) Gram matrices keep the einsums fast
    norms = np.ascontiguousarray(ad.guarded_root(sumsq[..., 0]).T)
    gram = np.ascontiguousarray(np.einsum("jcd,jkd->ckj", x.value, x.value))
    return LevelRows(x, unit, sumsq, norms, gram)


def _direction(s: np.ndarray, ctx: LevelRows, cfg: AttentionConfig, keep: bool, ws: Workspace):
    """One attention direction. s (Q, C, I, J) holds the cosine of query
    token q of item i with context token c of item j; `ctx` holds the
    (J, C, D) context rows. Returns the (I, J) summed query/fused cosines
    and, with `keep`, the state `_direction_grad` needs. Intermediates are
    `ws` buffers; the score is a fresh array."""
    q, c, i, j = s.shape
    alpha = np.maximum(s, 0.0, out=ws.array("alpha", s.shape))  # the hinge, softmaxed in place
    col = np.einsum("qcij,qcij->cij", alpha, alpha, out=ws.array("col", (c, i, j)))
    alpha /= ad.guarded_root(col, out=col)[None]
    alpha *= cfg.temperature  # softmax over the context axis
    reduced = ws.array("reduced", (q, 1, i, j))
    alpha -= np.max(alpha, axis=1, keepdims=True, out=reduced)
    np.exp(alpha, out=alpha)
    alpha /= np.sum(alpha, axis=1, keepdims=True, out=reduced)
    dot = np.einsum("qcij,qcij,cj->qij", alpha, s, ctx.norms, out=ws.array("dot", (q, i, j)))
    sq = np.einsum("qcij,ckj,qkij->qij", alpha, ctx.gram, alpha, out=ws.array("sq", (q, i, j)))
    if keep:
        state = (s, ctx.raw, ctx.norms, ctx.gram, alpha, dot, sq)
        ratio = ad.guarded_root(sq)  # dot and sq are saved intact
    else:
        state, ratio = None, ad.guarded_root(sq, out=sq)
    return np.sum(np.divide(dot, ratio, out=ratio), axis=0), state


def _direction_grad(g: np.ndarray, state, cfg: AttentionConfig):
    """Gradients of `_direction`'s score w.r.t. s and the raw contexts, given
    g (I, J) w.r.t. the score."""
    s, contexts, ctx_norms, gram, alpha, dot, sq = state
    # score = sum_q dot / ||f||, with ||f||^2 = sq
    f_norm = ad.guarded_root(sq)
    g_dot = g / f_norm
    g_sq = -g_dot * dot / f_norm * _root_grad(sq, f_norm)
    # dot = sum_c alpha s ||x||;  sq = sum_ck alpha_c G_ck alpha_k, where
    # sum_c alpha_c G_ck = f . x_k is a (J, Q, I, C) @ (J, C, C) product
    g_dot_norms = g_dot[:, None] * ctx_norms[:, None]
    fused_dot_ctx = np.matmul(alpha.transpose(3, 0, 2, 1), gram.transpose(2, 0, 1)[:, None])
    g_alpha = g_dot_norms * s + (2.0 * g_sq)[:, None] * fused_dot_ctx.transpose(1, 3, 2, 0)
    # softmax over the context axis, then the guarded column norm and the hinge
    g_sbar = cfg.temperature * alpha * (g_alpha - np.sum(alpha * g_alpha, axis=1, keepdims=True))
    h = np.maximum(s, 0.0)
    col_sumsq = np.einsum("qcij,qcij->cij", h, h)[None]
    col = ad.guarded_root(col_sumsq)
    g_col = -np.sum(g_sbar * h, axis=0, keepdims=True) / (col * col)
    g_h = g_sbar / col + 2.0 * h * g_col * _root_grad(col_sumsq, col)
    g_s = g_h * (s > 0.0) + g_dot_norms * alpha
    # the context norms and Gram matrices
    g_norms = np.einsum("qij,qcij,qcij->cj", g_dot, alpha, s)
    q, c, i, j = alpha.shape
    alpha_j = alpha.transpose(3, 1, 0, 2).reshape(j, c, q * i)
    weighted_j = (g_sq[:, None] * alpha).transpose(3, 1, 0, 2).reshape(j, c, q * i)
    g_gram = np.matmul(weighted_j, alpha_j.transpose(0, 2, 1))  # (J, C, C), symmetric
    ctx_sumsq = np.sum(contexts * contexts, axis=-1).T
    g_ctx = (2.0 * g_norms * _root_grad(ctx_sumsq, ctx_norms)).T[:, :, None] * contexts
    g_ctx += 2.0 * np.matmul(g_gram, contexts)
    return g_s, g_ctx


def _level(a: LevelRows, t: LevelRows, cfg: AttentionConfig, keep: bool, ws: Workspace):
    """One level's (B_a, B_t) score from (B_a, M, D) audio and (B_t, N, D)
    text rows and, with `keep`, the state `_level_grad` needs. Intermediates
    are `ws` buffers; the score is a fresh array."""
    (i, m, _), (j, n, _) = a.raw.shape, t.raw.shape
    s = np.matmul(  # (M, N, I, J)
        a.unit.transpose(1, 0, 2)[:, None], t.unit.transpose(1, 2, 0)[None],
        out=ws.array("s", (m, n, i, j)),
    )
    te_state = ae_state = None
    if cfg.direction in ("text_enhanced", "both"):
        te, te_state = _direction(s, t, cfg, keep, ws)
    if cfg.direction in ("audio_enhanced", "both"):
        s_t = ws.array("s.T", (n, m, j, i))
        np.copyto(s_t, s.transpose(1, 0, 3, 2))
        ae, ae_state = _direction(s_t, a, cfg, keep, ws)
        ae = ae.T
    if cfg.direction == "text_enhanced":
        score = te
    elif cfg.direction == "audio_enhanced":
        score = ae
    else:
        score = (te + ae) * 0.5 if cfg.combine == "mean" else te + ae
    return score, (a.unit, a.sumsq, t.unit, t.sumsq, te_state, ae_state) if keep else None


def _level_grad(g: np.ndarray, state, cfg: AttentionConfig):
    """Gradients of `_level`'s score w.r.t. the raw audio and text rows."""
    an, a_sumsq, tn, t_sumsq, te_state, ae_state = state
    if cfg.direction == "both" and cfg.combine == "mean":
        g = g * 0.5
    g_s = g_a3 = g_t3 = 0.0
    if te_state is not None:
        g_s, g_t3 = _direction_grad(g, te_state, cfg)
    if ae_state is not None:
        g_s_ae, g_a3 = _direction_grad(g.T, ae_state, cfg)
        g_s = g_s + g_s_ae.transpose(1, 0, 3, 2)
    # s[m, n, i, j] = an[i, m] . tn[j, n], contracted as 2-D matrix products
    m, n, i, j = g_s.shape
    g_an = g_s.transpose(2, 0, 1, 3).reshape(i * m, n * j) @ tn.transpose(1, 0, 2).reshape(n * j, -1)
    g_tn = g_s.transpose(3, 1, 0, 2).reshape(j * n, m * i) @ an.transpose(1, 0, 2).reshape(m * i, -1)
    return (
        ad.normalized_grad(g_an.reshape(an.shape), an, a_sumsq) + g_a3,
        ad.normalized_grad(g_tn.reshape(tn.shape), tn, t_sumsq) + g_t3,
    )


def tha_level(a3, t3, cfg: AttentionConfig, ws: Workspace = FRESH) -> Tensor:
    """One THA level as one taped op: (B_a, M, D) audio and (B_t, N, D) text
    rows, tensors or their `level_rows`, -> (B_a, B_t) scores; the rows'
    tensors are its parents. The backward is closed form; the forward's
    state is kept only while a tape records. Intermediates are `ws` buffers
    only while none does, since a backward reads the saved arrays."""
    a, t = level_rows(a3), level_rows(t3)
    keep = ad.is_recording()
    score, state = _level(a, t, cfg, keep, FRESH if keep else ws)

    def backward(g):
        return _level_grad(g, state, cfg)

    return Tensor(score, _op="tha_level", _parents=(a.tensor, t.tensor), _backward=backward)


def hierarchical_similarity_matrix(
    audio_levels: list, text_levels: list, cfg: AttentionConfig, ws: Workspace = FRESH
) -> Tensor:
    """All-pairs hierarchical score from (B_a, M_l, D) audio and (B_t, N, D)
    text levels, tensors or their `level_rows`: a (B_a, B_t) matrix, the sum
    of one `tha_level` op per level, each given `ws`."""
    if len(audio_levels) != len(text_levels):
        raise ContractError(
            f"level mismatch: {len(audio_levels)} audio vs {len(text_levels)} text"
        )
    total = None
    for a3, t3 in zip(audio_levels, text_levels):
        score = tha_level(a3, t3, cfg, ws)
        total = score if total is None else ad.add(total, score)
    return total


def global_similarity_matrix(a_globals: Tensor, t_globals: Tensor) -> Tensor:
    """All-pairs cosine of pooled vectors: (B, D) x (B, D) -> (B, B)."""
    an = ad.normalize_rows(a_globals)
    tn = ad.normalize_rows(t_globals)
    return ad.matmul(an, ad.permute(tn, (1, 0)))
