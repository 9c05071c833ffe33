"""Latent-factor decomposition of pooled embeddings and the covariance-based
decoupling/alignment losses.

A global D-vector splits into K factors of width D/K through one trainable
(K, D/K, D) bank per modality. A batch of factors is a (B, K, D/K) stack,
batch axis first. Factors are standardized per dimension over the batch
(biased variance), and the K x K cross-modal covariance is the mean over
batch and dimension of products of standardized factors, so perfectly
correlated factors read exactly 1.

The covariance of two raw stacks is one op, `factor_covariance`, and each
loss on it is one op; their backwards are closed form. The same statistics
composed from autodiff primitives (`verify.composed_factor_losses`) are
their oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import BatchTooSmallError, ConfigError, DimensionError


def factor_width(dim: int, k: int) -> int:
    if dim < 1:
        raise ConfigError(f"embed dim must be >= 1, got {dim}")
    if k < 1 or dim % k != 0:
        raise ConfigError(f"embed dim {dim} must be divisible by factor count {k}")
    return dim // k


def project_factors(globals_: Tensor, bank: Tensor) -> Tensor:
    """(B, D) globals through a (K, D/K, D) bank -> (B, K, D/K) factors."""
    g, bank = ad.as_tensor(globals_), ad.as_tensor(bank)
    if g.value.ndim != 2 or g.value.shape[0] < 1:
        raise DimensionError(f"globals must be (B, D), got {g.value.shape}")
    dim = g.value.shape[1]
    if bank.value.ndim != 3:
        raise DimensionError(f"factor bank must be (K, D/K, D), got {bank.value.shape}")
    width = factor_width(dim, bank.value.shape[0])
    if bank.value.shape[1:] != (width, dim):
        raise DimensionError(
            f"factor bank {bank.value.shape} does not split width {dim} into "
            f"{bank.value.shape[0]} factors"
        )
    return ad.einsum("bd,kwd->bkw", g, bank)


class Standardized(NamedTuple):
    """A (B, K, w) stack standardized over the batch, with the centered stack
    and the (1, K, w) root sqrt(var + eps) that the covariance op's backward
    reads."""

    value: np.ndarray
    centered: np.ndarray
    root: np.ndarray


def batch_standardize(z: np.ndarray) -> Standardized:
    """Whiten each factor dimension of a (B, K, w) stack over the batch to
    mean 0, variance 1.

    Biased (1/B) variance keeps self-covariance exactly 1; a constant
    dimension maps to zeros through the eps guard.
    """
    z = np.asarray(z, dtype=np.float64)
    b = z.shape[0]
    if b < 2:
        raise BatchTooSmallError(f"standardization needs a batch of >= 2, got {b}")
    inv_b = 1.0 / b
    centered = z - np.sum(z, axis=0, keepdims=True) * inv_b
    root = np.sqrt(np.sum(centered * centered, axis=0, keepdims=True) * inv_b + EPS)
    return Standardized(centered / root, centered, root)


def _standardize_grad(g: np.ndarray, s: Standardized) -> np.ndarray:
    """Gradient w.r.t. the raw stack of `batch_standardize`'s value, given g
    w.r.t. that value. The terms are summed in the order the composed chain
    accumulates them, so the two agree bit for bit."""
    inv_b = 1.0 / g.shape[0]
    c, r = s.centered, s.root
    g_sumsq = np.sum(-g * c / (r * r), axis=0, keepdims=True) * 0.5 / r * inv_b
    g_c = g / r + g_sumsq * c + g_sumsq * c
    return g_c + np.sum(-g_c, axis=0, keepdims=True) * inv_b


def factor_covariance(z_text: Tensor, z_audio: Tensor) -> Tensor:
    """K x K cross-covariance of two raw (B, K, w) stacks as one op: each
    stack is standardized over the batch (`batch_standardize`), and entry
    (i, j) is the mean over batch and dimension of text factor i times audio
    factor j. The backward is closed form from the standardized stacks."""
    z_text, z_audio = ad.as_tensor(z_text), ad.as_tensor(z_audio)
    if z_text.value.ndim != 3 or z_text.value.shape != z_audio.value.shape:
        raise DimensionError(
            f"factor stacks must share one (B, K, w) shape: {z_text.value.shape} vs "
            f"{z_audio.value.shape}"
        )
    b, _, width = z_text.value.shape
    text, audio = batch_standardize(z_text.value), batch_standardize(z_audio.value)
    scale = 1.0 / (b * width)
    c = np.einsum("bkw,bjw->kj", text.value, audio.value) * scale

    def backward(g):
        g = g * scale
        return (
            _standardize_grad(np.einsum("kj,bjw->bkw", g, audio.value), text),
            _standardize_grad(np.einsum("kj,bkw->bjw", g, text.value), audio),
        )

    return Tensor(c, _op="factor_covariance", _parents=(z_text, z_audio), _backward=backward)


def decoupling_loss(c: Tensor) -> Tensor:
    """Sum of squared off-diagonal covariance entries, as one op."""
    c = ad.as_tensor(c)
    mask = 1.0 - np.eye(_square_side(c))
    off = c.value * mask

    def backward(g):
        t = g * off
        return ((t + t) * mask,)

    return Tensor(np.sum(off * off), _op="decoupling_loss", _parents=(c,), _backward=backward)


def alignment_loss(c: Tensor) -> Tensor:
    """Sum of squared deviations of the covariance diagonal from 1, as one op."""
    c = ad.as_tensor(c)
    eye = np.eye(_square_side(c))
    dev = 1.0 - np.sum(c.value * eye, axis=1)

    def backward(g):
        t = g * dev
        return (-(t + t)[:, None] * eye,)

    return Tensor(np.sum(dev * dev), _op="alignment_loss", _parents=(c,), _backward=backward)


def _square_side(c: Tensor) -> int:
    if c.value.ndim != 2 or c.value.shape[0] != c.value.shape[1]:
        raise DimensionError(f"covariance must be square, got {c.value.shape}")
    return c.value.shape[0]
