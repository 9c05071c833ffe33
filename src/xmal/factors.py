"""Latent-factor decomposition of pooled embeddings and the covariance-based
decoupling/alignment losses.

A global D-vector splits into K factors of width D/K through one trainable
(K, D/K, D) bank per modality. A batch of factors is a (B, K, D/K) stack,
batch axis first. Factors are standardized per dimension over the batch
(biased variance), and the K x K cross-modal covariance is the mean over
batch and dimension of products of standardized factors, so perfectly
correlated factors read exactly 1.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import EPS, Tensor
from .errors import BatchTooSmallError, ConfigError, DimensionError

DIAG_GUARD = 1e-8  # column-sum magnitude below which match probabilities are undefined


def factor_width(dim: int, k: int) -> int:
    if k < 1 or dim % k != 0:
        raise ConfigError(f"embed dim {dim} must be divisible by factor count {k}")
    return dim // k


def init_factor_bank(dim: int, k: int, rng: np.random.Generator, name: str) -> Tensor:
    """A (K, D/K, D) bank drawn in one call: the same values, in the same
    generator order, as K sequential (D/K, D) draws."""
    width = factor_width(dim, k)
    bound = 1.0 / np.sqrt(dim)
    return ad.parameter(rng.uniform(-bound, bound, size=(k, width, dim)), name)


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


def batch_standardize(z: Tensor, eps: float = EPS) -> Tensor:
    """Whiten each factor dimension of a (B, K, w) stack over the batch to
    mean 0, variance 1.

    Biased (1/B) variance keeps self-covariance exactly 1; a constant
    dimension maps to zeros through the eps guard.
    """
    z = ad.as_tensor(z)
    b = z.value.shape[0]
    if b < 2:
        raise BatchTooSmallError(f"standardization needs a batch of >= 2, got {b}")
    inv_b = 1.0 / b
    mean = ad.mul(ad.reduce_sum(z, axis=0, keepdims=True), inv_b)
    centered = ad.sub(z, mean)
    var = ad.mul(ad.reduce_sum(ad.mul(centered, centered), axis=0, keepdims=True), inv_b)
    return ad.div(centered, ad.sqrt(ad.add(var, eps)))


def factor_covariance(z_text: Tensor, z_audio: Tensor) -> Tensor:
    """K x K cross-covariance of two (B, K, w) stacks, entry (i, j) = mean
    over batch and dimension of z_text_i . z_audio_j: one cross-correlation
    contraction."""
    z_text, z_audio = ad.as_tensor(z_text), ad.as_tensor(z_audio)
    if z_text.value.ndim != 3 or z_text.value.shape != z_audio.value.shape:
        raise DimensionError(
            f"factor stacks must share one (B, K, w) shape: {z_text.value.shape} vs "
            f"{z_audio.value.shape}"
        )
    b, _, width = z_text.value.shape
    return ad.mul(ad.einsum("bkw,bjw->kj", z_text, z_audio), 1.0 / (b * width))


def decoupling_loss(c: Tensor) -> Tensor:
    """Sum of squared off-diagonal covariance entries."""
    c = ad.as_tensor(c)
    k = _square_side(c)
    off_mask = 1.0 - np.eye(k)
    off = ad.mul(c, off_mask)
    return ad.reduce_sum(ad.mul(off, off))


def alignment_loss(c: Tensor) -> Tensor:
    """Sum of squared deviations of the covariance diagonal from 1."""
    c = ad.as_tensor(c)
    k = _square_side(c)
    diag = ad.reduce_sum(ad.mul(c, np.eye(k)), axis=1)
    dev = ad.sub(1.0, diag)
    return ad.reduce_sum(ad.mul(dev, dev))


def _square_side(c: Tensor) -> int:
    if c.value.ndim != 2 or c.value.shape[0] != c.value.shape[1]:
        raise DimensionError(f"covariance must be square, got {c.value.shape}")
    return c.value.shape[0]


def match_probabilities(c: np.ndarray, guard: float = DIAG_GUARD) -> tuple[np.ndarray, np.ndarray]:
    """Column-normalized covariance read as match probabilities (diagnostic).

    Returns (P, defined) where column j of P is C[:, j] / sum_k C[k, j] when
    the column sum's magnitude exceeds `guard`, else zeros with defined[j]
    False. Never emits NaN.
    """
    c = np.asarray(c, dtype=np.float64)
    sums = c.sum(axis=0)
    defined = np.abs(sums) > guard
    p = np.divide(c, sums, out=np.zeros_like(c), where=defined)
    return p, defined


def offdiag_energy(c: np.ndarray) -> float:
    """Sum of squared off-diagonal entries (plain numpy, for logs/reports)."""
    c = np.asarray(c, dtype=np.float64)
    return float((c**2).sum() - (np.diag(c) ** 2).sum())
