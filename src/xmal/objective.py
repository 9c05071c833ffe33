"""Contrastive batch loss and the combined training objective.

The batch similarity matrix S holds audio-vs-text scores with matched pairs
on the diagonal. The contrastive term is the symmetrized NT-Xent: mean over
the batch of the diagonal's negative log-softmax, computed along rows and
along columns, both with log-sum-exp stabilization. The total objective adds
the weighted decoupling and alignment losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_finite
from .errors import ConfigError, ContractError, DimensionError

MODES = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
_COMPONENTS = ("DP", "THA", "DCR")


@dataclass(frozen=True)
class ObjectiveConfig:
    tau: float = 0.07
    alpha: float = 0.01
    beta: float = 0.005
    similarity_mode: str = "THA+DCR"

    def __post_init__(self):
        check_finite(self)
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"loss weights must be non-negative, got {self.alpha}, {self.beta}")
        mode_components(self.similarity_mode)


def mode_components(mode: str) -> tuple[str, ...]:
    """Split a similarity mode into its component scores."""
    parts = tuple(mode.split("+"))
    if mode not in MODES or any(p not in _COMPONENTS for p in parts):
        raise ConfigError(f"unknown similarity mode {mode!r}; choose from {MODES}")
    return parts


def nt_xent(s, tau: float) -> Tensor:
    """Symmetrized temperature-scaled contrastive loss over a square score
    matrix whose diagonal holds the matched pairs."""
    if tau <= 0:
        raise ContractError(f"tau must be positive, got {tau}")
    s = ad.as_tensor(s)
    if s.value.ndim != 2 or s.value.shape[0] != s.value.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {s.value.shape}")
    b = s.value.shape[0]
    eye = np.eye(b)
    p = ad.mul(s, 1.0 / tau)

    terms = []
    for axis in (1, 0):  # the row half, then the column half
        shift = np.max(p.value, axis=axis, keepdims=True)
        lse = ad.add(ad.log(ad.reduce_sum(ad.exp(ad.sub(p, shift)), axis=axis, keepdims=True)), shift)
        terms.append(ad.reduce_sum(ad.mul(ad.sub(p, lse), eye)))
    return ad.mul(ad.add(*terms), -1.0 / b)


def total_loss(loss_s, loss_d, loss_a, cfg: ObjectiveConfig) -> Tensor:
    """loss_s + alpha * loss_d + beta * loss_a, skipping zero-weight terms so
    the unweighted case passes the contrastive loss through exactly."""
    total = ad.as_tensor(loss_s)
    if cfg.alpha > 0:
        total = ad.add(total, ad.mul(ad.as_tensor(loss_d), cfg.alpha))
    if cfg.beta > 0:
        total = ad.add(total, ad.mul(ad.as_tensor(loss_a), cfg.beta))
    return total
