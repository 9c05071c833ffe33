"""The trainable dual-stream model: encoder stacks, factor projection banks,
and the confidence head, with batched encoding and all-pairs scoring (one
pair is a 1 x 1 batch)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention, autodiff as ad, encoders, factors, objective
from .attention import AttentionConfig
from .confidence import factor_pair_similarity_matrix, init_confidence_params
from .autodiff import Tensor
from .config import subsystem_rng
from .errors import ConfigError, DimensionError


TILE = 64  # items per block in tiled scoring and chunked encoding


def _blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of at most TILE rows covering 0..n."""
    return [(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]


def _row_blocks(tensors: list[Tensor]) -> list[list[Tensor]]:
    """Split same-length tensors into TILE-row blocks: one list per block.
    A single block holds the tensors themselves, so no slice is recorded."""
    n = tensors[0].value.shape[0]
    blocks = _blocks(n)
    if len(blocks) == 1:
        return [list(tensors)]
    return [[ad.slice_rows(t, lo, hi) for t in tensors] for lo, hi in blocks]


def _tiled(audio_blocks, text_blocks, score) -> Tensor:
    """Assemble score(audio block, text block) tiles into one matrix, each
    written into place as soon as it is scored. A single tile is the matrix
    itself, so no op is recorded."""
    if len(audio_blocks) == 1 and len(text_blocks) == 1:
        return score(audio_blocks[0], text_blocks[0])
    return ad.block_matrix(
        (score(a, t) for a in audio_blocks for t in text_blocks),
        [a[0].value.shape[0] for a in audio_blocks],
        [t[0].value.shape[0] for t in text_blocks],
    )


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int
    factor_count: int = 8
    hidden: int | None = None  # confidence hidden width; defaults to D/K
    attention: AttentionConfig = field(default_factory=AttentionConfig)

    def __post_init__(self):
        factors.factor_width(self.embed_dim, self.factor_count)
        if self.hidden is not None and self.hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {self.hidden}")

    @property
    def factor_dim(self) -> int:
        return self.embed_dim // self.factor_count

    @property
    def hidden_width(self) -> int:
        return self.hidden if self.hidden is not None else self.factor_dim


@dataclass
class EncodedBatch:
    """Batched encoder outputs: 3 level tensors and a global per modality,
    plus the raw factor stacks, filled on first use by `Model.batch_factors`
    so that a step projects each modality once. The stacks hold the bank
    values of that first use, so a batch serves one set of parameters."""

    audio_levels: list[Tensor]  # (B, M_l, D) each
    audio_global: Tensor  # (B, D)
    text_levels: list[Tensor]  # (B, N, D) each
    text_global: Tensor  # (B, D)
    factors: tuple[Tensor, Tensor] | None = None  # (text, audio), (B, K, D/K) each

    @property
    def batch(self) -> int:
        return self.audio_global.value.shape[0]


class Model:
    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "Model":
        rng = subsystem_rng(seed, "init")
        params: dict[str, Tensor] = {}
        params.update(encoders.init_text_params(cfg.embed_dim, rng))
        params.update(encoders.init_audio_params(cfg.embed_dim, rng))
        for name in ("factors.text", "factors.audio"):
            params[name] = factors.init_factor_bank(cfg.embed_dim, cfg.factor_count, rng, name)
        params.update(init_confidence_params(cfg.factor_dim, cfg.hidden_width, rng))
        return cls(cfg, params)

    def parameters(self) -> list[Tensor]:
        return [self.params[name] for name in sorted(self.params)]

    def encode_pairs(self, items) -> EncodedBatch:
        """Encode aligned (audio, text) items as one batch, TILE items at a time."""
        chunks = [
            self.encode_arrays(
                np.stack([np.asarray(it.audio, dtype=np.float64) for it in items[lo:hi]]),
                np.stack([np.asarray(it.text, dtype=np.float64) for it in items[lo:hi]]),
            )
            for lo, hi in _blocks(len(items))
        ]
        if len(chunks) == 1:
            return chunks[0]
        return EncodedBatch(
            audio_levels=[ad.concat(levels) for levels in zip(*(c.audio_levels for c in chunks))],
            audio_global=ad.concat([c.audio_global for c in chunks]),
            text_levels=[ad.concat(levels) for levels in zip(*(c.text_levels for c in chunks))],
            text_global=ad.concat([c.text_global for c in chunks]),
        )

    def encode_arrays(self, audio: np.ndarray, text: np.ndarray) -> EncodedBatch:
        a_levels, a_global = encoders.encode_audio_batch(audio, self.params)
        t_levels, t_global = encoders.encode_text_batch(text, self.params)
        return EncodedBatch(
            audio_levels=a_levels,
            audio_global=a_global,
            text_levels=t_levels,
            text_global=t_global,
        )

    def batch_factors(self, encoded: EncodedBatch) -> tuple[Tensor, Tensor]:
        """Raw (unstandardized) (B, K, D/K) factor stacks of the batch globals,
        (text, audio), projected on the first call and kept on `encoded`."""
        if encoded.factors is None:
            encoded.factors = (
                factors.project_factors(encoded.text_global, self.params["factors.text"]),
                factors.project_factors(encoded.audio_global, self.params["factors.audio"]),
            )
        return encoded.factors

    def factor_covariance(self, encoded: EncodedBatch) -> Tensor:
        """K x K cross-modal covariance of the batch's standardized factors."""
        text_z, audio_z = self.batch_factors(encoded)
        return factors.factor_covariance(
            factors.batch_standardize(text_z), factors.batch_standardize(audio_z)
        )

    def similarity_matrix(self, encoded: EncodedBatch, mode: str) -> Tensor:
        """All-pairs similarity under `mode`; entry (i, j) is audio i vs text j."""
        total = None
        for component in objective.mode_components(mode):
            term = self.component_matrix(encoded, component)
            total = term if total is None else ad.add(total, term)
        return total

    def component_matrix(self, encoded: EncodedBatch, component: str) -> Tensor:
        """All-pairs score of one component. THA and DCR are scored in
        (audio block, text block) tiles of TILE items, which bounds their
        intermediates; a batch of at most TILE items is a single tile."""
        if component == "DP":
            return attention.global_similarity_matrix(encoded.audio_global, encoded.text_global)
        if component == "THA":
            return _tiled(
                _row_blocks(encoded.audio_levels),
                _row_blocks(encoded.text_levels),
                lambda a, t: attention.hierarchical_similarity_matrix(a, t, self.cfg.attention),
            )
        if component == "DCR":
            text_z, audio_z = self.batch_factors(encoded)
            return _tiled(
                _row_blocks([audio_z]),
                _row_blocks([text_z]),
                lambda a, t: factor_pair_similarity_matrix(t[0], a[0], self.params),
            )
        raise ConfigError(f"unknown similarity component {component!r}")

    def check_embedding_dim(self, dim: int):
        if dim != self.cfg.embed_dim:
            raise DimensionError(
                f"embedding width {dim} does not match model width {self.cfg.embed_dim}"
            )
