"""The trainable dual-stream model: encoder stacks, factor projection banks,
and the confidence head, with batched encoding and all-pairs scoring (one
pair is a 1 x 1 batch)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attention, autodiff as ad, encoders, factors, objective
from .attention import AttentionConfig
from .confidence import factor_pair_similarity_matrix, factor_rows
from .autodiff import Tensor
from .config import subsystem_rng
from .errors import ConfigError, DimensionError
from .objective import ObjectiveConfig


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


def param_specs(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], int | str]]:
    """Every parameter of the model, in draw order: name -> (shape, init),
    where init is a fan-in (a uniform draw in +-1/sqrt(fan-in)), "zeros" or
    "identity" (a stack of identity matrices)."""
    d, k, w, h = cfg.embed_dim, cfg.factor_count, cfg.factor_dim, cfg.hidden_width
    text, audio = encoders.TEXT_BLOCKS, sum(encoders.AUDIO_STAGE_BLOCKS)
    return {
        "text.w": ((text, d, d), d),
        "text.b": ((text, d), "zeros"),
        "text.readout": ((d,), "zeros"),
        "audio.w": ((audio, d, d), d),
        "audio.b": ((audio, d), "zeros"),
        # An identity start keeps merged tokens in the same space as text
        # tokens; a small random map would scramble directions before training.
        "audio.merge": ((len(encoders.AUDIO_STAGE_BLOCKS) - 1, d, d), "identity"),
        "factors.text": ((k, w, d), d),
        "factors.audio": ((k, w, d), d),
        "conf.w1": ((h, 2 * w), 2 * w),
        "conf.b1": ((h,), "zeros"),
        "conf.w2": ((1, h), h),
        "conf.b2": ((1,), "zeros"),
    }


def init_parameters(specs: dict, rng: np.random.Generator) -> dict[str, Tensor]:
    """The parameters of `specs`, each random bank drawn from `rng` in one
    call, in table order."""
    params = {}
    for name, (shape, init) in specs.items():
        if init == "zeros":
            value = np.zeros(shape)
        elif init == "identity":
            value = np.tile(np.eye(shape[-1]), (shape[0], 1, 1))
        else:
            bound = 1.0 / math.sqrt(init)
            value = rng.uniform(-bound, bound, size=shape)
        params[name] = ad.parameter(value, name)
    return params


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

    @property
    def dim(self) -> int:
        return self.audio_global.value.shape[1]

    def rows(self, audio: slice, text: slice) -> EncodedBatch:
        """Audio items `audio` and text items `text` as a batch of constants."""
        return EncodedBatch(
            audio_levels=[Tensor(x.value[audio]) for x in self.audio_levels],
            audio_global=Tensor(self.audio_global.value[audio]),
            text_levels=[Tensor(x.value[text]) for x in self.text_levels],
            text_global=Tensor(self.text_global.value[text]),
        )


class Model:
    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "Model":
        """A freshly initialized model: `param_specs(cfg)` drawn from the
        seed's "init" generator."""
        return cls(cfg, init_parameters(param_specs(cfg), subsystem_rng(seed, "init")))

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], attention: AttentionConfig) -> "Model":
        """The model whose parameters are copies of `tensors` (a checkpoint's):
        D, K and h are the first axes of the text readout, the text factor
        bank and the first confidence layer, and a DimensionError names any
        row of `param_specs` that is missing or of another shape."""

        def tensor(name: str) -> np.ndarray:
            if name not in tensors:
                raise DimensionError(f"checkpoint is missing parameter {name!r}")
            return tensors[name]

        dims = []
        for name, axes in (("text.readout", 1), ("factors.text", 3), ("conf.w1", 2)):
            if len(shape := tensor(name).shape) != axes:
                raise DimensionError(f"checkpoint parameter {name!r} has shape {shape}, not {axes}-d")
            dims.append(shape[0])
        cfg = ModelConfig(*dims, attention=attention)
        params = {}
        for name, (shape, _) in param_specs(cfg).items():
            if (arr := tensor(name)).shape != shape:
                raise DimensionError(
                    f"checkpoint parameter {name!r} has shape {arr.shape}, model expects {shape}"
                )
            params[name] = ad.parameter(arr.copy(), name)
        return cls(cfg, params)

    def parameters(self) -> list[Tensor]:
        return [self.params[name] for name in sorted(self.params)]

    def encode_arrays(self, audio: np.ndarray, text: np.ndarray) -> EncodedBatch:
        """Encode (B, M, D) audio and (B, N, D) text stacks as one batch."""
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
        """K x K cross-modal covariance of the batch's standardized factors,
        one op over the raw stacks."""
        return factors.factor_covariance(*self.batch_factors(encoded))

    def similarity_matrix(self, encoded: EncodedBatch, mode: str) -> Tensor:
        """All-pairs similarity under `mode`, the sum of its components' scores
        over the whole batch: one op per level (THA) or one op (DP, DCR).
        Entry (i, j) is audio i vs text j."""
        total = None
        for component in objective.mode_components(mode):
            if component == "DP":
                term = attention.global_similarity_matrix(encoded.audio_global, encoded.text_global)
            elif component == "THA":
                term = attention.hierarchical_similarity_matrix(
                    encoded.audio_levels, encoded.text_levels, self.cfg.attention
                )
            else:  # DCR
                term = factor_pair_similarity_matrix(*self.batch_factors(encoded), self.params)
            total = term if total is None else ad.add(total, term)
        return total

    def losses(
        self, encoded: EncodedBatch, cfg: ObjectiveConfig
    ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """The batch's losses under `cfg`, (loss_s, loss_d, loss_a, total):
        NT-Xent over the mode's similarity matrix, and the decoupling and
        alignment losses of the factor covariance, computed only if alpha or
        beta weighs them (else constant zeros). Training steps on the total;
        `grad-check` differentiates all four."""
        loss_s = objective.nt_xent(self.similarity_matrix(encoded, cfg.similarity_mode), cfg.tau)
        if cfg.alpha > 0 or cfg.beta > 0:
            cov = self.factor_covariance(encoded)  # shares the DCR score's projections
            loss_d, loss_a = factors.decoupling_loss(cov), factors.alignment_loss(cov)
        else:
            loss_d = loss_a = Tensor(0.0)
        return loss_s, loss_d, loss_a, objective.total_loss(loss_s, loss_d, loss_a, cfg)

    def strip_scorer(self, encoded: EncodedBatch, component: str, audio_start: int = 0):
        """Tape-free scoring of one component in tiles, for eval: returns
        `strip(a)`, which prepares audio rows `a` and returns `tile(t)`, the
        scores of those rows against text rows `t`. Both index the whole
        batch: `encoded` holds every text row, and audio rows from
        `audio_start` on (an eval worker's own). The component's `prepare`
        gives one side's per-item terms of some rows (DP: unit globals; THA:
        `attention.level_rows` per level; DCR: `confidence.factor_rows` of
        the projected factors), and its `score` one tile from two prepared
        sides. A text block is prepared on the first tile that reads it and
        kept by its start, so a tile reads no text row outside its own
        block: eval's workers score their diagonal tiles before they meet,
        while the others' text rows may be unwritten. THA and DCR score with the component's op on one workspace
        that the scorer owns and that holds every tile's intermediates, so
        its tiles allocate only on the first pass; a tile is a fresh array,
        equal bit for bit to `similarity_matrix(rows, component)`. Run it
        under `no_grad`."""
        ws = ad.Workspace()
        if component == "THA":
            sides = {
                "audio": [x.value for x in encoded.audio_levels],
                "text": [x.value for x in encoded.text_levels],
            }

            def prepare(rows, side):
                return [attention.level_rows(x) for x in rows]

            def score(audio, text):
                return attention.hierarchical_similarity_matrix(
                    audio, text, self.cfg.attention, ws
                ).value

        else:
            sides = {"audio": [encoded.audio_global.value], "text": [encoded.text_global.value]}
            if component == "DP":

                def prepare(rows, side):
                    return ad.normalized(rows[0])[0]

                def score(audio, text):
                    return audio @ text.T

            else:  # DCR

                def prepare(rows, side):
                    z = factors.project_factors(rows[0], self.params[f"factors.{side}"])
                    return factor_rows(z, self.params, side)

                def score(audio, text):
                    return factor_pair_similarity_matrix(text, audio, self.params, ws).value

        text = {}  # text block start -> its prepared rows

        def strip(a: slice):
            own = slice(a.start - audio_start, a.stop - audio_start)
            audio = prepare([x[own] for x in sides["audio"]], "audio")

            def tile(t: slice) -> np.ndarray:
                if t.start not in text:
                    text[t.start] = prepare([x[t] for x in sides["text"]], "text")
                return score(audio, text[t.start])

            return tile

        return strip
