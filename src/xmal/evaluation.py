"""Retrieval evaluation: R@k in both directions over any similarity mode,
plus factor-covariance diagnostics.

Ranking is by descending score with a stable ascending-index tie-break, so
reports are deterministic. The synthetic protocol is strictly one caption
per audio clip; reports carry that note plus the config hash and seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import factors
from .autodiff import Tensor, Workspace, no_grad
from .confidence import matched_confidences
from .data import EmbeddingSet
from .errors import BatchTooSmallError, ContractError, DimensionError
from .model import EncodedBatch, Model
from .objective import mode_components

DIRECTIONS = ("text_to_audio", "audio_to_text")
REPORT_MAGIC = b"XRPT"
REPORT_VERSION = 1
PROTOCOL_NOTE = "one_caption_per_audio"
TILE = 64  # items per side of a THA or DCR score tile


@dataclass
class RetrievalReport:
    mode: str
    direction: str
    r_at: dict[int, float]
    size: int
    seed: int
    config_hash: str
    protocol: str = PROTOCOL_NOTE


@dataclass
class DcrDiagnostics:
    covariance: np.ndarray  # (K, K)
    probabilities: np.ndarray  # (K, K), column-normalized where defined
    defined_columns: np.ndarray  # (K,) bool
    confidence_items: np.ndarray  # (B, K) matched-pair confidences
    confidence_mean: np.ndarray  # (K,)


def recall_at_k(s: np.ndarray, k, direction: str):
    """Percentage of queries whose true match (index = query index) ranks in
    the top k by descending score. `k` is an int, giving a float, or a
    sequence of ints, giving {k: R@k}; the ranks are computed once per call."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {s.shape}")
    n = s.shape[0]
    single = isinstance(k, (int, np.integer))
    ks = (k,) if single else tuple(k)
    for kk in ks:
        if not (1 <= kk <= n):
            raise ContractError(f"k must be in [1, {n}], got {kk}")
    if direction not in DIRECTIONS:
        raise ContractError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    axis = 1 if direction == "audio_to_text" else 0  # the axis along a query's candidates
    ranks = _match_ranks(s, axis)
    r_at = {kk: 100.0 * int((ranks < kk).sum()) / n for kk in ks}
    return r_at[k] if single else r_at


def _match_ranks(s: np.ndarray, axis: int) -> np.ndarray:
    """Position of each query's true match (its diagonal entry) when its
    candidates, which lie along `axis`, are sorted by descending score, ties
    by ascending index and NaN last. That is the count of higher scores plus
    equal scores at a lower index; for a NaN match, the count of non-NaN
    scores plus NaN scores at a lower index.

    A NaN candidate is neither higher than nor equal to a non-NaN match, so
    the NaN terms are computed only when some match is NaN, and the tie term
    only when some match equals another of its query's candidates."""
    diag = np.diagonal(s).copy()  # contiguous, so the broadcasts below stay fast
    match = np.expand_dims(diag, axis)
    index = np.arange(s.shape[0])

    def before():  # candidates at a lower index than their query
        return np.expand_dims(index, 1 - axis) < np.expand_dims(index, axis)

    nan_match = np.isnan(diag)
    ranks = np.count_nonzero(s > match, axis=axis)
    equal = s == match
    # Every non-NaN match equals itself; any further equal entry is a tie.
    if np.count_nonzero(equal) > diag.size - np.count_nonzero(nan_match):
        ranks += np.count_nonzero(equal & before(), axis=axis)
    if nan_match.any():
        nan = np.isnan(s)
        nan_ranks = np.count_nonzero(~nan, axis=axis) + np.count_nonzero(nan & before(), axis=axis)
        ranks = np.where(nan_match, nan_ranks, ranks)
    return ranks


def encoded_from_embeddings(es: EmbeddingSet) -> EncodedBatch:
    """Stack a loaded embedding file into batched constants."""
    audio_levels = [
        Tensor(np.stack([item.audio_levels[lvl] for item in es.items])) for lvl in range(3)
    ]
    text_levels = [
        Tensor(np.stack([item.text_levels[lvl] for item in es.items])) for lvl in range(3)
    ]
    return EncodedBatch(
        audio_levels=audio_levels,
        audio_global=Tensor(np.stack([item.audio_global for item in es.items])),
        text_levels=text_levels,
        text_global=Tensor(np.stack([item.text_global for item in es.items])),
    )


def _blocks(n: int) -> list[slice]:
    """Row ranges of at most TILE rows covering 0..n."""
    return [slice(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]


def _component_scores(model: Model, encoded: EncodedBatch, component: str) -> np.ndarray:
    """(B, B) scores of one component. DP is one op. THA and DCR are scored
    tape-free in TILE x TILE tiles through `Model.strip_scorer`, which
    bounds their intermediates: strip by strip of TILE audio rows, each
    against every text block, with one workspace for the whole component,
    into one preallocated matrix."""
    if component == "DP":
        return model.component_matrix(encoded, component).value
    blocks = _blocks(encoded.batch)
    strip = model.strip_scorer(encoded, component, blocks)
    out = np.empty((encoded.batch, encoded.batch))
    ws = Workspace()
    for a in blocks:
        tile = strip(a, ws)
        for t in blocks:
            out[a, t] = tile(t)
    return out


@no_grad()
def evaluate(
    model: Model,
    dataset=None,
    embeddings: EmbeddingSet | None = None,
    modes: tuple[str, ...] = ("THA+DCR",),
    ks: tuple[int, ...] = (1, 5, 10),
    seed: int = 0,
    config_hash: str = "",
) -> list[RetrievalReport]:
    """One report per (mode, direction). Either a dataset (encoded by the
    model) or a pre-computed embedding set feeds the similarity matrices.

    Runs tape-free: THA and DCR are scored by their array-level scorers in
    tiles, strip by strip (see `_component_scores`).
    Each distinct component (DP, THA, DCR) is scored once per call and kept
    only until the last mode that needs it. A mode's matrix is the sum of
    its components in order, accumulated in place into its first term when
    no later mode needs that term, else into one buffer that every
    multi-component mode reuses. The matrices equal bit for bit what
    `Model.similarity_matrix` gives on the same tiles, taped or not. One
    whole-batch THA op differs from them by BLAS rounding (a few 1e-15) in
    a ragged last text block, because the bits of the cosine matmul depend
    on its shape."""
    if embeddings is not None:
        model.check_embedding_dim(embeddings.dim)
        encoded = encoded_from_embeddings(embeddings)
    elif dataset is not None and len(dataset.items) > 0:
        encoded = model.encode_pairs(dataset.items)
    else:
        raise ContractError("evaluate needs a non-empty dataset or an embedding set")
    size = encoded.batch
    for k in ks:
        if not (1 <= k <= size):
            raise ContractError(f"k must be in [1, {size}], got {k}")
    last_use = {c: i for i, mode in enumerate(modes) for c in mode_components(mode)}
    scores: dict[str, np.ndarray] = {}
    total = None  # the sum buffer of multi-component modes whose first term is kept
    reports = []
    for i, mode in enumerate(modes):
        parts = mode_components(mode)
        for component in parts:
            if component not in scores:
                scores[component] = _component_scores(model, encoded, component)
        s = scores[parts[0]]
        if len(parts) > 1:
            if last_use[parts[0]] > i:  # a later mode needs the first term as it is
                if total is None:
                    total = np.empty((size, size))
                total[...] = s
                s = total
            for component in parts[1:]:
                s += scores[component]
        for component in parts:
            if last_use[component] == i:
                del scores[component]
        for direction in DIRECTIONS:
            reports.append(
                RetrievalReport(
                    mode=mode,
                    direction=direction,
                    r_at=recall_at_k(s, ks, direction),
                    size=size,
                    seed=seed,
                    config_hash=config_hash,
                )
            )
        del s  # a single component's matrix is freed before the next mode scores
    return reports


@no_grad()
def dcr_diagnostics(model: Model, items) -> DcrDiagnostics:
    """Covariance heat values, match probabilities, and matched-pair
    confidence statistics for a batch of >= 2 items."""
    if len(items) < 2:
        raise BatchTooSmallError(f"diagnostics need a batch of >= 2, got {len(items)}")
    encoded = model.encode_pairs(items)
    cov = model.factor_covariance(encoded).value
    probs, defined = factors.match_probabilities(cov)
    text_z, audio_z = model.batch_factors(encoded)
    confidence_items = matched_confidences(text_z.value, audio_z.value, model.params)
    return DcrDiagnostics(
        covariance=cov,
        probabilities=probs,
        defined_columns=defined,
        confidence_items=confidence_items,
        confidence_mean=confidence_items.mean(axis=0),
    )


# -- report emission -----------------------------------------------------------


def write_report_text(path: str, reports: list[RetrievalReport]):
    with open(path, "w", encoding="utf-8") as f:
        if reports:
            f.write(f"config_hash={reports[0].config_hash}\n")
            f.write(f"seed={reports[0].seed}\n")
            f.write(f"eval_size={reports[0].size}\n")
            f.write(f"protocol={reports[0].protocol}\n")
        for r in reports:
            for k in sorted(r.r_at):
                f.write(f"{r.mode}.{r.direction}.r@{k}={r.r_at[k]!r}\n")


def write_report_binary(path: str, reports: list[RetrievalReport]):
    with open(path, "wb") as f:
        f.write(REPORT_MAGIC)
        f.write(struct.pack("<II", REPORT_VERSION, len(reports)))
        for r in reports:
            for text in (r.mode, r.direction, r.config_hash, r.protocol):
                blob = text.encode("utf-8")
                f.write(struct.pack("<I", len(blob)))
                f.write(blob)
            f.write(struct.pack("<QII", r.seed, r.size, len(r.r_at)))
            for k in sorted(r.r_at):
                f.write(struct.pack("<Id", k, r.r_at[k]))
