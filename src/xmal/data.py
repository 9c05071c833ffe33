"""Synthetic paired dataset with known latent-factor structure, plus binary
container I/O for datasets and externally produced embeddings.

Each concept owns a unit vector living in exactly one factor slot of the
latent space (slots assigned round-robin). A pair samples 1..K distinct
concepts; its text tokens render those concept vectors through a fixed
orthogonal text map and its audio tokens through a (normally distinct) audio
map, cycled to fill the requested token counts, plus isotropic gaussian
noise. All containers are little-endian with fixed headers so round-trips
are bit-exact.

An embedding file holds one fixed-size record per item (3 audio levels, audio
global, 3 text levels, text global), written and read as one (items, record
width) block.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import subsystem_rng
from .errors import ConfigError, CorruptedRecordError, DimensionError, FormatError, VersionError

DATASET_MAGIC = b"XMAL"
EMBEDDING_MAGIC = b"XEMB"
SCHEMA_VERSION = 1
LEVELS = 3


@dataclass(frozen=True)
class SynthConfig:
    pairs: int
    concept_count: int = 16
    factor_count: int = 8
    embed_dim: int = 32
    text_tokens: int = 6
    audio_tokens: int = 8
    noise_sigma: float = 0.1
    seed: int = 0
    shared_projection: bool = False

    def __post_init__(self):
        if self.pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {self.pairs}")
        if self.factor_count < 1 or self.embed_dim % self.factor_count != 0:
            raise ConfigError(
                f"embed dim {self.embed_dim} must be divisible by factor count {self.factor_count}"
            )
        if self.concept_count < self.factor_count:
            raise ConfigError(
                f"need at least one concept per factor slot: "
                f"{self.concept_count} < {self.factor_count}"
            )
        if self.text_tokens < 1:
            raise ConfigError(f"text_tokens must be >= 1, got {self.text_tokens}")
        if self.audio_tokens < 4:
            raise ConfigError(f"audio_tokens must be >= 4, got {self.audio_tokens}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in u64, got {self.seed}")


@dataclass
class PairItem:
    pair_id: int
    concepts: tuple[int, ...]  # ground-truth concept labels, sorted
    audio: np.ndarray  # (M, D)
    text: np.ndarray  # (N, D)


@dataclass
class Dataset:
    config: SynthConfig
    items: list[PairItem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def concept_slot(concept: int, factor_count: int) -> int:
    return concept % factor_count


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic pairs; identical configs give identical bytes."""
    rng = subsystem_rng(cfg.seed, "data")
    dim, k = cfg.embed_dim, cfg.factor_count
    width = dim // k

    concept_vecs = np.zeros((cfg.concept_count, dim))
    for c in range(cfg.concept_count):
        slot = concept_slot(c, k)
        v = rng.normal(size=width)
        concept_vecs[c, slot * width : (slot + 1) * width] = v / np.linalg.norm(v)

    text_map = _orthogonal(rng, dim)
    audio_map = _orthogonal(rng, dim)
    if cfg.shared_projection:
        audio_map = text_map

    items = []
    for pair_id in range(cfg.pairs):
        count = int(rng.integers(1, k + 1))
        concepts = tuple(sorted(rng.choice(cfg.concept_count, size=count, replace=False).tolist()))
        latent = concept_vecs[list(concepts)]  # (count, D)

        def render(projection, tokens):
            rows = latent[np.arange(tokens) % count] @ projection.T
            if cfg.noise_sigma > 0:
                rows = rows + cfg.noise_sigma * rng.normal(size=rows.shape)
            return rows

        text = render(text_map, cfg.text_tokens)
        audio = render(audio_map, cfg.audio_tokens)
        items.append(PairItem(pair_id=pair_id, concepts=concepts, audio=audio, text=text))
    return Dataset(config=cfg, items=items)


# -- container I/O ------------------------------------------------------------

_DATASET_HEADER = struct.Struct("<4sIIIIIIIQdI")  # magic, version, pairs, K, D, N, M,
# concepts, seed, sigma, shared flag


class Reader:
    """Little-endian fields read in order from a whole container file (a
    dataset, an embedding set or a checkpoint), which is read in one call.
    Reading past the end raises `CorruptedRecordError`."""

    def __init__(self, path: str):
        with open(path, "rb") as f:
            self.buf = f.read()
        self.path = path
        self.pos = 0

    def _advance(self, n: int) -> int:
        """Offset of the next n bytes, which are then consumed."""
        start = self.pos
        if start + n > len(self.buf):
            raise CorruptedRecordError(
                f"{self.path}: needed {n} bytes, got {len(self.buf) - start}"
            )
        self.pos = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt)))

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def text(self, what: str) -> str:
        """A u32-length-prefixed UTF-8 string; `what` names it in errors."""
        (blob,) = self.unpack(f"{self.u32()}s")
        try:
            return blob.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptedRecordError(
                f"{self.path}: {what} is not valid UTF-8 ({e.reason})"
            ) from e

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        n = math.prod(shape)
        return np.frombuffer(self.buf, "<f8", n, self._advance(8 * n)).reshape(shape).copy()

    def check_end(self, what: str):
        if self.pos != len(self.buf):
            raise CorruptedRecordError(f"{self.path}: trailing bytes after the {what}")


def check_magic(reader: Reader, expected: bytes):
    (magic,) = reader.unpack("4s")
    if magic != expected:
        raise FormatError(f"{reader.path}: bad magic {magic!r}, expected {expected!r}")


def save_dataset(ds: Dataset, path: str, manifest_extra: dict | None = None):
    cfg = ds.config
    with open(path, "wb") as f:
        f.write(
            _DATASET_HEADER.pack(
                DATASET_MAGIC,
                SCHEMA_VERSION,
                cfg.pairs,
                cfg.factor_count,
                cfg.embed_dim,
                cfg.text_tokens,
                cfg.audio_tokens,
                cfg.concept_count,
                cfg.seed,
                cfg.noise_sigma,
                int(cfg.shared_projection),
            )
        )
        for item in ds.items:
            f.write(struct.pack("<I", len(item.concepts)))
            f.write(struct.pack(f"<{len(item.concepts)}I", *item.concepts))
            f.write(np.ascontiguousarray(item.audio, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(item.text, dtype="<f8").tobytes())
    manifest = dataset_manifest(cfg)
    manifest.update(manifest_extra or {})
    write_manifest(path + ".manifest", manifest)


def dataset_manifest(cfg: SynthConfig) -> dict[str, object]:
    return {
        "magic": DATASET_MAGIC.decode(),
        "schema_version": SCHEMA_VERSION,
        "pairs": cfg.pairs,
        "K": cfg.factor_count,
        "D": cfg.embed_dim,
        "N": cfg.text_tokens,
        "M": cfg.audio_tokens,
        "concept_count": cfg.concept_count,
        "seed": cfg.seed,
        "sigma": cfg.noise_sigma,
        "shared_projection": int(cfg.shared_projection),
    }


def write_manifest(path: str, entries: dict[str, object]):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in entries.items():
            f.write(f"{key}={value}\n")


def load_dataset(path: str) -> Dataset:
    reader = Reader(path)
    check_magic(reader, DATASET_MAGIC)
    version = reader.u32()
    if version != SCHEMA_VERSION:
        raise VersionError(f"{path}: schema version {version}, expected {SCHEMA_VERSION}")
    pairs, k, dim, n, m, concepts, seed, sigma, shared = reader.unpack("<IIIIIIQdI")
    cfg = SynthConfig(
        pairs=pairs,
        concept_count=concepts,
        factor_count=k,
        embed_dim=dim,
        text_tokens=n,
        audio_tokens=m,
        noise_sigma=sigma,
        seed=seed,
        shared_projection=bool(shared),
    )
    items = []
    for pair_id in range(pairs):
        count = reader.u32()
        if count < 1 or count > k:
            raise CorruptedRecordError(f"{path}: pair {pair_id} has {count} concept labels")
        labels = reader.unpack(f"<{count}I")
        tokens = reader.array((m + n, dim))  # audio rows, then text rows
        items.append(PairItem(pair_id=pair_id, concepts=labels, audio=tokens[:m], text=tokens[m:]))
    reader.check_end("last record")
    return Dataset(config=cfg, items=items)


# -- embedding containers ------------------------------------------------------


@dataclass
class EmbeddingSet:
    """Encoder outputs of B items, stacked as `model.EncodedBatch` holds them.
    The item count, width D and token counts are the arrays' shapes."""

    audio_levels: list[np.ndarray]  # 3 x (B, M_l, D)
    audio_global: np.ndarray  # (B, D)
    text_levels: list[np.ndarray]  # 3 x (B, N_l, D)
    text_global: np.ndarray  # (B, D)

    def __len__(self) -> int:
        return self.audio_global.shape[0]

    @property
    def dim(self) -> int:
        return self.audio_global.shape[1]


def save_embeddings(es: EmbeddingSet, path: str):
    if len(es.audio_levels) != LEVELS or len(es.text_levels) != LEVELS:
        raise DimensionError(
            f"embedding sets carry {LEVELS} levels, got {len(es.audio_levels)} audio "
            f"and {len(es.text_levels)} text"
        )
    if es.audio_global.ndim != 2 or es.text_global.shape != es.audio_global.shape:
        raise DimensionError(
            f"globals must be (items, D) alike, got audio {es.audio_global.shape} "
            f"and text {es.text_global.shape}"
        )
    items, dim = es.audio_global.shape
    for side, levels in (("audio", es.audio_levels), ("text", es.text_levels)):
        for lvl, arr in enumerate(levels):
            if arr.ndim != 3 or arr.shape[0] != items or arr.shape[2] != dim or arr.shape[1] < 1:
                raise DimensionError(
                    f"{side} level {lvl} shape {arr.shape} is not ({items}, tokens >= 1, {dim})"
                )
    fields = [*es.audio_levels, es.audio_global, *es.text_levels, es.text_global]
    records = np.concatenate(
        [x.reshape(items, math.prod(x.shape[1:])) for x in fields], axis=1, dtype="<f8"
    )
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(struct.pack("<IIII", SCHEMA_VERSION, items, dim, LEVELS))
        f.write(struct.pack(f"<{LEVELS}I", *(x.shape[1] for x in es.audio_levels)))
        f.write(struct.pack(f"<{LEVELS}I", *(x.shape[1] for x in es.text_levels)))
        f.write(records.tobytes())


def load_embeddings(path: str) -> EmbeddingSet:
    reader = Reader(path)
    check_magic(reader, EMBEDDING_MAGIC)
    version = reader.u32()
    if version != SCHEMA_VERSION:
        raise VersionError(f"{path}: schema version {version}, expected {SCHEMA_VERSION}")
    count, dim, levels = reader.unpack("<III")
    if levels != LEVELS:
        raise FormatError(f"{path}: {levels} levels declared, expected {LEVELS}")
    audio_counts = reader.unpack(f"<{LEVELS}I")
    text_counts = reader.unpack(f"<{LEVELS}I")
    if 0 in audio_counts or 0 in text_counts:
        raise FormatError(
            f"{path}: every level needs a token, got audio {audio_counts} and text {text_counts}"
        )
    shapes = [*((c, dim) for c in audio_counts), (dim,), *((c, dim) for c in text_counts), (dim,)]
    widths = [math.prod(shape) for shape in shapes]
    records = reader.array((count, sum(widths)))
    reader.check_end("last item")
    del reader  # frees the file's bytes before the columns are copied out
    columns = np.split(records, np.cumsum(widths)[:-1], axis=1)
    fields = [np.ascontiguousarray(x).reshape(count, *shape) for x, shape in zip(columns, shapes)]
    return EmbeddingSet(
        audio_levels=fields[:LEVELS],
        audio_global=fields[LEVELS],
        text_levels=fields[LEVELS + 1 : -1],
        text_global=fields[-1],
    )


def shared_concepts(a: PairItem, b: PairItem) -> int:
    """Ground-truth overlap oracle used by separability checks."""
    return len(set(a.concepts) & set(b.concepts))
