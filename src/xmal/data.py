"""Synthetic paired dataset with known latent-factor structure, plus binary
container I/O for datasets and externally produced embeddings.

Each concept owns a unit vector living in exactly one factor slot of the
latent space (slots assigned round-robin). A pair samples 1..K distinct
concepts; its text tokens render those concept vectors through a fixed
orthogonal text map and its audio tokens through a (normally distinct) audio
map, cycled to fill the requested token counts, plus isotropic gaussian
noise. A dataset holds its P pairs as stacks (`Pairs`): `(P, M, D)` audio,
`(P, N, D)` text and a `(P, C)` concept mask; a pair's id is its row.

The order of the seeded draws is the dataset contract, and pinned digests
in the tests guard it: each concept's vector, the text map, then the audio
map (drawn even with `shared_projection`, which renders audio through the
text map); then, pair by pair, its label count, its labels, its N text noise
rows and its M audio noise rows (the noise only when sigma > 0).

All containers are little-endian with fixed headers so round-trips are
bit-exact, and each ends in a CRC32 of every byte before it, which `Reader`
checks once when it opens the file. After its 52-byte header, a dataset file
holds the concept mask as one u8 block, then the audio block, then the text
block, each starting 8-aligned after zero padding, so the audio and text
blocks load as aligned views of the file's buffer. An embedding file is a
`model.EncodedBatch` on disk: after its 40-byte header, one f8 block per
array in `EncodedBatch` order (3 audio levels, audio global, 3 text levels,
text global), so every block starts 8-aligned and loads as a view of the
file's buffer.

`write_file` is the package's one write path: every file it writes, from
these containers to checkpoints, logs and reports, replaces its target whole.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import check_finite, subsystem_rng
from .encoders import MIN_AUDIO_TOKENS
from .errors import ConfigError, CorruptedRecordError, DimensionError, FormatError, VersionError
from .factors import factor_width
from .model import EncodedBatch

DATASET_MAGIC = b"XMAL"
EMBEDDING_MAGIC = b"XEMB"
# 2: stacked concept mask, audio and text blocks, and a CRC32 trailer;
# 3: zero padding to 8-aligned blocks
DATASET_VERSION = 3
# 2: a CRC32 trailer; 3: one block per array and no level count
EMBEDDING_VERSION = 3
LEVELS = 3
_CHECKSUM = struct.Struct("<I")


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
        check_finite(self)
        if self.pairs < 1:
            raise ConfigError(f"pairs must be >= 1, got {self.pairs}")
        factor_width(self.embed_dim, self.factor_count)
        if self.concept_count < self.factor_count:
            raise ConfigError(
                f"need at least one concept per factor slot: "
                f"{self.concept_count} < {self.factor_count}"
            )
        if self.text_tokens < 1:
            raise ConfigError(f"text_tokens must be >= 1, got {self.text_tokens}")
        if self.audio_tokens < MIN_AUDIO_TOKENS:
            raise ConfigError(f"audio_tokens must be >= {MIN_AUDIO_TOKENS}, got {self.audio_tokens}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in u64, got {self.seed}")


@dataclass
class Pairs:
    """P aligned (audio, text) pairs, stacked; a pair's id is its row."""

    audio: np.ndarray  # (P, M, D)
    text: np.ndarray  # (P, N, D)
    concepts: np.ndarray  # (P, C) bool: the ground-truth concept labels of each pair

    def __len__(self) -> int:
        return self.audio.shape[0]

    def __getitem__(self, rows) -> Pairs:
        """The pairs at `rows`, a slice (views) or an index array (copies);
        an int row i is taken as [i], so the result is always a stack."""
        rows = [rows] if isinstance(rows, (int, np.integer)) else rows
        return Pairs(audio=self.audio[rows], text=self.text[rows], concepts=self.concepts[rows])


@dataclass
class Dataset:
    config: SynthConfig
    items: Pairs

    def __len__(self) -> int:
        return len(self.items)


def concept_slot(concept: int, factor_count: int) -> int:
    return concept % factor_count


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic pairs; identical configs give identical bytes.

    The draws keep the module's contract, which the pinned digests guard:
    concept vectors, the text map, the audio map (drawn even with
    `shared_projection`), then per pair its label count, its labels, N text
    noise rows and M audio noise rows. The label draw takes a data-dependent
    number of bits, so the loop draws pair by pair, the noise straight into
    the output stacks; rendering then works in place on them, so memory
    stays the size of the output."""
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

    audio = np.zeros((cfg.pairs, cfg.audio_tokens, dim))
    text = np.zeros((cfg.pairs, cfg.text_tokens, dim))
    concepts = np.zeros((cfg.pairs, cfg.concept_count), dtype=bool)
    for p in range(cfg.pairs):
        count = int(rng.integers(1, k + 1))
        concepts[p, rng.choice(cfg.concept_count, size=count, replace=False)] = True
        if cfg.noise_sigma > 0:
            rng.standard_normal(out=text[p])
            rng.standard_normal(out=audio[p])

    # the mask lists each pair's labels in sorted order; token t of a pair
    # renders label t mod count
    counts = concepts.sum(axis=1)
    labels = np.nonzero(concepts)[1]
    starts = np.cumsum(counts) - counts
    for stack, projection in ((text, text_map), (audio, audio_map)):
        rows = concept_vecs @ projection.T
        stack *= cfg.noise_sigma
        for t in range(stack.shape[1]):
            stack[:, t] += rows[labels[starts + t % counts]]
    return Dataset(config=cfg, items=Pairs(audio=audio, text=text, concepts=concepts))


# -- container I/O ------------------------------------------------------------

# the dataset header after its magic and version, in file order:
# (SynthConfig field, struct code, manifest key)
_DATASET_FIELDS = (
    ("pairs", "I", "pairs"),
    ("factor_count", "I", "K"),
    ("embed_dim", "I", "D"),
    ("text_tokens", "I", "N"),
    ("audio_tokens", "I", "M"),
    ("concept_count", "I", "concept_count"),
    ("seed", "Q", "seed"),
    ("noise_sigma", "d", "sigma"),
    ("shared_projection", "I", "shared_projection"),
)
_FIELD_CODES = "".join(code for _, code, _ in _DATASET_FIELDS)
_DATASET_HEADER = struct.Struct("<4sI" + _FIELD_CODES)  # magic, version, fields
ALIGN = 8


def _padding(size: int) -> bytes:
    """The zero bytes that take a block of `size` bytes, which starts
    aligned, to the next ALIGN boundary."""
    return bytes(-size % ALIGN)


class Reader:
    """Little-endian fields read in order from a whole container file (a
    dataset, an embedding set or a checkpoint), which is read in one call
    into one buffer. Its arrays are writable views of that buffer, so a load
    holds one copy of the file. Opening it checks the magic (`FormatError`),
    the format version (`VersionError`), then the CRC32 trailer over every
    byte before it (`CorruptedRecordError`). Reading into the trailer raises
    `CorruptedRecordError`."""

    def __init__(self, path: str, magic: bytes, version: int, what: str):
        with open(path, "rb") as f:
            self.buf = bytearray(os.fstat(f.fileno()).st_size)
            self.end = f.readinto(self.buf)
        self.path = path
        self.pos = 0
        (found,) = self.unpack("4s")
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
        if (found := self.u32()) != version:
            raise VersionError(f"{path}: {what} version {found}, expected {version}")
        if self.end - self.pos < _CHECKSUM.size:
            raise CorruptedRecordError(f"{path}: no room for the checksum")
        self.end -= _CHECKSUM.size
        (stored,) = _CHECKSUM.unpack_from(self.buf, self.end)
        if zlib.crc32(memoryview(self.buf)[: self.end]) != stored:
            raise CorruptedRecordError(f"{path}: checksum mismatch, the {what} is damaged")

    def _advance(self, n: int) -> int:
        """Offset of the next n bytes, which are then consumed."""
        start = self.pos
        if start + n > self.end:
            raise CorruptedRecordError(f"{self.path}: needed {n} bytes, got {self.end - start}")
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

    def array(self, shape: tuple[int, ...], dtype: str = "<f8") -> np.ndarray:
        n, size = math.prod(shape), np.dtype(dtype).itemsize
        return np.frombuffer(self.buf, dtype, n, self._advance(size * n)).reshape(shape)

    def align(self):
        """Skip the zero padding up to the next ALIGN boundary; a nonzero
        padding byte raises `CorruptedRecordError`."""
        start = self._advance(-self.pos % ALIGN)
        if any(self.buf[start : self.pos]):
            raise CorruptedRecordError(f"{self.path}: nonzero padding at byte {start}")

    def check_end(self, what: str):
        if self.pos != self.end:
            raise CorruptedRecordError(f"{self.path}: trailing bytes after the {what}")


def write_file(path: str, chunks: list):
    """Write `chunks` (bytes or contiguous arrays) to `path`, the one place
    the package opens a file for writing. They go to `<path>.<pid>.tmp` in
    the same directory, which then replaces `path` (`os.replace`), so a
    killed process leaves the old file or the new one, never a truncated
    one. There is no fsync: this survives a killed process, not a power
    loss. On any error the temporary file is removed and the error
    re-raised; an OS error about the temporary file names `path` instead."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def write_container(path: str, chunks: list):
    """Write `chunks` (bytes or contiguous arrays) and their CRC32 trailer to
    `path`."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_file(path, [*chunks, _CHECKSUM.pack(crc)])


def save_dataset(ds: Dataset, path: str, manifest_extra: dict | None = None):
    cfg, pairs = ds.config, ds.items
    expected = {
        "concepts": (cfg.pairs, cfg.concept_count),
        "audio": (cfg.pairs, cfg.audio_tokens, cfg.embed_dim),
        "text": (cfg.pairs, cfg.text_tokens, cfg.embed_dim),
    }
    for name, shape in expected.items():
        if getattr(pairs, name).shape != shape:
            raise DimensionError(
                f"{name} stack has shape {getattr(pairs, name).shape}, the config says {shape}"
            )
    # an integer field as an int, so the bool flag is 0 or 1
    fields = [
        getattr(cfg, name) if code == "d" else int(getattr(cfg, name))
        for name, code, _ in _DATASET_FIELDS
    ]
    header = _DATASET_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, *fields)
    mask = np.ascontiguousarray(pairs.concepts, dtype="u1")
    write_container(path, [
        header,
        _padding(len(header)),
        mask,
        _padding(mask.nbytes),
        np.ascontiguousarray(pairs.audio, dtype="<f8"),
        np.ascontiguousarray(pairs.text, dtype="<f8"),
    ])
    manifest = {
        "magic": DATASET_MAGIC.decode(),
        "schema_version": DATASET_VERSION,
        **{key: value for (_, _, key), value in zip(_DATASET_FIELDS, fields)},
        **(manifest_extra or {}),
    }
    text = "".join(f"{key}={value}\n" for key, value in manifest.items())
    write_file(path + ".manifest", [text.encode("utf-8")])


def load_dataset(path: str) -> Dataset:
    reader = Reader(path, DATASET_MAGIC, DATASET_VERSION, "dataset")
    fields = dict(zip((name for name, _, _ in _DATASET_FIELDS), reader.unpack("<" + _FIELD_CODES)))
    fields["shared_projection"] = bool(fields["shared_projection"])
    try:
        cfg = SynthConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    reader.align()
    mask = reader.array((cfg.pairs, cfg.concept_count), "u1")
    reader.align()
    audio = reader.array((cfg.pairs, cfg.audio_tokens, cfg.embed_dim))
    text = reader.array((cfg.pairs, cfg.text_tokens, cfg.embed_dim))
    reader.check_end("text block")
    counts = mask.sum(axis=1)
    bad = (mask > 1).any(axis=1) | (counts < 1) | (counts > cfg.factor_count)
    if bad.any():
        p = int(bad.argmax())
        top = mask[p].max()
        what = f"concept mask byte {top}" if top > 1 else f"{counts[p]} concept labels"
        raise CorruptedRecordError(f"{path}: pair {p} has {what}")
    return Dataset(config=cfg, items=Pairs(audio=audio, text=text, concepts=mask.astype(bool)))


# -- embedding containers ------------------------------------------------------


def save_embeddings(encoded: EncodedBatch, path: str):
    """Write the batch's eight arrays in `EncodedBatch` order, one block each."""
    if len(encoded.audio_levels) != LEVELS or len(encoded.text_levels) != LEVELS:
        raise DimensionError(
            f"embedding sets carry {LEVELS} levels, got {len(encoded.audio_levels)} audio "
            f"and {len(encoded.text_levels)} text"
        )
    audio, text = encoded.audio_global.value, encoded.text_global.value
    if audio.ndim != 2 or text.shape != audio.shape:
        raise DimensionError(
            f"globals must be (items, D) alike, got audio {audio.shape} and text {text.shape}"
        )
    items, dim = audio.shape
    for side, levels in (("audio", encoded.audio_levels), ("text", encoded.text_levels)):
        for lvl, x in enumerate(levels):
            shape = x.value.shape
            if len(shape) != 3 or shape[0] != items or shape[2] != dim or shape[1] < 1:
                raise DimensionError(
                    f"{side} level {lvl} shape {shape} is not ({items}, tokens >= 1, {dim})"
                )
    fields = [
        *encoded.audio_levels, encoded.audio_global, *encoded.text_levels, encoded.text_global
    ]
    write_container(path, [
        EMBEDDING_MAGIC,
        struct.pack("<III", EMBEDDING_VERSION, items, dim),
        struct.pack(f"<{LEVELS}I", *(x.value.shape[1] for x in encoded.audio_levels)),
        struct.pack(f"<{LEVELS}I", *(x.value.shape[1] for x in encoded.text_levels)),
        *(np.ascontiguousarray(x.value, dtype="<f8") for x in fields),
    ])


def load_embeddings(path: str) -> EncodedBatch:
    """The batch a `save_embeddings` file holds, as constant tensors over
    views of the file's buffer."""
    reader = Reader(path, EMBEDDING_MAGIC, EMBEDDING_VERSION, "embedding set")
    items, dim = reader.unpack("<II")
    audio_counts = reader.unpack(f"<{LEVELS}I")
    text_counts = reader.unpack(f"<{LEVELS}I")
    if 0 in audio_counts or 0 in text_counts:
        raise FormatError(
            f"{path}: every level needs a token, got audio {audio_counts} and text {text_counts}"
        )
    audio_levels = [Tensor(reader.array((items, c, dim))) for c in audio_counts]
    audio_global = Tensor(reader.array((items, dim)))
    text_levels = [Tensor(reader.array((items, c, dim))) for c in text_counts]
    text_global = Tensor(reader.array((items, dim)))
    reader.check_end("text global block")
    return EncodedBatch(audio_levels, audio_global, text_levels, text_global)
