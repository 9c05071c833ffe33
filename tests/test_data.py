"""Synthetic generation determinism and container round-trips."""

import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

from containers import body, sealed, sealed_file
from xmal.autodiff import Tensor
from xmal.data import (
    _DATASET_HEADER,
    Dataset,
    Pairs,
    SynthConfig,
    concept_slot,
    generate,
    load_dataset,
    load_embeddings,
    save_dataset,
    save_embeddings,
)
from xmal.factors import factor_width
from xmal.model import EncodedBatch
from xmal.errors import (
    ConfigError, CorruptedRecordError, DimensionError, FormatError, VersionError,
)


def small_cfg(**overrides):
    base = dict(
        pairs=6, concept_count=8, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, noise_sigma=0.1, seed=3,
    )
    base.update(overrides)
    return SynthConfig(**base)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if a.config != b.config:
        return False
    return all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in (
            (a.items.audio, b.items.audio),
            (a.items.text, b.items.text),
            (a.items.concepts, b.items.concepts),
        )
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(embed_dim=15)  # not divisible by K
    with pytest.raises(ConfigError):
        small_cfg(audio_tokens=3)
    with pytest.raises(ConfigError):
        small_cfg(concept_count=2)
    with pytest.raises(ConfigError):
        small_cfg(noise_sigma=-0.5)
    with pytest.raises(ConfigError):
        small_cfg(pairs=0)


@pytest.mark.parametrize("dim, k", [(0, 1), (-8, 2)])
def test_a_width_below_one_is_rejected(dim, k):
    with pytest.raises(ConfigError, match=f"embed dim must be >= 1, got {dim}"):
        factor_width(dim, k)
    with pytest.raises(ConfigError, match=f"embed dim must be >= 1, got {dim}"):
        small_cfg(embed_dim=dim, factor_count=k)


def test_a_dataset_file_of_width_zero_is_rejected(tmp_path):
    path = tmp_path / "d.xmal"  # one pair, one factor, empty audio and text blocks
    header = _DATASET_HEADER.pack(b"XMAL", 3, 1, 1, 0, 1, 4, 8, 0, 0.1, 0)
    path.write_bytes(sealed(header + bytes(4) + bytes([1] + [0] * 7)))
    with pytest.raises(ConfigError, match="embed dim must be >= 1, got 0"):
        load_dataset(str(path))


def test_a_dataset_file_with_a_nan_sigma_is_rejected(tmp_path):
    """A saved dataset whose stored sigma is rewritten to NaN, resealed."""
    path = str(tmp_path / "d.xmal")
    save_dataset(generate(small_cfg()), path)
    blob = bytearray(body(open(path, "rb").read()))
    struct.pack_into("<d", blob, 40, float("nan"))  # after magic, 7 u32s and the u64 seed
    open(path, "wb").write(sealed(blob))
    with pytest.raises(ConfigError, match="noise_sigma must be finite, got nan"):
        load_dataset(path)


def test_generation_is_bit_deterministic():
    a = generate(small_cfg())
    b = generate(small_cfg())
    assert datasets_equal(a, b)


def test_different_seeds_differ():
    a = generate(small_cfg(seed=1))
    b = generate(small_cfg(seed=2))
    assert not datasets_equal(a, b)


TOY_WORLD = dict(pairs=288, factor_count=8, embed_dim=32, seed=11)  # README's toy run


@pytest.mark.parametrize(
    "cfg, digest",
    [
        (
            SynthConfig(**TOY_WORLD),
            "b9375ed1f908393686111638ca91e4de44f599e5c3ca51184951b8ca56d27a73",
        ),
        (
            SynthConfig(**TOY_WORLD, noise_sigma=0.0),
            "5121b9a4f29639da871c62a6bba4956184fa4c84d7960b60b16d9ce371f32225",
        ),
        (
            SynthConfig(**TOY_WORLD, shared_projection=True),
            "49d051c5cd832c42ed3b01de9c84e160b2ab0d080e04ce8bb6b1b0709c57dfe4",
        ),
        (
            SynthConfig(
                pairs=40, concept_count=9, factor_count=4, embed_dim=16,
                text_tokens=3, audio_tokens=5, seed=11,
            ),
            "4781afe5d9654e2df2ab96ab9ae83a18b4465d2e67525d89bf6828577a4a5f8b",
        ),
        (
            SynthConfig(**{**TOY_WORLD, "pairs": 1}),
            "2795bdeef7a35625de9f4d3128ce318bd44298958e71b8a00813656a548957ba",
        ),
    ],
)
def test_generated_datasets_are_pinned(cfg, digest):
    """The seeded draw order and rendering, audio, text and concept stacks
    pinned byte for byte with their shapes."""
    items = generate(cfg).items
    h = hashlib.sha256()
    for x in (items.audio, items.text, items.concepts):
        h.update(repr(x.shape).encode())
        h.update(x.tobytes())
    assert h.hexdigest() == digest


def test_saved_toy_world_file_is_pinned(tmp_path):
    path = tmp_path / "d.xmal"
    save_dataset(generate(SynthConfig(**TOY_WORLD)), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "174601d520a9fd965a0d1ef4bc2b1ad1fab521a56c5826a7e366437c0da7e80b"


def test_generate_peaks_at_the_size_of_its_output():
    """Rendering works in place on the output stacks: no full-size noise,
    gathered-row or sum temporaries."""
    cfg = SynthConfig(**{**TOY_WORLD, "pairs": 2336})
    tracemalloc.start()
    try:
        items = generate(cfg).items
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = items.audio.nbytes + items.text.nbytes + items.concepts.nbytes
    assert peak < output + 2 * 2**20, f"peak {peak} bytes for {output} bytes of output"


def test_round_robin_concept_slots():
    cfg = small_cfg(pairs=256, concept_count=16, factor_count=4)
    counts = [0] * 4
    for c in range(cfg.concept_count):
        counts[concept_slot(c, 4)] += 1
    assert counts == [4, 4, 4, 4]
    ds = generate(cfg)
    assert len(ds.items) == 256
    mask = ds.items.concepts
    assert mask.dtype == bool and mask.shape == (256, 16)  # labels are distinct and < 16
    counts = mask.sum(axis=1)
    assert counts.min() >= 1 and counts.max() <= 4


def test_pairs_rows_are_stacks():
    pairs = generate(small_cfg()).items
    for rows, expected in ((slice(1, 4), [1, 2, 3]), (np.array([5, 0]), [5, 0]), (2, [2])):
        picked = pairs[rows]
        assert len(picked) == len(expected)
        for name in ("audio", "text", "concepts"):
            assert np.array_equal(getattr(picked, name), getattr(pairs, name)[expected])


def test_noiseless_shared_projection_tokens_span_same_subspace():
    cfg = small_cfg(noise_sigma=0.0, shared_projection=True, text_tokens=8, audio_tokens=8)
    ds = generate(cfg)
    for audio, text in zip(ds.items.audio, ds.items.text):
        # every text row must lie in the span of the audio rows
        coeffs, residuals, *_ = np.linalg.lstsq(audio.T, text.T, rcond=None)
        recon = audio.T @ coeffs
        assert np.abs(recon - text.T).max() < 1e-10
        assert np.array_equal(audio, text)  # same fill order, same map


def test_concept_overlap_oracle_attains_max_at_true_pair():
    # Subset-containment between sampled concept sets makes exact-ties
    # unavoidable, so the true pair must attain the maximum always and win it
    # uniquely for most items.
    cfg = SynthConfig(
        pairs=48, concept_count=40, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, noise_sigma=0.0, seed=0,
    )
    items = generate(cfg).items
    mask = items.concepts.astype(np.int64)
    overlap = mask @ mask.T  # entry (a, b) counts the concepts pairs a and b share
    strict = 0
    for i in range(len(items)):
        own = overlap[i, i]
        best_other = max(overlap[i, j] for j in range(len(items)) if j != i)
        assert own >= best_other
        strict += own > best_other
    assert strict >= 0.7 * len(items)


def test_dataset_round_trip_identity(tmp_path):
    ds = generate(small_cfg())
    path = str(tmp_path / "d.xmal")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert datasets_equal(ds, loaded)


def test_dataset_load_holds_one_copy_of_the_file(tmp_path):
    """The blocks are views of the one buffer the file is read into, so a
    load peaks near the file size, not at twice it."""
    path = tmp_path / "d.xmal"
    save_dataset(generate(small_cfg(pairs=512, embed_dim=32)), str(path))
    tracemalloc.start()
    try:
        loaded = load_dataset(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 1.25 * size, f"peak {peak} bytes for a {size}-byte file"
    assert loaded.items.audio.flags.writeable and loaded.items.text.flags.writeable


@pytest.mark.parametrize("concepts", (8, 5))
def test_dataset_blocks_load_as_aligned_views_of_the_file(tmp_path, concepts):
    """The audio and text blocks start 8-aligned whatever the mask's size,
    so they are aligned views of the one buffer the file is read into."""
    path = tmp_path / "d.xmal"
    save_dataset(generate(small_cfg(concept_count=concepts)), str(path))
    items = load_dataset(str(path)).items
    blocks = (items.audio, items.text)
    assert all(x.flags.aligned and x.flags.c_contiguous for x in blocks)
    root = _file_buffer(items.audio)
    assert _file_buffer(items.text) is root and len(root) == path.stat().st_size
    whole = np.frombuffer(root, np.uint8)
    assert all(np.shares_memory(x, whole) for x in blocks)


def _file_buffer(x: np.ndarray):
    """The buffer that array `x` is a view of."""
    while isinstance(x, np.ndarray):
        x = x.base
    return x.obj if isinstance(x, memoryview) else x


def test_dataset_save_is_byte_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.xmal"), str(tmp_path / "b.xmal")
    save_dataset(generate(small_cfg()), p1)
    save_dataset(generate(small_cfg()), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_manifest_written(tmp_path):
    path = str(tmp_path / "d.xmal")
    save_dataset(generate(small_cfg()), path)
    manifest = dict(
        line.split("=", 1) for line in open(path + ".manifest").read().splitlines()
    )
    assert manifest["magic"] == "XMAL"
    assert manifest["pairs"] == "6"
    assert manifest["K"] == "4"


def test_truncated_dataset_raises_corrupted(tmp_path):
    path = str(tmp_path / "d.xmal")
    save_dataset(generate(small_cfg()), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 17])
    with pytest.raises(CorruptedRecordError):
        load_dataset(path)


def _aligned(offset: int) -> int:
    return -(-offset // 8) * 8


def _block_offsets(ds):
    """Byte offsets of the concept mask, audio and text blocks."""
    mask = _aligned(_DATASET_HEADER.size)
    audio = _aligned(mask + ds.items.concepts.size)
    text = audio + ds.items.audio.nbytes
    return mask, audio, text


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("zero_labels", "pair 0 has 0 concept labels"),
        ("too_many_labels", "pair 0 has 5 concept labels"),
        ("mask_byte_2", "pair 3 has concept mask byte 2"),
        ("trailing_byte", "trailing bytes"),
        ("cut_in_labels", "needed"),
        ("cut_in_audio", "needed"),
        ("cut_in_text", "needed"),
    ],
)
def test_corrupted_dataset_records_raise(tmp_path, corrupt, message):
    """A damaged body under a checksum that holds (the file was rewritten,
    not flipped in transit) still fails to load, naming the first bad pair."""
    ds = generate(small_cfg())
    path = str(tmp_path / "d.xmal")
    save_dataset(ds, path)
    blob = bytearray(body(open(path, "rb").read()))
    mask, audio, text = _block_offsets(ds)
    width = ds.config.concept_count
    if corrupt == "zero_labels":
        blob[mask : mask + width] = bytes(width)
    elif corrupt == "too_many_labels":
        blob[mask : mask + width] = bytes([1] * (ds.config.factor_count + 1) + [0] * 3)
    elif corrupt == "mask_byte_2":
        row = mask + 3 * width
        blob[row + blob[row : row + width].index(1)] = 2
    elif corrupt == "trailing_byte":
        blob += b"\0"
    else:
        cut = {"cut_in_labels": mask, "cut_in_audio": audio, "cut_in_text": text}[corrupt]
        blob = blob[: cut + 3]
    open(path, "wb").write(sealed(blob))
    with pytest.raises(CorruptedRecordError, match=re.escape(path) + ": .*" + message):
        load_dataset(path)


@pytest.mark.parametrize("where", ("header", "mask", "audio", "text", "checksum"))
def test_flipped_dataset_byte_fails_the_checksum(tmp_path, where):
    ds = generate(small_cfg())
    path = str(tmp_path / "d.xmal")
    save_dataset(ds, path)
    blob = bytearray(open(path, "rb").read())
    mask, audio, text = _block_offsets(ds)
    at = {"header": 8, "mask": mask, "audio": audio + 5, "text": text + 7, "checksum": -1}[where]
    blob[at] ^= 0x10
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CorruptedRecordError, match=re.escape(path) + ": checksum mismatch"):
        load_dataset(path)


def test_version_1_dataset_is_rejected(tmp_path):
    path = str(tmp_path / "v1.xmal")
    save_dataset(generate(small_cfg()), path)
    blob = bytearray(body(open(path, "rb").read()))
    blob[4:8] = struct.pack("<I", 1)
    open(path, "wb").write(bytes(blob))  # as v1 wrote it: no trailer
    with pytest.raises(VersionError, match="dataset version 1, expected 3"):
        load_dataset(path)


def test_version_2_dataset_is_rejected(tmp_path):
    """A v2 file (no padding before its blocks) under a checksum that holds."""
    path = tmp_path / "v2.xmal"
    header = _DATASET_HEADER.pack(b"XMAL", 2, 1, 1, 1, 1, 4, 1, 0, 0.1, 0)
    path.write_bytes(sealed(header + bytes([1]) + bytes(5 * 8)))
    with pytest.raises(VersionError, match="dataset version 2, expected 3"):
        load_dataset(str(path))


@pytest.mark.parametrize("block", ("header", "mask"))
def test_nonzero_dataset_padding_is_rejected(tmp_path, block):
    """Each padding byte is checked on load, under a checksum that holds."""
    ds = generate(small_cfg(concept_count=5))  # a 30-byte mask, padded to 32
    path = str(tmp_path / "d.xmal")
    save_dataset(ds, path)
    blob = bytearray(body(open(path, "rb").read()))
    mask, audio, _ = _block_offsets(ds)
    start, end = {
        "header": (_DATASET_HEADER.size, mask),
        "mask": (mask + ds.items.concepts.size, audio),
    }[block]
    assert 0 < end - start < 8 and not any(blob[start:end])
    blob[end - 1] = 1
    open(path, "wb").write(sealed(blob))
    with pytest.raises(CorruptedRecordError, match=f"nonzero padding at byte {start}"):
        load_dataset(path)


def _hand_written_pair_file(path: str) -> Pairs:
    """Write a 2-pair v3 file (K=2, D=2, N=1, M=4, 3 concepts) block by
    block in the documented layout, and return the stacks it holds. Entry
    values encode (pair, token, column)."""
    mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    audio = 100 * np.arange(2)[:, None, None] + 10 * np.arange(4)[:, None] + np.arange(2)
    text = 1000 + 100 * np.arange(2)[:, None, None] + np.arange(2.0).reshape(1, 1, 2)
    header = b"XMAL" + struct.pack("<IIIIIIIQdI", 3, 2, 2, 2, 1, 4, 3, 9, 0.25, 0)
    payload = (
        header + bytes(4)  # 52 header bytes padded to 56
        + mask.tobytes() + bytes(2)  # 6 mask bytes padded to 8
        + audio.astype("<f8").tobytes() + text.astype("<f8").tobytes()
    )
    with open(path, "wb") as f:
        f.write(sealed(payload))
    return Pairs(audio=audio.astype(float), text=text, concepts=mask.astype(bool))


def test_dataset_hand_written_pair_pins_both_directions(tmp_path):
    """The v3 layout is pinned from the read side (the hand-written file
    loads as the expected stacks and mask) and from the write side (saving
    those stacks reproduces the file byte for byte)."""
    path = str(tmp_path / "hand.xmal")
    expected = _hand_written_pair_file(path)
    loaded = load_dataset(path)
    cfg = SynthConfig(
        pairs=2, concept_count=3, factor_count=2, embed_dim=2, text_tokens=1, audio_tokens=4,
        noise_sigma=0.25, seed=9,
    )
    assert datasets_equal(loaded, Dataset(config=cfg, items=expected))
    assert loaded.items.audio[1, 3, 1] == 131 and loaded.items.text[1, 0, 0] == 1100
    assert np.flatnonzero(loaded.items.concepts[0]).tolist() == [0, 2]
    again = str(tmp_path / "again.xmal")
    save_dataset(Dataset(config=cfg, items=expected), again)
    assert open(again, "rb").read() == open(path, "rb").read()


@pytest.mark.parametrize("axis", ("P", "M", "N", "D", "C"))
def test_save_dataset_refuses_stacks_that_disagree_with_the_config(tmp_path, axis):
    ds = generate(small_cfg())
    stack, cut = {
        "P": ("audio", np.s_[:5]),
        "M": ("audio", np.s_[:, :7]),
        "N": ("text", np.s_[:, :4]),
        "D": ("text", np.s_[:, :, :8]),
        "C": ("concepts", np.s_[:, :5]),
    }[axis]
    setattr(ds.items, stack, getattr(ds.items, stack)[cut])
    path = tmp_path / "d.xmal"
    with pytest.raises(DimensionError, match=f"{stack} stack has shape"):
        save_dataset(ds, str(path))
    assert not path.exists()


def test_wrong_schema_version_raises(tmp_path):
    path = str(tmp_path / "d.xmal")
    save_dataset(generate(small_cfg()), path)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = struct.pack("<I", 999)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(VersionError):
        load_dataset(path)


def test_bad_magic_raises_format_error(tmp_path):
    path = str(tmp_path / "d.xmal")
    save_dataset(generate(small_cfg()), path)
    blob = bytearray(open(path, "rb").read())
    blob[0:4] = b"NOPE"
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError):
        load_dataset(path)


def test_missing_file_is_distinct_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path / "absent.xmal"))


AUDIO_COUNTS, TEXT_COUNTS = (4, 2, 1), (3, 3, 3)


def _encoded(arrays: list[np.ndarray]) -> EncodedBatch:
    """The batch of eight arrays in `EncodedBatch` order, as constants."""
    tensors = [Tensor(x) for x in arrays]
    return EncodedBatch(tensors[0:3], tensors[3], tensors[4:7], tensors[7])


def _embedding_set(rng, items=2, dim=6) -> EncodedBatch:
    return _encoded([
        *(rng.normal(size=(items, c, dim)) for c in AUDIO_COUNTS), rng.normal(size=(items, dim)),
        *(rng.normal(size=(items, c, dim)) for c in TEXT_COUNTS), rng.normal(size=(items, dim)),
    ])


def _tensors(encoded: EncodedBatch) -> list[Tensor]:
    return [*encoded.audio_levels, encoded.audio_global, *encoded.text_levels, encoded.text_global]


def _arrays(encoded: EncodedBatch) -> list[np.ndarray]:
    return [x.value for x in _tensors(encoded)]


def _assert_same_set(a: EncodedBatch, b: EncodedBatch):
    assert len(a.audio_levels) == len(b.audio_levels) == 3
    assert len(a.text_levels) == len(b.text_levels) == 3
    for x, y in zip(_arrays(a), _arrays(b)):
        assert x.shape == y.shape and np.array_equal(x, y)


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    es = _embedding_set(rng)
    path = str(tmp_path / "e.xemb")
    save_embeddings(es, path)
    loaded = load_embeddings(path)
    assert loaded.batch == 2 and loaded.dim == es.dim == 6
    assert tuple(x.value.shape[1] for x in loaded.audio_levels) == AUDIO_COUNTS
    assert tuple(x.value.shape[1] for x in loaded.text_levels) == TEXT_COUNTS
    assert not any(x.requires_grad for x in _tensors(loaded))
    _assert_same_set(es, loaded)


def test_embedding_load_holds_one_copy_of_the_file(tmp_path):
    """Every array is a view of the one buffer the file is read into, each
    block 8-aligned, so a load peaks near the file size, not at twice it."""
    path = tmp_path / "e.xemb"
    save_embeddings(_embedding_set(np.random.default_rng(7), items=512, dim=32), str(path))
    tracemalloc.start()
    try:
        loaded = load_embeddings(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 1.1 * size, f"peak {peak} bytes for a {size}-byte file"
    roots = []
    for x in _arrays(loaded):
        assert x.flags.aligned and x.flags.c_contiguous
        roots.append(_file_buffer(x))
    assert all(root is roots[0] for root in roots) and len(roots[0]) == size
    whole = np.frombuffer(roots[0], np.uint8)
    assert all(np.shares_memory(x, whole) for x in _arrays(loaded))


def test_version_2_embedding_set_is_rejected(tmp_path):
    """A file as version 2 wrote it: a level count, then one record per item."""
    path = str(tmp_path / "v2.xemb")
    with sealed_file(path) as f:
        f.write(b"XEMB")
        f.write(struct.pack("<IIII", 2, 1, 2, 3))  # version, items, D, levels
        f.write(struct.pack("<III", 1, 1, 1))
        f.write(struct.pack("<III", 1, 1, 1))
        f.write(np.zeros(8 * 2).tobytes())
    with pytest.raises(VersionError, match="embedding set version 2, expected 3"):
        load_embeddings(path)


def test_embeddings_hand_written_single_item(tmp_path):
    dim = 2
    path = str(tmp_path / "e.xemb")
    with sealed_file(path) as f:
        f.write(b"XEMB")
        f.write(struct.pack("<III", 3, 1, dim))  # version, items, D
        f.write(struct.pack("<III", 1, 1, 1))  # audio level token counts
        f.write(struct.pack("<III", 1, 1, 1))  # text level token counts
        for value in range(3):  # audio levels
            f.write(np.full((1, dim), float(value)).tobytes())
        f.write(np.array([9.0, 9.0]).tobytes())  # audio global
        for value in range(3):  # text levels
            f.write(np.full((1, dim), float(value + 10)).tobytes())
        f.write(np.array([7.0, 7.0]).tobytes())  # text global
    es = load_embeddings(path)
    assert es.batch == 1 and es.dim == 2
    assert np.array_equal(es.audio_levels[2].value, [[[2.0, 2.0]]])
    assert np.array_equal(es.text_global.value, [[7.0, 7.0]])


def _ragged_pair_file(path: str) -> EncodedBatch:
    """Write a 2-item file with audio token counts (4, 2, 1) and text counts
    (3, 3, 3) block by block in the documented layout, and return the batch
    it holds. Entry values encode (item, field, token, column)."""
    dim = 2
    shapes = [(c, dim) for c in AUDIO_COUNTS] + [(dim,)]
    shapes += [(c, dim) for c in TEXT_COUNTS] + [(dim,)]
    blocks = [  # one (items, *shape) block per field, in file order
        np.stack([
            1000 * item + 100 * f + np.arange(np.prod(shape), dtype=float).reshape(shape)
            for item in range(2)
        ])
        for f, shape in enumerate(shapes)
    ]
    with sealed_file(path) as f:
        f.write(b"XEMB")
        f.write(struct.pack("<III", 3, 2, dim))  # version, items, D
        f.write(struct.pack("<III", *AUDIO_COUNTS))
        f.write(struct.pack("<III", *TEXT_COUNTS))
        assert f.tell() == 40  # so every f8 block starts 8-aligned
        for block in blocks:
            f.write(block.astype("<f8").tobytes())
    return _encoded(blocks)


def test_embeddings_hand_written_ragged_pair_pins_both_directions(tmp_path):
    """The layout is pinned from the read side (the hand-written file loads
    as the expected batch) and from the write side (saving that batch
    reproduces the file byte for byte)."""
    path = str(tmp_path / "hand.xemb")
    expected = _ragged_pair_file(path)
    loaded = load_embeddings(path)
    _assert_same_set(loaded, expected)
    assert loaded.audio_levels[0].value[1, 3, 1] == 1000 + 7
    assert loaded.text_global.value[0, 1] == 700 + 1
    again = str(tmp_path / "again.xemb")
    save_embeddings(expected, again)
    assert open(again, "rb").read() == open(path, "rb").read()


def test_empty_embedding_set_round_trips(tmp_path):
    es = _embedding_set(np.random.default_rng(3), items=0)
    path = str(tmp_path / "empty.xemb")
    save_embeddings(es, path)
    loaded = load_embeddings(path)
    assert loaded.batch == 0 and loaded.dim == 6
    _assert_same_set(es, loaded)


def test_embeddings_zero_token_level_is_rejected_on_load(tmp_path):
    path = str(tmp_path / "e.xemb")
    with sealed_file(path) as f:
        f.write(b"XEMB")
        f.write(struct.pack("<III", 3, 1, 2))
        f.write(struct.pack("<III", 4, 0, 1))  # audio level 1 has no token
        f.write(struct.pack("<III", 3, 3, 3))
        f.write(np.zeros(2 * (4 + 0 + 1 + 1 + 9 + 1)).tobytes())
    with pytest.raises(FormatError, match=re.escape(path)):
        load_embeddings(path)


def test_embeddings_zero_token_level_is_refused_on_save(tmp_path):
    es = _embedding_set(np.random.default_rng(5))
    es.audio_levels[1] = Tensor(es.audio_levels[1].value[:, :0])
    path = str(tmp_path / "e.xemb")
    with pytest.raises(DimensionError, match="audio level 1"):
        save_embeddings(es, path)


@pytest.mark.parametrize(
    "field, shape",
    [("audio_levels", (2, 4, 5)), ("text_levels", (3, 3, 6)), ("text_global", (2, 5)), ("audio_global", (6,))],
)
def test_embeddings_mismatched_shapes_are_refused_on_save(tmp_path, field, shape):
    es = _embedding_set(np.random.default_rng(6))
    value = Tensor(np.zeros(shape))
    if field.endswith("levels"):
        getattr(es, field)[0] = value
    else:
        setattr(es, field, value)
    with pytest.raises(DimensionError):
        save_embeddings(es, str(tmp_path / "e.xemb"))


def test_truncated_embeddings_raise(tmp_path):
    rng = np.random.default_rng(1)
    path = str(tmp_path / "e.xemb")
    save_embeddings(_embedding_set(rng), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-9])
    with pytest.raises(CorruptedRecordError):
        load_embeddings(path)


def test_version_1_embedding_set_is_rejected(tmp_path):
    path = str(tmp_path / "v1.xemb")
    save_embeddings(_embedding_set(np.random.default_rng(4)), path)
    blob = bytearray(body(open(path, "rb").read()))
    blob[4:8] = struct.pack("<I", 1)
    open(path, "wb").write(bytes(blob))  # as v1 wrote it: no trailer
    with pytest.raises(VersionError, match="embedding set version 1, expected 3"):
        load_embeddings(path)


def test_random_config_round_trips():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.choice([2, 4]))
        cfg = SynthConfig(
            pairs=int(rng.integers(1, 8)),
            concept_count=int(rng.integers(k, 12)),
            factor_count=k,
            embed_dim=int(k * rng.integers(2, 5)),
            text_tokens=int(rng.integers(1, 6)),
            audio_tokens=int(rng.integers(4, 10)),
            noise_sigma=float(rng.uniform(0, 0.5)),
            seed=int(rng.integers(0, 1000)),
        )
        ds = generate(cfg)
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.xmal")
            save_dataset(ds, path)
            assert datasets_equal(ds, load_dataset(path))
