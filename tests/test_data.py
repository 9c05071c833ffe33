"""Synthetic generation determinism and container round-trips."""

import re
import struct

import numpy as np
import pytest

from xmal.data import (
    _DATASET_HEADER,
    Dataset,
    EmbeddingSet,
    PairItem,
    SynthConfig,
    concept_slot,
    generate,
    load_dataset,
    load_embeddings,
    save_dataset,
    save_embeddings,
    shared_concepts,
)
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
    if a.config != b.config or len(a.items) != len(b.items):
        return False
    for x, y in zip(a.items, b.items):
        if x.pair_id != y.pair_id or x.concepts != y.concepts:
            return False
        if not (np.array_equal(x.audio, y.audio) and np.array_equal(x.text, y.text)):
            return False
    return True


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


def test_generation_is_bit_deterministic():
    a = generate(small_cfg())
    b = generate(small_cfg())
    assert datasets_equal(a, b)


def test_different_seeds_differ():
    a = generate(small_cfg(seed=1))
    b = generate(small_cfg(seed=2))
    assert not datasets_equal(a, b)


def test_round_robin_concept_slots():
    cfg = small_cfg(pairs=256, concept_count=16, factor_count=4)
    counts = [0] * 4
    for c in range(cfg.concept_count):
        counts[concept_slot(c, 4)] += 1
    assert counts == [4, 4, 4, 4]
    ds = generate(cfg)
    assert len(ds.items) == 256
    for it in ds.items:
        assert 1 <= len(it.concepts) <= 4
        assert len(set(it.concepts)) == len(it.concepts)
        assert all(0 <= c < 16 for c in it.concepts)


def test_noiseless_shared_projection_tokens_span_same_subspace():
    cfg = small_cfg(noise_sigma=0.0, shared_projection=True, text_tokens=8, audio_tokens=8)
    ds = generate(cfg)
    for it in ds.items:
        # every text row must lie in the span of the audio rows
        coeffs, residuals, *_ = np.linalg.lstsq(it.audio.T, it.text.T, rcond=None)
        recon = it.audio.T @ coeffs
        assert np.abs(recon - it.text.T).max() < 1e-10
        assert np.array_equal(it.audio, it.text)  # same fill order, same map


def test_concept_overlap_oracle_attains_max_at_true_pair():
    # Subset-containment between sampled concept sets makes exact-ties
    # unavoidable, so the true pair must attain the maximum always and win it
    # uniquely for most items.
    cfg = SynthConfig(
        pairs=48, concept_count=40, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, noise_sigma=0.0, seed=0,
    )
    items = generate(cfg).items
    strict = 0
    for i, it in enumerate(items):
        own = shared_concepts(it, it)
        best_other = max(
            shared_concepts(it, other) for j, other in enumerate(items) if j != i
        )
        assert own >= best_other
        strict += own > best_other
    assert strict >= 0.7 * len(items)


def test_dataset_round_trip_identity(tmp_path):
    ds = generate(small_cfg())
    path = str(tmp_path / "d.xmal")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert datasets_equal(ds, loaded)


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


def _first_record_offsets(ds):
    """Byte offsets of the first record's label count, labels, audio and text."""
    count = _DATASET_HEADER.size
    labels = count + 4
    audio = labels + 4 * len(ds.items[0].concepts)
    text = audio + ds.items[0].audio.nbytes
    return count, labels, audio, text


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("zero_labels", "pair 0 has 0 concept labels"),
        ("too_many_labels", "pair 0 has 5 concept labels"),
        ("trailing_byte", "trailing bytes"),
        ("cut_in_labels", "needed"),
        ("cut_in_audio", "needed"),
        ("cut_in_text", "needed"),
    ],
)
def test_corrupted_dataset_records_raise(tmp_path, corrupt, message):
    ds = generate(small_cfg())
    path = str(tmp_path / "d.xmal")
    save_dataset(ds, path)
    blob = bytearray(open(path, "rb").read())
    count, labels, audio, text = _first_record_offsets(ds)
    if corrupt == "zero_labels":
        blob[count : count + 4] = struct.pack("<I", 0)
    elif corrupt == "too_many_labels":
        blob[count : count + 4] = struct.pack("<I", ds.config.factor_count + 1)
    elif corrupt == "trailing_byte":
        blob += b"\0"
    else:
        cut = {"cut_in_labels": labels, "cut_in_audio": audio, "cut_in_text": text}[corrupt]
        blob = blob[: cut + 3]
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CorruptedRecordError, match=message):
        load_dataset(path)


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


def _embedding_set(rng, items=2, dim=6):
    return EmbeddingSet(
        audio_levels=[rng.normal(size=(items, c, dim)) for c in AUDIO_COUNTS],
        audio_global=rng.normal(size=(items, dim)),
        text_levels=[rng.normal(size=(items, c, dim)) for c in TEXT_COUNTS],
        text_global=rng.normal(size=(items, dim)),
    )


def _assert_same_set(a: EmbeddingSet, b: EmbeddingSet):
    for side in ("audio_levels", "text_levels"):
        assert len(getattr(a, side)) == len(getattr(b, side)) == 3
        for x, y in zip(getattr(a, side), getattr(b, side)):
            assert x.shape == y.shape and np.array_equal(x, y)
    for side in ("audio_global", "text_global"):
        x, y = getattr(a, side), getattr(b, side)
        assert x.shape == y.shape and np.array_equal(x, y)


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    es = _embedding_set(rng)
    path = str(tmp_path / "e.xemb")
    save_embeddings(es, path)
    loaded = load_embeddings(path)
    assert len(loaded) == 2 and loaded.dim == es.dim
    assert tuple(x.shape[1] for x in loaded.audio_levels) == AUDIO_COUNTS
    assert tuple(x.shape[1] for x in loaded.text_levels) == TEXT_COUNTS
    _assert_same_set(es, loaded)


def test_embeddings_reject_two_level_file(tmp_path):
    path = str(tmp_path / "e.xemb")
    with open(path, "wb") as f:
        f.write(b"XEMB")
        f.write(struct.pack("<IIII", 1, 0, 6, 2))  # declares 2 levels
        f.write(struct.pack("<II", 3, 3))
        f.write(struct.pack("<II", 3, 3))
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_embeddings_hand_written_single_item(tmp_path):
    dim = 2
    path = str(tmp_path / "e.xemb")
    with open(path, "wb") as f:
        f.write(b"XEMB")
        f.write(struct.pack("<IIII", 1, 1, dim, 3))
        f.write(struct.pack("<III", 1, 1, 1))  # audio level token counts
        f.write(struct.pack("<III", 1, 1, 1))  # text level token counts
        for value in range(3):  # audio levels
            f.write(np.full((1, dim), float(value)).tobytes())
        f.write(np.array([9.0, 9.0]).tobytes())  # audio global
        for value in range(3):  # text levels
            f.write(np.full((1, dim), float(value + 10)).tobytes())
        f.write(np.array([7.0, 7.0]).tobytes())  # text global
    es = load_embeddings(path)
    assert len(es) == 1 and es.dim == 2
    assert np.array_equal(es.audio_levels[2], [[[2.0, 2.0]]])
    assert np.array_equal(es.text_global, [[7.0, 7.0]])


def _ragged_pair_file(path: str) -> EmbeddingSet:
    """Write a 2-item file with audio token counts (4, 2, 1) and text counts
    (3, 3, 3) field by field in the documented record layout, and return the
    stacks it holds. Entry values encode (item, field, token, column)."""
    dim = 2
    fields = []  # per item, in record order
    for item in range(2):
        shapes = [(c, dim) for c in AUDIO_COUNTS] + [(dim,)]
        shapes += [(c, dim) for c in TEXT_COUNTS] + [(dim,)]
        fields.append([
            1000 * item + 100 * f + np.arange(np.prod(shape), dtype=float).reshape(shape)
            for f, shape in enumerate(shapes)
        ])
    with open(path, "wb") as f:
        f.write(b"XEMB")
        f.write(struct.pack("<IIII", 1, 2, dim, 3))  # version, items, D, levels
        f.write(struct.pack("<III", *AUDIO_COUNTS))
        f.write(struct.pack("<III", *TEXT_COUNTS))
        for record in fields:
            for x in record:
                f.write(x.astype("<f8").tobytes())
    stacked = [np.stack([record[i] for record in fields]) for i in range(8)]
    return EmbeddingSet(
        audio_levels=stacked[0:3], audio_global=stacked[3],
        text_levels=stacked[4:7], text_global=stacked[7],
    )


def test_embeddings_hand_written_ragged_pair_pins_both_directions(tmp_path):
    """The layout is pinned from the read side (the hand-written file loads
    as the expected stacks) and from the write side (saving those stacks
    reproduces the file byte for byte)."""
    path = str(tmp_path / "hand.xemb")
    expected = _ragged_pair_file(path)
    loaded = load_embeddings(path)
    _assert_same_set(loaded, expected)
    assert loaded.audio_levels[0][1, 3, 1] == 1000 + 7
    assert loaded.text_global[0, 1] == 700 + 1
    again = str(tmp_path / "again.xemb")
    save_embeddings(expected, again)
    assert open(again, "rb").read() == open(path, "rb").read()


def test_empty_embedding_set_round_trips(tmp_path):
    es = _embedding_set(np.random.default_rng(3), items=0)
    path = str(tmp_path / "empty.xemb")
    save_embeddings(es, path)
    loaded = load_embeddings(path)
    assert len(loaded) == 0 and loaded.dim == 6
    _assert_same_set(es, loaded)


def test_embeddings_zero_token_level_is_rejected_on_load(tmp_path):
    path = str(tmp_path / "e.xemb")
    with open(path, "wb") as f:
        f.write(b"XEMB")
        f.write(struct.pack("<IIII", 1, 1, 2, 3))
        f.write(struct.pack("<III", 4, 0, 1))  # audio level 1 has no token
        f.write(struct.pack("<III", 3, 3, 3))
        f.write(np.zeros(2 * (4 + 0 + 1 + 1 + 9 + 1)).tobytes())
    with pytest.raises(FormatError, match=re.escape(path)):
        load_embeddings(path)


def test_embeddings_zero_token_level_is_refused_on_save(tmp_path):
    es = _embedding_set(np.random.default_rng(5))
    es.audio_levels[1] = es.audio_levels[1][:, :0]
    path = str(tmp_path / "e.xemb")
    with pytest.raises(DimensionError, match="audio level 1"):
        save_embeddings(es, path)


@pytest.mark.parametrize(
    "field, shape",
    [("audio_levels", (2, 4, 5)), ("text_levels", (3, 3, 6)), ("text_global", (2, 5)), ("audio_global", (6,))],
)
def test_embeddings_mismatched_shapes_are_refused_on_save(tmp_path, field, shape):
    es = _embedding_set(np.random.default_rng(6))
    value = np.zeros(shape)
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
