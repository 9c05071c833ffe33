"""R@k ranking semantics, tiled scoring, forked workers and report files."""

import builtins
import errno
import logging
import os
import pickle
import re
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from xmal import attention, autodiff as ad, evaluation, model as model_module, verify
from xmal.attention import AttentionConfig, LevelRows, hierarchical_similarity_matrix, level_rows
from xmal.confidence import factor_pair_similarity_matrix, factor_rows
from xmal.data import SynthConfig, generate
from xmal.errors import ContractError, DimensionError, XmalError
from xmal.evaluation import (
    RetrievalReport,
    evaluate,
    recall_at_k,
    write_report_binary,
    write_report_text,
)
from xmal.model import EncodedBatch, Model, ModelConfig


def test_recall_diagonal_dominant_is_perfect():
    s = np.eye(4) * 10.0 + np.random.default_rng(0).normal(size=(4, 4)) * 0.01
    assert recall_at_k(s, 1, "audio_to_text") == 100.0
    assert recall_at_k(s, 1, "text_to_audio") == 100.0


def test_recall_full_ties_resolved_by_ascending_index():
    s = np.ones((4, 4))
    # every query ranks candidate 0 first, so only query 0 finds its match
    assert recall_at_k(s, 1, "audio_to_text") == 25.0
    assert recall_at_k(s, 1, "text_to_audio") == 25.0


def test_recall_hand_ranked_example():
    s = np.array([[0.9, 0.8, 0.1], [0.2, 0.7, 0.6], [0.5, 0.4, 0.3]])
    # rows' argmax: (0, 1, 0) -> queries 0 and 1 hit -> 2/3
    assert abs(recall_at_k(s, 1, "audio_to_text") - 200.0 / 3.0) < 1e-12
    # columns' argmax: (0, 0, 1): only query 0 hits -> 1/3
    assert abs(recall_at_k(s, 1, "text_to_audio") - 100.0 / 3.0) < 1e-12


def test_recall_monotone_and_saturating():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.normal(size=(6, 6))
        for direction in ("audio_to_text", "text_to_audio"):
            values = [recall_at_k(s, k, direction) for k in range(1, 7)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[-1] == 100.0
            assert all(0.0 <= v <= 100.0 for v in values)


def test_recall_invariant_under_strictly_increasing_transforms():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = rng.normal(size=(5, 5))
        for k in (1, 3, 5):
            for direction in ("audio_to_text", "text_to_audio"):
                base = recall_at_k(s, k, direction)
                assert recall_at_k(np.exp(s), k, direction) == base
                assert recall_at_k(3.0 * s + 11.0, k, direction) == base


def test_recall_bad_inputs():
    with pytest.raises(ContractError):
        recall_at_k(np.eye(3), 0, "audio_to_text")
    with pytest.raises(ContractError):
        recall_at_k(np.eye(3), 4, "audio_to_text")
    with pytest.raises(ContractError):
        recall_at_k(np.eye(3), (1, 4), "audio_to_text")
    with pytest.raises(ContractError):
        recall_at_k(np.eye(3), 1, "sideways")
    with pytest.raises(DimensionError):
        recall_at_k(np.ones((2, 3)), 1, "audio_to_text")


def _encoded(model, ds):
    """The dataset encoded tape-free, as `xmal eval` encodes it."""
    with ad.no_grad():
        return model.encode_arrays(ds.items.audio, ds.items.text)


def _identity_model(dim=16, k=4):
    model = Model.build(ModelConfig(embed_dim=dim, factor_count=k, attention=AttentionConfig()), 0)
    for name, p in model.params.items():
        if name == "audio.merge":
            p.value = np.tile(np.eye(dim), (3, 1, 1))
        elif name in ("text.w", "text.b", "audio.w", "audio.b", "text.readout"):
            p.value = np.zeros_like(p.value)
    return model


def test_perfect_similarity_on_noiseless_identity_setup():
    # same projection for both modalities, no noise, power-of-two token
    # counts: an identity stack scores matched pairs at exactly cosine 1
    cfg = SynthConfig(
        pairs=32, concept_count=24, factor_count=4, embed_dim=16,
        text_tokens=8, audio_tokens=8, noise_sigma=0.0, seed=1, shared_projection=True,
    )
    ds = generate(cfg)
    assert len(np.unique(ds.items.concepts, axis=0)) == 32  # all concept sets distinct
    model = _identity_model()
    reports = evaluate(model, _encoded(model, ds), modes=("DP",), ks=(1, 5), seed=1, config_hash="t")
    assert len(reports) == 2
    for r in reports:
        assert r.r_at[1] == 100.0
        assert r.r_at[5] == 100.0


def test_evaluate_report_cardinality_and_determinism():
    cfg = SynthConfig(
        pairs=8, concept_count=8, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, noise_sigma=0.1, seed=5,
    )
    ds = generate(cfg)
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), 3)
    a = evaluate(model, _encoded(model, ds), modes=("DP", "THA+DCR"), ks=(1, 5), seed=5)
    b = evaluate(model, _encoded(model, ds), modes=("DP", "THA+DCR"), ks=(1, 5), seed=5)
    assert len(a) == 4
    assert [(r.mode, r.direction, r.r_at) for r in a] == [(r.mode, r.direction, r.r_at) for r in b]


def test_evaluate_rejects_empty_inputs():
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), 3)
    empty = EncodedBatch(
        audio_levels=[ad.Tensor(np.zeros((0, c, 16))) for c in (4, 2, 1)],
        audio_global=ad.Tensor(np.zeros((0, 16))),
        text_levels=[ad.Tensor(np.zeros((0, c, 16))) for c in (3, 2, 1)],
        text_global=ad.Tensor(np.zeros((0, 16))),
    )
    with pytest.raises(ContractError):
        evaluate(model, empty)


def test_evaluate_rejects_out_of_range_k():
    cfg = SynthConfig(
        pairs=4, concept_count=8, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, seed=5,
    )
    ds = generate(cfg)
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), 3)
    with pytest.raises(ContractError):
        evaluate(model, _encoded(model, ds), ks=(5,))


def _unscorable(monkeypatch):
    """A model and a 4-pair encoded batch; building a scorer fails the test."""
    cfg = SynthConfig(
        pairs=4, concept_count=8, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, seed=5,
    )
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), 3)
    encoded = _encoded(model, generate(cfg))

    def unscored(*args):
        raise AssertionError("scored")

    monkeypatch.setattr(Model, "strip_scorer", unscored)
    return model, encoded


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_evaluate_rejects_a_seed_outside_u64_before_scoring(monkeypatch, seed):
    """The binary report stores the seed as a u64, so one outside it is a
    ContractError before any tile is scored, not a report that
    `write_report_binary` then fails on."""
    model, encoded = _unscorable(monkeypatch)
    with pytest.raises(ContractError, match=f"--seed must fit in u64, got {seed}"):
        evaluate(model, encoded, modes=("DP",), ks=(1,), seed=seed)


@pytest.mark.parametrize("threads", (0, -1))
def test_evaluate_rejects_threads_below_one_before_scoring(monkeypatch, threads):
    """`_worker_count` would run a count below one as one process; the
    caller asked for no process at all, so it is a ContractError."""
    model, encoded = _unscorable(monkeypatch)
    with pytest.raises(ContractError, match=f"threads >= 1, got {threads}"):
        evaluate(model, encoded, modes=("DP",), ks=(1,), threads=threads)


def test_report_files_round_trip_text_and_binary(tmp_path):
    reports = [
        RetrievalReport(
            mode="THA+DCR",
            direction="text_to_audio",
            r_at={1: 50.0, 5: 75.0},
            size=8,
            seed=3,
            config_hash="abc123",
        )
    ]
    tpath = str(tmp_path / "r.txt")
    bpath = str(tmp_path / "r.xrpt")
    write_report_text(tpath, reports)
    write_report_binary(bpath, reports)
    text = open(tpath).read()
    assert "config_hash=abc123" in text
    assert "seed=3" in text
    assert "THA+DCR.text_to_audio.r@1=50.0" in text
    blob = open(bpath, "rb").read()
    assert blob[:4] == b"XRPT"
    # binary writer is deterministic
    write_report_binary(bpath, reports)
    assert open(bpath, "rb").read() == blob


def _recall_at_k_loop(s, k, direction):
    """Reference ranking: a stable descending argsort per query."""
    n = s.shape[0]
    hits = 0
    for q in range(n):
        scores = s[q, :] if direction == "audio_to_text" else s[:, q]
        order = np.argsort(-scores, kind="stable")  # ties keep ascending index
        rank = int(np.nonzero(order == q)[0][0])
        hits += rank < k
    return 100.0 * hits / n


def test_recall_matches_stable_argsort_loop_with_ties_and_nan():
    rng = np.random.default_rng(3)
    cases = []
    for n in (1, 2, 7, 31):
        cases.append(rng.normal(size=(n, n)))
        cases.append(rng.integers(0, 3, size=(n, n)).astype(float))  # many ties
        with_nan = rng.integers(0, 4, size=(n, n)).astype(float)
        with_nan[rng.random((n, n)) < 0.3] = np.nan
        cases.append(with_nan)
    cases.append(np.full((5, 5), np.nan))
    cases.append(np.array([[0.0, -0.0, np.inf], [-np.inf, np.nan, 0.0], [1.0, -0.0, 0.0]]))
    # A single off-diagonal score equal to its query's match, before it
    # (row 9, column 7) or after it (rows 3 and 20), with nothing else tied.
    single_ties = rng.normal(size=(40, 40))
    single_ties[9, 4] = single_ties[9, 9]
    single_ties[3, 30] = single_ties[3, 3]
    single_ties[2, 7] = single_ties[7, 7]
    single_ties[20, 5] = single_ties[5, 5]
    cases.append(single_ties)
    for s in cases:
        n = s.shape[0]
        for direction in ("audio_to_text", "text_to_audio"):
            ks = tuple(range(1, n + 1))
            got = recall_at_k(s, ks, direction)  # every k from one ranking
            assert list(got) == list(ks)
            for k in ks:
                want = _recall_at_k_loop(s, k, direction)
                assert got[k] == want and recall_at_k(s, k, direction) == want, (s, k)
    # Large, NaN-free and tie-free: only the count of higher scores is needed.
    s = rng.normal(size=(300, 300)) + 3.0 * np.eye(300)
    ks = (1, 2, 5, 10, 50, 300)
    for direction in ("audio_to_text", "text_to_audio"):
        got = recall_at_k(s, ks, direction)
        assert got == {k: _recall_at_k_loop(s, k, direction) for k in ks}


def _eval_set(pairs, seed=4):
    cfg = SynthConfig(
        pairs=pairs, concept_count=16, factor_count=8, embed_dim=32,
        text_tokens=6, audio_tokens=8, noise_sigma=0.1, seed=seed,
    )
    return generate(cfg), Model.build(ModelConfig(embed_dim=32, factor_count=8), seed)


def test_evaluate_matches_taped_similarity_matrices(monkeypatch):
    monkeypatch.setattr(evaluation, "TILE", 7)  # 20 pairs: three tiles per side
    ds, model = _eval_set(20)
    modes = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
    reports = evaluate(model, _encoded(model, ds), modes=modes, ks=(1, 2, 5))
    encoded = model.encode_arrays(ds.items.audio, ds.items.text)  # taped
    assert encoded.audio_global._parents != ()
    expected = []
    for mode in modes:
        taped = model.similarity_matrix(encoded, mode).value
        with ad.no_grad():  # the same fused ops, with no tape recording
            untaped = model.similarity_matrix(_encoded(model, ds), mode).value
        if mode == "DP":
            assert np.array_equal(taped, untaped)
        else:
            assert np.abs(untaped - taped).max() < 1e-12, mode
        for direction in ("text_to_audio", "audio_to_text"):
            expected.append(
                (mode, direction, {k: recall_at_k(untaped, k, direction) for k in (1, 2, 5)})
            )
    assert [(r.mode, r.direction, r.r_at) for r in reports] == expected


def test_evaluate_memory_is_bounded_by_the_tile():
    ds, model = _eval_set(512)
    tracemalloc.start()
    try:
        evaluate(model, _encoded(model, ds), modes=("THA", "DCR", "THA+DCR"), ks=(1, 5, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_evaluate_holds_no_square_matrix():
    # 1024 pairs: one B x B matrix is 8 MB, the encoded batch 6.8 MB, and
    # encoding peaks at 11.6 MB. Holding a matrix per component and one per
    # mode sum peaked at 32.3 MB over DP, DCR, THA+DCR, THA and at 25.5 MB
    # over THA+DCR alone. Ranking strip by strip peaks at 22.5 MB and 20.9 MB:
    # the encoded batch, the text blocks' prepared terms, the kept diagonal
    # tiles and one strip per component.
    ds, model = _eval_set(1024)
    for modes, bound_mb in ((("DP", "DCR", "THA+DCR", "THA"), 26), (("THA+DCR",), 24)):
        tracemalloc.start()
        try:
            evaluate(model, _encoded(model, ds), modes=modes, ks=(1, 5, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, f"{modes}: peak {peak / 2**20:.1f} MB"


def test_evaluate_memory_grows_linearly_with_the_pair_count():
    # DP at 2048 pairs peaked at 49.6 MB with its B x B matrix and at 4096
    # pairs at 171.2 MB (3.4x). Streamed, the peaks are 23.1 and 46.1 MB.
    peaks = []
    for pairs in (2048, 4096):
        ds, model = _eval_set(pairs)
        tracemalloc.start()
        try:
            evaluate(model, _encoded(model, ds), modes=("DP",), ks=(1, 5, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        del ds, model
    assert peaks[1] < 2.5 * peaks[0], [f"{p / 2**20:.1f} MB" for p in peaks]


def test_encoding_a_dataset_for_eval_is_bounded_by_the_tile():
    # A dataset's pairs, as `xmal eval --data` passes them, at 4096 pairs in
    # DP: encoding the rows in one call peaked at 32.1 MB, the encoders'
    # intermediates growing with the rows. One strip per call peaks at
    # 8.4 MB: the audio globals, the ranks and one strip of scores.
    ds, model = _eval_set(4096)
    tracemalloc.start()
    try:
        evaluate(model, ds.items, modes=("DP",), ks=(1, 5, 10), threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- strips and workspaces --------------------------------------------------------


def _captured_matrices(monkeypatch, modes, size):
    """Hook the strip ranking of `evaluate`: returns `assemble()`, which gives
    each mode's matrix assembled from the strips ranked so far (each strip
    ranks every mode, in order), after checking that the strips cover every
    row once and that each matched score is its own entry, bit for bit."""
    seen = []
    rank = evaluation._rank_strip

    def hook(s, a, match, ranks):
        seen.append((a, np.array(s), match.copy()))
        return rank(s, a, match, ranks)

    monkeypatch.setattr(evaluation, "_rank_strip", hook)

    def assemble():
        assert len(seen) % len(modes) == 0
        out = [np.full((size, size), np.inf) for _ in modes]
        for i, (a, s, match) in enumerate(seen):
            m = out[i % len(modes)]
            assert s.shape == (a.stop - a.start, size) and np.isinf(m[a]).all()
            m[a] = s
            assert np.array_equal(np.diagonal(s[:, a]), match[a], equal_nan=True)
        assert not any(np.isinf(m).any() for m in out)
        seen.clear()
        return out

    return assemble


def _taped_tile_matrix(model, items, mode):
    """`Model.similarity_matrix` on a tape, one TILE x TILE tile at a time,
    with the factors projected once for the whole batch, as eval scores. (A
    whole-batch op differs from its tiles in ragged blocks by BLAS rounding:
    a matmul's bits depend on its shape.)"""
    encoded = model.encode_arrays(items.audio, items.text)
    text_z, audio_z = model.batch_factors(encoded)
    blocks = evaluation._blocks(encoded.batch)
    out = np.empty((encoded.batch, encoded.batch))
    for a in blocks:
        for t in blocks:
            tile = EncodedBatch(
                audio_levels=[ad.Tensor(x.value[a]) for x in encoded.audio_levels],
                audio_global=ad.Tensor(encoded.audio_global.value[a]),
                text_levels=[ad.Tensor(x.value[t]) for x in encoded.text_levels],
                text_global=ad.Tensor(encoded.text_global.value[t]),
                factors=(ad.Tensor(text_z.value[t]), ad.Tensor(audio_z.value[a])),
            )
            out[a, t] = model.similarity_matrix(tile, mode).value
    return out


# 3 strips; 5 strips, the last ragged; 2 strips, the last one row
@pytest.mark.parametrize("pairs", (150, 300, 65))
def test_strips_equal_the_taped_ops_tile_by_tile(pairs, monkeypatch):
    modes = ("DP", "THA", "DCR", "THA+DCR", "THA+DP")
    ks = (1, 5, 10)
    ds = generate(SynthConfig(
        pairs=pairs, concept_count=16, factor_count=8, embed_dim=32,
        text_tokens=6, audio_tokens=8, noise_sigma=0.1, seed=pairs,
    ))
    configs = (
        AttentionConfig(direction="text_enhanced"),
        AttentionConfig(direction="audio_enhanced"),
        AttentionConfig(combine="sum"),
    )
    assemble = _captured_matrices(monkeypatch, modes, pairs)
    for n, attention_cfg in enumerate(configs):
        model = Model.build(ModelConfig(embed_dim=32, factor_count=8, attention=attention_cfg), n)
        expected = [_taped_tile_matrix(model, ds.items, mode) for mode in modes]
        reports = evaluate(model, _encoded(model, ds), modes=modes, ks=ks)
        for mode, got, want in zip(modes, assemble(), expected):
            assert np.array_equal(got, want), (attention_cfg, mode)
        assert [(r.mode, r.direction, r.r_at) for r in reports] == [
            (mode, d, recall_at_k(want, ks, d)) for mode, want in zip(modes, expected)
            for d in ("text_to_audio", "audio_to_text")
        ]


def _stub_strip_scorers(monkeypatch, matrices):
    """Make every component's tiles slices of its given full matrix; returns
    the list of tiles scored, as (component, audio start, text start)."""
    scored = []

    def strip_scorer(self, encoded, component, audio_start=0):
        s = matrices[component]

        def tile(a, t):
            scored.append((component, a.start, t.start))
            return s[a, t].copy()

        return lambda a: lambda t: tile(a, t)

    monkeypatch.setattr(Model, "strip_scorer", strip_scorer)
    return scored


def _stub_cases(rng, n):
    """(DP, THA, DCR) full matrices with many ties and with NaNs."""
    ties = [rng.integers(0, 3, size=(n, n)).astype(float) for _ in range(3)]
    nans = [rng.integers(0, 4, size=(n, n)).astype(float) for _ in range(3)]
    for m in nans:
        m[rng.random((n, n)) < 0.2] = np.nan
    nans[0][np.diag_indices(n)] = np.nan  # every DP match NaN
    yield ties
    yield nans
    yield [np.ones((n, n)), np.full((n, n), np.nan), np.zeros((n, n))]
    if n < 20:
        return
    # Ties across strip boundaries (TILE 7): column 8's match equals row 3's
    # score, which ranks before it, and row 15's, which does not; row 9's
    # match equals columns 2 and 19; item 19 lies in the ragged last strip.
    crossing = rng.normal(size=(n, n))
    crossing[3, 8] = crossing[15, 8] = crossing[8, 8]
    crossing[9, 2] = crossing[9, 19] = crossing[9, 9]
    crossing[19, 0] = crossing[0, 19] = crossing[19, 19]
    crossing[12, 12] = np.nan
    yield [crossing, np.zeros((n, n)), np.zeros((n, n))]


@pytest.mark.parametrize("pairs", (20, 5))  # strips of 7, 7 and 6 pairs; one strip of 5
def test_streamed_ranks_equal_the_assembled_matrix_with_ties_and_nans(pairs, monkeypatch):
    monkeypatch.setattr(evaluation, "TILE", 7)
    modes = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
    ks = tuple(range(1, pairs + 1))
    ds, model = _eval_set(pairs)
    rng = np.random.default_rng(pairs)
    for case in _stub_cases(rng, pairs):
        matrices = dict(zip(("DP", "THA", "DCR"), case))
        scored = _stub_strip_scorers(monkeypatch, matrices)
        reports = evaluate(model, _encoded(model, ds), modes=modes, ks=ks)
        starts = range(0, pairs, 7)
        # every tile is scored once: the diagonal ones are kept from the first pass
        assert sorted(scored) == [(c, a, t) for c in sorted(matrices) for a in starts for t in starts]
        expected = []
        for mode in modes:
            first, *rest = mode.split("+")
            s = matrices[first].copy()
            for c in rest:
                s += matrices[c]
            for direction in ("text_to_audio", "audio_to_text"):
                expected.append((mode, direction, recall_at_k(s, ks, direction)))
                for k in (1, 2, pairs):
                    assert expected[-1][2][k] == _recall_at_k_loop(s, k, direction)
        assert [(r.mode, r.direction, r.r_at) for r in reports] == expected


# -- forked strip workers ------------------------------------------------------

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="eval forks only with two usable CPUs")


def _count_forks(monkeypatch) -> list:
    """Record each `os.fork` call made by this process, then fork."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_worker_count_caps_at_threads_cpus_strips_and_work(monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    count = evaluation._worker_count
    every = ("DP", "THA", "DCR")
    assert count(10**9, 300, every) == 8  # one worker per usable CPU
    assert (count(3, 300, every), count(1, 300, every)) == (3, 1)
    assert (count(10**9, 1, every), count(10**9, 2, ("THA",))) == (1, 2)  # one strip each
    # each worker needs WORKER_MIN_MS of tile work: DP tiles are cheap, so
    # 16 strips (1024 pairs) stay in one process and 32 strips fork
    assert (count(10**9, 16, ("DP",)), count(10**9, 32, ("DP",))) == (1, 5)
    assert (count(10**9, 3, ("DCR",)), count(10**9, 8, ("DCR",))) == (1, 6)
    monkeypatch.delattr(os, "sched_setaffinity")
    assert count(10**9, 300, every) == 1
    assert forks == []


def _reports(model, ds, modes, threads, ks=(1, 5, 10)):
    return [
        (r.mode, r.direction, r.r_at)
        for r in evaluate(model, _encoded(model, ds), modes=modes, ks=ks, threads=threads)
    ]


def test_forked_ranks_equal_serial_with_ties_and_nans(monkeypatch):
    monkeypatch.setattr(evaluation, "TILE", 4)  # 20 pairs: 5 strips, the ties cross strips
    modes = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
    ks = tuple(range(1, 21))
    ds, model = _eval_set(20)
    forks = _count_forks(monkeypatch)
    for case in _stub_cases(np.random.default_rng(20), 20):
        _stub_strip_scorers(monkeypatch, dict(zip(("DP", "THA", "DCR"), case)))
        serial = _reports(model, ds, modes, 1, ks)
        assert forks == []
        assert _reports(model, ds, modes, 2, ks) == serial
        assert len(forks) == min(2, CPUS) - 1
        forks.clear()


@needs_two_cpus
def test_an_encoded_batch_is_read_in_place_by_every_worker(monkeypatch):
    """An encoded batch's text rows are read where they are, not copied into
    the shared mapping, and its reports are the same at 1 and 2 threads."""
    ds, model = _eval_set(128)  # 2 strips, enough tile work for 2 workers
    made = []
    shared = evaluation._shared
    monkeypatch.setattr(evaluation, "_shared", lambda *args: made.append(shared(*args)) or made[-1])
    forks = _count_forks(monkeypatch)
    modes = ("DP", "THA", "DCR", "THA+DCR")
    serial = _reports(model, ds, modes, 1)
    assert _reports(model, ds, modes, 2) == serial
    assert len(forks) == 1
    assert [s.text for s in made] == [[], []]
    assert [list(s.matched) for s in made] == [["DP", "THA", "DCR"]] * 2


def test_more_workers_than_cores_meet_at_the_barrier(monkeypatch):
    """Six forked workers, more than the cores, rank as one process does: a
    worker that read another's text rows or matched scores from the shared
    mappings before the barrier would read zeros and change the reports.
    An alarm bounds the call in case the barrier never opens."""
    ds, model = _eval_set(384)  # 6 strips
    modes = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
    serial = evaluate(model, ds.items, modes=modes, threads=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    forks = _count_forks(monkeypatch)

    def late(signum, frame):
        raise TimeoutError("the barrier did not open within 60 s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(60)
    try:
        assert evaluate(model, ds.items, modes=modes, threads=6) == serial
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 5


def test_encoding_a_row_range_equals_those_rows_of_the_whole_batch_bit_for_bit():
    """Forked eval workers each encode their own rows, so the reports do not
    depend on `threads` only while a row range encodes to exactly the bits
    of the same rows of one whole-batch encode: every level, global and
    factor stack. M=11 leaves an odd token at each merge."""
    cfg = SynthConfig(
        pairs=150, concept_count=16, factor_count=8, embed_dim=32,
        text_tokens=5, audio_tokens=11, noise_sigma=0.1, seed=6,
    )
    items = generate(cfg).items
    model = Model.build(ModelConfig(embed_dim=32, factor_count=8), 6)

    def outputs(e):
        return [
            *e.audio_levels, e.audio_global, *e.text_levels, e.text_global,
            *model.batch_factors(e),
        ]

    with ad.no_grad():
        whole = [x.value for x in outputs(model.encode_arrays(items.audio, items.text))]
        for lo, hi in ((0, 64), (64, 128), (128, 150), (1, 147), (149, 150)):
            part = outputs(model.encode_arrays(items.audio[lo:hi], items.text[lo:hi]))
            assert len(part) == len(whole) == 10
            for i, (got, want) in enumerate(zip(part, whole)):
                assert got.value.tobytes() == want[lo:hi].tobytes(), (lo, hi, i)


def test_a_forking_parent_encodes_only_its_own_strips(monkeypatch):
    """Given a dataset's pairs, each worker encodes its own rows one strip
    per call: at 300 pairs and 2 workers the parent encodes strips 0-1
    (rows 0-127) in two calls and the child the other 172 rows; alone, the
    one process encodes all 300 in five calls, the last ragged. The reports
    equal those over the pairs encoded beforehand."""
    ds, model = _eval_set(300)
    modes = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
    encoded = _encoded(model, ds)
    serial = evaluate(model, encoded, modes=modes, threads=1)
    calls = []
    encode = Model.encode_arrays

    def recording(self, audio, text):
        calls.append((os.getpid(), len(audio), len(text)))
        return encode(self, audio, text)

    monkeypatch.setattr(Model, "encode_arrays", recording)
    forks = _count_forks(monkeypatch)
    for threads in (1, 2):
        calls.clear()
        forks.clear()
        assert evaluate(model, ds.items, modes=modes, threads=threads) == serial
        assert len(forks) == min(threads, CPUS) - 1
        strips = [64, 64] if forks else [64, 64, 64, 64, 44]
        # the child's calls are its own
        assert calls == [(os.getpid(), n, n) for n in strips], threads
        assert evaluate(model, encoded, modes=modes, threads=threads) == serial


def test_a_live_thread_keeps_eval_in_one_process(monkeypatch):
    """Forking with a second thread alive is unsafe, so eval stays serial."""
    ds, model = _eval_set(300)
    serial = _reports(model, ds, ("THA+DCR",), 1)
    forks = _count_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert _reports(model, ds, ("THA+DCR",), 64) == serial
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []


def _failing_tiles(monkeypatch, fail):
    """DP tiles from a fixed matrix, where `fail(parent, "tile")` runs
    before each and `fail(parent, "off-diagonal tile")` then before each
    off-diagonal one, and encodes where `fail(parent, "encode")` runs
    before each."""
    parent = os.getpid()
    s = np.random.default_rng(3).normal(size=(20, 20))
    encode = Model.encode_arrays

    def strip_scorer(self, encoded, component, audio_start=0):
        def tile(a, t):
            fail(parent, "tile")
            if a != t:
                fail(parent, "off-diagonal tile")
            return s[a, t].copy()

        return lambda a: lambda t: tile(a, t)

    def encode_arrays(self, audio, text):
        fail(parent, "encode")
        return encode(self, audio, text)

    monkeypatch.setattr(Model, "strip_scorer", strip_scorer)
    monkeypatch.setattr(Model, "encode_arrays", encode_arrays)


def _raise_in_child(parent, at):
    if at == "tile" and os.getpid() != parent:
        raise RuntimeError("tile failed")


def _killed_in_child(parent, at):
    if at == "tile" and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def _interrupted_parent(parent, at):
    if at == "tile" and os.getpid() == parent:
        raise KeyboardInterrupt


def _off_diagonal_raises_in_child(parent, at):
    if at == "off-diagonal tile" and os.getpid() != parent:
        raise RuntimeError("off-diagonal tile failed")


def _encode_raises_in_child(parent, at):
    if at == "encode" and os.getpid() != parent:
        raise RuntimeError("encode failed")


def _encode_killed_in_child(parent, at):
    if at == "encode" and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


def _encode_interrupted_in_parent(parent, at):
    if at == "encode" and os.getpid() == parent:
        raise KeyboardInterrupt


def _failing_forks(monkeypatch, fails_from: int) -> list:
    """Three usable CPUs, pinning that does nothing, and an `os.fork` that
    raises EAGAIN from its `fails_from`-th call on; returns the calls."""
    calls = []
    fork = os.fork

    def failing():
        calls.append(os.getpid())
        if len(calls) >= fails_from:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    return calls


def test_a_first_fork_that_fails_leaves_eval_in_one_process(monkeypatch):
    ds, model = _eval_set(300)
    serial = _reports(model, ds, ("THA+DCR",), 1)
    calls = _failing_forks(monkeypatch, fails_from=1)
    assert _reports(model, ds, ("THA+DCR",), 3) == serial
    assert len(calls) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_later_fork_that_fails_is_one_error_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(evaluation, "TILE", 4)  # 20 pairs: 5 strips, 3 workers
    ds, model = _eval_set(20)
    calls = _failing_forks(monkeypatch, fails_from=2)
    with pytest.raises(XmalError, match="^eval worker 2 could not start: .*Resource temporarily"):
        evaluate(model, _encoded(model, ds), modes=("THA",), threads=3)
    assert len(calls) == 2
    with pytest.raises(ChildProcessError):  # worker 1 was killed and reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_cannot_pin_itself_still_ranks(monkeypatch):
    ds, model = _eval_set(300)
    serial = _reports(model, ds, ("THA+DCR",), 1)
    parent = os.getpid()
    pin = os.sched_setaffinity

    def pin_in_parent_only(pid, cpus):
        if os.getpid() != parent:
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        pin(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", pin_in_parent_only)
    forks = _count_forks(monkeypatch)
    assert _reports(model, ds, ("THA+DCR",), 2) == serial
    assert len(forks) == min(2, CPUS) - 1


@needs_two_cpus
@pytest.mark.parametrize("fail, error, match", [
    (_raise_in_child, XmalError, "^eval worker 1 failed: RuntimeError: tile failed$"),
    (_killed_in_child, XmalError, "^eval worker 1 ended without sending its result$"),
    (_interrupted_parent, KeyboardInterrupt, None),
    # a child fails while it encodes its rows, before its first send
    (_encode_raises_in_child, XmalError, "^eval worker 1 failed: RuntimeError: encode failed$"),
    (_encode_killed_in_child, XmalError, "^eval worker 1 ended without sending its result$"),
    (_encode_interrupted_in_parent, KeyboardInterrupt, None),
    # a child fails after the last barrier: it has scored its diagonal tiles
    (
        _off_diagonal_raises_in_child, XmalError,
        "^eval worker 1 failed: RuntimeError: off-diagonal tile failed$",
    ),
])
def test_a_failed_worker_or_interrupted_parent_reaps_every_child(fail, error, match, monkeypatch):
    monkeypatch.setattr(evaluation, "TILE", 4)  # 20 pairs: 5 strips, 2 workers
    ds, model = _eval_set(20)
    _failing_tiles(monkeypatch, fail)
    affinity = os.sched_getaffinity(0)
    with pytest.raises(error, match=match):
        evaluate(model, ds.items, modes=("THA",), threads=2)
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == affinity


@needs_two_cpus
def test_no_array_crosses_a_pipe_before_the_ranks(monkeypatch, tmp_path):
    """Forked workers trade their text rows and matched scores through
    shared mappings and meet at one barrier, so a child sends one barrier
    message of a few bytes and then its ranks, and the parent sends one
    release."""
    ds, model = _eval_set(300)
    serial = evaluate(model, ds.items, modes=("THA+DCR",), threads=1)
    log = tmp_path / "sends"
    send = evaluation._send

    def recording(f, obj):  # runs in the parent and in the forked child
        with open(log, "a", encoding="ascii") as out:
            out.write(f"{os.getpid()} {len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))}\n")
        send(f, obj)

    monkeypatch.setattr(evaluation, "_send", recording)
    assert evaluate(model, ds.items, modes=("THA+DCR",), threads=2) == serial
    sends = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    parent = [size for pid, size in sends if pid == os.getpid()]
    child = [size for pid, size in sends if pid != os.getpid()]
    assert len({pid for pid, _ in sends} - {os.getpid()}) == 1
    assert len(child) == 2 and len(parent) == 1, (parent, child)
    assert max(parent + child[:-1]) < 32, (parent, child)
    assert child[-1] > 300 * 8  # the ranks


def _status_mb(field):
    with open("/proc/self/status", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field)) / 1024


@pytest.mark.skipif(not os.access("/proc/self/status", os.R_OK), reason="no /proc/self/status")
def test_the_info_line_gives_the_peak_rss_only_where_it_can_be_read(caplog, monkeypatch):
    """The peak RSS so far (VmHWM) of the calling process closes eval's info
    line; where /proc/self/status cannot be read, the line leaves it out."""
    ds, model = _eval_set(128)
    caplog.set_level(logging.INFO, logger="xmal.evaluation")
    before = _status_mb("VmRSS:")
    reports = evaluate(model, ds.items, modes=("DP",), threads=1)
    after = _status_mb("VmHWM:")
    (line,) = [r.getMessage() for r in caplog.records if r.name == "xmal.evaluation"]
    found = re.fullmatch(r"2 strips, 1 worker, this process's peak RSS so far ([0-9.]+) MB", line)
    assert found, line
    assert before - 0.05 <= float(found[1]) <= after + 0.05, (before, line, after)

    def unreadable_status(path, *args, **kwargs):
        if path == "/proc/self/status":
            raise PermissionError(path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(evaluation, "open", unreadable_status, raising=False)
    caplog.clear()
    assert evaluate(model, ds.items, modes=("DP",), threads=1) == reports
    assert [r.getMessage() for r in caplog.records] == ["2 strips, 1 worker"]


def test_repeated_modes_are_ranked_once():
    ds, model = _eval_set(20)
    once = _reports(model, ds, ("DP", "THA"), 1)
    assert _reports(model, ds, ("DP", "THA", "DP"), 1) == once + once[:2]


def test_each_text_block_is_prepared_once_per_scorer(monkeypatch):
    """A scorer prepares a text block on the first tile that reads it and
    keeps it, so one process at 300 pairs (5 blocks) prepares every text
    row once: 5 blocks x 3 levels for THA, 5 blocks for DCR. A prepare per
    tile would keep every score's bits and multiply the Gram work by the
    strip count; forked workers meet at one barrier only while the prepare
    waits for the first tile that reads a block."""
    ds, model = _eval_set(300)
    encoded = _encoded(model, ds)
    text = [x.value for x in encoded.text_levels]
    prepared = {"THA": [], "DCR": []}  # the rows of each text block prepared
    make_level_rows, make_factor_rows = attention.level_rows, model_module.factor_rows

    def counting_level_rows(x):
        if not isinstance(x, LevelRows) and any(np.shares_memory(x, level) for level in text):
            prepared["THA"].append(len(x))
        return make_level_rows(x)

    def counting_factor_rows(x, params, side):
        if side == "text":
            prepared["DCR"].append(len(x.value))
        return make_factor_rows(x, params, side)

    monkeypatch.setattr(attention, "level_rows", counting_level_rows)
    monkeypatch.setattr(model_module, "factor_rows", counting_factor_rows)
    evaluate(model, encoded, modes=("THA", "DCR", "THA+DCR"), threads=1)
    assert prepared == {"THA": [64] * 12 + [44] * 3, "DCR": [64] * 4 + [44]}


def _tile_inputs(rng, items=64):
    """Raw text and audio levels and factor stacks of one tile's two sides."""
    text = [rng.normal(size=(items, 6, 32)) for _ in range(3)]
    audio = [rng.normal(size=(items, m, 32)) for m in (4, 2, 1)]
    return text, audio, rng.normal(size=(items, 8, 4)), rng.normal(size=(items, 8, 4))


def test_tile_scorers_allocate_nothing_large_once_warm():
    """After one warm-up tile, another 64 x 64 THA tile (3 levels) and DCR
    tile on the same workspace stay within 256 KB of new allocations, and
    no returned score is a view of a workspace buffer."""
    rng = np.random.default_rng(7)
    model = Model.build(ModelConfig(embed_dim=32, factor_count=8), 7)
    cfg, params, ws = model.cfg.attention, model.params, ad.Workspace()

    def sides(text, audio, text_z, audio_z):
        return (
            [level_rows(x) for x in text],
            [level_rows(x) for x in audio],
            factor_rows(text_z, params, "text"),
            factor_rows(audio_z, params, "audio"),
        )

    @ad.no_grad()
    def score(text, audio, text_z, audio_z):
        tha = hierarchical_similarity_matrix(audio, text, cfg, ws)
        return tha.value, factor_pair_similarity_matrix(text_z, audio_z, params, ws).value

    score(*sides(*_tile_inputs(rng)))
    warm = {name: buf.size for name, buf in ws.buffers.items()}
    prepared = sides(*_tile_inputs(rng))
    tracemalloc.start()
    try:
        tha, dcr = score(*prepared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10, f"peak {peak / 2**10:.0f} KB"
    assert {name: buf.size for name, buf in ws.buffers.items()} == warm
    for result in (tha, dcr):
        assert result.shape == (64, 64)
        assert not any(np.shares_memory(result, buf) for buf in ws.buffers.values())
    text, audio, text_z, audio_z = prepared
    with ad.no_grad():  # the same ops on the raw rows, without a workspace, agree bit for bit
        op_tha = hierarchical_similarity_matrix(
            [ad.Tensor(a.raw) for a in audio], [ad.Tensor(t.raw) for t in text], cfg
        )
        op_dcr = factor_pair_similarity_matrix(text_z.raw, audio_z.raw, params)
    assert np.array_equal(tha, op_tha.value) and np.array_equal(dcr, op_dcr.value)


def _taped_ops(ws=ad.FRESH):
    """Builders of a probe-weighted taped THA (2 levels) and DCR score of
    inputs drawn from a seed, each returning (loss, leaves); both ops are
    given `ws`."""
    params = verify.drawn_rows(ModelConfig(4, 1, hidden=4), "conf.", np.random.default_rng(8))
    cfg = AttentionConfig()

    def tha(seed):
        rng = np.random.default_rng(seed)
        a = [ad.parameter(rng.normal(size=(3, m, 8)), f"a{m}") for m in (4, 2)]
        t = [ad.parameter(rng.normal(size=(5, 6, 8)), f"t{n}") for n in range(2)]
        score = hierarchical_similarity_matrix(a, t, cfg, ws)
        return ad.reduce_sum(ad.mul(score, rng.normal(size=(3, 5)))), a + t

    def dcr(seed):
        rng = np.random.default_rng(seed)
        tz = ad.parameter(rng.normal(size=(5, 2, 4)), "tz")
        az = ad.parameter(rng.normal(size=(3, 2, 4)), "az")
        score = factor_pair_similarity_matrix(tz, az, params, ws)
        return ad.reduce_sum(ad.mul(score, rng.normal(size=(3, 5)))), [tz, az, *params.values()]

    return tha, dcr


def _same_gradients(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def test_taped_op_gradients_survive_another_ops_forward():
    """Taped ops save fresh arrays, so a later op's forward cannot overwrite
    what an earlier op's backward reads."""
    tha, dcr = _taped_ops()
    for op in (tha, dcr):
        alone = ad.gradients(*op(1))
        first = op(1)
        tha(2), dcr(2)  # other forwards on other inputs, before the first op's backward
        assert _same_gradients(alone, ad.gradients(*first))


def test_taped_ops_never_use_a_given_workspace():
    """While a tape records, the ops allocate fresh arrays whatever workspace
    they are given: forwards through that workspace, taped or not, before
    the backward leave the gradients bit for bit those of the same call
    without one."""
    for n in range(2):  # THA, then DCR
        ws = ad.Workspace()
        reused = _taped_ops(ws)
        alone = ad.gradients(*_taped_ops()[n](1))
        first = reused[n](1)
        assert ws.buffers == {}
        for other in reused:
            other(2)
            with ad.no_grad():
                other(3)
        assert ws.buffers != {}
        assert _same_gradients(alone, ad.gradients(*first))
