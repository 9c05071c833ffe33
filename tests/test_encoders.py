"""Dual-stream encoder stacks: tap structure, pooling, causal depth order."""

import numpy as np
import oracle
import pytest

from xmal import autodiff as ad, encoders, verify
from xmal.config import subsystem_rng
from xmal.encoders import (
    AUDIO_STAGE_BLOCKS,
    TEXT_TAPS,
    encode_audio_batch,
    encode_text_batch,
)
from xmal.errors import ContractError
from xmal.model import ModelConfig


def stream_params(dim, stream, rng):
    """The `text.*` or `audio.*` rows of the model's parameter table, drawn
    from `rng`."""
    return verify.drawn_rows(ModelConfig(dim, 1), stream + ".", rng)


def identity_text_params(dim):
    params = stream_params(dim, "text", np.random.default_rng(0))
    for name, p in params.items():
        p.value = np.zeros_like(p.value)
    return params


def identity_audio_params(dim):
    params = stream_params(dim, "audio", np.random.default_rng(0))
    for name, p in params.items():
        if name == "audio.merge":
            p.value = np.tile(np.eye(dim), (3, 1, 1))
        else:
            p.value = np.zeros_like(p.value)
    return params


def random_params(dim, seed=3):
    return verify.drawn_rows(ModelConfig(dim, 1), ("text.", "audio."), subsystem_rng(seed, "init"))


def test_text_shapes_and_level_count():
    params = random_params(16)
    levels, pooled = encode_text_batch(np.random.default_rng(1).normal(size=(2, 5, 16)), params)
    assert [lvl.value.shape for lvl in levels] == [(2, 5, 16)] * 3
    assert pooled.value.shape == (2, 16)


def test_text_identity_stack_passes_rows_through():
    params = identity_text_params(8)
    row = np.random.default_rng(2).normal(size=(1, 1, 8))
    levels, pooled = encode_text_batch(row, params)
    for lvl in levels:
        assert np.array_equal(lvl.value, row)
    # zero readout scores make the pooled vector the token mean = that row
    assert np.abs(pooled.value - row[:, 0]).max() < 1e-15


def test_text_perturbing_block11_touches_only_deeper_taps():
    params = random_params(16, seed=5)
    tokens = np.random.default_rng(3).normal(size=(2, 4, 16))
    base_levels, base_pooled = encode_text_batch(tokens, params)
    params["text.w"].value[10] += 0.05  # block 11
    bumped_levels, bumped_pooled = encode_text_batch(tokens, params)
    assert np.array_equal(base_levels[0].value, bumped_levels[0].value)  # tap 4
    assert np.array_equal(base_levels[1].value, bumped_levels[1].value)  # tap 10
    assert not np.array_equal(base_levels[2].value, bumped_levels[2].value)  # tap 12
    assert not np.array_equal(base_pooled.value, bumped_pooled.value)


def test_text_permutation_equivariance_and_invariant_pooling():
    params = random_params(16, seed=7)
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=(2, 6, 16))
    base_levels, base_pooled = encode_text_batch(tokens, params)
    for _ in range(10):
        perm = rng.permutation(6)
        levels, pooled = encode_text_batch(tokens[:, perm], params)
        for lvl_base, lvl_out in zip(base_levels, levels):
            np.testing.assert_allclose(lvl_out.value, lvl_base.value[:, perm], rtol=0, atol=0)
        # pooled readout scores tokens by content, so ordering cannot matter
        # beyond reduction rounding
        np.testing.assert_allclose(pooled.value, base_pooled.value, rtol=1e-12, atol=1e-13)


def test_audio_tap_counts_follow_ceil_halving():
    """Each merge halves the token count, rounding up."""
    params = random_params(16)
    for m, taps in ((8, (4, 2, 1)), (4, (2, 1, 1)), (11, (6, 3, 2))):
        frames = np.random.default_rng(5).normal(size=(2, m, 16))
        levels, _ = encode_audio_batch(frames, params)
        assert tuple(lvl.value.shape[1] for lvl in levels) == taps


def test_audio_shapes_match_tap_counts():
    params = random_params(16)
    levels, pooled = encode_audio_batch(np.random.default_rng(5).normal(size=(2, 8, 16)), params)
    assert [lvl.value.shape for lvl in levels] == [(2, 4, 16), (2, 2, 16), (2, 1, 16)]
    assert pooled.value.shape == (2, 16)


def test_audio_identity_stack_global_is_input_mean():
    params = identity_audio_params(8)
    frames = np.random.default_rng(6).normal(size=(2, 8, 8))
    _, pooled = encode_audio_batch(frames, params)
    assert np.abs(pooled.value - frames.mean(axis=1)).max() < 1e-12


def test_audio_rejects_short_input():
    with pytest.raises(ContractError):
        encode_audio_batch(np.ones((1, 3, 8)), identity_audio_params(8))


def test_text_rejects_input_without_tokens():
    from xmal.model import Model, ModelConfig

    model = Model.build(ModelConfig(embed_dim=8, factor_count=4), seed=0)
    with pytest.raises(ContractError, match="no tokens"):
        model.encode_arrays(np.ones((2, 8, 8)), np.ones((2, 0, 8)))


def test_audio_pooled_equals_final_level_mean_exactly():
    params = random_params(16, seed=9)
    levels, pooled = encode_audio_batch(np.random.default_rng(7).normal(size=(2, 8, 16)), params)
    final = levels[-1].value
    recomputed = (final * (1.0 / final.shape[1])).sum(axis=1)
    assert np.array_equal(pooled.value, recomputed)


def test_audio_stage_structure_constants():
    assert AUDIO_STAGE_BLOCKS == (2, 2, 6, 2)
    assert TEXT_TAPS == (4, 10, 12)
    assert sum(AUDIO_STAGE_BLOCKS) == 12


def test_batched_encoders_match_per_item():
    params = random_params(16, seed=11)
    rng = np.random.default_rng(8)
    text = rng.normal(size=(3, 5, 16))
    audio = rng.normal(size=(3, 8, 16))
    t_levels, t_global = encode_text_batch(text, params)
    a_levels, a_global = encode_audio_batch(audio, params)
    for b in range(3):
        t_single_levels, t_single_pooled = oracle.encode_text(text[b], params)
        a_single_levels, a_single_pooled = oracle.encode_audio(audio[b], params)
        for lvl in range(3):
            assert np.abs(t_levels[lvl].value[b] - t_single_levels[lvl]).max() < 1e-10
            assert np.abs(a_levels[lvl].value[b] - a_single_levels[lvl]).max() < 1e-10
        assert np.abs(t_global.value[b] - t_single_pooled).max() < 1e-10
        assert np.abs(a_global.value[b] - a_single_pooled).max() < 1e-10


def test_encoder_gradients_vs_finite_differences():
    dim = 6
    params = random_params(dim, seed=13)
    tokens = np.random.default_rng(9).normal(size=(2, 3, dim))
    frames = np.random.default_rng(10).normal(size=(2, 4, dim))
    probe = np.random.default_rng(11).normal(size=(2, dim))
    checked = [params[name] for name in sorted(params)]

    def fn():
        _, t_pooled = encode_text_batch(tokens, params)
        _, a_pooled = encode_audio_batch(frames, params)
        return ad.reduce_sum(ad.mul(ad.add(t_pooled, a_pooled), probe))

    # a seeded sample of 36 entries of each parameter
    assert ad.finite_difference_check(fn, checked, h=1e-5, max_entries=36) < 1e-4


@pytest.mark.parametrize("m", [4, 5, 7, 8])
def test_batched_audio_merge_equals_kron_formulation_bit_for_bit(monkeypatch, m):
    # The reference is the composed block chain with each merge a product
    # with kron(eye(B), P). Every entry of P is 1/2 or 1, so each merged row
    # is one or two exact products either way.
    params = random_params(16, seed=m)
    rng = np.random.default_rng(m)
    frames = rng.normal(size=(5, m, 16))
    probe = rng.normal(size=16)
    names = sorted(name for name in params if name.startswith("audio."))

    def run():
        levels, pooled = encode_audio_batch(frames, params)
        loss = ad.reduce_sum(ad.mul(pooled, probe))
        for lvl in levels:
            loss = ad.add(loss, ad.reduce_sum(ad.mul(lvl, lvl)))
        grads = ad.gradients(loss, [params[name] for name in names])
        return [lvl.value for lvl in levels] + [pooled.value] + [grads[n] for n in names]

    merged = run()
    with monkeypatch.context() as patch:
        patch.setattr(ad, "residual_blocks", verify.composed_residual_blocks)
        reference = run()
    for got, want in zip(merged, reference, strict=True):
        assert got.tobytes() == want.tobytes()
