"""Stacked cross attention ops against composed step-by-step oracles."""

import numpy as np
import pytest

from xmal import attention as attn, autodiff as ad
from xmal.attention import AttentionConfig
from xmal.errors import ContractError, DimensionError


def pairwise_cosine_oracle(a, b):
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
    return out


def attend_oracle(queries, contexts, temperature):
    sims = pairwise_cosine_oracle(queries, contexts)
    clipped = np.maximum(sims, 0.0)
    sbar = np.zeros_like(clipped)
    for j in range(contexts.shape[0]):
        norm = np.sqrt((clipped[:, j] ** 2).sum())
        if norm > 0:
            sbar[:, j] = clipped[:, j] / norm
    fused = np.zeros_like(queries)
    for i in range(queries.shape[0]):
        logits = temperature * sbar[i]
        w = np.exp(logits - logits.max())
        w /= w.sum()
        fused[i] = w @ contexts
    return fused


def test_token_similarity_self_row_is_one():
    v = np.array([[1.0, 2.0, -1.0]])
    out = attn.token_word_similarity(ad.Tensor(v), ad.Tensor(v)).value
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_token_similarity_orthogonal_rows():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 5.0]])
    out = attn.token_word_similarity(ad.Tensor(a), ad.Tensor(b)).value
    assert abs(out[0, 0]) < 1e-15


def test_token_similarity_matches_per_pair_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(2, 4))
    out = attn.token_word_similarity(ad.Tensor(a), ad.Tensor(b)).value
    assert np.abs(out - pairwise_cosine_oracle(a, b)).max() < 1e-12
    assert (out <= 1 + 1e-12).all() and (out >= -1 - 1e-12).all()


def test_token_similarity_width_mismatch():
    with pytest.raises(DimensionError):
        attn.token_word_similarity(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4))))


def test_hinge_normalize_all_nonpositive_column():
    out = attn.hinge_normalize(ad.Tensor([[-1.0], [-2.0]])).value
    assert np.array_equal(out, [[0.0], [0.0]])


def test_hinge_normalize_single_positive_entry():
    out = attn.hinge_normalize(ad.Tensor([[5.0], [0.0]])).value
    assert np.abs(out - [[1.0], [0.0]]).max() < 1e-12


def test_hinge_normalize_column_345():
    out = attn.hinge_normalize(ad.Tensor([[3.0], [4.0]])).value
    assert np.abs(out - [[0.6], [0.8]]).max() < 1e-12


def test_hinge_normalize_positive_columns_unit_norm():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.normal(size=(5, 4))
        out = attn.hinge_normalize(ad.Tensor(s)).value
        assert (out >= 0).all()
        for j in range(4):
            if (s[:, j] > 0).any():
                assert abs((out[:, j] ** 2).sum() - 1.0) < 1e-10
            else:
                assert np.array_equal(out[:, j], np.zeros(5))


CFG = AttentionConfig(temperature=9.0, direction="both")


def test_attend_single_context_row():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(4, 3))
    c = rng.normal(size=(1, 3))
    out = attn.attend(ad.Tensor(q), ad.Tensor(c), CFG).value
    for i in range(4):
        assert np.abs(out[i] - c[0]).max() < 1e-12


def test_attend_sharp_temperature_approaches_argmax_context():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 4))
    # a query equal to one context row dominates that column after hinging
    q = np.stack([c[1]])
    cfg = AttentionConfig(temperature=100.0, direction="both")
    out = attn.attend(ad.Tensor(q), ad.Tensor(c), cfg).value
    assert np.abs(out[0] - c[1]).max() < 1e-6


def test_attend_matches_composed_oracle():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(2, 4))
    c = rng.normal(size=(3, 4))
    out = attn.attend(ad.Tensor(q), ad.Tensor(c), CFG).value
    assert np.abs(out - attend_oracle(q, c, 9.0)).max() < 1e-10


def test_attend_rejects_empty():
    with pytest.raises(ContractError):
        attn.attend(ad.Tensor(np.zeros((0, 3))), ad.Tensor(np.ones((2, 3))), CFG)


def test_attend_rows_are_convex_combinations():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(3, 4))
    c = rng.normal(size=(5, 4))
    sbar = attn.hinge_normalize(attn.token_word_similarity(ad.Tensor(q), ad.Tensor(c)))
    alpha = ad.row_softmax(sbar, CFG.temperature).value
    assert np.abs(alpha.sum(axis=1) - 1.0).max() < 1e-12
    assert (alpha > 0).all()


def test_attend_invariant_to_context_permutation():
    # The context sum is order-free mathematically; floating reductions match
    # only to rounding, so this asserts agreement at ulp scale.
    rng = np.random.default_rng(6)
    q = rng.normal(size=(3, 5))
    c = rng.normal(size=(4, 5))
    base = attn.attend(ad.Tensor(q), ad.Tensor(c), CFG).value
    for _ in range(10):
        perm = rng.permutation(4)
        out = attn.attend(ad.Tensor(q), ad.Tensor(c[perm]), CFG).value
        np.testing.assert_allclose(out, base, rtol=1e-13, atol=1e-14)


def test_block_similarity_self_scores_row_count():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(3, 4))
    out = attn.block_similarity(ad.Tensor(q), ad.Tensor(q)).value
    assert abs(float(out) - 3.0) < 1e-12


def test_block_similarity_orthogonal_rows():
    q = np.array([[1.0, 0.0], [0.0, 2.0]])
    f = np.array([[0.0, 3.0], [4.0, 0.0]])
    assert abs(float(attn.block_similarity(ad.Tensor(q), ad.Tensor(f)).value)) < 1e-15


def test_block_similarity_matches_per_row_oracle():
    rng = np.random.default_rng(8)
    q = rng.normal(size=(4, 5))
    f = rng.normal(size=(4, 5))
    expected = sum(
        q[i] @ f[i] / (np.linalg.norm(q[i]) * np.linalg.norm(f[i])) for i in range(4)
    )
    assert abs(float(attn.block_similarity(ad.Tensor(q), ad.Tensor(f)).value) - expected) < 1e-12


def test_block_similarity_shape_mismatch():
    with pytest.raises(DimensionError):
        attn.block_similarity(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2))))


def _random_levels(rng, counts, dim):
    return [ad.Tensor(rng.normal(size=(c, dim))) for c in counts]


def test_hierarchical_similarity_matches_composed_oracle_per_level():
    rng = np.random.default_rng(9)
    audio = _random_levels(rng, (4, 2, 1), 6)
    text = _random_levels(rng, (3, 3, 3), 6)
    cfg = AttentionConfig(temperature=9.0, direction="text_enhanced")
    total = float(attn.hierarchical_similarity(audio, text, cfg).value)
    expected = 0.0
    for a_l, t_l in zip(audio, text):
        fused = attend_oracle(a_l.value, t_l.value, 9.0)
        q = a_l.value
        expected += sum(
            q[i] @ fused[i] / (np.linalg.norm(q[i]) * np.linalg.norm(fused[i]))
            for i in range(q.shape[0])
        )
    assert abs(total - expected) < 1e-10


def test_hierarchical_similarity_orthogonal_level_adds_zero():
    rng = np.random.default_rng(15)
    cfg = AttentionConfig(temperature=9.0, direction="text_enhanced")
    a1, t1 = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
    a3, t3 = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
    # middle level: queries along e3, contexts along e2 -> every cosine is 0
    a2 = np.array([[0.0, 0.0, 1.0, 0.0]])
    t2 = np.array([[0.0, 1.0, 0.0, 0.0]])
    full = float(
        attn.hierarchical_similarity(
            [ad.Tensor(a1), ad.Tensor(a2), ad.Tensor(a3)],
            [ad.Tensor(t1), ad.Tensor(t2), ad.Tensor(t3)],
            cfg,
        ).value
    )
    level1 = float(attn.block_similarity(ad.Tensor(a1), attn.attend(ad.Tensor(a1), ad.Tensor(t1), cfg)).value)
    level3 = float(attn.block_similarity(ad.Tensor(a3), attn.attend(ad.Tensor(a3), ad.Tensor(t3), cfg)).value)
    assert abs(full - (level1 + level3)) < 1e-12


def test_hierarchical_similarity_both_is_mean_of_directions():
    rng = np.random.default_rng(10)
    audio = _random_levels(rng, (4, 2, 1), 5)
    text = _random_levels(rng, (3, 3, 3), 5)
    te = float(
        attn.hierarchical_similarity(
            audio, text, AttentionConfig(temperature=9.0, direction="text_enhanced")
        ).value
    )
    ae = float(
        attn.hierarchical_similarity(
            audio, text, AttentionConfig(temperature=9.0, direction="audio_enhanced")
        ).value
    )
    both = float(
        attn.hierarchical_similarity(
            audio, text, AttentionConfig(temperature=9.0, direction="both", combine="mean")
        ).value
    )
    assert abs(both - (te + ae) / 2.0) < 1e-12
    both_sum = float(
        attn.hierarchical_similarity(
            audio, text, AttentionConfig(temperature=9.0, direction="both", combine="sum")
        ).value
    )
    assert abs(both_sum - (te + ae)) < 1e-12


def test_hierarchical_similarity_level_mismatch():
    rng = np.random.default_rng(11)
    with pytest.raises(ContractError):
        attn.hierarchical_similarity(
            _random_levels(rng, (4, 2), 5), _random_levels(rng, (3, 3, 3), 5), CFG
        )


def test_hierarchical_similarity_invariant_to_audio_row_permutation():
    rng = np.random.default_rng(12)
    cfg = AttentionConfig(temperature=9.0, direction="text_enhanced")
    audio = [rng.normal(size=(c, 5)) for c in (4, 3, 2)]
    text = _random_levels(rng, (3, 3, 3), 5)
    base = float(attn.hierarchical_similarity([ad.Tensor(a) for a in audio], text, cfg).value)
    for _ in range(10):
        permuted = [ad.Tensor(a[rng.permutation(a.shape[0])]) for a in audio]
        out = float(attn.hierarchical_similarity(permuted, text, cfg).value)
        np.testing.assert_allclose(out, base, rtol=1e-13)


def test_global_similarity_identical_vectors():
    v = np.array([0.3, -1.2, 0.7])
    assert abs(float(attn.global_similarity(ad.Tensor(v), ad.Tensor(v)).value) - 1.0) < 1e-12


def test_global_similarity_positive_scale_invariance():
    rng = np.random.default_rng(13)
    v = rng.normal(size=6)
    for c in (0.5, 2.0, 117.0):
        out = float(attn.global_similarity(ad.Tensor(v), ad.Tensor(c * v)).value)
        assert abs(out - 1.0) < 1e-12


def test_global_similarity_orthogonal():
    out = attn.global_similarity(ad.Tensor([1.0, 0.0]), ad.Tensor([0.0, 1.0])).value
    assert abs(float(out)) < 1e-15


def test_attention_config_validation():
    with pytest.raises(ContractError):
        AttentionConfig(temperature=0.0)
    with pytest.raises(ContractError):
        AttentionConfig(direction="sideways")
    with pytest.raises(ContractError):
        AttentionConfig(combine="median")


def test_hierarchical_similarity_gradient_vs_finite_differences():
    rng = np.random.default_rng(14)
    audio = [ad.parameter(rng.normal(size=(c, 5)), f"a{i}") for i, c in enumerate((4, 2, 1))]
    text = [ad.parameter(rng.normal(size=(3, 5)), f"t{i}") for i in range(3)]

    def fn():
        return attn.hierarchical_similarity(audio, text, CFG)

    assert ad.finite_difference_check(fn, audio + text, h=1e-5) < 1e-4


# -- forward-only kernel against the composed ops ----------------------------------


def _ragged_blocks(rng, audio_tokens=(4, 2, 1)):
    """7 audio items against 12 text items, 8 wide."""
    audio = [rng.normal(size=(7, m, 8)) for m in audio_tokens]
    text = [rng.normal(size=(12, 3, 8)) for _ in audio_tokens]
    return audio, text


def _zero_token_rows(rng):
    audio, text = _ragged_blocks(rng)
    audio[0][2, 1] = 0.0  # one token of one item
    audio[2][4] = 0.0  # a whole single-token level
    text[1][5, 0] = 0.0
    text[2][3] = 0.0  # every token of one text item
    return audio, text


def _no_positive_column(rng):
    audio, text = _ragged_blocks(rng)
    lead = np.zeros(8)
    lead[0] = 5.0
    for level in audio:
        level += lead  # every audio token leans along +e0 ...
    for level in text:
        level[:, 0] = -lead - 0.1 * np.abs(rng.normal(size=(12, 8)))  # ... and text token 0 away
    an = audio[0] / np.linalg.norm(audio[0], axis=-1, keepdims=True)
    tn = text[0] / np.linalg.norm(text[0], axis=-1, keepdims=True)
    assert (np.einsum("imd,jnd->ijmn", an, tn)[..., 0] < 0).all()  # in every pair
    return audio, text


KERNEL_CASES = {
    "ragged": _ragged_blocks,
    "single_token_audio": lambda rng: _ragged_blocks(rng, audio_tokens=(1, 1, 1)),
    "zero_token_rows": _zero_token_rows,
    "no_positive_column": _no_positive_column,
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_tha_kernel_matches_composed_ops(case):
    audio, text = KERNEL_CASES[case](np.random.default_rng(30))
    for direction in attn.DIRECTIONS:
        for combine in attn.COMBINES:
            cfg = AttentionConfig(direction=direction, combine=combine)
            composed = attn.hierarchical_similarity_matrix(
                [ad.Tensor(a) for a in audio], [ad.Tensor(t) for t in text], cfg
            )
            assert composed._parents != ()  # a tape records: the composed ops ran
            with ad.no_grad():
                fast = attn.hierarchical_similarity_matrix(
                    [ad.Tensor(a) for a in audio], [ad.Tensor(t) for t in text], cfg
                ).value
            assert np.array_equal(fast, attn.hierarchical_similarity_kernel(audio, text, cfg))
            assert fast.shape == (7, 12) and np.isfinite(fast).all()
            assert np.abs(fast - composed.value).max() < 1e-12, (direction, combine)
