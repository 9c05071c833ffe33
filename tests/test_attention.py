"""Stacked cross attention scores against step-by-step per-pair oracles."""

import numpy as np
import oracle
import pytest

from xmal import attention as attn, autodiff as ad, verify
from xmal.attention import AttentionConfig
from xmal.errors import ContractError, DimensionError


def pairwise_cosine_oracle(a, b):
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
    return out


def tha(audio, text, cfg):
    """All-pairs THA of (B_a, M_l, D) audio and (B_t, N, D) text level arrays,
    through the fused per-level op (a tape records)."""
    return attn.hierarchical_similarity_matrix(
        [ad.Tensor(a) for a in audio], [ad.Tensor(t) for t in text], cfg
    ).value


# The pairwise row cosine of two matrices is `global_similarity_matrix`.


def test_token_similarity_self_row_is_one():
    v = np.array([[1.0, 2.0, -1.0]])
    out = attn.global_similarity_matrix(ad.Tensor(v), ad.Tensor(v)).value
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_token_similarity_orthogonal_rows():
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 5.0]])
    out = attn.global_similarity_matrix(ad.Tensor(a), ad.Tensor(b)).value
    assert abs(out[0, 0]) < 1e-15


def test_token_similarity_matches_per_pair_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(2, 4))
    out = attn.global_similarity_matrix(ad.Tensor(a), ad.Tensor(b)).value
    assert np.abs(out - pairwise_cosine_oracle(a, b)).max() < 1e-12
    assert (out <= 1 + 1e-12).all() and (out >= -1 - 1e-12).all()


def test_token_similarity_width_mismatch():
    with pytest.raises(DimensionError):
        attn.global_similarity_matrix(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4))))


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
    # a (B_a, B_t, Q, C) stack normalizes each pair's columns over Q
    s = rng.normal(size=(2, 3, 5, 4))
    out = attn.hinge_normalize(ad.Tensor(s)).value
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], attn.hinge_normalize(ad.Tensor(s[i, j])).value)


CFG = AttentionConfig(temperature=9.0, direction="both")
TEXT_ENHANCED = AttentionConfig(temperature=9.0, direction="text_enhanced")
AUDIO_ENHANCED = AttentionConfig(temperature=9.0, direction="audio_enhanced")


def test_attend_single_context_row():
    # one audio token per item: every fused text row is that token
    rng = np.random.default_rng(2)
    audio = rng.normal(size=(2, 1, 3))
    text = rng.normal(size=(3, 4, 3))
    out = tha([audio], [text], AUDIO_ENHANCED)
    for i in range(2):
        for j in range(3):
            direct = pairwise_cosine_oracle(text[j], audio[i]).sum()
            assert abs(out[i, j] - direct) < 1e-12


def test_attend_sharp_temperature_approaches_argmax_context():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 4))
    # a query equal to one context row dominates that column after hinging,
    # so its fused row approaches that row and their cosine approaches 1
    q = np.stack([c[1]])
    cfg = AttentionConfig(temperature=100.0, direction="text_enhanced")
    out = tha([q[None]], [c[None]], cfg)
    assert abs(out[0, 0] - 1.0) < 1e-6


def test_attend_matches_composed_oracle():
    rng = np.random.default_rng(4)
    audio = rng.normal(size=(2, 2, 4))
    text = rng.normal(size=(3, 3, 4))
    out = tha([audio], [text], TEXT_ENHANCED)
    for i in range(2):
        for j in range(3):
            assert abs(out[i, j] - oracle.block_score(audio[i], text[j], 9.0)) < 1e-10


def test_attend_rows_are_convex_combinations():
    rng = np.random.default_rng(5)
    q = ad.normalize_rows(ad.Tensor(rng.normal(size=(2, 3, 4))))
    c = ad.normalize_rows(ad.Tensor(rng.normal(size=(4, 5, 4))))
    sbar = attn.hinge_normalize(ad.einsum("imd,jnd->ijmn", q, c))
    alpha = ad.row_softmax(sbar, CFG.temperature).value
    assert alpha.shape == (2, 4, 3, 5)
    assert np.abs(alpha.sum(axis=-1) - 1.0).max() < 1e-12
    assert (alpha > 0).all()


def test_attend_invariant_to_context_permutation():
    # The context sum is order-free mathematically; floating reductions match
    # only to rounding, so this asserts agreement at ulp scale.
    rng = np.random.default_rng(6)
    audio = rng.normal(size=(2, 3, 5))
    text = rng.normal(size=(3, 4, 5))
    base = tha([audio], [text], TEXT_ENHANCED)
    for _ in range(10):
        out = tha([audio], [text[:, rng.permutation(4)]], TEXT_ENHANCED)
        np.testing.assert_allclose(out, base, rtol=1e-13, atol=1e-14)


def test_block_similarity_self_scores_row_count():
    # three query rows along the one context row each fuse to it exactly
    rng = np.random.default_rng(7)
    c = rng.normal(size=(1, 1, 4))
    q = c * np.array([0.5, 2.0, 7.0])[None, :, None]
    out = tha([q], [c], TEXT_ENHANCED)
    assert abs(float(out[0, 0]) - 3.0) < 1e-12


def test_block_similarity_orthogonal_rows():
    # fused rows are combinations of context rows, all orthogonal to the queries
    q = np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]])
    f = np.array([[[0.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 4.0], [0.0, 0.0, 1.0, 1.0]]])
    assert abs(float(tha([q], [f], TEXT_ENHANCED)[0, 0])) < 1e-15
    assert abs(float(tha([q], [f], AUDIO_ENHANCED)[0, 0])) < 1e-15


def test_block_similarity_matches_per_row_oracle():
    # with one context row per text item the fused rows are exactly that row
    rng = np.random.default_rng(8)
    audio = rng.normal(size=(2, 4, 5))
    text = rng.normal(size=(3, 1, 5))
    out = tha([audio], [text], TEXT_ENHANCED)
    for i in range(2):
        for j in range(3):
            expected = sum(
                q @ text[j, 0] / (np.linalg.norm(q) * np.linalg.norm(text[j, 0])) for q in audio[i]
            )
            assert abs(out[i, j] - expected) < 1e-12


def _random_levels(rng, counts, dim, items=1):
    return [rng.normal(size=(items, c, dim)) for c in counts]


def test_hierarchical_similarity_matches_composed_oracle_per_level():
    rng = np.random.default_rng(9)
    audio = _random_levels(rng, (4, 2, 1), 6, items=2)
    text = _random_levels(rng, (3, 3, 3), 6, items=3)
    for cfg in (TEXT_ENHANCED, AUDIO_ENHANCED, CFG):
        total = tha(audio, text, cfg)
        for i in range(2):
            for j in range(3):
                expected = oracle.tha_score([a[i] for a in audio], [t[j] for t in text], cfg)
                assert abs(total[i, j] - expected) < 1e-10


def test_hierarchical_similarity_orthogonal_level_adds_zero():
    rng = np.random.default_rng(15)
    a1, t1 = rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 3, 4))
    a3, t3 = rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 3, 4))
    # middle level: queries along e3, contexts along e2 -> every cosine is 0
    a2 = np.array([[[0.0, 0.0, 1.0, 0.0]]])
    t2 = np.array([[[0.0, 1.0, 0.0, 0.0]]])
    full = float(tha([a1, a2, a3], [t1, t2, t3], TEXT_ENHANCED)[0, 0])
    level1 = float(tha([a1], [t1], TEXT_ENHANCED)[0, 0])
    level3 = float(tha([a3], [t3], TEXT_ENHANCED)[0, 0])
    assert abs(full - (level1 + level3)) < 1e-12


def test_hierarchical_similarity_both_is_mean_of_directions():
    rng = np.random.default_rng(10)
    audio = _random_levels(rng, (4, 2, 1), 5, items=2)
    text = _random_levels(rng, (3, 3, 3), 5, items=3)
    te = tha(audio, text, TEXT_ENHANCED)
    ae = tha(audio, text, AUDIO_ENHANCED)
    both = tha(audio, text, AttentionConfig(temperature=9.0, direction="both", combine="mean"))
    assert np.abs(both - (te + ae) / 2.0).max() < 1e-12
    both_sum = tha(audio, text, AttentionConfig(temperature=9.0, direction="both", combine="sum"))
    assert np.abs(both_sum - (te + ae)).max() < 1e-12


def test_hierarchical_similarity_level_mismatch():
    rng = np.random.default_rng(11)
    audio = [ad.Tensor(a) for a in _random_levels(rng, (4, 2), 5)]
    text = [ad.Tensor(t) for t in _random_levels(rng, (3, 3, 3), 5)]
    with pytest.raises(ContractError):
        attn.hierarchical_similarity_matrix(audio, text, CFG)
    with pytest.raises(ContractError), ad.no_grad():  # the forward-only kernel too
        attn.hierarchical_similarity_matrix(audio, text, CFG)


def test_hierarchical_similarity_invariant_to_audio_row_permutation():
    rng = np.random.default_rng(12)
    audio = _random_levels(rng, (4, 3, 2), 5, items=2)
    text = _random_levels(rng, (3, 3, 3), 5, items=2)
    base = tha(audio, text, TEXT_ENHANCED)
    for _ in range(10):
        permuted = [a[:, rng.permutation(a.shape[1])] for a in audio]
        np.testing.assert_allclose(tha(permuted, text, TEXT_ENHANCED), base, rtol=1e-13)


def test_global_similarity_identical_vectors():
    v = np.array([[0.3, -1.2, 0.7]])
    assert abs(float(attn.global_similarity_matrix(ad.Tensor(v), ad.Tensor(v)).value[0, 0]) - 1.0) < 1e-12


def test_global_similarity_positive_scale_invariance():
    rng = np.random.default_rng(13)
    v = rng.normal(size=(1, 6))
    scaled = np.concatenate([c * v for c in (0.5, 2.0, 117.0)])
    out = attn.global_similarity_matrix(ad.Tensor(v), ad.Tensor(scaled)).value
    assert np.abs(out - 1.0).max() < 1e-12


def test_global_similarity_orthogonal():
    out = attn.global_similarity_matrix(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[0.0, 1.0]])).value
    assert abs(float(out[0, 0])) < 1e-15


def test_attention_config_validation():
    with pytest.raises(ContractError):
        AttentionConfig(temperature=0.0)
    with pytest.raises(ContractError):
        AttentionConfig(direction="sideways")
    with pytest.raises(ContractError):
        AttentionConfig(combine="median")


def test_hierarchical_similarity_gradient_vs_finite_differences():
    rng = np.random.default_rng(14)
    audio = [ad.parameter(rng.normal(size=(2, c, 5)), f"a{i}") for i, c in enumerate((4, 2, 1))]
    text = [ad.parameter(rng.normal(size=(2, 3, 5)), f"t{i}") for i in range(3)]
    probe = rng.normal(size=(2, 2))

    def fn():
        return ad.reduce_sum(ad.mul(attn.hierarchical_similarity_matrix(audio, text, CFG), probe))

    assert ad.finite_difference_check(fn, audio + text, h=1e-5) < 1e-4


# -- the fused op against the composed oracle ------------------


def test_no_positive_column_case_has_no_positive_cosine():
    audio, text = verify.THA_CASES["no_positive_column"](np.random.default_rng(30))
    an = audio[0] / np.linalg.norm(audio[0], axis=-1, keepdims=True)
    tn = text[0] / np.linalg.norm(text[0], axis=-1, keepdims=True)
    assert (np.einsum("imd,jnd->ijmn", an, tn)[..., 0] < 0).all()  # in every pair


@pytest.mark.parametrize("case", sorted(verify.THA_CASES))
def test_tha_kernel_matches_composed_ops(case):
    audio, text = verify.THA_CASES[case](np.random.default_rng(30))
    for direction in attn.DIRECTIONS:
        for combine in attn.COMBINES:
            cfg = AttentionConfig(direction=direction, combine=combine)
            composed = verify.composed_hierarchical_similarity(
                [ad.Tensor(a) for a in audio], [ad.Tensor(t) for t in text], cfg
            ).value
            taped = attn.hierarchical_similarity_matrix(
                [ad.Tensor(a) for a in audio], [ad.Tensor(t) for t in text], cfg
            )
            assert taped._op == "add" and taped._parents[1]._op == "tha_level"
            with ad.no_grad():
                fast = attn.hierarchical_similarity_matrix(
                    [ad.Tensor(a) for a in audio], [ad.Tensor(t) for t in text], cfg
                ).value
            assert np.array_equal(taped.value, fast)  # one implementation, taped or not
            assert fast.shape == (7, 12) and np.isfinite(fast).all()
            assert np.abs(fast - composed).max() < 1e-12, (direction, combine)


def test_taped_tha_records_one_op_per_level():
    rng = np.random.default_rng(16)
    audio = [ad.parameter(a, f"a{i}") for i, a in enumerate(_random_levels(rng, (4, 2, 1), 5, 3))]
    text = [ad.parameter(t, f"t{i}") for i, t in enumerate(_random_levels(rng, (3, 3, 3), 5, 4))]
    first = ad.Tensor(0.0)._id + 1
    out = attn.hierarchical_similarity_matrix(audio, text, CFG)
    nodes, stack = {}, [out]
    while stack:
        t = stack.pop()
        if t._id >= first and t._id not in nodes:
            nodes[t._id] = t
            stack.extend(t._parents)
    ops = sorted(t._op for t in nodes.values())
    assert ops == ["add", "add", "tha_level", "tha_level", "tha_level"]
    assert out._id - first + 1 == 5  # nothing else was recorded on the way


def test_planted_tha_level_gradient_fails_the_difference_check():
    build = dict(verify._primitive_cases())["tha_level.both.mean"]
    fn, params = build(np.random.default_rng(1000))
    assert ad.finite_difference_check(fn, params) < 1e-6
    ad.GRAD_OVERRIDES["tha_level"] = 1.5
    try:
        assert ad.finite_difference_check(fn, params) > 0.3
    finally:
        ad.GRAD_OVERRIDES.clear()
