"""Contrastive loss, total objective, and batch similarity assembly."""

import math

import numpy as np
import oracle
import pytest

from xmal import autodiff as ad, evaluation, objective as obj
from xmal.attention import AttentionConfig
from xmal.data import SynthConfig, generate
from xmal.errors import ConfigError, DimensionError
from xmal.model import Model, ModelConfig
from xmal.objective import ObjectiveConfig, mode_components, nt_xent, total_loss


def test_nt_xent_single_pair_is_exactly_zero():
    assert float(nt_xent(ad.Tensor([[3.7]]), 0.5).value) == 0.0


def test_nt_xent_identity_two_pairs_hand_value():
    # two matched pairs at similarity 1, mismatched at 0, tau=1: each of the
    # four log-softmax diagonal terms is 1 - log(e + 1), so the loss is
    # 2(log(1 + e) - 1)
    expected = 2.0 * (math.log(1.0 + math.e) - 1.0)
    got = float(nt_xent(ad.Tensor(np.eye(2)), 1.0).value)
    assert abs(got - expected) < 1e-10
    assert abs(expected - 0.62652) < 5e-6


def test_nt_xent_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = rng.normal(size=(4, 4))
        shift = float(rng.normal()) * 10.0
        a = float(nt_xent(ad.Tensor(s), 0.3).value)
        b = float(nt_xent(ad.Tensor(s + shift), 0.3).value)
        assert abs(a - b) < 1e-10


def test_nt_xent_joint_rescale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.normal(size=(3, 3))
        for c in (2.0, 0.5, 7.0):
            a = float(nt_xent(ad.Tensor(s), 0.4).value)
            b = float(nt_xent(ad.Tensor(s / c), 0.4 / c).value)
            assert abs(a - b) < 1e-10


def test_nt_xent_diagonal_gradient_negative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = ad.parameter(rng.normal(size=(4, 4)), "s")
        grads = ad.gradients(nt_xent(s, 0.7), [s])["s"]
        assert (np.diag(grads) < 0).all()


def test_nt_xent_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    s = ad.parameter(rng.normal(size=(4, 4)), "s")
    assert ad.finite_difference_check(lambda: nt_xent(s, 0.5), [s], h=1e-5) < 1e-6


def test_nt_xent_rejects_nonsquare():
    with pytest.raises(DimensionError):
        nt_xent(ad.Tensor(np.ones((2, 3))), 0.5)


def test_nt_xent_matches_direct_formula_small_batches():
    rng = np.random.default_rng(4)
    for b in (2, 3, 4):
        s = rng.normal(size=(b, b))
        tau = 0.31
        direct = 0.0
        for i in range(b):
            direct -= math.log(
                math.exp(s[i, i] / tau) / sum(math.exp(s[i, j] / tau) for j in range(b))
            )
            direct -= math.log(
                math.exp(s[i, i] / tau) / sum(math.exp(s[j, i] / tau) for j in range(b))
            )
        direct /= b
        assert abs(float(nt_xent(ad.Tensor(s), tau).value) - direct) < 1e-10


def test_total_loss_weighted_sum():
    cfg = ObjectiveConfig(tau=1.0, alpha=0.01, beta=0.005)
    got = float(total_loss(ad.Tensor(1.0), ad.Tensor(2.0), ad.Tensor(4.0), cfg).value)
    assert abs(got - 1.04) < 1e-15


def test_total_loss_zero_weights_pass_through_exactly():
    cfg = ObjectiveConfig(tau=1.0, alpha=0.0, beta=0.0)
    val = 0.123456789
    got = float(total_loss(ad.Tensor(val), ad.Tensor(99.0), ad.Tensor(99.0), cfg).value)
    assert got == val


def test_total_loss_all_zero():
    cfg = ObjectiveConfig(tau=1.0, alpha=0.01, beta=0.005)
    assert float(total_loss(ad.Tensor(0.0), ad.Tensor(0.0), ad.Tensor(0.0), cfg).value) == 0.0


def test_total_loss_linear_in_each_component():
    cfg = ObjectiveConfig(tau=1.0, alpha=0.3, beta=0.7)
    base = float(total_loss(ad.Tensor(1.0), ad.Tensor(1.0), ad.Tensor(1.0), cfg).value)
    bump_d = float(total_loss(ad.Tensor(1.0), ad.Tensor(2.0), ad.Tensor(1.0), cfg).value)
    bump_a = float(total_loss(ad.Tensor(1.0), ad.Tensor(1.0), ad.Tensor(2.0), cfg).value)
    assert abs((bump_d - base) - 0.3) < 1e-12
    assert abs((bump_a - base) - 0.7) < 1e-12


def test_mode_components():
    assert mode_components("DP") == ("DP",)
    assert mode_components("THA+DCR") == ("THA", "DCR")
    with pytest.raises(ConfigError):
        mode_components("DP+GLUE")
    with pytest.raises(ConfigError):
        mode_components("tha")


def test_objective_config_validation():
    with pytest.raises(ConfigError):
        ObjectiveConfig(tau=0.0)
    with pytest.raises(ConfigError):
        ObjectiveConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        ObjectiveConfig(similarity_mode="DCR+DP")


@pytest.fixture(scope="module")
def toy():
    cfg = SynthConfig(
        pairs=3, concept_count=8, factor_count=4, embed_dim=16, text_tokens=5,
        audio_tokens=8, noise_sigma=0.1, seed=5,
    )
    ds = generate(cfg)
    model = Model.build(
        ModelConfig(embed_dim=16, factor_count=4, attention=AttentionConfig()), seed=9
    )
    return model, ds.items


def test_batch_similarity_mode_additivity(toy):
    model, items = toy
    encoded = model.encode_arrays(items.audio, items.text)
    combined = model.similarity_matrix(encoded, "THA+DCR").value
    parts = model.similarity_matrix(encoded, "THA").value + model.similarity_matrix(encoded, "DCR").value
    assert np.abs(combined - parts).max() < 1e-12
    combined = model.similarity_matrix(encoded, "THA+DP").value
    parts = model.similarity_matrix(encoded, "THA").value + model.similarity_matrix(encoded, "DP").value
    assert np.abs(combined - parts).max() < 1e-12


def test_batch_similarity_matches_per_pair_oracle(toy):
    model, items = toy
    audio_sets = [oracle.encode_audio(audio, model.params) for audio in items.audio]
    text_sets = [oracle.encode_text(text, model.params) for text in items.text]
    for mode in obj.MODES:
        s = model.similarity_matrix(model.encode_arrays(items.audio, items.text), mode).value
        for i in range(3):
            for j in range(3):
                direct = oracle.pair_score(model, audio_sets[i], text_sets[j], mode)
                assert abs(s[i, j] - direct) < 1e-10, (mode, i, j)


def test_batch_similarity_dp_diagonal_for_identical_globals():
    from xmal.model import EncodedBatch

    rng = np.random.default_rng(6)
    g = rng.normal(size=(4, 16))
    levels = [ad.Tensor(rng.normal(size=(4, 2, 16))) for _ in range(3)]
    encoded = EncodedBatch(
        audio_levels=levels,
        audio_global=ad.Tensor(g),
        text_levels=levels,
        text_global=ad.Tensor(g),
    )
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), seed=0)
    s = model.similarity_matrix(encoded, "DP").value
    assert np.abs(np.diag(s) - 1.0).max() < 1e-12


def _tape_ops(*roots) -> list[str]:
    """Op names of the nodes reachable from `roots`, each node once."""
    ops, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if t._id not in ops:
            ops[t._id] = t._op
            stack.extend(t._parents)
    return list(ops.values())


def _items(pairs):
    cfg = SynthConfig(
        pairs=pairs, concept_count=8, factor_count=4, embed_dim=16, text_tokens=5,
        audio_tokens=8, noise_sigma=0.1, seed=8,
    )
    return generate(cfg).items


def test_taped_scores_are_one_op_per_level_whatever_the_eval_tile(monkeypatch):
    monkeypatch.setattr(evaluation, "TILE", 7)  # only tape-free eval tiles
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), seed=8)
    items = _items(20)
    encoded = model.encode_arrays(items.audio, items.text)
    loss = obj.nt_xent(model.similarity_matrix(encoded, "THA+DCR"), 0.07)
    ops = _tape_ops(loss)
    assert ops.count("tha_level") == 3
    assert ops.count("factor_pair_similarity") == 1
    assert not {"slice_rows", "concat", "block_matrix"} & set(ops)


def test_encoding_in_one_call_equals_encoding_in_chunks_bit_for_bit():
    items = _items(150)
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), seed=8)
    whole = model.encode_arrays(items.audio, items.text)
    chunks = [
        model.encode_arrays(items.audio[lo:hi], items.text[lo:hi])
        for lo, hi in ((0, 64), (64, 128), (128, 150))
    ]

    def outputs(e):
        return [*e.audio_levels, e.audio_global, *e.text_levels, e.text_global]

    assert not {"slice_rows", "concat"} & set(_tape_ops(*outputs(whole)))
    for i, got in enumerate(outputs(whole)):
        want = np.concatenate([outputs(c)[i].value for c in chunks])
        assert got.value.shape == want.shape and got.value.tobytes() == want.tobytes(), i