"""Factor projection, batch standardization, covariance and its losses."""

import numpy as np
import pytest

from xmal import autodiff as ad, factors, verify
from xmal.config import subsystem_rng
from xmal.errors import BatchTooSmallError, ConfigError, DimensionError
from xmal.model import Model, ModelConfig


def stack(arrays):
    """A (B, K, w) factor stack from K (B, w) arrays."""
    return np.stack(arrays, axis=1)


def make_set(arrays):
    return ad.Tensor(stack(arrays))


def test_project_single_identity_factor():
    g = np.array([[1.0, -2.0, 3.0]])
    z = factors.project_factors(ad.Tensor(g), ad.Tensor(np.eye(3)[None]))
    assert np.array_equal(z.value[:, 0], g)


def test_project_coordinate_selecting_banks():
    g = np.array([[1.0, 2.0, 3.0, 4.0]])
    first = np.zeros((2, 4))
    first[0, 0] = first[1, 1] = 1.0
    last = np.zeros((2, 4))
    last[0, 2] = last[1, 3] = 1.0
    z = factors.project_factors(ad.Tensor(g), ad.Tensor(np.stack([first, last])))
    assert np.array_equal(z.value, [[[1.0, 2.0], [3.0, 4.0]]])


def test_project_matches_per_factor_matmul_oracle():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3, 8))
    bank = rng.normal(size=(4, 2, 8))
    z = factors.project_factors(ad.Tensor(g), ad.Tensor(bank)).value
    assert z.shape == (3, 4, 2)
    for k in range(4):
        expected = np.zeros((3, 2))
        for b in range(3):
            expected[b] = bank[k] @ g[b]
        assert np.abs(z[:, k] - expected).max() < 1e-12


def test_project_rejects_indivisible_width():
    with pytest.raises(ConfigError):
        factors.project_factors(ad.Tensor(np.ones((2, 16))), ad.Tensor(np.ones((3, 5, 16))))
    with pytest.raises(DimensionError):  # a bank that does not tile the width
        factors.project_factors(ad.Tensor(np.ones((2, 16))), ad.Tensor(np.ones((4, 5, 16))))


def test_model_banks_equal_sequential_per_factor_draws():
    """Bank slice i of a built model is bit-equal to the i-th of K sequential
    (D/K, D) draws, replaying the init generator in per-factor order."""
    for seed in (0, 4, 11):
        cfg = ModelConfig(embed_dim=32, factor_count=8)
        model = Model.build(cfg, seed)
        rng = subsystem_rng(seed, "init")
        verify.drawn_rows(cfg, ("text.", "audio."), rng)
        bound = 1.0 / np.sqrt(cfg.embed_dim)
        for modality in ("text", "audio"):
            bank = model.params[f"factors.{modality}"].value
            assert bank.shape == (8, 4, 32)
            for i in range(cfg.factor_count):
                draw = rng.uniform(-bound, bound, size=(cfg.factor_dim, cfg.embed_dim))
                assert np.array_equal(bank[i], draw)
        conf = verify.drawn_rows(cfg, "conf.", rng)
        for name, param in conf.items():
            assert np.array_equal(model.params[name].value, param.value)


def test_stacked_ops_match_per_factor_loop():
    """Projection, standardization and covariance on (B, K, w) stacks against
    the per-factor (B, w) formulas they replace."""
    rng = np.random.default_rng(9)
    b, k, w, dim = 6, 4, 2, 8
    g_t, g_a = rng.normal(size=(b, dim)), rng.normal(size=(b, dim))
    bank_t, bank_a = rng.normal(size=(k, w, dim)), rng.normal(size=(k, w, dim))

    def standardized(g, bank):
        out = []
        for i in range(k):
            e = g @ bank[i].T
            centered = e - e.mean(axis=0)
            out.append(centered / np.sqrt((centered**2).mean(axis=0) + ad.EPS))
        return out

    loop_t, loop_a = standardized(g_t, bank_t), standardized(g_a, bank_a)
    f_t = factors.project_factors(ad.Tensor(g_t), ad.Tensor(bank_t))
    f_a = factors.project_factors(ad.Tensor(g_a), ad.Tensor(bank_a))
    z_t = factors.batch_standardize(f_t.value).value
    for i in range(k):
        assert np.abs(z_t[:, i] - loop_t[i]).max() < 1e-12
    want = np.array([[(loop_t[i] * loop_a[j]).mean() for j in range(k)] for i in range(k)])
    assert np.abs(factors.factor_covariance(f_t, f_a).value - want).max() < 1e-12


def test_standardize_two_point_batch():
    fs = stack([np.array([[1.0], [3.0]])])
    z = factors.batch_standardize(fs)
    assert np.abs(z.value[:, 0] - [[-1.0], [1.0]]).max() < 1e-6


def test_standardize_constant_dimension_maps_to_zero():
    fs = stack([np.array([[2.0, 1.0], [2.0, 3.0]])])
    z = factors.batch_standardize(fs).value[:, 0]
    assert np.array_equal(z[:, 0], [0.0, 0.0])


def test_standardize_moments():
    rng = np.random.default_rng(1)
    fs = stack([rng.normal(loc=3.0, scale=2.5, size=(8, 4))])
    z = factors.batch_standardize(fs).value[:, 0]
    assert np.abs(z.mean(axis=0)).max() < 1e-10
    assert np.abs(z.var(axis=0) - 1.0).max() < 1e-8


def test_standardize_rejects_singleton_batch():
    with pytest.raises(BatchTooSmallError):
        factors.batch_standardize(stack([np.ones((1, 3))]))
    with pytest.raises(BatchTooSmallError):  # the covariance standardizes its stacks
        factors.factor_covariance(make_set([np.ones((1, 3))]), make_set([np.ones((1, 3))]))


def test_standardize_affine_shift_invariance():
    rng = np.random.default_rng(2)
    e = rng.normal(size=(6, 3))
    z = factors.batch_standardize(stack([e])).value[:, 0]
    # |a| >= 0.1 keeps the variance guard's eps negligible next to a^2 var
    for a, c in ((2.0, 1.5), (-0.7, -4.0), (0.1, 100.0), (-35.0, 0.3)):
        z2 = factors.batch_standardize(stack([a * e + c])).value[:, 0]
        assert np.abs(z2 - np.sign(a) * z).max() < 1e-8


def test_covariance_diag_one_for_identical_standardized_sets():
    rng = np.random.default_rng(3)
    raw = [rng.normal(size=(8, 2)) for _ in range(4)]
    z = make_set(raw)
    c = factors.factor_covariance(z, z).value
    assert np.abs(np.diag(c) - 1.0).max() < 1e-10


def test_covariance_sign_flip():
    rng = np.random.default_rng(4)
    raw = [rng.normal(size=(8, 2)) for _ in range(3)]
    z = make_set(raw)
    c = factors.factor_covariance(z, ad.mul(z, -1.0)).value
    assert np.abs(np.diag(c) + 1.0).max() < 1e-10


def test_covariance_independent_factors_concentrate():
    rng = np.random.default_rng(5)
    zt = make_set([rng.normal(size=(512, 2)) for _ in range(4)])
    za = make_set([rng.normal(size=(512, 2)) for _ in range(4)])
    c = factors.factor_covariance(zt, za).value
    off = c[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.2


def test_covariance_invariant_to_per_dimension_affine_maps():
    """The covariance standardizes its raw stacks, so a positive scale and a
    shift per factor dimension leave it unchanged, and a negated stack
    negates it."""
    rng = np.random.default_rng(6)
    a = stack([rng.normal(size=(5, 2)) for _ in range(3)])
    other = make_set([rng.normal(size=(5, 2)) for _ in range(3)])
    scale = rng.uniform(0.5, 2.0, size=(1, 3, 2))
    shift = rng.normal(size=(1, 3, 2))
    c = factors.factor_covariance(ad.Tensor(a), other).value
    c_mapped = factors.factor_covariance(ad.Tensor(a * scale + shift), other).value
    c_negated = factors.factor_covariance(ad.Tensor(-a), other).value
    assert np.abs(c_mapped - c).max() < 1e-12
    assert np.array_equal(c_negated, -c)


def test_covariance_shape_mismatch():
    with pytest.raises(DimensionError):
        factors.factor_covariance(
            make_set([np.ones((4, 2))]), make_set([np.ones((4, 2)), np.ones((4, 2))])
        )
    with pytest.raises(DimensionError):
        factors.factor_covariance(make_set([np.ones((4, 2))]), make_set([np.ones((5, 2))]))


def test_decoupling_loss_cases():
    assert float(factors.decoupling_loss(ad.Tensor(np.diag([1.0, -2.0, 0.3]))).value) == 0.0
    c = np.array([[1.0, 0.5], [-0.5, 1.0]])
    assert abs(float(factors.decoupling_loss(ad.Tensor(c)).value) - 0.5) < 1e-15
    assert abs(float(factors.decoupling_loss(ad.Tensor(np.ones((3, 3)))).value) - 6.0) < 1e-15


def test_alignment_loss_cases():
    assert float(factors.alignment_loss(ad.Tensor(np.eye(3) + np.array([[0, 9, 0], [0, 0, 0], [0, 0, 0.0]]))).value) == 0.0
    assert abs(float(factors.alignment_loss(ad.Tensor(np.zeros((2, 2)))).value) - 2.0) < 1e-15
    c = np.diag([0.5, 1.0, -1.0])
    assert abs(float(factors.alignment_loss(ad.Tensor(c)).value) - 4.25) < 1e-15


def test_losses_nonnegative_and_zero_at_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = ad.Tensor(rng.normal(size=(4, 4)))
        assert float(factors.decoupling_loss(c).value) >= 0.0
        assert float(factors.alignment_loss(c).value) >= 0.0
    eye = ad.Tensor(np.eye(4))
    assert float(factors.decoupling_loss(eye).value) == 0.0
    assert float(factors.alignment_loss(eye).value) == 0.0


def test_losses_gradient_through_pipeline_vs_finite_differences():
    rng = np.random.default_rng(8)
    text_globals = ad.Tensor(rng.normal(size=(6, 8)))
    audio_globals = ad.Tensor(rng.normal(size=(6, 8)))
    bank_t = ad.parameter(rng.normal(size=(4, 2, 8)), "wt")
    bank_a = ad.parameter(rng.normal(size=(4, 2, 8)), "wa")

    def cov():
        ft = factors.project_factors(text_globals, bank_t)
        fa = factors.project_factors(audio_globals, bank_a)
        return factors.factor_covariance(ft, fa)

    err_d = ad.finite_difference_check(lambda: factors.decoupling_loss(cov()), [bank_t, bank_a])
    err_a = ad.finite_difference_check(lambda: factors.alignment_loss(cov()), [bank_t, bank_a])
    assert err_d < 1e-4 and err_a < 1e-4


def test_gradient_descent_on_banks_decouples_and_aligns():
    # fixed random batch; banks only; plain gradient descent
    rng = np.random.default_rng(42)
    b, dim, k = 32, 16, 4
    text_globals = ad.Tensor(rng.normal(size=(b, dim)))
    audio_globals = ad.Tensor(rng.normal(size=(b, dim)))
    cfg = ModelConfig(dim, k)
    bank_t = verify.drawn_rows(cfg, "factors.text", np.random.default_rng(1))["factors.text"]
    bank_a = verify.drawn_rows(cfg, "factors.audio", np.random.default_rng(2))["factors.audio"]
    params = [bank_t, bank_a]

    def cov():
        ft = factors.project_factors(text_globals, bank_t)
        fa = factors.project_factors(audio_globals, bank_a)
        return factors.factor_covariance(ft, fa)

    e0 = float(factors.decoupling_loss(cov()).value)
    for _ in range(500):
        loss = ad.add(factors.decoupling_loss(cov()), factors.alignment_loss(cov()))
        grads = ad.gradients(loss, params)
        for p in params:
            p.value = p.value - 1e-2 * grads[p.name]
    c1 = cov()
    assert float(factors.decoupling_loss(c1).value) <= 0.5 * e0
    assert np.diag(c1.value).min() > 0.5
