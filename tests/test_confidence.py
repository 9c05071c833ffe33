"""Confidence network and the weighted factor-pair similarity."""

import numpy as np
import oracle
import pytest

from xmal import autodiff as ad, verify
from xmal.confidence import PARAM_NAMES, factor_pair_similarity_matrix, factor_terms
from xmal.errors import DimensionError
from xmal.model import ModelConfig


def confidence_params(factor_dim, hidden, rng):
    """The `conf.*` rows of the model's parameter table, drawn from `rng`."""
    return verify.drawn_rows(ModelConfig(factor_dim, 1, hidden=hidden), "conf.", rng)


def zero_params(factor_dim, hidden):
    return {
        "conf.w1": ad.parameter(np.zeros((hidden, 2 * factor_dim)), "conf.w1"),
        "conf.b1": ad.parameter(np.zeros(hidden), "conf.b1"),
        "conf.w2": ad.parameter(np.zeros((1, hidden)), "conf.w2"),
        "conf.b2": ad.parameter(np.zeros(1), "conf.b2"),
    }


def pair(x):
    """A (1, 1, d) factor stack: one item with one factor."""
    return np.asarray(x, dtype=np.float64)[None, None]


def confidences(text, audio, params):
    """The (K, B_a, B_t) confidences g of `factor_terms`."""
    return factor_terms(text, audio, params)[0]


def test_zero_network_outputs_half():
    params = zero_params(3, 4)
    g = confidences(pair([1.0, -2.0, 0.5]), pair([0.3, 0.0, 1.0]), params)
    assert g.shape == (1, 1, 1) and float(g[0, 0, 0]) == 0.5


def test_large_output_bias_saturates_toward_one():
    params = zero_params(2, 3)
    params["conf.b2"].value = np.array([50.0])
    g = confidences(pair([1.0, 2.0]), pair([3.0, 4.0]), params)
    assert float(g[0, 0, 0]) > 0.999


def test_confidence_matches_layer_by_layer_oracle():
    rng = np.random.default_rng(0)
    d, hidden = 3, 5
    params = confidence_params(d, hidden, rng)
    e_t = rng.normal(size=(4, 2, d))
    e_a = rng.normal(size=(3, 2, d))
    got = confidences(e_t, e_a, params)
    assert got.shape == (2, 3, 4)
    for k in range(2):
        for i in range(3):
            for j in range(4):
                want = oracle.confidence(e_t[j, k], e_a[i, k], params)
                assert abs(got[k, i, j] - want) < 1e-12


def test_confidence_dim_mismatch():
    params = zero_params(3, 4)
    with pytest.raises(DimensionError):
        confidences(pair([1.0, 2.0]), pair([1.0, 2.0, 3.0]), params)
    with pytest.raises(DimensionError):
        confidences(pair([1.0, 2.0]), pair([1.0, 2.0]), params)
    with pytest.raises(DimensionError):
        confidences(np.zeros((2, 1, 3)), np.zeros((2, 2, 3)), params)
    with pytest.raises(DimensionError):
        confidences(np.zeros((1, 3)), np.zeros((1, 3)), params)


def test_confidence_bounded_in_unit_interval():
    rng = np.random.default_rng(1)
    params = confidence_params(4, 4, rng)
    g = confidences(rng.normal(size=(50, 2, 4)) * 3, rng.normal(size=(50, 2, 4)) * 3, params)
    assert ((0.0 < g) & (g < 1.0)).all()
    # far outside the operating range the logistic may round to the endpoints
    g = confidences(rng.normal(size=(10, 2, 4)) * 1e4, rng.normal(size=(10, 2, 4)) * 1e4, params)
    assert ((0.0 <= g) & (g <= 1.0)).all()


def stack(factor_list):
    """A (1, K, d) factor stack of one item from K (d,) factor vectors."""
    return ad.Tensor(np.asarray(factor_list, dtype=np.float64)[None])


def pair_similarity(text, audio, params):
    """factor_pair_similarity_matrix of one (audio, text) item pair: lists of
    K (d,) factor vectors -> a float."""
    return float(factor_pair_similarity_matrix(stack(text), stack(audio), params).value[0, 0])


def test_pair_similarity_saturated_identical_factor():
    params = zero_params(2, 3)
    params["conf.b2"].value = np.array([50.0])
    v = [0.6, -0.8]
    assert abs(pair_similarity([v], [v], params) - 1.0) < 1e-3


def test_pair_similarity_orthogonal_factors_zero():
    rng = np.random.default_rng(2)
    params = confidence_params(2, 2, rng)
    text = [[1.0, 0.0], [0.0, 2.0]]
    audio = [[0.0, 3.0], [-5.0, 0.0]]
    assert abs(pair_similarity(text, audio, params)) < 1e-15


def test_pair_similarity_matches_composed_oracle():
    rng = np.random.default_rng(3)
    d, k = 3, 4
    params = confidence_params(d, d, rng)
    text = [rng.normal(size=d) for _ in range(k)]
    audio = [rng.normal(size=d) for _ in range(k)]
    expected = 0.0
    for e_t, e_a in zip(text, audio):
        x = np.concatenate([e_t, e_a])
        h = np.maximum(params["conf.w1"].value @ x + params["conf.b1"].value, 0.0)
        y = (params["conf.w2"].value @ h + params["conf.b2"].value)[0]
        g = 1.0 / (1.0 + np.exp(-y))
        expected += g * (e_t @ e_a) / (np.linalg.norm(e_t) * np.linalg.norm(e_a))
    assert abs(pair_similarity(text, audio, params) - expected) < 1e-10


def test_pair_similarity_factor_count_mismatch():
    params = zero_params(2, 2)
    with pytest.raises(DimensionError):
        factor_pair_similarity_matrix(stack([[1.0, 2.0]]), stack([[1.0, 2.0]] * 2), params)


def test_pair_similarity_bounded_by_factor_count():
    rng = np.random.default_rng(4)
    k, d, b = 4, 3, 8
    params = confidence_params(d, d, rng)
    text = ad.Tensor(rng.normal(size=(b, k, d)))
    audio = ad.Tensor(rng.normal(size=(b, k, d)))
    s = factor_pair_similarity_matrix(text, audio, params).value
    assert (np.abs(s) < k).all()


def test_cosine_scale_invariance_exact():
    rng = np.random.default_rng(5)
    e_t = rng.normal(size=4)
    e_a = rng.normal(size=4)

    def cos(x, y):
        return float(
            ad.reduce_sum(ad.mul(ad.normalize_rows(ad.Tensor(x)), ad.normalize_rows(ad.Tensor(y)))).value
        )

    base = cos(e_t, e_a)
    for c in (2.0, 8.0, 0.25):
        assert abs(cos(c * e_t, c * e_a) - base) < 1e-12


def test_similarity_matrix_matches_per_pair_calls():
    rng = np.random.default_rng(7)
    b, d, k = 3, 2, 3
    params = confidence_params(d, d, rng)
    text = rng.normal(size=(b, k, d))
    audio = rng.normal(size=(b, k, d))
    s = factor_pair_similarity_matrix(ad.Tensor(text), ad.Tensor(audio), params).value
    for i in range(b):
        for j in range(b):
            t_item, a_item = list(text[j]), list(audio[i])
            assert abs(s[i, j] - oracle.dcr_score(t_item, a_item, params)) < 1e-10


def test_gradients_vs_finite_differences():
    rng = np.random.default_rng(8)
    d, k = 2, 3
    params = confidence_params(d, d, rng)
    text = ad.parameter(rng.normal(size=(3, k, d)), "t")
    audio = ad.parameter(rng.normal(size=(2, k, d)), "a")
    probe = rng.normal(size=(2, 3))
    everything = [text, audio, *params.values()]

    def fn():
        return ad.reduce_sum(ad.mul(factor_pair_similarity_matrix(text, audio, params), probe))

    assert ad.finite_difference_check(fn, everything, h=1e-5) < 1e-4


# -- the fused op against the composed oracle ------------------------------------


@pytest.mark.parametrize("zero_rows", (False, True))
def test_kernel_matches_composed_ops(zero_rows):
    rng = np.random.default_rng(40)
    params = confidence_params(4, 5, rng)
    for name in ("conf.b1", "conf.b2"):
        params[name].value[:] = rng.normal(size=params[name].value.shape)
    text = rng.normal(size=(12, 3, 4))  # K = 3 factors of 12 text items
    audio = rng.normal(size=(7, 3, 4))  # and of 7 audio items
    if zero_rows:
        text[5, 1] = 0.0
        audio[2] = 0.0  # every factor of one audio item
    composed = verify.composed_factor_pair_similarity(ad.Tensor(text), ad.Tensor(audio), params)
    taped = factor_pair_similarity_matrix(ad.Tensor(text), ad.Tensor(audio), params)
    assert taped._op == "factor_pair_similarity"
    with ad.no_grad():
        untaped = factor_pair_similarity_matrix(ad.Tensor(text), ad.Tensor(audio), params)
    assert untaped._parents == () and untaped._backward is None
    fast = untaped.value
    assert np.array_equal(taped.value, fast)  # one implementation, taped or not
    assert fast.shape == (7, 12)
    g, cos, _ = factor_terms(text, audio, params)
    assert g.shape == cos.shape == (3, 7, 12)
    for i, j in ((0, 0), (6, 11)):
        for k in range(3):
            assert abs(g[k, i, j] - oracle.confidence(text[j, k], audio[i, k], params)) < 1e-12
            assert abs(cos[k, i, j] - oracle.cosine(text[j, k], audio[i, k])) < 1e-12
    assert np.abs(fast - composed.value).max() < 1e-12
    if zero_rows:
        assert (fast[2] == 0.0).all()  # zero cosines weigh nothing


def test_kernel_rejects_mismatched_stacks():
    rng = np.random.default_rng(42)
    params = confidence_params(4, 4, rng)
    with pytest.raises(DimensionError):
        factor_pair_similarity_matrix(np.zeros((5, 3, 4)), np.zeros((5, 2, 4)), params)
    with pytest.raises(DimensionError):
        factor_pair_similarity_matrix(np.zeros((5, 3, 3)), np.zeros((5, 3, 3)), params)


def test_verify_dcr_gaps_to_composed_oracle():
    """Values within 1e-12 and gradients of both stacks and all four conf.*
    parameters within 1e-10 relative, with zero rows and a zero item."""
    value_gap, grad_gap = verify._dcr_gaps()
    assert value_gap < 1e-12
    assert grad_gap < 1e-10


def test_fused_dcr_difference_check_catches_planted_gradient():
    build = dict(verify._primitive_cases())["factor_pair_similarity"]
    fn, params = build(np.random.default_rng(1000))
    assert len(params) == 6  # both stacks and the four conf.* parameters
    assert ad.finite_difference_check(fn, params) < 1e-6
    ad.GRAD_OVERRIDES["factor_pair_similarity"] = 1.5
    try:
        assert ad.finite_difference_check(fn, params) > 0.3
    finally:
        ad.GRAD_OVERRIDES.clear()


def test_taped_dcr_records_one_op_for_every_shape():
    for k, b_t, b_a in ((1, 2, 3), (4, 5, 3), (8, 16, 16), (3, 1, 1)):
        rng = np.random.default_rng(k * 100 + b_t)
        params = confidence_params(3, 4, rng)
        text = ad.parameter(rng.normal(size=(b_t, k, 3)), "t")
        audio = ad.parameter(rng.normal(size=(b_a, k, 3)), "a")
        first = ad.Tensor(0.0)._id + 1
        out = factor_pair_similarity_matrix(text, audio, params)
        assert out._id == first  # nothing else was recorded on the way
        assert out._op == "factor_pair_similarity" and out.value.shape == (b_a, b_t)
        assert out._parents == (text, audio, *(params[name] for name in PARAM_NAMES))
