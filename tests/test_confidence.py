"""Confidence network and the weighted factor-pair similarity."""

import numpy as np
import oracle
import pytest

from xmal import autodiff as ad
from xmal.confidence import (
    SQUASHES,
    confidence_batch,
    factor_pair_kernel_terms,
    factor_pair_similarity_kernel,
    factor_pair_similarity_matrix,
    init_confidence_params,
)
from xmal.errors import ConfigError, DimensionError


def zero_params(factor_dim, hidden):
    return {
        "conf.w1": ad.parameter(np.zeros((hidden, 2 * factor_dim)), "conf.w1"),
        "conf.b1": ad.parameter(np.zeros(hidden), "conf.b1"),
        "conf.w2": ad.parameter(np.zeros((1, hidden)), "conf.w2"),
        "conf.b2": ad.parameter(np.zeros(1), "conf.b2"),
    }


def pair(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64)[None])


def test_zero_network_outputs_half():
    params = zero_params(3, 4)
    g = confidence_batch(pair([1.0, -2.0, 0.5]), pair([0.3, 0.0, 1.0]), params)
    assert float(g.value[0]) == 0.5


def test_large_output_bias_saturates_toward_one():
    params = zero_params(2, 3)
    params["conf.b2"].value = np.array([50.0])
    g = confidence_batch(pair([1.0, 2.0]), pair([3.0, 4.0]), params)
    assert float(g.value[0]) > 0.999


def test_confidence_matches_layer_by_layer_oracle():
    rng = np.random.default_rng(0)
    d, hidden = 3, 5
    params = init_confidence_params(d, hidden, rng)
    e_t = rng.normal(size=(4, d))
    e_a = rng.normal(size=(4, d))
    got = confidence_batch(ad.Tensor(e_t), ad.Tensor(e_a), params).value
    for p in range(4):
        assert abs(got[p] - oracle.confidence(e_t[p], e_a[p], params)) < 1e-12


def test_confidence_dim_mismatch():
    params = zero_params(3, 4)
    with pytest.raises(DimensionError):
        confidence_batch(pair([1.0, 2.0]), pair([1.0, 2.0, 3.0]), params)
    with pytest.raises(DimensionError):
        confidence_batch(pair([1.0, 2.0]), pair([1.0, 2.0]), params)


def test_confidence_bounded_in_unit_interval():
    rng = np.random.default_rng(1)
    params = init_confidence_params(4, 4, rng)
    g = confidence_batch(
        ad.Tensor(rng.normal(size=(100, 4)) * 3), ad.Tensor(rng.normal(size=(100, 4)) * 3), params
    ).value
    assert ((0.0 < g) & (g < 1.0)).all()
    # far outside the operating range the squash may round to the endpoints
    g = confidence_batch(
        ad.Tensor(rng.normal(size=(20, 4)) * 1e4), ad.Tensor(rng.normal(size=(20, 4)) * 1e4), params
    ).value
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
    params = init_confidence_params(2, 2, rng)
    text = [[1.0, 0.0], [0.0, 2.0]]
    audio = [[0.0, 3.0], [-5.0, 0.0]]
    assert abs(pair_similarity(text, audio, params)) < 1e-15


def test_pair_similarity_matches_composed_oracle():
    rng = np.random.default_rng(3)
    d, k = 3, 4
    params = init_confidence_params(d, d, rng)
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
    params = init_confidence_params(d, d, rng)
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


def test_unsquashed_mode_returns_raw_output():
    rng = np.random.default_rng(6)
    params = init_confidence_params(3, 3, rng)
    raw = confidence_batch(pair(rng.normal(size=3)), pair(rng.normal(size=3)), params, squash="none")
    assert np.isfinite(raw.value).all()
    with pytest.raises(ConfigError):
        confidence_batch(pair([1.0]), pair([1.0]), zero_params(1, 2), squash="hard")


def test_similarity_matrix_matches_per_pair_calls():
    rng = np.random.default_rng(7)
    b, d, k = 3, 2, 3
    params = init_confidence_params(d, d, rng)
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
    params = init_confidence_params(d, d, rng)
    text = ad.parameter(rng.normal(size=(3, k, d)), "t")
    audio = ad.parameter(rng.normal(size=(2, k, d)), "a")
    probe = rng.normal(size=(2, 3))
    everything = [text, audio, *params.values()]

    def fn():
        return ad.reduce_sum(ad.mul(factor_pair_similarity_matrix(text, audio, params), probe))

    assert ad.finite_difference_check(fn, everything, h=1e-5) < 1e-4


# -- forward-only kernel against the composed ops ----------------------------------


@pytest.mark.parametrize("zero_rows", (False, True))
def test_kernel_matches_composed_ops(zero_rows):
    rng = np.random.default_rng(40)
    params = init_confidence_params(4, 5, rng)
    for name in ("conf.b1", "conf.b2"):
        params[name].value[:] = rng.normal(size=params[name].value.shape)
    text = rng.normal(size=(12, 3, 4))  # K = 3 factors of 12 text items
    audio = rng.normal(size=(7, 3, 4))  # and of 7 audio items
    if zero_rows:
        text[5, 1] = 0.0
        audio[2] = 0.0  # every factor of one audio item
    for squash in SQUASHES:
        composed = factor_pair_similarity_matrix(ad.Tensor(text), ad.Tensor(audio), params, squash)
        assert composed._parents != ()  # a tape records: the composed ops ran
        with ad.no_grad():
            fast = factor_pair_similarity_matrix(
                ad.Tensor(text), ad.Tensor(audio), params, squash
            ).value
        assert np.array_equal(fast, factor_pair_similarity_kernel(text, audio, params, squash))
        assert fast.shape == (7, 12)
        g, cos = factor_pair_kernel_terms(text, audio, params, squash)
        assert g.shape == cos.shape == (3, 7, 12)
        for i, j in ((0, 0), (6, 11)):
            for k in range(3):
                want_g = oracle.confidence(text[j, k], audio[i, k], params, squash)
                assert abs(g[k, i, j] - want_g) < 1e-12
                assert abs(cos[k, i, j] - oracle.cosine(text[j, k], audio[i, k])) < 1e-12
        assert np.abs(fast - composed.value).max() < 1e-12, squash
        if zero_rows:
            assert (fast[2] == 0.0).all()  # zero cosines weigh nothing


def test_kernel_rejects_mismatched_stacks():
    rng = np.random.default_rng(42)
    params = init_confidence_params(4, 4, rng)
    with pytest.raises(DimensionError):
        factor_pair_similarity_kernel(np.zeros((5, 3, 4)), np.zeros((5, 2, 4)), params)
    with pytest.raises(DimensionError):
        factor_pair_similarity_kernel(np.zeros((5, 3, 3)), np.zeros((5, 3, 3)), params)
    with pytest.raises(ConfigError):
        factor_pair_similarity_kernel(np.zeros((5, 3, 4)), np.zeros((5, 3, 4)), params, "hard")


def _taped_dcr_nodes(k, b_t, b_a, d=3, hidden=4):
    """The nodes a taped DCR score of random (B_t, K, d) and (B_a, K, d)
    stacks records, found by walking back from its output."""
    rng = np.random.default_rng(k * 100 + b_t)
    params = init_confidence_params(d, hidden, rng)
    text = ad.parameter(rng.normal(size=(b_t, k, d)), "t")
    audio = ad.parameter(rng.normal(size=(b_a, k, d)), "a")
    first = ad.Tensor(0.0)._id + 1
    out = factor_pair_similarity_matrix(text, audio, params)
    nodes, stack = {}, [out]
    while stack:
        t = stack.pop()
        if t._id >= first and t._id not in nodes:
            nodes[t._id] = t
            stack.extend(t._parents)
    return list(nodes.values())


def test_taped_dcr_is_one_op_chain_for_all_factors_and_pairs():
    counts = set()
    for k, b_t, b_a in ((1, 2, 3), (4, 5, 3), (8, 16, 16)):
        nodes = _taped_dcr_nodes(k, b_t, b_a)
        counts.add(len(nodes))
        # the largest value is the (K, B_a, B_t, h) hidden layer: no (B_a*B_t, B) gather matrix
        assert max(t.value.size for t in nodes) == k * b_a * b_t * 4
    assert len(counts) == 1  # independent of K and of the batch sizes
