"""Gradient engine: op contracts, independent oracles, FD verification."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from xmal import autodiff as ad
from xmal.errors import ContractError, DimensionError
from xmal.verify import _primitive_cases, primitive_checks


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor(m)).value
    assert np.array_equal(out, m)


def test_matmul_orthogonal_selection():
    out = ad.matmul(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[0.0], [5.0]])).value
    assert np.array_equal(out, [[0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b)).value
    assert np.abs(out - expected).max() < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.matmul(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((5, 2))))
    assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)


def test_row_softmax_symmetric_pair():
    out = ad.row_softmax(ad.Tensor([0.0, 0.0]), 1.0).value
    assert np.abs(out - [0.5, 0.5]).max() < 1e-15


def test_row_softmax_single_element():
    out = ad.row_softmax(ad.Tensor([3.7]), 5.0).value
    assert out.shape == (1,) and out[0] == 1.0


def test_row_softmax_matches_direct_formula():
    row = np.array([1.0, 2.0, 3.0])
    direct = np.exp(2.0 * row) / np.exp(2.0 * row).sum()
    out = ad.row_softmax(ad.Tensor(row), 2.0).value
    assert np.abs(out - direct).max() < 1e-12


def test_row_softmax_rows_sum_to_one_large_magnitudes():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scale_up = rng.choice([1.0, 1e3])
        m = rng.normal(size=(3, 4)) * scale_up
        out = ad.row_softmax(ad.Tensor(m), float(rng.uniform(0.2, 3.0))).value
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert (out >= 0).all() and (out <= 1.0).all()
        if scale_up == 1.0:  # huge spreads underflow to exact zero, correctly
            assert (out > 0).all()


def test_row_softmax_rejects_nonpositive_scale():
    with pytest.raises(ContractError):
        ad.row_softmax(ad.Tensor([1.0, 2.0]), 0.0)


@pytest.mark.parametrize("value,expected", [(-3.0, 0.0), (0.0, 0.0), (2.5, 2.5)])
def test_hinge_scalar_cases(value, expected):
    assert float(ad.hinge(ad.Tensor([value])).value[0]) == expected


def test_hinge_idempotent_exactly():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rng.normal(size=(4, 3))
        once = ad.hinge(ad.Tensor(m)).value
        twice = ad.hinge(ad.Tensor(once)).value
        assert np.array_equal(once, twice)


def test_hinge_subgradient_zero_at_zero():
    x = ad.parameter(np.array([0.0, -1.0, 2.0]), "x")
    grads = ad.gradients(ad.reduce_sum(ad.hinge(x)), [x])
    assert np.array_equal(grads["x"], [0.0, 0.0, 1.0])


def test_l2_normalize_345_triangle():
    out = ad.normalize_rows(ad.Tensor([3.0, 4.0])).value
    assert np.abs(out - [0.6, 0.8]).max() < 1e-15


def test_l2_normalize_zero_vector_guarded():
    out = ad.normalize_rows(ad.Tensor([0.0, 0.0])).value
    assert np.array_equal(out, [0.0, 0.0])


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8)
    out = ad.normalize_rows(ad.Tensor(v)).value
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_grad_square_analytic():
    x = ad.parameter(np.array(3.0), "x")
    assert float(ad.gradients(ad.mul(x, x), [x])["x"]) == 6.0


def test_grad_of_softmax_sum_is_zero():
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.normal(size=(3, 5)), "x")
    grads = ad.gradients(ad.reduce_sum(ad.row_softmax(x, 1.7)), [x])
    assert np.abs(grads["x"]).max() < 1e-14


def test_grad_rejects_nonscalar_target():
    x = ad.parameter(np.ones((2, 2)), "x")
    with pytest.raises(ContractError):
        ad.gradients(ad.mul(x, 2.0), [x])


def test_grad_unused_parameter_is_exact_zero():
    x = ad.parameter(np.array(2.0), "x")
    unused = ad.parameter(np.ones((3, 2)), "unused")
    grads = ad.gradients(ad.mul(x, x), [x, unused])
    assert np.array_equal(grads["unused"], np.zeros((3, 2)))


def test_grad_shared_subexpression_accumulates_once_per_op():
    # f = (x@x) summed twice through one shared node; diamond reuse must not
    # double- or under-count.
    x = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), "x")
    shared = ad.matmul(x, x)
    loss = ad.add(ad.reduce_sum(shared), ad.reduce_sum(shared))

    def fn():
        s = ad.matmul(x, x)
        return ad.add(ad.reduce_sum(s), ad.reduce_sum(s))

    assert ad.finite_difference_check(fn, [x]) < 1e-8
    grads = ad.gradients(loss, [x])
    assert np.isfinite(grads["x"]).all()


def test_grad_linearity_on_random_compositions():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = ad.parameter(rng.normal(size=(3, 3)), "x")
        c = rng.normal(size=(3, 3))

        def f():
            return ad.reduce_sum(ad.mul(ad.hinge(x), c))

        def g():
            return ad.reduce_sum(ad.mul(x, x))

        gf = ad.gradients(f(), [x])["x"]
        gg = ad.gradients(g(), [x])["x"]
        gsum = ad.gradients(ad.add(f(), g()), [x])["x"]
        assert np.abs(gsum - (gf + gg)).max() < 1e-12


def test_finite_difference_exact_on_linear():
    rng = np.random.default_rng(6)
    x = ad.parameter(rng.normal(size=(4,)), "x")
    c = rng.normal(size=(4,))
    err = ad.finite_difference_check(lambda: ad.reduce_sum(ad.mul(x, c)), [x])
    assert err < 1e-10


def test_finite_difference_cubic():
    x = ad.parameter(np.array(1.0), "x")
    err = ad.finite_difference_check(lambda: ad.mul(ad.mul(x, x), x), [x], h=1e-5)
    assert err < 1e-9


def test_finite_difference_nt_xent_random_matrix():
    from xmal.objective import nt_xent

    rng = np.random.default_rng(7)
    s = ad.parameter(rng.normal(size=(3, 3)), "s")
    err = ad.finite_difference_check(lambda: nt_xent(s, 0.5), [s], h=1e-5)
    assert err < 1e-6


def test_finite_difference_rejects_bad_step():
    x = ad.parameter(np.array(1.0), "x")
    with pytest.raises(ContractError):
        ad.finite_difference_check(lambda: ad.mul(x, x), [x], h=0.5)


def test_every_primitive_passes_randomized_gradient_check():
    for result in primitive_checks(seeds=10, h=1e-5, tol=1e-6):
        assert result.passed, f"{result.name}: {result.worst:.3e}"


def test_grad_override_hook_breaks_named_op_only():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]), "x")

    def fn():
        return ad.reduce_sum(ad.mul(ad.hinge(x), ad.hinge(x)))

    clean = ad.finite_difference_check(fn, [x])
    ad.GRAD_OVERRIDES["hinge"] = 1.5
    try:
        broken = ad.finite_difference_check(fn, [x])
    finally:
        ad.GRAD_OVERRIDES.clear()
    assert clean < 1e-8 and broken > 1e-3


def test_backward_visits_each_op_once_in_reverse_order():
    rng = np.random.default_rng(9)
    x = ad.parameter(rng.normal(size=(3, 3)), "x")
    shared = ad.hinge(ad.matmul(x, x))
    loss = ad.add(ad.reduce_sum(shared), ad.reduce_sum(ad.mul(shared, shared)))

    calls = []
    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            original = node._backward
            node._backward = (
                lambda g, _orig=original, _n=node: (calls.append(_n._id), _orig(g))[1]
            )
        stack.extend(node._parents)

    ad.gradients(loss, [x])
    assert len(calls) == len(set(calls))  # each op exactly once
    assert calls == sorted(calls, reverse=True)  # reverse recording order


def test_values_stay_finite_through_composites():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) * 100.0
        out = ad.row_softmax(ad.normalize_rows(ad.Tensor(m)), 9.0)
        assert np.isfinite(out.value).all()


def test_no_grad_records_no_parents_and_keeps_node_ids():
    x = ad.parameter(np.arange(6.0).reshape(3, 2), "x")
    with ad.no_grad():
        first = next(ad._node_ids)
        y = ad.reduce_sum(ad.mul(ad.slice_rows(x, 1, 3), 2.0))
        z = ad.normalize_rows(ad.matmul(x, ad.permute(x, (1, 0))))
        leaf = ad.parameter(np.ones(2), "leaf")
    for t in (y, z):
        assert t._parents == () and t._backward is None and not t.requires_grad
    assert leaf.requires_grad  # a leaf asked for a gradient keeps the flag
    assert y._id > first and z._id > y._id  # ids still come from the shared counter
    assert float(y.value) == 2.0 * (2 + 3 + 4 + 5)


def test_no_grad_restores_recording_after_exception_and_nesting():
    x = ad.parameter(np.ones(3), "x")
    with pytest.raises(ValueError):
        with ad.no_grad():
            raise ValueError("boom")
    assert ad.mul(x, 2.0)._parents != ()
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.mul(x, 2.0)._parents == ()  # the inner exit keeps the outer scope tape-free
    assert ad.mul(x, 2.0)._parents != ()
    assert float(ad.gradients(ad.reduce_sum(ad.mul(x, 2.0)), [x])["x"].sum()) == 6.0


def test_is_recording_follows_no_grad_scopes():
    assert ad.is_recording()
    with ad.no_grad():
        assert not ad.is_recording()
        with ad.no_grad():
            assert not ad.is_recording()
        assert not ad.is_recording()
    assert ad.is_recording()


def test_slice_rows_value_gradient_and_bounds():
    x = ad.parameter(np.arange(12.0).reshape(4, 3), "x")
    s = ad.slice_rows(x, 1, 3)
    assert np.array_equal(s.value, x.value[1:3])
    g = ad.gradients(ad.reduce_sum(ad.mul(s, s)), [x])["x"]
    expected = np.zeros((4, 3))
    expected[1:3] = 2.0 * x.value[1:3]
    assert np.array_equal(g, expected)
    for start, stop in ((2, 2), (-1, 2), (0, 5)):
        with pytest.raises(DimensionError):
            ad.slice_rows(x, start, stop)


def test_workspace_grows_never_shrinks_and_fresh_never_reuses():
    ws = ad.Workspace()
    a = ws.array("x", (4, 5))
    assert a.shape == (4, 5) and a.flags.c_contiguous and a.dtype == np.float64
    small = ws.array("x", (2, 3))
    assert np.shares_memory(a, small) and ws.buffers["x"].size == 20  # reused, not shrunk
    big = ws.array("x", (6, 6))
    assert ws.buffers["x"].size == 36 and not np.shares_memory(a, big)  # grown
    assert not np.shares_memory(big, ws.array("y", (6, 6)))  # one buffer per name
    first, second = ad.FRESH.array("x", (3,)), ad.FRESH.array("x", (3,))
    assert not np.shares_memory(first, second) and ad.FRESH.buffers == {}


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_raw_operands_stay_closure_constants(op):
    """A float or array operand takes no node and is no parent, and the
    gradient w.r.t. the tensor operand equals the one through a constant
    leaf bit for bit."""
    rng = np.random.default_rng(12)
    x = ad.parameter(rng.uniform(0.5, 2.0, size=(3, 4)), "x")
    probe = rng.normal(size=(3, 4))
    for const in (1.7, rng.uniform(0.5, 2.0, size=(1, 4))):
        for args in ((x, const), (const, x)):
            first = next(ad._node_ids) + 1
            out = op(*args)
            assert out._parents == (x,)
            assert out._id == first  # the op's node is the only one recorded
            leaf_args = tuple(a if a is x else ad.Tensor(a) for a in args)
            got, want = (
                ad.gradients(ad.reduce_sum(ad.mul(op(*a), probe)), [x])["x"]
                for a in (args, leaf_args)
            )
            assert np.array_equal(out.value, op(*leaf_args).value)
            assert got.tobytes() == want.tobytes()


def test_residual_blocks_keep_no_block_state_without_a_tape():
    """Outside a tape the blocks run in two (rows, D) buffers; on a tape they
    keep each block's input and ReLU mask for the backward."""
    rng = np.random.default_rng(13)
    rows, dim, blocks = 2048, 16, 10
    x = ad.Tensor(rng.normal(size=(rows, dim)))
    w = ad.parameter(rng.uniform(-0.25, 0.25, size=(blocks, dim, dim)), "w")
    b = ad.parameter(np.zeros((blocks, dim)), "b")
    array = rows * dim * 8

    def peak(recording):
        tracemalloc.start()
        try:
            if recording:
                out = ad.residual_blocks(x, w, b, 0, blocks)
            else:
                with ad.no_grad():
                    out = ad.residual_blocks(x, w, b, 0, blocks)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    free_peak, free = peak(False)
    taped_peak, taped = peak(True)
    assert free._backward is None and free._parents == ()
    assert np.array_equal(free.value, taped.value)
    assert free_peak < 2.5 * array
    assert taped_peak > 0.8 * blocks * array


def test_planted_residual_blocks_gradient_fails_the_difference_check():
    build = dict(_primitive_cases())["residual_blocks.merge"]
    fn, params = build(np.random.default_rng(1000))
    assert ad.finite_difference_check(fn, params) < 1e-6
    for name in ("residual_blocks", "hinge"):  # its own name, and the ReLU stage's
        ad.GRAD_OVERRIDES[name] = 1.5
        try:
            assert ad.finite_difference_check(fn, params) > 0.1
        finally:
            ad.GRAD_OVERRIDES.clear()


def _taped_op_names() -> set[str]:
    """Every op name the package records on the tape: each `_op="name"`
    node and each `_binary("name", ...)` elementwise op."""
    source = "".join(p.read_text(encoding="utf-8") for p in Path(ad.__file__).parent.glob("*.py"))
    return {a or b for a, b in re.findall(r'_op="(\w+)"|_binary\(\s*"(\w+)"', source)}


def test_every_taped_op_has_a_difference_case_that_catches_a_planted_gradient():
    """Each taped op is reached by some primitive case, and a wrong gradient
    planted on it fails that case's difference check."""
    names = _taped_op_names()
    assert {"add", "sum", "tha_level", "alignment_loss"} <= names  # both forms are scanned
    reaching = {}
    for case, build in _primitive_cases():
        fn, params = build(np.random.default_rng(1000))
        stack, reached = [fn()], set()
        while stack:
            node = stack.pop()
            reached.add(node._op)
            stack.extend(node._parents)
        for op in reached & names:
            reaching.setdefault(op, (case, fn, params))
    assert sorted(names - reaching.keys()) == []
    for op, (case, fn, params) in reaching.items():
        ad.GRAD_OVERRIDES[op] = 1.5
        try:
            assert ad.finite_difference_check(fn, params) > 0.1, (op, case)
        finally:
            ad.GRAD_OVERRIDES.clear()


def test_residual_blocks_rejects_bad_shapes_and_ranges():
    x, w, b = np.ones((6, 4)), np.ones((3, 4, 4)), np.ones((3, 4))
    with pytest.raises(DimensionError):
        ad.residual_blocks(x, w, b, 2, 2)  # an empty block range
    with pytest.raises(DimensionError):
        ad.residual_blocks(x, w, b, 0, 4)  # past the bank
    with pytest.raises(DimensionError):
        ad.residual_blocks(x, w, np.ones((2, 4)), 0, 1)  # bias bank of another depth
    with pytest.raises(DimensionError):
        ad.residual_blocks(np.ones((6, 3)), w, b, 0, 1)  # rows of another width
    with pytest.raises(DimensionError):  # 6 rows are not groups of 4
        ad.residual_blocks(x, w, b, 0, 1, (np.ones((2, 4)), np.ones((1, 4, 4)), 0))
