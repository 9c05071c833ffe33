"""Reverse-mode automatic differentiation on dense float64 arrays.

A thin tape: every operation eagerly computes its numpy value and records
how to push a gradient back to its parents. Node creation order is a
topological order of the graph, so the backward pass simply walks nodes in
reverse creation order, visiting each exactly once. Inside `no_grad()` the
tape records nothing, for forward-only work.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

EPS = 1e-12

_node_ids = itertools.count()

# Multiplicative overrides applied to an op's outgoing gradient, keyed by op
# name. Empty in normal operation; the self-check suite plants a wrong factor
# here as a negative control to prove finite differences catch broken
# gradients. A fused op also applies the entry of each primitive it fuses to
# that stage of its own backward: `residual_blocks` scales its ReLU stage by
# the "hinge" entry, so planting "hinge" still breaks the encoder blocks.
GRAD_OVERRIDES: dict[str, float] = {}

_recording = True  # False inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Forward-only scope. Ops still compute values and take node ids, but a
    tensor created inside keeps no parents and no backward closure, so each
    intermediate is freed as soon as nothing refers to it. Leaves created
    with `requires_grad=True` keep the flag."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def is_recording() -> bool:
    """Whether new ops are recorded on the tape (False inside `no_grad()`)."""
    return _recording


class Tensor:
    """A value in the computation graph."""

    __slots__ = ("value", "name", "requires_grad", "_id", "_op", "_parents", "_backward")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        name: str | None = None,
        _op: str = "leaf",
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], tuple] | None = None,
    ):
        if not _recording:
            _parents, _backward = (), None
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._id = next(_node_ids)
        self._op = _op
        self._parents = _parents
        self._backward = _backward

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(op={self._op}, shape={self.value.shape}{tag})"


def parameter(value, name: str) -> Tensor:
    """A named trainable leaf."""
    return Tensor(value, requires_grad=True, name=name)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (the inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad.reshape(shape)


# -- primitives -----------------------------------------------------------


def _value(x) -> np.ndarray:
    return x.value if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _binary(op: str, out: np.ndarray, a, b, grad_a, grad_b) -> Tensor:
    """A node for an elementwise op over operands a and b. A raw float or
    array operand is a closure constant: it takes no node, and its gradient
    (`grad_a` or `grad_b` of the incoming gradient) is never computed."""
    parents, grads = [], []
    for operand, grad in ((a, grad_a), (b, grad_b)):
        if isinstance(operand, Tensor):
            parents.append(operand)
            grads.append(grad)

    def backward(g):
        return tuple(grad(g) for grad in grads)

    return Tensor(out, _op=op, _parents=tuple(parents), _backward=backward)


def add(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    return _binary(
        "add", av + bv, a, b,
        lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(g, bv.shape),
    )


def sub(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    return _binary(
        "sub", av - bv, a, b,
        lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(-g, bv.shape),
    )


def mul(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    return _binary(
        "mul", av * bv, a, b,
        lambda g: _unbroadcast(g * bv, av.shape), lambda g: _unbroadcast(g * av, bv.shape),
    )


def div(a, b) -> Tensor:
    av, bv = _value(a), _value(b)
    return _binary(
        "div", av / bv, a, b,
        lambda g: _unbroadcast(g / bv, av.shape),
        lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape),
    )


def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product."""
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul needs (m,k) by (k,n); got {a.value.shape} by {b.value.shape}"
        )
    out = a.value @ b.value

    def backward(g):
        return g @ b.value.T, a.value.T @ g

    return Tensor(out, _op="matmul", _parents=(a, b), _backward=backward)


def permute(a, axes: tuple) -> Tensor:
    a = as_tensor(a)
    inverse = tuple(int(np.argsort(axes)[i]) for i in range(len(axes)))

    def backward(g):
        return (np.transpose(g, inverse),)

    return Tensor(np.transpose(a.value, axes), _op="permute", _parents=(a,), _backward=backward)


def reshape(a, shape: tuple) -> Tensor:
    a = as_tensor(a)
    orig = a.value.shape
    return Tensor(
        a.value.reshape(shape), _op="reshape", _parents=(a,), _backward=lambda g: (g.reshape(orig),)
    )


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows start:stop along the first axis; the value is a view."""
    a = as_tensor(a)
    shape = a.value.shape
    if a.value.ndim < 1 or not (0 <= start < stop <= shape[0]):
        raise DimensionError(f"row slice {start}:{stop} out of range for shape {shape}")

    def backward(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return Tensor(a.value[start:stop], _op="slice_rows", _parents=(a,), _backward=backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.value)
    return Tensor(out, _op="exp", _parents=(a,), _backward=lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.log(a.value), _op="log", _parents=(a,), _backward=lambda g: (g / a.value,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.value)
    return Tensor(out, _op="sqrt", _parents=(a,), _backward=lambda g: (g * 0.5 / out,))


def hinge(a) -> Tensor:
    """Elementwise max(x, 0). Subgradient at exactly 0 is 0."""
    a = as_tensor(a)
    out = np.maximum(a.value, 0.0)

    def backward(g):
        return (g * (a.value > 0.0),)

    return Tensor(out, _op="hinge", _parents=(a,), _backward=backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # tanh form is stable for large |x| in both directions
    out = 0.5 * (1.0 + np.tanh(0.5 * a.value))

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, _op="sigmoid", _parents=(a,), _backward=backward)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = np.sum(a.value, axis=axis, keepdims=keepdims)
    in_shape = a.value.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return Tensor(out, _op="sum", _parents=(a,), _backward=backward)


def _parse_einsum(pattern: str) -> tuple[str, str, str]:
    try:
        lhs, out = pattern.split("->")
        in1, in2 = lhs.split(",")
    except ValueError as e:
        raise ContractError(f"einsum pattern must be 'ab,bc->ac' style, got {pattern!r}") from e
    for subs in (in1, in2, out):
        if len(set(subs)) != len(subs):
            raise ContractError(f"repeated index within one operand: {pattern!r}")
    for which, subs, other in (("first", in1, in2), ("second", in2, in1)):
        for idx in subs:
            if idx not in out and idx not in other:
                raise ContractError(f"index {idx!r} of {which} operand unmatched in {pattern!r}")
    return in1, in2, out


def einsum(pattern: str, a, b) -> Tensor:
    """Two-operand einsum. Every input index must appear in the output or in
    the other operand, which makes the adjoint another einsum."""
    in1, in2, out_subs = _parse_einsum(pattern)
    a, b = as_tensor(a), as_tensor(b)
    out = np.einsum(pattern, a.value, b.value)

    def backward(g):
        ga = np.einsum(f"{out_subs},{in2}->{in1}", g, b.value)
        gb = np.einsum(f"{out_subs},{in1}->{in2}", g, a.value)
        return ga, gb

    return Tensor(out, _op="einsum", _parents=(a, b), _backward=backward)


def residual_blocks(x, w, b, lo: int, hi: int, merge=None) -> Tensor:
    """Blocks lo..hi-1 of a residual stack as one op: for each l,
    x <- x + relu(x @ w[l] + b[l]), with (L, D, D) weight and (L, D) bias
    banks w and b and (rows, D) x. With `merge = (p, m, k)`, x first becomes
    kron(eye(rows / n), p) @ x @ m[k], never building the kron: the constant
    (r, n) map p applied to each group of n rows, then slice k of the bank m.

    The backward is closed form from each block's input and ReLU mask,
    which are kept only while a tape records. The ReLU stage honours
    `GRAD_OVERRIDES["hinge"]` as well as this op's own name."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    rows, dim = x.value.shape if x.value.ndim == 2 else (0, 0)
    if (
        x.value.ndim != 2
        or w.value.ndim != 3
        or w.value.shape[1:] != (dim, dim)
        or b.value.shape != w.value.shape[:2]
        or not (0 <= lo < hi <= w.value.shape[0])
    ):
        raise DimensionError(
            f"residual_blocks {lo}:{hi} needs (rows, D) x, (L, D, D) w and (L, D) b; got "
            f"{x.value.shape}, {w.value.shape} and {b.value.shape}"
        )
    keep = _recording
    h = x.value
    parents = (x, w, b)
    if merge is not None:
        p, m, k = merge
        m = as_tensor(m)
        r, n = p.shape
        if rows % n != 0 or m.value.shape[1:] != (dim, dim):
            raise DimensionError(
                f"residual_blocks merge: {rows} rows do not split into groups of {n}, "
                f"or bank {m.value.shape} is not (S, {dim}, {dim})"
            )
        groups = rows // n
        h = (p @ h.reshape(groups, n, dim)).reshape(groups * r, dim)
        merged = h if keep else None
        h = h @ m.value[k]
        parents += (m,)
    saved = []  # (block input, ReLU mask) per block, on a tape only
    for l in range(lo, hi):
        pre = h @ w.value[l]
        pre += b.value[l]
        if keep:
            saved.append((h, pre > 0.0))
        np.maximum(pre, 0.0, out=pre)
        h = np.add(h, pre, out=pre)

    def backward(g):
        gw, gb = np.zeros_like(w.value), np.zeros_like(b.value)
        scale = GRAD_OVERRIDES.get("hinge")
        for l in range(hi - 1, lo - 1, -1):
            h_in, mask = saved[l - lo]
            g_pre = (g if scale is None else g * scale) * mask
            gb[l] = g_pre.sum(axis=0)
            gw[l] = h_in.T @ g_pre
            g = g + g_pre @ w.value[l].T
        if merge is None:
            return g, gw, gb
        gm = np.zeros_like(m.value)
        gm[k] = merged.T @ g
        g3 = (g @ m.value[k].T).reshape(groups, r, dim)
        return (p.T @ g3).reshape(rows, dim), gw, gb, gm

    return Tensor(h, _op="residual_blocks", _parents=parents, _backward=backward)


# -- scratch buffers for forward-only arithmetic -----------------------------


class Workspace:
    """Named float64 scratch buffers for the THA and DCR kernels' numpy
    arithmetic; each eval tile scorer (`Model.strip_scorer`) owns one.

    `array(name, shape)` returns a C-contiguous view of the flat buffer kept
    under `name`, grown when it is too small and never shrunk, so a loop over
    tiles of one size allocates only on its first pass. A view holds whatever
    its last user left, and the next request for the same name overwrites it,
    so nothing that outlives a call may be a view. With `reuse=False` every
    request is a fresh array: `FRESH`, the default provider, is what taped ops
    use, because they save arrays for their backward."""

    def __init__(self, reuse: bool = True):
        self.reuse = reuse
        self.buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        if not self.reuse:
            return np.empty(shape)
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


FRESH = Workspace(reuse=False)


# -- composed helpers -------------------------------------------------------


def guarded_norm(x, axis=None, keepdims: bool = False) -> Tensor:
    """max(||x||_2, EPS) along `axis`. The floor is applied to the sum of
    squares before the root so the gradient stays finite at zero vectors."""
    sumsq = reduce_sum(mul(x, x), axis=axis, keepdims=keepdims)
    return sqrt(add(hinge(sub(sumsq, EPS * EPS)), EPS * EPS))


def guarded_root(sumsq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The value of `guarded_norm` given the sum of squares, for the fused
    ops' numpy arithmetic; written into `out` (which may be `sumsq`) if given."""
    out = np.subtract(sumsq, EPS * EPS, out=out)
    np.maximum(out, 0.0, out=out)
    out += EPS * EPS
    return np.sqrt(out, out=out)


def normalized(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x over their guarded L2 norms (the value of `normalize_rows`),
    and the rows' sums of squares, for the fused ops' closed-form backwards."""
    rows = np.multiply(x, x)
    sumsq = np.sum(rows, axis=-1, keepdims=True)
    return np.divide(x, guarded_root(sumsq), out=rows), sumsq


def normalized_grad(g: np.ndarray, xn: np.ndarray, sumsq: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. x of `normalized`'s rows xn, given g w.r.t. xn."""
    radial = np.sum(g * xn, axis=-1, keepdims=True) * (sumsq > EPS * EPS)
    return (g - xn * radial) / guarded_root(sumsq)


def row_softmax(m, scale: float = 1.0) -> Tensor:
    """Softmax of scale*x along the last axis, with max subtraction.

    The subtracted max is treated as a constant; by shift invariance the
    gradient is unchanged.
    """
    if scale <= 0:
        raise ContractError(f"softmax scale must be positive, got {scale}")
    m = as_tensor(m)
    y = mul(m, scale)
    shift = np.max(y.value, axis=-1, keepdims=True)
    e = exp(sub(y, shift))
    return div(e, reduce_sum(e, axis=-1, keepdims=True))


def normalize_rows(m) -> Tensor:
    """Divide along the last axis by the guarded L2 norm, max(||row||_2, EPS).
    Works for any ndim, a single vector included."""
    m = as_tensor(m)
    return div(m, guarded_norm(m, axis=-1, keepdims=True))


# -- backward pass -----------------------------------------------------------


def gradients(loss: Tensor, params: Iterable[Tensor]) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar w.r.t. named parameters.

    Parameters not reached by the loss get exact-zero gradients.
    """
    if loss.value.size != 1:
        raise ContractError(f"gradient target must be scalar, got shape {loss.value.shape}")

    nodes: dict[int, Tensor] = {loss._id: loss}
    stack = [loss]
    while stack:
        t = stack.pop()
        for p in t._parents:
            if p.requires_grad and p._id not in nodes:
                nodes[p._id] = p
                stack.append(p)

    table: dict[int, np.ndarray] = {loss._id: np.ones_like(loss.value)}
    for tid in sorted(nodes, reverse=True):  # reverse creation order
        t = nodes[tid]
        if t._backward is None:
            continue  # leaf: keep the accumulated gradient for readout
        g = table.pop(tid, None)
        if g is None:
            continue
        scale = GRAD_OVERRIDES.get(t._op)
        if scale is not None:
            g = g * scale
        for p, pg in zip(t._parents, t._backward(g)):
            if not p.requires_grad or pg is None:
                continue
            acc = table.get(p._id)
            table[p._id] = pg if acc is None else acc + pg

    return {
        p.name or f"param{p._id}": table[p._id] if p._id in table else np.zeros_like(p.value)
        for p in params
    }


def finite_difference_check(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
    max_entries: int | None = None,
    seed: int = 0,
) -> float:
    """Max discrepancy between reverse-mode and central-difference gradients.

    `fn` must rebuild and return the scalar loss from the current parameter
    values. Per entry the error is relative, falling back to absolute where
    the analytic gradient is below 1e-8. With `max_entries`, a seeded subset
    of entries per parameter is probed instead of the full sweep.
    """
    if not (0.0 < h <= 1e-2):
        raise ContractError(f"step h must be in (0, 1e-2], got {h}")
    analytic = gradients(fn(), params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    with no_grad():  # the probes only need loss values
        for p in params:
            ana = analytic[p.name or f"param{p._id}"]
            flat = p.value.reshape(-1)
            idx = np.arange(flat.size)
            if max_entries is not None and flat.size > max_entries:
                idx = rng.choice(flat.size, size=max_entries, replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(fn().value)
                flat[i] = orig - h
                f_minus = float(fn().value)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = ana.reshape(-1)[i]
                diff = abs(numeric - a)
                err = diff if abs(a) < 1e-8 else diff / abs(a)
                worst = max(worst, err)
    return worst
