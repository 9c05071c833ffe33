"""Layer tracer for the traced benchmark run.

Layers are the `xmal` modules. The tracer measures them from outside: it
replaces public functions of those modules with wrappers, so nothing under
`src/` changes. Each wrapped call is a span keyed by layer name:

- A span's self time is its duration minus the durations of the spans it
  contains. A *group* span (`evaluation.score.*`) reports only its inclusive
  time and leaves its self time with its parent.
- Tape nodes are attributed to the innermost span that was open when the
  autodiff node-id counter handed out their id.
- Before each backward pass, every recorded `_backward` closure of a node
  owned by a layer is wrapped in a timer charged to that layer. What remains
  of the backward span is the tape's own time (`autodiff.tape_self_ms`).
- The tracer's own bookkeeping is timed and kept out of every span, so that
  self times plus bookkeeping add up to the measured operation time.
- With `memory=True`, the tracer also records tape bytes (the whole tape at
  each backward pass, and the tape behind the output of each layer named in
  `tape_layers`) and tracemalloc peaks per span. That bookkeeping and
  tracemalloc slow the interpreter, so memory mode runs apart from the
  timed spans.
"""

from __future__ import annotations

import bisect
import itertools
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

BOOKKEEPING = "trace"


class _PeekCounter:
    """Stands in for autodiff's `itertools.count` and exposes the next id."""

    def __init__(self, start: int):
        self.next_id = start

    def __iter__(self):
        return self

    def __next__(self) -> int:
        n = self.next_id
        self.next_id += 1
        return n


@dataclass
class LayerTotals:
    self_s: float = 0.0  # forward self time, or the tape's own time for the backward span
    incl_s: float = 0.0  # inclusive span time
    bwd_s: float = 0.0  # backward closures of nodes this layer created
    calls: int = 0
    nodes: int = 0
    tape_bytes: int = 0  # distinct buffers of this layer's nodes reachable from its output
    grad_nodes: int = 0
    peak_bytes: int = 0  # tracemalloc peak above the span's starting level (memory mode)


@dataclass
class _Frame:
    key: str
    group: bool
    first_id: int
    start: float = 0.0
    child: float = 0.0  # time covered by contained spans, closures and bookkeeping
    mem_start: int = 0
    peak: int = 0


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_nodes(roots, first_id: int) -> list:
    """Nodes reachable from `roots` through parents, created at or after `first_id`."""
    seen: dict[int, object] = {}
    stack = [t for t in roots if t._id >= first_id]
    while stack:
        t = stack.pop()
        if t._id in seen:
            continue
        seen[t._id] = t
        stack.extend(p for p in t._parents if p._id >= first_id and p._id not in seen)
    return list(seen.values())


def tape_bytes(nodes) -> int:
    """Bytes of the distinct buffers behind the nodes' values (views count once)."""
    owners = {}
    for t in nodes:
        o = _owner(t.value)
        owners[id(o)] = o.nbytes
    return sum(owners.values())


class Tracer:
    """Spans over one kind of operation (a train step or an eval call).

    `start()` opens an operation and `end_op(seconds)` closes it with its
    measured duration; time inside the operation not covered by any span is
    the root layer's self time. Calls outside an operation pass through.
    """

    def __init__(self, ad, root: str, tape_layers=(), memory: bool = False):
        self.ad = ad
        self.root = root
        self.tape_layers = frozenset(tape_layers)  # layers whose output tape is measured
        self.memory = memory
        self.totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self.ops = 0
        self.op_s = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._counter = _PeekCounter(next(ad._node_ids))
        ad._node_ids = self._counter
        self._stack: list[_Frame] = []
        self._mark_ids: list[int] = []
        self._mark_keys: list[str] = []

    # -- installation --------------------------------------------------------

    def replace(self, owner, name: str, fn):
        """Set `owner.name` to `fn` until `close()`."""
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, fn)

    def patch(self, owner, name: str, key: str, group: bool = False):
        """Replace `owner.name` with a span wrapper."""
        self.replace(owner, name, self.span(getattr(owner, name), key, group))

    def patch_gradients(self):
        """Trace `autodiff.gradients`: tape accounting plus per-layer closure timers."""
        ad = self.ad
        orig = ad.gradients
        backward = self.span(orig, "autodiff.backward")

        def gradients(loss, params):
            if not self._stack:
                return orig(loss, params)
            b0 = perf_counter()
            op_first = self._mark_ids[0]
            totals = self.totals["autodiff"]
            nodes = tape_nodes([loss], op_first)
            if self.memory:
                totals.tape_bytes += tape_bytes(nodes)
            for t in nodes:
                if t._backward is None or not t.requires_grad:
                    continue
                totals.grad_nodes += 1
                key = self._mark_keys[bisect.bisect_right(self._mark_ids, t._id) - 1]
                if key != self.root:  # root-owned closures stay in the tape's own time
                    t._backward = self._timed(t._backward, key)
            self._bookkeeping(b0)
            return backward(loss, params)

        self.replace(ad, "gradients", gradients)

    def close(self):
        """Restore every patched function and autodiff's own counter."""
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()
        self.ad._node_ids = itertools.count(self._counter.next_id)

    # -- operations ----------------------------------------------------------

    def start(self):
        """Open an operation. Spans are recorded only while one is open."""
        self._stack = [_Frame(self.root, False, self._counter.next_id)]
        self._mark_ids = [self._counter.next_id]
        self._mark_keys = [self.root]

    def end_op(self, seconds: float):
        """Close the operation that `start()` opened and took `seconds`."""
        if len(self._stack) != 1:
            raise RuntimeError(f"operation ended inside span {self._stack[-1].key!r}")
        root = self._stack[0]
        self.totals[self.root].self_s += seconds - root.child
        self.totals[self.root].calls += 1
        ends = self._mark_ids[1:] + [self._counter.next_id]
        for begin, end, key in zip(self._mark_ids, ends, self._mark_keys):
            self.totals[key].nodes += end - begin
        self.ops += 1
        self.op_s += seconds
        self.cancel()

    def cancel(self):
        """Drop the open operation, if any, without recording it."""
        self._stack = []

    def accounted_s(self) -> float:
        """Self times, backward closures and bookkeeping over all layers."""
        return sum(t.self_s + t.bwd_s for t in self.totals.values())

    # -- spans ---------------------------------------------------------------

    def span(self, fn, key: str, group: bool = False):
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            frame = self._enter(key, group)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, None)
                raise
            self._exit(frame, out)
            return out

        return wrapper

    def _mark(self, key: str):
        now = self._counter.next_id
        if self._mark_ids[-1] == now:
            self._mark_keys[-1] = key
        else:
            self._mark_ids.append(now)
            self._mark_keys.append(key)

    def _bookkeeping(self, since: float):
        dt = perf_counter() - since
        self.totals[BOOKKEEPING].self_s += dt
        self._stack[-1].child += dt

    def _enter(self, key: str, group: bool) -> _Frame:
        b0 = perf_counter()
        parent = self._stack[-1]
        frame = _Frame(key, group, self._counter.next_id)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame.mem_start = frame.peak = current
        self._mark(key)
        self._bookkeeping(b0)
        self._stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: _Frame, out):
        end = perf_counter()
        if self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame.key!r} closed out of order")
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - frame.start
        totals = self.totals[frame.key]
        totals.incl_s += duration
        totals.calls += 1
        if frame.group:
            parent.child += frame.child
        else:
            totals.self_s += duration - frame.child
            parent.child += duration
        self._mark(parent.key)
        if self.memory:
            if frame.key in self.tape_layers and out is not None:  # these layers return a Tensor
                totals.tape_bytes += tape_bytes(tape_nodes([out], frame.first_id))
            peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            totals.peak_bytes = max(totals.peak_bytes, peak - frame.mem_start)
            parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        self._bookkeeping(end)

    def _timed(self, backward, key: str):
        totals = self.totals[key]

        def timed(g):
            t0 = perf_counter()
            out = backward(g)
            dt = perf_counter() - t0
            totals.bwd_s += dt
            self._stack[-1].child += dt
            return out

        return timed
