"""Retrieval evaluation: R@k in both directions over any similarity mode.

Ranking is by descending score with a stable ascending-index tie-break, so
reports are deterministic. The synthetic protocol is strictly one caption
per audio clip; reports carry that note plus the config hash and seed.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import mmap
import os
import pickle
import signal
import struct
import threading
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .autodiff import Tensor, no_grad
from .data import Pairs, write_file
from .encoders import TEXT_TAPS
from .errors import ContractError, DimensionError, XmalError
from .model import EncodedBatch, Model
from .objective import mode_components

DIRECTIONS = ("text_to_audio", "audio_to_text")
REPORT_MAGIC = b"XRPT"
REPORT_VERSION = 1
PROTOCOL_NOTE = "one_caption_per_audio"
TILE = 64  # items per side of a THA or DCR score tile
# The estimated serial cost of one TILE x TILE tile per component, and the
# tile work each forked eval worker must get to pay for its fork and its
# barrier (about 6 ms at 256 pairs, measured while the workers met at two
# barriers), in ms on 2 cores with 1 BLAS thread.
# With them, 2 workers won where the rule forks (THA 128 pairs -12%, DCR 512
# -23%, DP 2048 -13%), and eval stays in one process where forking lost (DP
# 256 pairs +38%, DP 1024 +18%, DCR 192 +10%).
TILE_MS = {"DP": 0.08, "THA": 7.0, "DCR": 1.5}
WORKER_MIN_MS = 14.0

logger = logging.getLogger(__name__)


@dataclass
class RetrievalReport:
    mode: str
    direction: str
    r_at: dict[int, float]
    size: int
    seed: int
    config_hash: str
    protocol: str = PROTOCOL_NOTE


def recall_at_k(s: np.ndarray, k, direction: str):
    """Percentage of queries whose true match (index = query index) ranks in
    the top k by descending score. `k` is an int, giving a float, or a
    sequence of ints, giving {k: R@k}; the ranks are computed once per call.
    `evaluate` ranks the same way strip by strip; this is its whole-matrix
    oracle."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {s.shape}")
    n = s.shape[0]
    single = isinstance(k, (int, np.integer))
    ks = (k,) if single else tuple(k)
    _check_ks(ks, n)
    if direction not in DIRECTIONS:
        raise ContractError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    axis = 1 if direction == "audio_to_text" else 0  # the axis along a query's candidates
    every = slice(0, n)
    r_at = _recall(_match_ranks(s, np.diagonal(s).copy(), every, every, axis), ks)
    return r_at[k] if single else r_at


def check_seed(seed: int):
    """A report's seed must fit in the binary report's u64."""
    if not (0 <= seed < 2**64):
        raise ContractError(f"--seed must fit in u64, got {seed}")


def _check_ks(ks, n: int):
    for k in ks:
        if not (1 <= k <= n):
            raise ContractError(f"k must be in [1, {n}], got {k}")


def _recall(ranks: np.ndarray, ks) -> dict[int, float]:
    return {k: 100.0 * int((ranks < k).sum()) / ranks.size for k in ks}


def _match_ranks(
    s: np.ndarray, match: np.ndarray, queries: slice, candidates: slice, axis: int
) -> np.ndarray:
    """The share of block `s` in each query's rank: the position of its true
    match (the candidate with the query's own index) when its candidates are
    sorted by descending score, ties by ascending index and NaN last.

    The queries `queries` lie across `axis` and have the matched scores
    `match`; the candidates `candidates` lie along it. A query's rank is the
    count of higher scores plus equal scores at a lower index; for a NaN
    match, the count of non-NaN scores plus NaN scores at a lower index. Both
    counts add up over blocks that split the candidates.

    A NaN candidate is neither higher than nor equal to a non-NaN match, so
    the NaN terms are computed only when some match is NaN, and the tie term
    only when some match equals another of its query's candidates."""
    m = np.expand_dims(match, axis)

    def before():  # candidates at a lower index than their query
        q = np.arange(queries.start, queries.stop)
        c = np.arange(candidates.start, candidates.stop)
        return np.expand_dims(c, 1 - axis) < np.expand_dims(q, axis)

    nan_match = np.isnan(match)
    ranks = np.count_nonzero(s > m, axis=axis)
    equal = s == m
    # A non-NaN match equals its own entry where the block holds that entry;
    # any further equal entry is a tie.
    lo = queries.start
    own = nan_match[max(candidates.start - lo, 0):max(candidates.stop - lo, 0)]
    if np.count_nonzero(equal) > own.size - np.count_nonzero(own):
        ranks += np.count_nonzero(equal & before(), axis=axis)
    if nan_match.any():
        nan = np.isnan(s)
        nan_ranks = np.count_nonzero(~nan, axis=axis) + np.count_nonzero(nan & before(), axis=axis)
        ranks = np.where(nan_match, nan_ranks, ranks)
    return ranks


def _rank_strip(s: np.ndarray, a: slice, match: np.ndarray, ranks: dict[str, np.ndarray]):
    """Rank strip `s`, audio rows `a` of one mode's matrix against every text
    item: the audio_to_text ranks of rows `a` are complete within it, and
    each text item's text_to_audio rank gains the strip's share."""
    every = slice(0, s.shape[1])
    ranks["audio_to_text"][a] = _match_ranks(s, match[a], a, every, axis=1)
    ranks["text_to_audio"] += _match_ranks(s, match, every, a, axis=0)


def _mode_sum(terms: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """The terms added left to right, as `Model.similarity_matrix` adds a
    mode's components, so the bits match; into `out` if there are two or
    more, else the one term itself."""
    if len(terms) == 1:
        return terms[0]
    total = np.add(terms[0], terms[1], out=out)
    for term in terms[2:]:
        total += term
    return total


def _blocks(n: int) -> list[slice]:
    """Row ranges of at most TILE rows covering 0..n."""
    return [slice(lo, min(lo + TILE, n)) for lo in range(0, n, TILE)]


def _worker_count(threads: int, strips: int, components) -> int:
    """How many processes rank `strips` strips of `components`: at most
    `threads`, one per CPU this process may run on, one strip each at least,
    and `WORKER_MIN_MS` of estimated tile work each at least (`TILE_MS`), so
    that every worker pays for its fork. The calling process alone where a
    fork is unsafe (a second thread is alive) or where `os.fork` or
    `os.sched_setaffinity` does not exist."""
    forkable = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    if not forkable or threading.active_count() != 1:
        return 1
    work = strips * strips * sum(TILE_MS[c] for c in components)
    return max(1, min(threads, len(os.sched_getaffinity(0)), strips, int(work // WORKER_MIN_MS)))


@dataclass
class _Shared:
    """What each eval worker reads of the others' work, each array over its
    own anonymous shared mapping made before any fork (`_shared`)."""

    text: list[np.ndarray]  # a dataset's text globals (B, D), then levels (B, N, D) if THA scores
    matched: dict[str, np.ndarray]  # component -> its (B,) matched scores


def _shared(source: EncodedBatch | Pairs, size: int, components) -> _Shared:
    """Zeroed `_Shared` arrays for the `size` rows of `source`: the matched
    scores, and the text rows of a dataset's `Pairs`, which the workers
    encode (an encoded batch's are read in place). Only THA reads the text
    levels. The text stream never merges tokens, so each of its levels is
    shaped like its input, known before anything is encoded."""
    text = []
    if isinstance(source, Pairs):
        text = [source.text.shape[2:], *[source.text.shape[1:]] * len(TEXT_TAPS)]
    shapes = [(size, *s) for s in (text if "THA" in components else text[:1])]
    split = len(shapes)
    shapes += [(size,)] * len(components)
    arrays = [np.frombuffer(mmap.mmap(-1, 8 * math.prod(s)), np.float64).reshape(s) for s in shapes]
    return _Shared(arrays[:split], dict(zip(components, arrays[split:])))


def _encode_strips(model: Model, pairs: Pairs, strips: list[slice], shared: _Shared):
    """Rows `strips` of `pairs`, contiguous, encoded one strip per
    `Model.encode_arrays` call, so the encoders' intermediates span at most
    TILE rows. Each strip's text rows go into `shared` and its audio rows
    into arrays made once for every row of `strips`; its encode is dropped
    before the next strip's starts. The audio arrays kept match the text
    arrays `shared` holds: the global, and the levels only if THA is scored.
    Returns an `EncodedBatch` of those audio rows and every text row of
    `shared`."""
    lo = strips[0].start
    audio: list[np.ndarray] = []
    for s in strips:
        part = model.encode_arrays(pairs.audio[s], pairs.text[s])
        for whole, x in zip(shared.text, [part.text_global, *part.text_levels]):
            whole[s] = x.value
        kept = [part.audio_global, *part.audio_levels][: len(shared.text)]
        if not audio:
            audio = [np.empty((strips[-1].stop - lo, *x.value.shape[1:])) for x in kept]
        for whole, x in zip(audio, kept):
            whole[s.start - lo : s.stop - lo] = x.value
        del part, kept, x  # before the next strip's encode
    audio_global, *audio_levels = (Tensor(x) for x in audio)
    text_global, *text_levels = (Tensor(x) for x in shared.text)
    return EncodedBatch(audio_levels, audio_global, text_levels, text_global)


def _rank_strips(model: Model, source, parts: dict, blocks, shared: _Shared, own: range, barrier):
    """One worker's share of `evaluate`: the strips `own`, a contiguous range
    of indices into `blocks`, of every mode, in two steps that `barrier()`
    separates; it returns once every worker has called it.
    1. It encodes the own strips' rows of `source` one strip at a time
       (`_encode_strips`), writing their text rows into `shared` and keeping
       only the audio rows that the scorers read. An encoded batch's own
       audio rows and every text row are taken as they are. Each
       component's scorer (`Model.strip_scorer`) holds the own audio rows
       and views of every text row. It scores the diagonal tiles (a, a) of
       the own strips, which read only the own text rows and are kept, and
       writes their diagonals into its matched scores in `shared`.
    2. A mode's matched scores are the sum of its components'. Each own
       strip of audio rows is built against every text block from its
       tiles, the kept diagonal tile included, which reads the other
       workers' text rows only now; each mode sums its components' strips
       in order into one reused buffer and ranks it.
    Returns {mode: {direction: ranks}}: the own rows' complete
    audio_to_text ranks (0 elsewhere) and the own strips' share of every
    text_to_audio rank, so the workers' ranks add up to the whole batch's."""
    size = blocks[-1].stop
    rows = slice(blocks[own[0]].start, blocks[own[-1]].stop)
    if isinstance(source, EncodedBatch):
        mine = source.rows(rows, slice(0, size))
    else:
        mine = _encode_strips(model, source, [blocks[n] for n in own], shared)
    scorers = {c: model.strip_scorer(mine, c, rows.start) for c in shared.matched}
    del mine
    diagonal = {c: {n: strip(blocks[n])(blocks[n]) for n in own} for c, strip in scorers.items()}
    for c, tiles in diagonal.items():
        for n, tile in tiles.items():
            shared.matched[c][blocks[n]] = np.diagonal(tile)
    barrier()
    match = {
        m: _mode_sum([shared.matched[c] for c in cs], np.empty(size)) for m, cs in parts.items()
    }
    ranks = {mode: {d: np.zeros(size, dtype=np.intp) for d in DIRECTIONS} for mode in parts}
    strips = {c: np.empty((blocks[0].stop, size)) for c in scorers}
    total = np.empty((blocks[0].stop, size))  # pages are touched only by multi-component modes
    for n in own:
        a = blocks[n]
        height = a.stop - a.start
        for c, strip in scorers.items():
            tile = strip(a)
            for m, t in enumerate(blocks):
                strips[c][:height, t] = diagonal[c][n] if m == n else tile(t)
        for mode, comps in parts.items():
            s = _mode_sum([strips[c][:height] for c in comps], total[:height])
            _rank_strip(s, a, match[mode], ranks[mode])
    return ranks


def _send(f: BinaryIO, obj):
    pickle.dump(obj, f, protocol=pickle.HIGHEST_PROTOCOL)
    f.flush()


@dataclass
class _Child:
    """The parent's end of forked worker `number`: its pid and its pipes."""

    number: int
    pid: int
    reader: BinaryIO
    writer: BinaryIO

    def receive(self):
        try:
            kind, body = pickle.load(self.reader)
        except (EOFError, pickle.UnpicklingError) as e:
            raise XmalError(f"eval worker {self.number} ended without sending its result") from e
        if kind == "error":
            raise XmalError(f"eval worker {self.number} failed: {body}")
        return body

    def release(self):
        """Let the child past the barrier it waits at."""
        try:
            _send(self.writer, None)
        except BrokenPipeError as e:
            raise XmalError(f"eval worker {self.number} ended at a barrier") from e


def _fork(number: int, cpu: int, rank) -> _Child:
    """Fork worker `number`, pinned to `cpu`, which runs `rank(barrier)` and
    sends back the ranks it returns. Its barrier sends the parent one short
    message and waits for one back."""
    up_r, up_w = os.pipe()
    down_r, down_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_r, up_w, down_r, down_w):
            os.close(fd)
        raise
    if pid == 0:
        os.close(up_r)
        os.close(down_w)
        _child(cpu, rank, os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb"))
    os.close(up_w)
    os.close(down_r)
    return _Child(number, pid, os.fdopen(up_r, "rb"), os.fdopen(down_w, "wb"))


def _proc_mb(path: str, *fields: str) -> float | None:
    """The sum of `fields`, lines "Name: value kB" of the /proc file `path`,
    in MB; None where that file cannot be read or lacks a field. A forked
    worker reads its private memory, the pages no other process maps
    (Private_Clean + Private_Dirty of /proc/self/smaps_rollup); `evaluate`
    reads its process's peak RSS so far (VmHWM of /proc/self/status)."""
    try:
        with open(path, encoding="ascii") as f:
            kb = [int(line.split()[1]) for line in f if line.startswith(fields)]
    except (OSError, ValueError, IndexError):
        return None
    return sum(kb) / 1024 if len(kb) == len(fields) else None


def _child(cpu: int, rank, down: BinaryIO, up: BinaryIO):
    """A forked worker's whole life. It leaves only through `os._exit`, so it
    never returns into the frames it shares with its parent: 0 once its
    ranks are sent, with its private memory (`_proc_mb`); 1 after it
    sends the type and message of what it raised (or fails to, because the
    parent is gone)."""
    code = 1
    try:
        with contextlib.suppress(OSError):  # unpinned, it still ranks its strips
            os.sched_setaffinity(0, {cpu})

        def barrier():
            _send(up, ("ok", None))
            pickle.load(down)

        ranks = rank(barrier)
        private = _proc_mb("/proc/self/smaps_rollup", "Private_Clean:", "Private_Dirty:")
        _send(up, ("ok", (ranks, private)))
        code = 0
    except BaseException as e:  # reported; the child exits below either way
        with contextlib.suppress(OSError):
            _send(up, ("error", f"{type(e).__name__}: {e}"))
    finally:
        os._exit(code)


def _forked_ranks(rank, strips: int, workers: int):
    """`rank(own, barrier)`, a worker's share of `_rank_strips`, split over
    `workers` processes: each worker ranks one contiguous range of the
    `strips` strips, the ranges in worker order. The calling process is
    worker 0, with the first range; workers 1.. are forked before anything
    is encoded. Each process runs pinned to its own CPU, because a forked
    child starts on its parent's CPU and may stay there. At the barrier
    the parent waits for one message from every child, then sends one to
    every child; each child then sends its ranks, which the parent adds to
    its own, and its private memory.

    Returns the ranks and the largest child's private memory in MB (None
    where a child could not read it), or None if not even worker 1 could
    be forked, for the caller to rank in one process. A child that raised
    or ended early, or a later worker that could not be forked, is an
    XmalError naming it. Every child is reaped before this returns, and
    killed first unless the call succeeded."""
    saved = os.sched_getaffinity(0)
    cpus = sorted(saved)
    bounds = [strips * w // workers for w in range(workers + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children: list[_Child] = []
    done = False
    os.sched_setaffinity(0, {cpus[0]})
    try:
        for w in range(1, workers):
            try:
                children.append(_fork(w, cpus[w], functools.partial(rank, shares[w])))
            except OSError as e:  # EAGAIN at a process limit, ENOMEM
                if not children:
                    return None
                raise XmalError(f"eval worker {w} could not start: {e}") from e

        def barrier():
            for child in children:
                child.receive()
            for child in children:
                child.release()

        ranks = rank(shares[0], barrier)
        private = []
        for child in children:
            share, mb = child.receive()
            private.append(mb)
            for mode in share:
                for d in DIRECTIONS:
                    ranks[mode][d] += share[mode][d]
        done = True
    finally:
        os.sched_setaffinity(0, saved)
        for child in children:
            child.reader.close()
            with contextlib.suppress(OSError):  # a failed send leaves unflushed bytes
                child.writer.close()
            if not done:
                os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
    return ranks, None if None in private else max(private)


@no_grad()
def evaluate(
    model: Model,
    source: EncodedBatch | Pairs,
    modes: tuple[str, ...] = ("THA+DCR",),
    ks: tuple[int, ...] = (1, 5, 10),
    seed: int = 0,
    config_hash: str = "",
    threads: int = 1,
) -> list[RetrievalReport]:
    """One report per (mode, direction) over the pairs of `source`, audio
    item i matching text item i: a dataset's `data.Pairs`, which the model
    encodes here, or an encoded batch, such as an embedding set as
    `data.load_embeddings` returns it. The reports carry `seed`, the run's
    `--seed`, which must fit in the binary report's u64 (else ContractError,
    before anything is encoded or scored).

    Runs tape-free and never holds a B x B array. Every component (DP, THA,
    DCR) is scored in TILE x TILE tiles by `Model.strip_scorer`, a THA or
    DCR tile by the op that training runs, in two steps over the audio
    strips (see `_rank_strips`): the diagonal tiles first, which give the
    matched scores, then each strip against every text block. Ranking a
    strip completes its audio_to_text ranks, and adds its share to every
    text item's text_to_audio rank (see `_match_ranks`).

    `threads` (at least 1, else ContractError, checked with the seed) caps
    the processes that encode, score and rank the strips (`_worker_count`:
    one per usable CPU, and only as many as the estimated tile work pays
    for). With more than one, workers are forked over contiguous ranges of
    strips before anything is encoded, and each encodes its own rows
    (`_forked_ranks`). They meet at one barrier over shared mappings
    (`_Shared`), made here before any fork, once each has written its text
    rows (a dataset's; an encoded batch's are read in place) and its
    matched scores. Encoding a range of rows gives the bits of the same
    rows of a whole-batch encode, and the workers' ranks add up exactly,
    so the reports do not depend on `threads`. If no worker can be forked,
    one process encodes every row and ranks them.

    Memory is O(components x TILE x B) per worker on top of its own audio
    rows, plus every text row, encoded, once: in the shared mappings for a
    dataset, where it already lies for an encoded batch. A worker encodes
    a dataset's rows one strip at a time, so the encoders' intermediates
    span TILE rows, and it keeps of its audio rows only what its scorers
    read: the globals, and the levels only if THA is scored. A mode's scores
    equal bit for bit what `Model.similarity_matrix` gives tile by tile,
    taped or not; a matched score is read from the same tile as its row's
    and column's other scores, so it equals its own entry. One whole-batch
    op differs from the tiles by BLAS rounding (a few 1e-16 for DP, 1e-15
    for THA) at ragged sizes, because a matmul's bits depend on its
    shape."""
    size = source.batch if isinstance(source, EncodedBatch) else len(source)
    if size == 0:
        raise ContractError("evaluate needs a non-empty batch")
    check_seed(seed)
    if threads < 1:
        raise ContractError(f"evaluate needs threads >= 1, got {threads}")
    _check_ks(ks, size)
    parts = {mode: mode_components(mode) for mode in modes}
    blocks = _blocks(size)
    components = dict.fromkeys(c for mode in modes for c in parts[mode])
    shared = _shared(source, size, components)
    rank = functools.partial(_rank_strips, model, source, parts, blocks, shared)
    workers = _worker_count(threads, len(blocks), components)
    forked = _forked_ranks(rank, len(blocks), workers) if workers > 1 else None
    if forked is None:
        ranks = rank(range(len(blocks)), lambda: None)
        figures = [f"{len(blocks)} strips, 1 worker"]
    else:
        ranks, private = forked
        figures = [f"{len(blocks)} strips, {workers} workers"]
        if private is not None:  # where every child could read its smaps_rollup
            figures.append(f"largest forked worker's private memory {private:.1f} MB")
    peak = _proc_mb("/proc/self/status", "VmHWM:")
    if peak is not None:
        figures.append(f"this process's peak RSS so far {peak:.1f} MB")
    logger.info("%s", ", ".join(figures))
    return [
        RetrievalReport(
            mode=mode,
            direction=direction,
            r_at=_recall(ranks[mode][direction], ks),
            size=size,
            seed=seed,
            config_hash=config_hash,
        )
        for mode in modes
        for direction in DIRECTIONS
    ]


# -- report emission -----------------------------------------------------------


def write_report_text(path: str, reports: list[RetrievalReport]):
    lines = [  # the run's stamp, which every report carries, then each recall
        f"config_hash={r.config_hash}\nseed={r.seed}\neval_size={r.size}\nprotocol={r.protocol}\n"
        for r in reports[:1]
    ]
    for r in reports:
        lines += [f"{r.mode}.{r.direction}.r@{k}={r.r_at[k]!r}\n" for k in sorted(r.r_at)]
    write_file(path, ["".join(lines).encode("utf-8")])


def write_report_binary(path: str, reports: list[RetrievalReport]):
    chunks = [REPORT_MAGIC, struct.pack("<II", REPORT_VERSION, len(reports))]
    for r in reports:
        for text in (r.mode, r.direction, r.config_hash, r.protocol):
            blob = text.encode("utf-8")
            chunks += [struct.pack("<I", len(blob)), blob]
        chunks.append(struct.pack("<QII", r.seed, r.size, len(r.r_at)))
        chunks += [struct.pack("<Id", k, r.r_at[k]) for k in sorted(r.r_at)]
    write_file(path, chunks)
