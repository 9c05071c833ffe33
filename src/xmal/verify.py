"""Self-verification: finite-difference checks for every primitive and for
the losses a training step computes (`Model.losses`), oracle-equivalence
checks against independent step-by-step recomputations, and the core
numeric invariants. Backs the `grad-check` command and the acceptance
suite.

THA, DCR, the encoder blocks and the factor statistics are fused ops with
closed-form backwards, each checked against the same computation built from
autodiff primitives: `composed_hierarchical_similarity`,
`composed_factor_pair_similarity`, `composed_residual_blocks` and
`composed_factor_losses`. Each op must match its oracle's values and
gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import attention, autodiff as ad, confidence, encoders, factors, objective as obj
from .attention import COMBINES, DIRECTIONS, AttentionConfig
from .autodiff import EPS
from .confidence import factor_pair_similarity_matrix
from .data import Pairs
from .errors import ContractError
from .model import Model, ModelConfig, init_parameters, param_specs


def drawn_rows(cfg: ModelConfig, prefix, rng: np.random.Generator) -> dict[str, ad.Tensor]:
    """The parameters of `cfg`'s table whose names start with `prefix` (a
    string or a tuple of them), drawn from `rng` in table order."""
    specs = param_specs(cfg)
    return init_parameters({n: s for n, s in specs.items() if n.startswith(prefix)}, rng)


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst < self.tol


def _spread(rng, *shape):
    """Values bounded away from zero so relative FD errors stay conditioned."""
    return np.sign(rng.normal(size=shape)) * (0.5 + np.abs(rng.normal(size=shape)))


def _probed(op, *shapes, positive: bool = False) -> Callable:
    """A case builder that reads `op` through a fixed probe: its operands,
    one per shape, drawn in order (their magnitudes with `positive`), then a
    probe the shape of `op`'s output on them."""

    def build(rng):
        draws = [_spread(rng, *shape) for shape in shapes]
        params = [ad.parameter(np.abs(x) if positive else x, f"x{i}") for i, x in enumerate(draws)]
        probe = _spread(rng, *op(*params).value.shape)
        return (lambda: ad.reduce_sum(ad.mul(op(*params), probe))), params

    return build


def _primitive_cases() -> list[tuple[str, Callable]]:
    """(name, builder) pairs; builder(rng) -> (fn, params) for an FD check.

    Each case reads the op's output through a fixed probe so every parameter
    entry carries a well-conditioned gradient.
    """

    def einsum(pattern, *shapes):
        return _probed(partial(ad.einsum, pattern), *shapes)

    def build_softmax(rng):
        # bounded logits keep all probabilities, hence all gradient entries,
        # well away from underflow
        x = ad.parameter(rng.uniform(-1.0, 1.0, size=(4, 5)), "x")
        probe = _spread(rng, 4, 5)
        return (lambda: ad.reduce_sum(ad.mul(ad.row_softmax(x, 1.3), probe))), [x]

    def tha_level(direction, combine):
        def build(rng):
            # Ragged: 2 audio items of 3 tokens against 3 text items of 2. A
            # column of small positive cosines curves sharply under the column
            # norm, so cosines stay 0.1 away from zero and the temperature is
            # mild, which keeps the central-difference truncation error small.
            cfg = AttentionConfig(temperature=3.0, direction=direction, combine=combine)
            while True:
                a, t = _spread(rng, 2, 3, 4), _spread(rng, 3, 2, 4)
                an, tn = (x / np.linalg.norm(x, axis=-1, keepdims=True) for x in (a, t))
                if np.abs(np.einsum("imd,jnd->ijmn", an, tn)).min() > 0.1:
                    break
            a, t = ad.parameter(a, "a"), ad.parameter(t, "t")
            probe = _spread(rng, 2, 3)
            return (lambda: ad.reduce_sum(ad.mul(attention.tha_level(a, t, cfg), probe))), [a, t]

        return build

    def build_factor_pair_similarity(rng):
        # Ragged: 2 audio items against 3 text items, K = 2 factors of width
        # 3. The initial weight scale keeps the logistic off its flat tails;
        # every first-layer pre-activation stays 0.1 away from the ReLU kink
        # and every cosine 0.2 away from zero, so no gradient entry is small
        # enough for rounding in the central differences to dominate.
        while True:
            params = drawn_rows(ModelConfig(3, 1, hidden=4), "conf.", rng)
            for name in ("conf.b1", "conf.b2"):
                params[name].value[:] = 0.5 * _spread(rng, *params[name].value.shape)
            t, a = _spread(rng, 3, 2, 3), _spread(rng, 2, 2, 3)
            pre_t = confidence._first_layer_term(t, params, "text")
            pre_a = confidence._first_layer_term(a, params, "audio")
            _, cos, _ = confidence.factor_terms(t, a, params)
            if np.abs(pre_a[:, :, None] + pre_t[:, None]).min() > 0.1 and np.abs(cos).min() > 0.2:
                break
        t, a = ad.parameter(t, "t"), ad.parameter(a, "a")
        probe = _spread(rng, 2, 3)
        return (
            lambda: ad.reduce_sum(ad.mul(factor_pair_similarity_matrix(t, a, params), probe))
        ), [t, a, *params.values()]

    def residual_blocks(merge: bool):
        def build(rng):
            # Blocks 1-2 of a 3-block bank over 6 rows, D = 3; with an entry
            # merge, the pair-mean map of 3 rows and slice 1 of a 2-slice bank
            # first take the rows to 4. Every pre-activation stays 0.1 away
            # from the ReLU kink.
            pair_mean = encoders._pair_mean_matrix(3)
            while True:
                x, w, b = _spread(rng, 6, 3), 0.5 * _spread(rng, 3, 3, 3), _spread(rng, 3, 3)
                m = 0.5 * _spread(rng, 2, 3, 3)
                h = (pair_mean @ x.reshape(2, 3, 3)).reshape(4, 3) @ m[1] if merge else x
                pre = []
                for l in (1, 2):
                    pre.append(h @ w[l] + b[l])
                    h = h + np.maximum(pre[-1], 0.0)
                if np.abs(np.concatenate(pre)).min() > 0.1:
                    break
            params = [ad.parameter(v, n) for v, n in ((x, "x"), (w, "w"), (b, "b"), (m, "m"))]
            x, w, b, m = params
            entry = (pair_mean, m, 1) if merge else None
            probe = _spread(rng, *h.shape)
            return (
                lambda: ad.reduce_sum(ad.mul(ad.residual_blocks(x, w, b, 1, 3, entry), probe))
            ), params if merge else params[:3]

        return build

    def build_factor_covariance(rng):
        # The gradient w.r.t. a raw stack sums to zero over the batch, so some
        # entries can land near zero, where rounding in the central
        # differences dominates; redraw until every entry is 0.02 away.
        while True:
            zt = ad.parameter(_spread(rng, 5, 3, 2), "zt")
            za = ad.parameter(_spread(rng, 5, 3, 2), "za")
            probe = _spread(rng, 3, 3)

            def fn():
                return ad.reduce_sum(ad.mul(factors.factor_covariance(zt, za), probe))

            grads = ad.gradients(fn(), [zt, za])
            if min(np.abs(g).min() for g in grads.values()) > 0.02:
                return fn, [zt, za]

    def covariance_loss(loss):
        def build(rng):
            c = ad.parameter(_spread(rng, 3, 3), "c")
            return (lambda: loss(c)), [c]

        return build

    return [
        ("add", _probed(ad.add, (4, 5), (4, 5))),
        ("sub", _probed(ad.sub, (4, 5), (4, 5))),
        ("mul", _probed(ad.mul, (4, 5), (4, 5))),
        ("div", _probed(ad.div, (4, 5), (4, 5))),
        ("matmul", _probed(ad.matmul, (3, 5), (5, 2))),
        ("broadcast_add", _probed(ad.add, (4, 5), (5,))),
        ("permute", _probed(lambda x: ad.permute(x, (2, 0, 1)), (2, 3, 4))),
        ("reshape", _probed(lambda x: ad.reshape(x, (3, 8)), (6, 4))),
        ("slice_rows", _probed(lambda x: ad.slice_rows(x, 2, 5), (6, 4))),
        ("exp", _probed(ad.exp, (5, 4))),
        ("log", _probed(ad.log, (5, 4), positive=True)),
        ("sqrt", _probed(ad.sqrt, (5, 4), positive=True)),
        ("hinge", _probed(ad.hinge, (5, 4))),
        ("sigmoid", _probed(ad.sigmoid, (5, 4))),
        ("sum_axis", _probed(lambda x: ad.reduce_sum(x, axis=0, keepdims=True), (4, 5))),
        ("einsum", einsum("imd,jnd->ijmn", (2, 3, 4), (5, 3, 4))),
        ("einsum_vec", einsum("bnd,d->bn", (3, 4, 5), (5,))),
        # the factor path and the composed DCR oracle
        *(
            (f"einsum[{pattern}]", einsum(pattern, *shapes))
            for pattern, shapes in (
                ("bd,kwd->bkw", ((3, 6), (2, 3, 6))),
                ("bkw,bjw->kj", ((4, 3, 2), (4, 3, 2))),
                ("bkd,dh->kbh", ((3, 2, 4), (4, 5))),
                ("kabh,h->kab", ((2, 3, 4, 5), (5,))),
                ("akd,bkd->kab", ((3, 2, 4), (5, 2, 4))),
            )
        ),
        ("row_softmax", build_softmax),
        *(
            (f"tha_level.{direction}.{combine}", tha_level(direction, combine))
            for direction in DIRECTIONS
            for combine in COMBINES
        ),
        ("factor_pair_similarity", build_factor_pair_similarity),
        ("residual_blocks", residual_blocks(merge=False)),
        ("residual_blocks.merge", residual_blocks(merge=True)),
        ("factor_covariance", build_factor_covariance),
        ("decoupling_loss", covariance_loss(factors.decoupling_loss)),
        ("alignment_loss", covariance_loss(factors.alignment_loss)),
    ]


def primitive_checks(seeds: int = 10, h: float = 1e-5, tol: float = 1e-6) -> list[CheckResult]:
    """Randomized gradient check per registered primitive, over `seeds`
    draws each (at least one, so that no check passes unrun)."""
    if seeds < 1:
        raise ContractError(f"primitive checks need seeds >= 1, got {seeds}")
    if not tol > 0:  # no worst error is below 0, so every check would fail
        raise ContractError(f"primitive checks need tol > 0, got {tol}")
    results = []
    for name, build in _primitive_cases():
        worst = 0.0
        for seed in range(seeds):
            rng = np.random.default_rng(1000 + seed)
            fn, params = build(rng)
            worst = max(worst, ad.finite_difference_check(fn, params, h=h))
        results.append(CheckResult(name=name, worst=worst, tol=tol))
    return results


# -- full-loss gradient checks -------------------------------------------------


def _toy_setup(seed: int, batch: int = 4, dim: int = 16, k: int = 4, m: int = 8, n: int = 5):
    rng = np.random.default_rng(2000 + seed)
    model = Model.build(
        ModelConfig(embed_dim=dim, factor_count=k, attention=AttentionConfig()), seed=seed
    )
    audio, text = np.empty((batch, m, dim)), np.empty((batch, n, dim))
    for i in range(batch):  # pair by pair: its audio draw, then its text draw
        audio[i] = rng.normal(size=(m, dim))
        text[i] = rng.normal(size=(n, dim))
    return model, Pairs(audio=audio, text=text, concepts=np.eye(batch, dtype=bool))


def loss_gradient_checks(
    seeds: int = 10,
    h: float = 1e-5,
    tol: float = 1e-4,
    entries_per_tensor: int = 2,
) -> list[CheckResult]:
    """FD-check each of `Model.losses`, the losses a training step takes,
    under the default objective (THA+DCR) on random toy models. Every
    parameter tensor is probed at a seeded sample of entries."""
    names = ("loss_s", "loss_d", "loss_a", "loss_total")
    cfg = obj.ObjectiveConfig()
    worst = dict.fromkeys(names, 0.0)
    for seed in range(seeds):
        model, pairs = _toy_setup(seed)
        for i, name in enumerate(names):

            def loss(i=i):
                return model.losses(model.encode_arrays(pairs.audio, pairs.text), cfg)[i]

            err = ad.finite_difference_check(
                loss, model.parameters(), h=h, max_entries=entries_per_tensor, seed=seed
            )
            worst[name] = max(worst[name], err)
    return [CheckResult(name=k, worst=v, tol=tol) for k, v in worst.items()]


# -- oracle equivalences ---------------------------------------------------------


def _enhanced_scores(
    s4: ad.Tensor, queries_n: ad.Tensor, contexts_raw: ad.Tensor, cfg: AttentionConfig,
    fuse_pattern: str, cos_pattern: str,
) -> ad.Tensor:
    """One attention direction over all pairs from differentiable primitives.

    s4 is (B, B, Q, C) with query axis 2 and context axis 3; queries_n is the
    row-normalized query tensor and contexts_raw the raw context tensor.
    """
    sbar = attention.hinge_normalize(s4)
    alpha = ad.row_softmax(sbar, cfg.temperature)
    fused = ad.einsum(fuse_pattern, alpha, contexts_raw)
    fused_n = ad.normalize_rows(fused)
    return ad.reduce_sum(ad.einsum(cos_pattern, queries_n, fused_n), axis=2)


def composed_hierarchical_similarity(
    audio_levels: list[ad.Tensor], text_levels: list[ad.Tensor], cfg: AttentionConfig
) -> ad.Tensor:
    """`attention.hierarchical_similarity_matrix` composed from primitives,
    building the (B_a, B_t, Q, D) fused rows: the oracle of the fused
    `attention.tha_level` op."""
    total = None
    for a3, t3 in zip(audio_levels, text_levels, strict=True):
        an = ad.normalize_rows(a3)
        tn = ad.normalize_rows(t3)
        s4 = ad.einsum("imd,jnd->ijmn", an, tn)
        if cfg.direction in ("text_enhanced", "both"):
            te = _enhanced_scores(s4, an, t3, cfg, "ijmn,jnd->ijmd", "imd,ijmd->ijm")
        if cfg.direction in ("audio_enhanced", "both"):
            s4_swapped = ad.permute(s4, (0, 1, 3, 2))
            ae = _enhanced_scores(s4_swapped, tn, a3, cfg, "ijnm,imd->ijnd", "jnd,ijnd->ijn")
        if cfg.direction == "text_enhanced":
            score = te
        elif cfg.direction == "audio_enhanced":
            score = ae
        else:
            both = ad.add(te, ae)
            score = ad.mul(both, 0.5) if cfg.combine == "mean" else both
        total = score if total is None else ad.add(total, score)
    return total


def composed_factor_pair_similarity(
    text: ad.Tensor, audio: ad.Tensor, params: dict[str, ad.Tensor]
) -> ad.Tensor:
    """`confidence.factor_pair_similarity_matrix` composed from primitives:
    the oracle of the fused op. Each item is projected once through its half
    of `conf.w1`, and the halves are broadcast-added per pair as
    (K, B_a, 1, h) + (K, 1, B_t, h)."""
    t, a = ad.as_tensor(text), ad.as_tensor(audio)
    (bt, k, d), ba = t.value.shape, a.value.shape[0]
    w1 = ad.permute(params["conf.w1"], (1, 0))  # (2d, h): text rows, then audio rows
    h = w1.value.shape[1]
    pre_t = ad.einsum("bkd,dh->kbh", t, ad.slice_rows(w1, 0, d))
    pre_a = ad.add(ad.einsum("bkd,dh->kbh", a, ad.slice_rows(w1, d, 2 * d)), params["conf.b1"])
    hidden = ad.hinge(ad.add(ad.reshape(pre_a, (k, ba, 1, h)), ad.reshape(pre_t, (k, 1, bt, h))))
    y = ad.add(ad.einsum("kabh,h->kab", hidden, ad.reshape(params["conf.w2"], (h,))), params["conf.b2"])
    cos = ad.einsum("akd,bkd->kab", ad.normalize_rows(a), ad.normalize_rows(t))
    return ad.reduce_sum(ad.mul(ad.sigmoid(y), cos), axis=0)


def _bank_slice(bank: ad.Tensor, l: int) -> ad.Tensor:
    return ad.reshape(ad.slice_rows(bank, l, l + 1), bank.value.shape[1:])


def composed_residual_blocks(x, w, b, lo: int, hi: int, merge=None) -> ad.Tensor:
    """`autodiff.residual_blocks` composed from primitives: the oracle of the
    fused op. The entry merge is a matmul by the dense kron(eye(groups),
    pair_map), then by m[k]; each block is add(x, hinge(add(matmul(x, w_l), b_l)))."""
    if merge is not None:
        pair_map, m, k = merge
        groups = ad.as_tensor(x).value.shape[0] // pair_map.shape[1]
        x = ad.matmul(ad.matmul(np.kron(np.eye(groups), pair_map), x), _bank_slice(m, k))
    for l in range(lo, hi):
        x = ad.add(x, ad.hinge(ad.add(ad.matmul(x, _bank_slice(w, l)), _bank_slice(b, l))))
    return x


def composed_factor_losses(z_text, z_audio) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """The covariance of `factors.factor_covariance` and the losses
    `factors.decoupling_loss` and `factors.alignment_loss` on it, composed
    from primitives: the oracle of the three fused ops."""

    def standardize(z):
        inv_b = 1.0 / z.value.shape[0]
        mean = ad.mul(ad.reduce_sum(z, axis=0, keepdims=True), inv_b)
        centered = ad.sub(z, mean)
        var = ad.mul(ad.reduce_sum(ad.mul(centered, centered), axis=0, keepdims=True), inv_b)
        return ad.div(centered, ad.sqrt(ad.add(var, EPS)))

    b, k, width = z_text.value.shape
    c = ad.mul(
        ad.einsum("bkw,bjw->kj", standardize(z_text), standardize(z_audio)), 1.0 / (b * width)
    )
    off = ad.mul(c, 1.0 - np.eye(k))
    dev = ad.sub(1.0, ad.reduce_sum(ad.mul(c, np.eye(k)), axis=1))
    return c, ad.reduce_sum(ad.mul(off, off)), ad.reduce_sum(ad.mul(dev, dev))


def _ragged_blocks(rng, audio_tokens=(4, 2, 1)):
    """THA levels of 7 audio items against 12 text items, 8 wide."""
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
    """Text token 0 of every item has a negative cosine with every audio token."""
    audio, text = _ragged_blocks(rng)
    lead = np.zeros(8)
    lead[0] = 5.0
    for level in audio:
        level += lead  # every audio token leans along +e0 ...
    for level in text:
        level[:, 0] = -lead - 0.1 * np.abs(rng.normal(size=(12, 8)))  # ... and text token 0 away
    return audio, text


# name -> builder(rng) -> (audio levels, text levels) for THA equivalence checks
THA_CASES = {
    "ragged": _ragged_blocks,
    "single_token_audio": lambda rng: _ragged_blocks(rng, audio_tokens=(1, 1, 1)),
    "zero_token_rows": _zero_token_rows,
    "no_positive_column": _no_positive_column,
}


def _attend_oracle(queries: np.ndarray, contexts: np.ndarray, temperature: float) -> np.ndarray:
    """Step-by-step recomputation: cosine -> hinge-column-normalize ->
    softmax -> weighted context sum."""
    m, n = queries.shape[0], contexts.shape[0]
    sims = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            qa, cb = queries[i], contexts[j]
            sims[i, j] = qa @ cb / max(np.linalg.norm(qa) * np.linalg.norm(cb), 1e-24)
    clipped = np.maximum(sims, 0.0)
    sbar = np.zeros_like(clipped)
    for j in range(n):
        norm = math.sqrt((clipped[:, j] ** 2).sum())
        if norm > 0:
            sbar[:, j] = clipped[:, j] / norm
    fused = np.zeros_like(queries)
    for i in range(m):
        logits = temperature * sbar[i]
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        fused[i] = weights @ contexts
    return fused


def _attend_gap(rng) -> float:
    """Largest gap between one text_enhanced level of the all-pairs THA score
    (2 x 3 items), both as the fused op and as the composed oracle, and the
    summed query/fused cosines built from `_attend_oracle`'s fused rows."""
    audio = rng.normal(size=(2, 2, 4))
    text = rng.normal(size=(3, 3, 4))
    cfg = AttentionConfig(temperature=9.0, direction="text_enhanced")
    scores = [
        score([ad.Tensor(audio)], [ad.Tensor(text)], cfg).value
        for score in (attention.hierarchical_similarity_matrix, composed_hierarchical_similarity)
    ]
    worst = 0.0
    for i, queries in enumerate(audio):
        for j, contexts in enumerate(text):
            fused = _attend_oracle(queries, contexts, cfg.temperature)
            direct = sum(
                q @ f / (np.linalg.norm(q) * np.linalg.norm(f)) for q, f in zip(queries, fused)
            )
            worst = max(worst, *(abs(float(s[i, j]) - direct) for s in scores))
    return worst


def _oracle_gaps(op, oracle, wrt: list[ad.Tensor], probe) -> tuple[float, float]:
    """Largest gaps between a fused op and its composed oracle, each built
    by a no-argument call over the parameters `wrt`: of the op's forward-only
    values, and of the gradients of the probe-weighted scores w.r.t. `wrt`,
    relative to the largest entry of each of the oracle's gradient rows."""
    with ad.no_grad():
        value = op().value
    composed = oracle()
    value_gap = float(np.abs(value - composed.value).max())
    want = ad.gradients(ad.reduce_sum(ad.mul(composed, probe)), wrt)
    got = ad.gradients(ad.reduce_sum(ad.mul(op(), probe)), wrt)
    grad_gap = 0.0
    for name, w in want.items():
        scale = np.maximum(np.abs(w).max(axis=-1), 1e-300)
        grad_gap = max(grad_gap, float((np.abs(got[name] - w).max(axis=-1) / scale).max()))
    return value_gap, grad_gap


def _tha_gaps() -> tuple[float, float]:
    """`_oracle_gaps` of THA, worst over every `THA_CASES` block, direction
    and combine, w.r.t. every level. The op is given one workspace across
    all of them, which its forward-only calls use, as eval's tiles do."""
    value_gap = grad_gap = 0.0
    ws = ad.Workspace()
    for build in THA_CASES.values():
        rng = np.random.default_rng(30)
        audio, text = build(rng)
        probe = rng.normal(size=(audio[0].shape[0], text[0].shape[0]))
        levels = [ad.parameter(x, f"x{i}") for i, x in enumerate(audio + text)]
        a, t = levels[: len(audio)], levels[len(audio):]
        for direction in DIRECTIONS:
            for combine in COMBINES:
                cfg = AttentionConfig(direction=direction, combine=combine)
                gaps = _oracle_gaps(
                    lambda: attention.hierarchical_similarity_matrix(a, t, cfg, ws),
                    lambda: composed_hierarchical_similarity(a, t, cfg),
                    levels,
                    probe,
                )
                value_gap, grad_gap = max(value_gap, gaps[0]), max(grad_gap, gaps[1])
    return value_gap, grad_gap


def _dcr_gaps() -> tuple[float, float]:
    """`_oracle_gaps` of DCR w.r.t. both stacks and the four `conf.*`
    parameters, on ragged (7 x 12 item) stacks with K = 3, one all-zero
    factor row and one all-zero audio item. The op is given a workspace,
    which its forward-only call uses, as eval's tiles do."""
    rng = np.random.default_rng(40)
    params = drawn_rows(ModelConfig(4, 1, hidden=5), "conf.", rng)
    for name in ("conf.b1", "conf.b2"):
        params[name].value[:] = rng.normal(size=params[name].value.shape)
    text = rng.normal(size=(12, 3, 4))
    audio = rng.normal(size=(7, 3, 4))
    text[5, 1] = 0.0
    audio[2] = 0.0
    t, a = ad.parameter(text, "t"), ad.parameter(audio, "a")
    ws = ad.Workspace()
    return _oracle_gaps(
        lambda: factor_pair_similarity_matrix(t, a, params, ws),
        lambda: composed_factor_pair_similarity(t, a, params),
        [t, a, *params.values()],
        rng.normal(size=(7, 12)),
    )


def _max_gaps(gaps) -> tuple[float, float]:
    gaps = list(gaps)
    return max(g[0] for g in gaps), max(g[1] for g in gaps)


def _residual_blocks_gaps() -> tuple[float, float]:
    """`_oracle_gaps` of the encoder blocks w.r.t. the rows and every bank:
    a 3-block text-style segment, and a 2-block audio-style stage whose
    entry merge takes 5-token items (an odd tail) to 3 tokens; 4 items of
    width 6, with one all-zero item."""
    rng = np.random.default_rng(50)
    dim = 6
    w = ad.parameter(rng.uniform(-0.4, 0.4, size=(5, dim, dim)), "w")
    b = ad.parameter(0.3 * rng.normal(size=(5, dim)), "b")
    m = ad.parameter(np.eye(dim) + 0.2 * rng.normal(size=(2, dim, dim)), "m")
    cases = []
    for rows, merge, lo, hi in (
        (4 * 3, None, 0, 3),
        (4 * 5, (encoders._pair_mean_matrix(5), m, 1), 3, 5),
    ):
        raw = rng.normal(size=(rows, dim))
        raw[: rows // 4] = 0.0
        x = ad.parameter(raw, "x")
        wrt = [x, w, b] + ([m] if merge else [])
        cases.append(
            _oracle_gaps(
                lambda: ad.residual_blocks(x, w, b, lo, hi, merge),
                lambda: composed_residual_blocks(x, w, b, lo, hi, merge),
                wrt,
                rng.normal(size=(rows if merge is None else 4 * 3, dim)),
            )
        )
    return _max_gaps(cases)


def _factor_stat_gaps() -> tuple[float, float]:
    """`_oracle_gaps` of the covariance and of both losses on it, w.r.t. both
    raw stacks: B = 7, K = 3, w = 2, with one constant text dimension."""
    rng = np.random.default_rng(60)
    text, audio = rng.normal(size=(7, 3, 2)), rng.normal(size=(7, 3, 2))
    text[:, 1, 0] = 0.5
    t, a = ad.parameter(text, "t"), ad.parameter(audio, "a")
    fused = (
        lambda: factors.factor_covariance(t, a),
        lambda: factors.decoupling_loss(factors.factor_covariance(t, a)),
        lambda: factors.alignment_loss(factors.factor_covariance(t, a)),
    )
    return _max_gaps(
        _oracle_gaps(
            op, lambda i=i: composed_factor_losses(t, a)[i], [t, a],
            rng.normal(size=op().value.shape),
        )
        for i, op in enumerate(fused)
    )


def oracle_checks() -> list[CheckResult]:
    rng = np.random.default_rng(7)
    results = []

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    loops = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                loops[i, j] += a[i, k] * b[k, j]
    results.append(
        CheckResult(
            "matmul_vs_triple_loop",
            float(np.abs(ad.matmul(ad.Tensor(a), ad.Tensor(b)).value - loops).max()),
            1e-12,
        )
    )

    results.append(CheckResult("attend_vs_composed_oracle", _attend_gap(rng), 1e-10))

    s = rng.normal(size=(4, 3))
    hn = attention.hinge_normalize(ad.Tensor(s)).value
    clipped = np.maximum(s, 0.0)
    direct = np.zeros_like(clipped)
    for j in range(3):
        norm = math.sqrt((clipped[:, j] ** 2).sum())
        if norm > 0:
            direct[:, j] = clipped[:, j] / norm
    results.append(
        CheckResult("hinge_normalize_vs_direct", float(np.abs(hn - direct).max()), 1e-10)
    )

    identity_loss = float(obj.nt_xent(ad.Tensor(np.eye(2)), 1.0).value)
    expected = 2.0 * (math.log(1.0 + math.e) - 1.0)
    results.append(CheckResult("nt_xent_identity_b2", abs(identity_loss - expected), 1e-10))

    for b_size in (2, 3, 4):
        s = rng.normal(size=(b_size, b_size))
        tau = 0.31
        ours = float(obj.nt_xent(ad.Tensor(s), tau).value)
        direct = 0.0
        for i in range(b_size):
            direct -= math.log(
                math.exp(s[i, i] / tau) / sum(math.exp(s[i, j] / tau) for j in range(b_size))
            )
            direct -= math.log(
                math.exp(s[i, i] / tau) / sum(math.exp(s[j, i] / tau) for j in range(b_size))
            )
        direct /= b_size
        results.append(CheckResult(f"nt_xent_direct_b{b_size}", abs(ours - direct), 1e-10))

    b_size, k, width = 5, 3, 2
    zt = rng.normal(size=(b_size, k, width))
    za = rng.normal(size=(b_size, k, width))
    cov = factors.factor_covariance(ad.Tensor(zt), ad.Tensor(za)).value
    standardized = []
    for z in (zt, za):
        out = np.zeros_like(z)
        for i in range(k):
            for d in range(width):
                col = z[:, i, d]
                mean = sum(col) / b_size
                var = sum((v - mean) ** 2 for v in col) / b_size
                out[:, i, d] = (col - mean) / math.sqrt(var + EPS)
        standardized.append(out)
    direct = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            acc = 0.0
            for bb in range(b_size):
                acc += standardized[0][bb, i] @ standardized[1][bb, j]
            direct[i, j] = acc / (b_size * width)
    results.append(
        CheckResult("factor_covariance_vs_direct_sum", float(np.abs(cov - direct).max()), 1e-12)
    )
    for value_name, grad_name, gaps in (
        ("tha_kernel_vs_composed", "tha_grad_vs_composed", _tha_gaps),
        ("dcr_kernel_vs_composed", "dcr_grad_vs_composed", _dcr_gaps),
        ("residual_blocks_vs_composed", "residual_blocks_grad_vs_composed", _residual_blocks_gaps),
        ("factor_stats_vs_composed", "factor_stats_grad_vs_composed", _factor_stat_gaps),
    ):
        value_gap, grad_gap = gaps()
        results.append(CheckResult(value_name, value_gap, 1e-12))
        results.append(CheckResult(grad_name, grad_gap, 1e-10))
    return results


def invariant_checks(instances: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(11)
    results = []

    worst = 0.0
    for _ in range(instances):
        scale = float(rng.uniform(0.1, 4.0))
        x = rng.normal(size=(3, 5)) * rng.choice([1.0, 1e3])
        sums = ad.row_softmax(ad.Tensor(x), scale).value.sum(axis=-1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    results.append(CheckResult("softmax_rows_sum_to_one", worst, 1e-12))

    worst = 0.0
    for _ in range(instances):
        x = rng.normal(size=(4, 4))
        once = ad.hinge(ad.Tensor(x)).value
        twice = ad.hinge(ad.hinge(ad.Tensor(x))).value
        worst = max(worst, float(np.abs(once - twice).max()))
    results.append(CheckResult("hinge_idempotent", worst, 1e-300))

    worst = 0.0
    for _ in range(instances):
        s = rng.normal(size=(5, 4))
        hn = attention.hinge_normalize(ad.Tensor(s)).value
        for j in range(4):
            if (s[:, j] > 0).any():
                worst = max(worst, abs(float((hn[:, j] ** 2).sum()) - 1.0))
    results.append(CheckResult("hinge_normalize_unit_columns", worst, 1e-10))

    worst = 0.0
    for _ in range(instances):
        z = ad.Tensor(rng.normal(size=(8, 4, 2)))
        cov = factors.factor_covariance(z, z).value
        worst = max(worst, float(np.abs(np.diag(cov) - 1.0).max()))
    results.append(CheckResult("self_covariance_diag_one", worst, 1e-10))

    c_eye = ad.Tensor(np.eye(4))
    exact_zero = max(
        float(factors.decoupling_loss(c_eye).value), float(factors.alignment_loss(c_eye).value)
    )
    results.append(CheckResult("factor_losses_zero_at_identity", exact_zero, 1e-300))

    worst = 0.0
    for _ in range(instances):
        s = rng.normal(size=(4, 4))
        shift = float(rng.normal()) * 5.0
        base = float(obj.nt_xent(ad.Tensor(s), 0.2).value)
        shifted = float(obj.nt_xent(ad.Tensor(s + shift), 0.2).value)
        worst = max(worst, abs(base - shifted))
    results.append(CheckResult("nt_xent_shift_invariance", worst, 1e-10))

    return results


def run_all(seeds: int = 3, h: float = 1e-5, tol: float = 1e-6) -> list[CheckResult]:
    results = primitive_checks(seeds=seeds, h=h, tol=tol)
    results.extend(oracle_checks())
    results.extend(invariant_checks())
    results.extend(loss_gradient_checks(seeds=1, h=h, tol=1e-4, entries_per_tensor=1))
    return results
