"""The benchmark's workloads, their set-up, correctness checks and metrics.

Every workload is a closed loop with one caller: each train step or eval
call starts after the previous one returns. A run sets up its inputs from
the seed, measures operations until its time is up, checks every output
against `reference.json`, and reports end-to-end metrics (untraced run) or
per-layer metrics (traced run).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import BOOKKEEPING, Tracer
from xmal import attention, autodiff as ad, cli, encoders, evaluation, factors, model as model_mod
from xmal import objective, trainer
from xmal.data import Dataset, SynthConfig, generate, save_dataset
from xmal.model import Model, ModelConfig
from xmal.objective import ObjectiveConfig
from xmal.trainer import TrainConfig

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = 32  # --seed n uses inputs and reference of seed n mod 32
LOSS_RTOL = 1e-6  # per-step loss vs reference; R@k must match exactly

# The acceptance toy-run world and model: 288 pairs, D=32, K=8, N=6, M=8, sigma=0.1.
WORLD_PAIRS = 288
WORLD = dict(
    concept_count=16, factor_count=8, embed_dim=32, text_tokens=6, audio_tokens=8, noise_sigma=0.1
)
MODEL = ModelConfig(embed_dim=32, factor_count=8)
EPISODE_EPOCHS = 2  # a train episode restarts from fresh weights, so its losses repeat
CHECKPOINT_EPOCHS = 3  # eval set-up: short DP-mode run that lifts R@k well above chance
KS = "1,5,10"
TAPE_LAYERS = ("attention.tha", "confidence.dcr")  # the all-pairs scorers
MB = 2**20

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "autodiff.nodes": "count",
    "autodiff.grad_nodes": "count",
    "autodiff.tape_mb": "MB",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_self_ms": "ms",
    "attention.tha.fwd_ms": "ms",
    "attention.tha.bwd_ms": "ms",
    "attention.tha.nodes": "count",
    "attention.tha.tape_mb": "MB",
    "attention.tha.peak_mb": "MB",
    "attention.dp.fwd_ms": "ms",
    "confidence.dcr.fwd_ms": "ms",
    "confidence.dcr.bwd_ms": "ms",
    "confidence.dcr.nodes": "count",
    "confidence.dcr.tape_mb": "MB",
    "confidence.dcr.peak_mb": "MB",
    "factors.fwd_ms": "ms",
    "factors.bwd_ms": "ms",
    "factors.nodes": "count",
    "factors.project.calls": "count",
    "encoders.audio.fwd_ms": "ms",
    "encoders.audio.bwd_ms": "ms",
    "encoders.text.fwd_ms": "ms",
    "encoders.text.bwd_ms": "ms",
    "encoders.nodes": "count",
    "encoders.peak_mb": "MB",
    "objective.nt_xent.fwd_ms": "ms",
    "objective.nt_xent.bwd_ms": "ms",
    "trainer.optimizer_ms": "ms",
    "trainer.step_self_ms": "ms",
    "evaluation.score.dp_s": "s",
    "evaluation.score.tha_s": "s",
    "evaluation.score.dcr_s": "s",
    "evaluation.score.tha_dcr_s": "s",
    "evaluation.rank_s": "s",
    "evaluation.call_self_s": "s",
    "data.generate_s": "s",
    "data.load_s": "s",
    "trainer.load_checkpoint_s": "s",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.self_ms": "ms",
}


@dataclass
class RunContext:
    """One run: the inputs' seed, the set-up directory, the reference outputs,
    and what the run has seen so far."""

    seed: int
    workdir: Path
    ref: object
    setup_s: list[float] = field(default_factory=list)
    generate_s: list[float] = field(default_factory=list)
    first_losses: list[float] | None = None  # later episodes must repeat them bit for bit


@dataclass
class Phase:
    """Operations measured in one stretch of a run."""

    durations: list[float] = field(default_factory=list)  # seconds per op
    attempted: int = 0
    failed: int = 0


# -- train workloads --------------------------------------------------------------


@dataclass
class TrainState:
    seed: int
    world: Dataset
    cfg: TrainConfig
    generate_s: float


class TrainWorkload:
    """`trainer.train` in mode THA+DCR on the toy-run world; one op is one step."""

    root = "trainer.step"
    op_name = "steps"

    def __init__(self, batch: int):
        self.batch = batch
        self.pairs_per_op = batch

    def setup(self, seed: int, workdir: Path) -> TrainState:
        t0 = perf_counter()
        world = generate(SynthConfig(pairs=WORLD_PAIRS, seed=seed, **WORLD))
        generate_s = perf_counter() - t0
        cfg = TrainConfig(
            epochs=EPISODE_EPOCHS, batch_size=self.batch, learning_rate=1e-3, optimizer="adam",
            seed=seed, checkpoint_interval=1,  # on_step after every step times the steps
            objective=ObjectiveConfig(alpha=0.01, beta=0.005, similarity_mode="THA+DCR"),
        )
        return TrainState(seed=seed, world=world, cfg=cfg, generate_s=generate_s)

    def patch(self, tracer: Tracer):
        _patch_model_layers(tracer)

    def _episode(self, state: TrainState, durations: list[float], tracer: Tracer | None):
        model = Model.build(MODEL, state.seed)
        opt = trainer.make_optimizer(state.cfg)
        if tracer is not None:
            opt.step = tracer.span(opt.step, "trainer.optimizer")
            tracer.start()

        def on_step(step, optimizer):
            nonlocal prev
            now = perf_counter()
            durations.append(now - prev)
            if tracer is not None:
                tracer.end_op(now - prev)
                tracer.start()
            prev = perf_counter()  # the hook's own time belongs to no step

        prev = perf_counter()
        try:
            result = trainer.train(model, state.world, state.cfg, optimizer=opt, on_step=on_step)
        finally:
            if tracer is not None:
                tracer.cancel()
        return [rec.loss for rec in result.log]

    def run_once(self, state: TrainState, ctx: RunContext, phase: Phase, tracer=None):
        """One episode; a step fails unless its loss is finite, within LOSS_RTOL of
        the reference and bit-identical to the same step of the run's first episode."""
        ref = ctx.ref
        phase.attempted += len(ref)
        try:
            losses = self._episode(state, phase.durations, tracer)
        except Exception as e:  # a raising episode counts as failed steps, the run goes on
            print(f"train episode raised {type(e).__name__}: {e}", file=sys.stderr)
            phase.failed += len(ref)
            return
        if ctx.first_losses is None:
            ctx.first_losses = losses
        first = ctx.first_losses
        for i, want in enumerate(ref):
            got = losses[i] if i < len(losses) else math.nan
            ok = (
                math.isfinite(got)
                and abs(got - want) <= LOSS_RTOL * abs(want)
                and i < len(first)
                and got == first[i]
            )
            phase.failed += not ok

    def reference_output(self, state: TrainState) -> list[float]:
        return self._episode(state, [], None)


def _patch_model_layers(tracer: Tracer):
    """Spans around the layers that both training and eval go through."""
    tracer.patch(encoders, "encode_audio_batch", "encoders.audio")
    tracer.patch(encoders, "encode_text_batch", "encoders.text")
    tracer.patch(attention, "hierarchical_similarity_matrix", "attention.tha")
    tracer.patch(attention, "global_similarity_matrix", "attention.dp")
    tracer.patch(model_mod, "factor_pair_similarity_matrix", "confidence.dcr")
    tracer.patch(factors, "project_factors", "factors.project")
    for name in ("batch_standardize", "factor_covariance", "decoupling_loss", "alignment_loss"):
        tracer.patch(factors, name, "factors")
    tracer.patch(objective, "nt_xent", "objective.nt_xent")
    tracer.patch_gradients()


# -- eval workloads -----------------------------------------------------------------


@dataclass
class EvalState:
    ckpt: Path
    data: Path
    out: Path
    generate_s: float


class EvalWorkload:
    """In-process `xmal eval` over a held-out slice; one op is one eval call,
    from loading the files to the written report."""

    root = "evaluation.call"
    op_name = "calls"

    def __init__(self, pairs: int, modes: str):
        self.pairs = pairs
        self.pairs_per_op = pairs
        self.modes = modes

    def setup(self, seed: int, workdir: Path) -> EvalState:
        t0 = perf_counter()
        world = generate(SynthConfig(pairs=WORLD_PAIRS + self.pairs, seed=seed, **WORLD))
        generate_s = perf_counter() - t0
        train_ds = Dataset(config=world.config, items=world.items[:WORLD_PAIRS])
        eval_ds = Dataset(
            config=dataclasses.replace(world.config, pairs=self.pairs),
            items=world.items[WORLD_PAIRS:],
        )
        model = Model.build(MODEL, seed)
        cfg = TrainConfig(
            epochs=CHECKPOINT_EPOCHS, batch_size=16, seed=seed,
            objective=ObjectiveConfig(alpha=0.01, beta=0.005, similarity_mode="DP"),
        )
        result = trainer.train(model, train_ds, cfg)
        effective = dict(
            cli.TRAIN_DEFAULTS, epochs=CHECKPOINT_EPOCHS, batch_size=16, mode="DP", seed=seed,
            K=MODEL.factor_count,
        )
        state = EvalState(
            ckpt=workdir / "model.xckp", data=workdir / "eval.xmal", out=workdir / "report",
            generate_s=generate_s,
        )
        blob = cli.canonical_text("train", effective)
        trainer.save_checkpoint(str(state.ckpt), model, result.optimizer, len(result.log), blob)
        save_dataset(eval_ds, str(state.data))
        return state

    def patch(self, tracer: Tracer):
        _patch_model_layers(tracer)
        tracer.patch(cli, "load_dataset", "data.load")
        tracer.patch(trainer, "load_checkpoint", "trainer.load_checkpoint")
        tracer.patch(evaluation, "recall_at_k", "evaluation.rank")
        orig = model_mod.Model.similarity_matrix
        per_mode = {
            mode: tracer.span(orig, f"evaluation.score.{mode.lower().replace('+', '_')}", group=True)
            for mode in objective.MODES
        }
        tracer.replace(
            model_mod.Model,
            "similarity_matrix",
            lambda self, encoded, mode: per_mode[mode](self, encoded, mode),
        )

    def _call(self, state: EvalState, durations: list[float], tracer: Tracer | None) -> dict:
        report = Path(str(state.out) + ".txt")
        report.unlink(missing_ok=True)  # a stale report must not pass the check
        argv = [
            "eval", "--ckpt", str(state.ckpt), "--data", str(state.data), "--modes", self.modes,
            "--k", KS, "--out", str(state.out), "--threads", str(len(os.sched_getaffinity(0))),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.start()
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.end_op(dt)
        durations.append(dt)
        if code != 0:
            raise RuntimeError(f"xmal eval exited with {code}")
        return read_report(report, self.pairs)

    def run_once(self, state: EvalState, ctx: RunContext, phase: Phase, tracer=None):
        """One call; it fails unless every R@k equals the reference exactly."""
        phase.attempted += 1
        try:
            got = self._call(state, phase.durations, tracer)
        except Exception as e:  # a raising call counts as failed, the run goes on
            print(f"eval call raised {type(e).__name__}: {e}", file=sys.stderr)
            phase.failed += 1
            return
        phase.failed += got != ctx.ref

    def reference_output(self, state: EvalState) -> dict:
        return self._call(state, [], None)


def read_report(path: Path, size: int) -> dict[str, float]:
    """R@k values of a text report, keyed `MODE.direction.r@k`."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        if key == "eval_size" and int(value) != size:
            raise ValueError(f"report covers {value} pairs, expected {size}")
        if ".r@" in key:
            values[key] = float(value)
    return values


WORKLOADS = {
    "train-b16": TrainWorkload(batch=16),
    "eval-all-256": EvalWorkload(pairs=256, modes="DP,THA,DCR,THA+DCR"),
    "eval-dp-2048": EvalWorkload(pairs=2048, modes="DP"),
}


# -- runs -------------------------------------------------------------------------


class MissingReference(Exception):
    pass


def load_reference(name: str, seed: int):
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        seeds = json.load(f)["seeds"]
    entry = seeds.get(str(seed % REFERENCE_SEEDS), {})
    if name not in entry:
        raise MissingReference(f"{REFERENCE_PATH.name} has no {name} entry for seed {seed % REFERENCE_SEEDS}")
    return entry[name]


def measure(w, ctx: RunContext, seconds: float, tracer=None) -> Phase:
    """Set-up, then one episode or call, over and over until `seconds` have
    passed (at least once). Set-up repeats through the run, so its median
    samples the whole run rather than its first moments."""
    phase = Phase()
    t0 = perf_counter()
    while True:
        s0 = perf_counter()
        state = w.setup(ctx.seed, ctx.workdir)
        ctx.setup_s.append(perf_counter() - s0)
        ctx.generate_s.append(state.generate_s)
        w.run_once(state, ctx, phase, tracer)
        if perf_counter() - t0 >= seconds:
            return phase


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    lines: list[str]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    w = WORKLOADS[name]
    ctx = RunContext(seed=seed % REFERENCE_SEEDS, workdir=workdir, ref=load_reference(name, seed))
    if not trace:
        phase = measure(w, ctx, seconds)
        d = phase.durations
        metrics = {
            "setup_s": statistics.median(ctx.setup_s),
            "op_ms.p50": 1e3 * statistics.median(d),
            "pairs_per_s": w.pairs_per_op * len(d) / sum(d),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        # The tail is printed, not gated: bursts of machine load move it too much.
        lines = [
            f"{w.op_name} timed: {len(d)}, set-ups: {len(ctx.setup_s)}",
            f"op_ms.p90 = {1e3 * float(np.percentile(d, 90)):.6g} ms ({len(d)} {w.op_name})",
        ]
        return _result([phase], True, metrics, END_TO_END_UNITS, lines)

    # A first untimed episode or call, so that the untraced and traced stretches
    # compare steady states; then untraced, traced, and memory-mode stretches.
    phases = [measure(w, ctx, 0.0), measure(w, ctx, seconds / 2)]
    tracer = Tracer(ad, w.root)
    w.patch(tracer)
    try:
        phases.append(measure(w, ctx, seconds / 2, tracer))
    finally:
        tracer.close()
    tracemalloc.start()
    mem = Tracer(ad, w.root, TAPE_LAYERS, memory=True)
    w.patch(mem)
    try:
        phases.append(measure(w, ctx, 0.0, mem))
    finally:
        mem.close()
        tracemalloc.stop()

    metrics = layer_metrics(tracer, mem, phases[1], statistics.median(ctx.generate_s))
    balance = tracer.accounted_s() - tracer.op_s
    consistent = abs(balance) <= 1e-6 * tracer.op_s and all(
        t.self_s >= -1e-9 for t in tracer.totals.values()
    )
    lines = [
        f"{w.op_name}: untraced {len(phases[1].durations)}, traced {tracer.ops}, "
        f"in memory mode {mem.ops}",
        f"trace accounting: layers + tape + optimizer + root self + bookkeeping - op time = "
        f"{balance * 1e3:.3g} ms over {tracer.ops} {w.op_name}",
    ]
    return _result(phases, consistent, metrics, PER_LAYER_UNITS, lines)


def _result(phases: list[Phase], consistent: bool, metrics, units, lines) -> RunResult:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    lines = lines + [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if not consistent:
        lines.append("trace accounting does not add up to the measured op time")
    return RunResult(
        correct=failed == 0 and consistent,
        attempted=attempted,
        failed=failed,
        metrics={name: metrics[name] for name in units},
        units=units,
        lines=lines,
    )


def layer_metrics(tracer: Tracer, mem: Tracer, untraced: Phase, generate_s: float) -> dict:
    """Per-op means over the traced operations. Tape sizes are per-op means and
    peaks are maxima over the operations run in memory mode."""
    n = tracer.ops
    t = tracer.totals

    def total(attr: str, *keys: str) -> float:
        return sum(getattr(t[k], attr) for k in keys if k in t) / n

    def ms(attr: str, *keys: str) -> float:
        return 1e3 * total(attr, *keys)

    def peak(*keys: str) -> float:
        return max(mem.totals[k].peak_bytes if k in mem.totals else 0 for k in keys) / MB

    def tape(key: str) -> float:
        return mem.totals[key].tape_bytes / mem.ops / MB if key in mem.totals else 0.0

    untraced_op_s = statistics.fmean(untraced.durations)
    traced_op_s = tracer.op_s / n
    enc = ("encoders.audio", "encoders.text")
    fac = ("factors", "factors.project")
    return {
        "autodiff.nodes": total("nodes", *t),
        "autodiff.grad_nodes": total("grad_nodes", "autodiff"),
        "autodiff.tape_mb": tape("autodiff"),
        "autodiff.backward_ms": ms("incl_s", "autodiff.backward"),
        "autodiff.tape_self_ms": ms("self_s", "autodiff.backward"),
        "attention.tha.fwd_ms": ms("self_s", "attention.tha"),
        "attention.tha.bwd_ms": ms("bwd_s", "attention.tha"),
        "attention.tha.nodes": total("nodes", "attention.tha"),
        "attention.tha.tape_mb": tape("attention.tha"),
        "attention.tha.peak_mb": peak("attention.tha"),
        "attention.dp.fwd_ms": ms("self_s", "attention.dp"),
        "confidence.dcr.fwd_ms": ms("self_s", "confidence.dcr"),
        "confidence.dcr.bwd_ms": ms("bwd_s", "confidence.dcr"),
        "confidence.dcr.nodes": total("nodes", "confidence.dcr"),
        "confidence.dcr.tape_mb": tape("confidence.dcr"),
        "confidence.dcr.peak_mb": peak("confidence.dcr"),
        "factors.fwd_ms": ms("self_s", *fac),
        "factors.bwd_ms": ms("bwd_s", *fac),
        "factors.nodes": total("nodes", *fac),
        "factors.project.calls": total("calls", "factors.project"),
        "encoders.audio.fwd_ms": ms("self_s", "encoders.audio"),
        "encoders.audio.bwd_ms": ms("bwd_s", "encoders.audio"),
        "encoders.text.fwd_ms": ms("self_s", "encoders.text"),
        "encoders.text.bwd_ms": ms("bwd_s", "encoders.text"),
        "encoders.nodes": total("nodes", *enc),
        "encoders.peak_mb": peak(*enc),
        "objective.nt_xent.fwd_ms": ms("self_s", "objective.nt_xent"),
        "objective.nt_xent.bwd_ms": ms("bwd_s", "objective.nt_xent"),
        "trainer.optimizer_ms": ms("self_s", "trainer.optimizer"),
        "trainer.step_self_ms": ms("self_s", "trainer.step"),
        "evaluation.score.dp_s": total("incl_s", "evaluation.score.dp"),
        "evaluation.score.tha_s": total("incl_s", "evaluation.score.tha"),
        "evaluation.score.dcr_s": total("incl_s", "evaluation.score.dcr"),
        "evaluation.score.tha_dcr_s": total("incl_s", "evaluation.score.tha_dcr"),
        "evaluation.rank_s": total("incl_s", "evaluation.rank"),
        "evaluation.call_self_s": total("self_s", "evaluation.call"),
        "data.generate_s": generate_s,
        "data.load_s": total("incl_s", "data.load"),
        "trainer.load_checkpoint_s": total("incl_s", "trainer.load_checkpoint"),
        "trace.op_ms": 1e3 * traced_op_s,
        "trace.untraced_op_ms": 1e3 * untraced_op_s,
        "trace.overhead_pct": 100.0 * (traced_op_s / untraced_op_s - 1.0),
        "trace.self_ms": ms("self_s", BOOKKEEPING),
    }
