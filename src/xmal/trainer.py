"""Deterministic mini-batch training over the full model, with Adam/SGD,
stateless per-epoch shuffling, divergence detection, and checkpoint files
that round-trip byte-exactly."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_finite, subsystem_rng
from .data import Reader, write_container
from .errors import ConfigError, DimensionError, TrainingDiverged
from .model import Model
from .objective import ObjectiveConfig

CHECKPOINT_MAGIC = b"XCKP"
# 2: one (K, D/K, D) factor bank per modality, `factors.text`/`factors.audio`;
# 3: one encoder weight and bias bank per stream, `text.w`, `text.b`, `audio.w`,
#    `audio.b`, and the audio merges as `audio.merge`;
# 4: a CRC32 trailer
CHECKPOINT_VERSION = 4

OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 8
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    opt_eps: float = 1e-8
    seed: int = 0
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    clip_norm: float | None = None
    checkpoint_interval: int = 0  # steps between mid-run snapshots; 0 = end only

    def __post_init__(self):
        check_finite(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        for name in ("beta1", "beta2"):  # written so that NaN fails too
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.opt_eps > 0:
            raise ConfigError(f"opt_eps must be > 0, got {self.opt_eps}")
        if (self.objective.alpha > 0 or self.objective.beta > 0) and self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 when the factor losses are weighted")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.checkpoint_interval < 0:
            raise ConfigError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")


@dataclass
class StepRecord:
    step: int
    loss_s: float
    loss_d: float
    loss_a: float
    loss: float


@dataclass
class TrainResult:
    log: list[StepRecord]
    optimizer: "Optimizer"


class Optimizer:
    def step(self, params: list[Tensor], grads: dict[str, np.ndarray]):
        raise NotImplementedError

    def state_tensors(self) -> dict[str, np.ndarray]:
        return {}

    def load_state(self, tensors: dict[str, np.ndarray], params: dict[str, Tensor]):
        pass


class Sgd(Optimizer):
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads):
        for p in params:
            p.value = p.value - self.lr * grads[p.name]


class Adam(Optimizer):
    """Bias-corrected first/second moment updates."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p in params:
            g = grads[p.name]
            m = self.m.get(p.name)
            if m is None:
                m = np.zeros_like(p.value)
                self.v[p.name] = np.zeros_like(p.value)
            v = self.v[p.name]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[p.name], self.v[p.name] = m, v
            p.value = p.value - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_tensors(self):
        out = {"opt.t": np.array(float(self.t))}
        for name in sorted(self.m):
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state(self, tensors, params):
        """Restore `state_tensors` output for the model parameters `params`
        (name -> Tensor): `opt.t`, one finite whole number >= 0, and an
        `opt.m.*` and `opt.v.*` pair of the parameter's shape per parameter
        stepped so far. A missing tensor, as in a checkpoint that another
        optimizer wrote, or a wrong one is a DimensionError naming it."""
        moments = ("opt.m.", "opt.v.")
        stepped = sorted({k[len("opt.m.") :] for k in tensors if k.startswith(moments)})
        for name in ("opt.t", *(moment + p for p in stepped for moment in moments)):
            if name not in tensors:
                raise DimensionError(f"the adam optimizer state has no {name!r} tensor")
        t = np.asarray(tensors["opt.t"])
        if t.size != 1 or not (np.isfinite(t).all() and t >= 0 and t == np.floor(t)):
            raise DimensionError(
                f"the adam optimizer state's 'opt.t' must be one finite whole number >= 0, "
                f"got {t.tolist()}"
            )
        for name in (moment + p for p in stepped for moment in moments):
            what = f"the adam optimizer state's {name!r}"
            if (p := name[len("opt.m.") :]) not in params:
                raise DimensionError(f"{what} names no model parameter")
            if (shape := tensors[name].shape) != (want := params[p].value.shape):
                raise DimensionError(f"{what} has shape {shape}, not its parameter's {want}")
        self.t = int(t.item())
        self.m = {k[len("opt.m.") :]: v for k, v in tensors.items() if k.startswith("opt.m.")}
        self.v = {k[len("opt.v.") :]: v for k, v in tensors.items() if k.startswith("opt.v.")}


def make_optimizer(cfg: TrainConfig) -> Optimizer:
    if cfg.optimizer == "sgd":
        return Sgd(cfg.learning_rate)
    return Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.opt_eps)


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """Stateless shuffle: resuming mid-run replays the identical order."""
    return subsystem_rng(seed, f"shuffle.{epoch}").permutation(n)


def _clip_grads(grads: dict[str, np.ndarray], limit: float):
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > limit:
        scale = limit / total
        for name in grads:
            grads[name] = grads[name] * scale


def train(
    model: Model,
    dataset,
    cfg: TrainConfig,
    start_step: int = 0,
    optimizer: Optimizer | None = None,
    on_step=None,
) -> TrainResult:
    """Run the loop from `start_step` (exclusive); deterministic in (cfg, seed).
    Each step logs `Model.losses` of its batch and steps on their total.

    `on_step(step, optimizer)` fires every `cfg.checkpoint_interval` steps
    when set.
    """
    n = len(dataset)
    if n < cfg.batch_size:
        raise ConfigError(f"dataset has {n} pairs, need at least batch_size={cfg.batch_size}")
    steps_per_epoch = n // cfg.batch_size
    params = model.parameters()
    optimizer = optimizer or make_optimizer(cfg)

    log: list[StepRecord] = []

    for epoch in range(cfg.epochs):
        if (epoch + 1) * steps_per_epoch <= start_step:
            continue  # fully covered by the checkpoint being resumed
        perm = epoch_permutation(cfg.seed, epoch, n)
        for s in range(steps_per_epoch):
            step = epoch * steps_per_epoch + s + 1
            if step <= start_step:
                continue
            batch = dataset.items[perm[s * cfg.batch_size : (s + 1) * cfg.batch_size]]
            losses = model.losses(model.encode_arrays(batch.audio, batch.text), cfg.objective)
            values = tuple(float(loss.value) for loss in losses)
            if not all(np.isfinite(values)):
                raise TrainingDiverged(step)
            grads = ad.gradients(losses[-1], params)
            if cfg.clip_norm is not None:
                _clip_grads(grads, cfg.clip_norm)
            optimizer.step(params, grads)
            log.append(StepRecord(step, *values))
            if on_step is not None and cfg.checkpoint_interval > 0 and step % cfg.checkpoint_interval == 0:
                on_step(step, optimizer)

    return TrainResult(log=log, optimizer=optimizer)


# -- checkpoints ---------------------------------------------------------------


@dataclass
class Checkpoint:
    step: int
    tensors: dict[str, np.ndarray]
    config_text: str


def save_checkpoint(path: str, model: Model, optimizer: Optimizer, step: int, config_text: str):
    tensors = {name: model.params[name].value for name in sorted(model.params)}
    tensors.update(optimizer.state_tensors())
    blob = config_text.encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<IQI", CHECKPOINT_VERSION, step, len(tensors))]
    for name in sorted(tensors):
        encoded = name.encode("utf-8")
        arr = np.asarray(tensors[name], dtype="<f8")  # keeps 0-d shape intact
        chunks += [struct.pack("<I", len(encoded)), encoded]
        chunks += [struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]
    chunks += [struct.pack("<I", len(blob)), blob]
    write_container(path, chunks)


def load_checkpoint(path: str) -> Checkpoint:
    reader = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    step, count = reader.unpack("<QI")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = reader.text("a tensor name")
        shape = reader.unpack(f"<{reader.u32()}I")
        tensors[name] = reader.array(shape)
    config_text = reader.text("the config text")
    reader.check_end("config text")
    return Checkpoint(step=step, tensors=tensors, config_text=config_text)
