"""Command-line front door: data generation, training, evaluation, pairwise
score breakdowns, and self-verification.

Every setting is declared once, in `SETTINGS`: that table builds each
command's flags, gives each config section its keys and their types, and
names the config-dataclass field each setting sets, from which `_built`
makes every config dataclass.
Every command resolves its settings from an optional `--config` file section
overridden by flags, stamps outputs with a content hash of the resolved
settings plus the seed, and is deterministic given both.

A checkpoint alone restores its model (`_restore_model`): its tensors give
the parameters and dimensions, and its stored config the attention settings,
with no init draw and no seed. `eval`, `sim` and `export-embeddings` read
`--data` or `--embeddings` through one function, `_loaded_input`; `sim` and
`export-embeddings` encode what they need of it at once (`_encoded_input`),
and `eval` encodes it in its workers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from typing import NamedTuple

from . import attention, autodiff as ad, evaluation, objective as obj, trainer, verify
from .attention import AttentionConfig, hierarchical_similarity_matrix
from .config import (
    canonical_text,
    config_hash,
    finite_float,
    parse_config_file,
    parse_sections,
    setup_logging,
)
from .data import (
    Pairs,
    SynthConfig,
    generate,
    load_dataset,
    load_embeddings,
    save_dataset,
    save_embeddings,
    write_file,
)
from .confidence import factor_terms
from .errors import ConfigError, ContractError, DimensionError, XmalError
from .model import EncodedBatch, Model, ModelConfig
from .objective import ObjectiveConfig
from .trainer import TrainConfig


class Flag(NamedTuple):
    """One setting: its flag, value type, help and the default its command
    applies when neither the flag nor the config file sets it. Its config
    key is the flag's name with `-` turned into `_`, unless `key` names
    another; the config-dataclass field it sets is its key, unless `field`
    names another."""

    name: str
    type: type = str
    help: str | None = None
    choices: tuple[str, ...] | None = None
    key: str | None = None
    default: object = None
    field: str | None = None

    @property
    def dest(self) -> str:
        return self.key or self.name[2:].replace("-", "_")

    @property
    def sets(self) -> str:
        return self.field or self.dest


# config section -> its settings; `[eval]` also serves `export-embeddings`
SETTINGS: dict[str, tuple[Flag, ...]] = {
    "data": (
        Flag("--out", help="dataset file to write"),
        Flag("--pairs", int),
        Flag("--concepts", int, field="concept_count"),
        Flag("--K", int, field="factor_count"),
        Flag("--D", int, field="embed_dim"),
        Flag("--N", int, field="text_tokens"),
        Flag("--M", int, field="audio_tokens"),
        Flag("--sigma", finite_float, field="noise_sigma"),
        Flag("--seed", int),
        Flag("--shared-projection", bool),
    ),
    "train": (
        Flag("--data"),
        Flag("--out", help="checkpoint file to write"),
        Flag("--log", help="loss log path (default: <out>.log)"),
        Flag("--resume", help="checkpoint to continue from (uses its stored config)"),
        Flag("--epochs", int, default=TrainConfig.epochs),
        Flag("--batch-size", int, default=TrainConfig.batch_size),
        Flag("--lr", finite_float, default=TrainConfig.learning_rate, field="learning_rate"),
        Flag("--optimizer", choices=trainer.OPTIMIZERS, default=TrainConfig.optimizer),
        Flag("--beta1", finite_float, default=TrainConfig.beta1),
        Flag("--beta2", finite_float, default=TrainConfig.beta2),
        Flag("--opt-eps", finite_float, default=TrainConfig.opt_eps),
        Flag("--tau", finite_float, default=ObjectiveConfig.tau),
        Flag("--alpha", finite_float, default=ObjectiveConfig.alpha),
        Flag("--beta", finite_float, default=ObjectiveConfig.beta),
        Flag(
            "--mode", choices=obj.MODES, default=ObjectiveConfig.similarity_mode,
            field="similarity_mode",
        ),
        Flag(
            "--lambda", finite_float, "attention sharpness", key="temperature",
            default=AttentionConfig.temperature,
        ),
        Flag("--direction", choices=attention.DIRECTIONS, default=AttentionConfig.direction),
        Flag("--combine", choices=attention.COMBINES, default=AttentionConfig.combine),
        Flag("--K", int, field="factor_count"),
        Flag("--hidden", int),
        Flag("--clip-norm", finite_float),
        Flag("--checkpoint-interval", int, default=TrainConfig.checkpoint_interval),
        Flag("--seed", int, default=TrainConfig.seed),
    ),
    "eval": (
        Flag("--ckpt"),
        Flag("--data"),
        Flag("--embeddings", help="embedding container replacing the encoders"),
        Flag("--modes", help="comma-separated similarity modes", default="THA+DCR"),
        Flag("--k", help="comma-separated ranks, e.g. 1,5,10", default="1,5,10"),
        Flag("--out", help="eval: report prefix, writes <out>.txt and <out>.xrpt; "
             "export-embeddings: embedding container to write"),
        Flag("--seed", int, default=0),
        Flag(
            "--threads", int,
            "rank in up to N processes (default: one per CPU), at most one per usable CPU "
            "and only as many as the work pays for, never changing results",
            default=os.cpu_count() or 1,
        ),
    ),
    "sim": (
        Flag("--ckpt"),
        Flag("--data"),
        Flag("--embeddings"),
        Flag("--item-a", int, "audio item index"),
        Flag("--item-b", int, "text item index"),
    ),
    "verify": (
        Flag("--h", finite_float, "central-difference step", default=1e-5),
        Flag("--tol", finite_float, "primitive-check tolerance", default=1e-6),
        Flag("--seeds", int, default=3),
    ),
}

# section -> key -> type, for config files and stored train configs
KEY_TYPES = {
    section: {flag.dest: flag.type for flag in flags}
    for section, flags in SETTINGS.items()
}

# a train run's settings that neither flag nor file set; K defaults to the dataset's
TRAIN_DEFAULTS = {flag.dest: flag.default for flag in SETTINGS["train"] if flag.default is not None}

def _given_settings(args) -> dict:
    """The settings that the command's section of the --config file and its
    flags set, flags overriding the file."""
    given = parse_config_file(args.config, KEY_TYPES).get(args.section, {}) if args.config else {}
    for flag in SETTINGS[args.section]:
        flag_value = getattr(args, flag.dest, None)  # export-embeddings lacks some [eval] flags
        if flag_value is not None:
            given[flag.dest] = flag_value
    return given


def _config_section(args) -> dict:
    """The command's settings: their defaults, overridden by the given ones."""
    flags = SETTINGS[args.section]
    defaults = {flag.dest: flag.default for flag in flags if flag.default is not None}
    return {**defaults, **_given_settings(args)}


def cmd_gen_data(args) -> int:
    values = _config_section(args)
    if "out" not in values:
        raise ConfigError("gen-data needs --out")
    if "pairs" not in values:
        raise ConfigError("gen-data needs --pairs")
    cfg = _built(SynthConfig, "data", values)
    resolved = {flag.dest: getattr(cfg, flag.sets) for flag in SETTINGS["data"] if flag.dest != "out"}
    stamp = config_hash("data", resolved)
    ds = generate(cfg)
    save_dataset(ds, values["out"], manifest_extra={"config_hash": stamp})
    print(
        f"wrote {values['out']}: pairs={cfg.pairs} concepts={cfg.concept_count} "
        f"K={cfg.factor_count} D={cfg.embed_dim} N={cfg.text_tokens} M={cfg.audio_tokens} "
        f"sigma={cfg.noise_sigma} seed={cfg.seed} config_hash={stamp}"
    )
    return 0


def _stored_config(ckpt_path: str, ckpt: trainer.Checkpoint) -> dict:
    """A checkpoint's train config, read like a config file's [train] section."""
    schema = {"train": KEY_TYPES["train"]}
    return parse_sections(ckpt.config_text.splitlines(), schema, ckpt_path).get("train", {})


def _built(cls, section: str, values: dict, **rest):
    """The config dataclass `cls`, each field set by the setting of `section`
    that sets it if `values` holds one, else by `rest`, else its default."""
    fields = {f.name for f in dataclasses.fields(cls)}
    for flag in SETTINGS[section]:
        if flag.sets in fields and flag.dest in values:
            rest[flag.sets] = values[flag.dest]
    return cls(**rest)


def write_loss_log(path: str, stamp: str, cfg: TrainConfig, result):
    lines = [
        f"config_hash={stamp}",
        f"seed={cfg.seed}",
        f"mode={cfg.objective.similarity_mode}",
    ]
    for rec in result.log:
        lines.append(
            f"step={rec.step} loss_s={rec.loss_s!r} loss_d={rec.loss_d!r} "
            f"loss_a={rec.loss_a!r} loss={rec.loss!r}"
        )
    write_file(path, [("\n".join(lines) + "\n").encode("utf-8")])


def cmd_train(args) -> int:
    given = _given_settings(args)
    values = {**TRAIN_DEFAULTS, **given}
    if "data" not in values or "out" not in values:
        raise ConfigError("train needs --data and --out")
    dataset = load_dataset(values["data"])

    skip = ("data", "out", "log", "resume")  # paths
    ckpt = None
    if values.get("resume"):
        model, effective, ckpt = _restore_model(values["resume"])
        _check_width(values["data"], dataset.config.embed_dim, model)
        resumed = {**TRAIN_DEFAULTS, **effective}
        for key, value in given.items():
            if key not in skip and value != (used := resumed.get(key)):
                raise ConfigError(f"--resume keeps the checkpoint's {key}={used!r}, not {value!r}")
        print(f"resuming from {values['resume']} at step {ckpt.step} with its stored config")
    else:
        effective = {k: v for k, v in values.items() if k not in skip}
        effective.setdefault("K", dataset.config.factor_count)
        cfg = _built(
            ModelConfig, "train", effective, embed_dim=dataset.config.embed_dim,
            attention=_built(AttentionConfig, "train", effective),
        )
        model = Model.build(cfg, effective["seed"])
    objective = _built(ObjectiveConfig, "train", effective)
    train_cfg = _built(TrainConfig, "train", effective, objective=objective)
    start_step, optimizer = 0, None
    if ckpt is not None:
        optimizer = trainer.make_optimizer(train_cfg)
        with _naming(values["resume"]):
            state = {k: v for k, v in ckpt.tensors.items() if k.startswith("opt.")}
            optimizer.load_state(state, model.params)
        start_step = ckpt.step

    stamp = config_hash("train", effective)
    blob = canonical_text("train", effective)
    out = values["out"]

    def snapshot(step: int, opt):
        trainer.save_checkpoint(f"{out}.step{step:06d}", model, opt, step, blob)

    result = trainer.train(
        model,
        dataset,
        train_cfg,
        start_step=start_step,
        optimizer=optimizer,
        on_step=snapshot,
    )
    trainer.save_checkpoint(out, model, result.optimizer, _total_steps(train_cfg, dataset), blob)
    log_path = values.get("log", out + ".log")
    write_loss_log(log_path, stamp, train_cfg, result)
    print(
        f"trained {len(result.log)} steps -> {out} (log {log_path}) "
        f"config_hash={stamp} seed={train_cfg.seed}"
    )
    return 0


def _total_steps(cfg: TrainConfig, dataset) -> int:
    return (len(dataset) // cfg.batch_size) * cfg.epochs


@contextlib.contextmanager
def _naming(path: str):
    """Prefix `path` to a content error raised inside, keeping its type."""
    try:
        yield
    except (ConfigError, ContractError, DimensionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _restore_model(ckpt_path: str) -> tuple[Model, dict, trainer.Checkpoint]:
    """The model a checkpoint holds: its parameters and dimensions from its
    tensors, its attention settings from its stored train config; also that
    config and the checkpoint. An error in either names the checkpoint."""
    ckpt = trainer.load_checkpoint(ckpt_path)
    effective = _stored_config(ckpt_path, ckpt)
    with _naming(ckpt_path):
        attention_cfg = _built(AttentionConfig, "train", effective)
        return Model.from_tensors(ckpt.tensors, attention_cfg), effective, ckpt


def _check_width(path: str, width: int, model: Model):
    if width != (expected := model.cfg.embed_dim):
        raise DimensionError(f"{path}: width {width} does not match the checkpoint's {expected}")


def _loaded_input(
    command: str, model: Model, data: str | None, embeddings: str | None = None
) -> EncodedBatch | Pairs:
    """The items that `command` reads: the embedding set at `embeddings`,
    else the pairs of the dataset at `data`, checked against the model's
    width and for holding an item."""
    if data and embeddings:
        raise ConfigError(f"{command} takes --data or --embeddings, not both")
    path = embeddings or data
    if not path:
        raise ConfigError(f"{command} needs --data or --embeddings")
    source = load_embeddings(path) if embeddings else load_dataset(path)
    _check_width(path, source.dim if embeddings else source.config.embed_dim, model)
    if embeddings and source.batch == 0:  # datasets hold at least one pair
        raise ContractError(f"{path}: the embedding set is empty; {command} needs a non-empty one")
    return source if embeddings else source.items


def _encoded_input(
    command: str, model: Model, data: str | None, embeddings: str | None = None,
    pair: tuple[int, int] | None = None,
) -> EncodedBatch:
    """The batch that `command` scores or writes: `_loaded_input`, encoded by
    `model` unless it is an embedding set. It holds every item, or with
    `pair` = (audio item, text item) that 1 x 1 pair, of which a dataset
    encodes only the two items."""
    source = _loaded_input(command, model, data, embeddings)
    count = source.batch if isinstance(source, EncodedBatch) else len(source)
    for index in pair or ():
        if not (0 <= index < count):
            raise ConfigError(f"item {index} out of range (0..{count - 1})")
    audio, text = (slice(i, i + 1) for i in pair) if pair else (slice(None), slice(None))
    if isinstance(source, EncodedBatch):
        return source.rows(audio, text)
    return model.encode_arrays(source.audio[audio], source.text[text])


@ad.no_grad()
def cmd_eval(args) -> int:
    values = _config_section(args)
    if values["threads"] < 1:
        raise ConfigError(f"--threads must be >= 1, got {values['threads']}")
    if "ckpt" not in values:
        raise ConfigError("eval needs --ckpt")
    model = _restore_model(values["ckpt"])[0]  # the checkpoint's arrays are freed
    modes = tuple(values["modes"].split(","))
    for mode in modes:
        obj.mode_components(mode)
    try:
        ks = tuple(int(x) for x in values["k"].split(","))
    except ValueError as e:
        raise ConfigError(f"--k must be comma-separated integers, got {values['k']!r}") from e
    for flag, entries in (("--modes", modes), ("--k", ks)):
        if repeated := [x for i, x in enumerate(entries) if x in entries[:i]]:
            raise ConfigError(f"{flag} lists {repeated[0]} more than once")
    seed = values["seed"]
    evaluation.check_seed(seed)  # before the input is read
    resolved = {
        "ckpt": values["ckpt"],
        "data": values.get("data", ""),
        "embeddings": values.get("embeddings", ""),
        "modes": ",".join(modes),
        "k": ",".join(str(k) for k in ks),
        "seed": seed,
    }
    stamp = config_hash("eval", resolved)
    source = _loaded_input("eval", model, values.get("data"), values.get("embeddings"))
    reports = evaluation.evaluate(
        model, source, modes=modes, ks=ks, seed=seed, config_hash=stamp, threads=values["threads"]
    )
    out = values.get("out")
    if out:
        evaluation.write_report_text(out + ".txt", reports)
        evaluation.write_report_binary(out + ".xrpt", reports)
    for r in reports:
        metrics = " ".join(f"r@{k}={r.r_at[k]:.2f}" for k in sorted(r.r_at))
        print(f"{r.mode} {r.direction} size={r.size} {metrics} config_hash={stamp} seed={seed}")
    return 0


@ad.no_grad()
def cmd_sim(args) -> int:
    """Score breakdown of one pair, scored as a 1 x 1 batch by the same
    encoders and fused ops that `eval` uses."""
    values = _config_section(args)
    if "ckpt" not in values or "item_a" not in values or "item_b" not in values:
        raise ConfigError("sim needs --ckpt and two item indices (--item-a, --item-b)")
    model, effective = _restore_model(values["ckpt"])[:2]
    encoded = _encoded_input(
        "sim", model, values.get("data"), values.get("embeddings"),
        pair=(values["item_a"], values["item_b"]),
    )

    resolved = {
        "ckpt": values["ckpt"],
        "data": values.get("data", ""),
        "embeddings": values.get("embeddings", ""),
        "item_a": values["item_a"],
        "item_b": values["item_b"],
    }
    stamp = config_hash("sim", resolved)
    lines = [
        f"config_hash={stamp} seed={effective.get('seed', 0)}",
        f"item_audio={values['item_a']} item_text={values['item_b']}",
    ]

    def total(mode: str) -> str:
        return f"{mode}={float(model.similarity_matrix(encoded, mode).value[0, 0])!r}"

    lines.append(total("DP"))
    cfg = model.cfg.attention
    for lvl, (a_l, t_l) in enumerate(zip(encoded.audio_levels, encoded.text_levels), start=1):
        te, ae, level = (
            float(hierarchical_similarity_matrix(
                [a_l], [t_l], dataclasses.replace(cfg, direction=direction)
            ).value[0, 0])
            for direction in ("text_enhanced", "audio_enhanced", cfg.direction)
        )
        lines.append(f"THA.level{lvl}.text_enhanced={te!r}")
        lines.append(f"THA.level{lvl}.audio_enhanced={ae!r}")
        lines.append(f"THA.level{lvl}={level!r}")
    lines.append(total("THA"))

    text_z, audio_z = model.batch_factors(encoded)
    g, cos, _ = factor_terms(text_z.value, audio_z.value, model.params)
    for i in range(g.shape[0]):
        lines.append(f"DCR.factor{i}.confidence={float(g[i, 0, 0])!r}")
        lines.append(f"DCR.factor{i}.cosine={float(cos[i, 0, 0])!r}")
    lines += [total(mode) for mode in ("DCR", "THA+DP", "THA+DCR")]
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    values = _config_section(args)
    h, tol, seeds = values["h"], values["tol"], values["seeds"]
    results = verify.run_all(seeds=seeds, h=h, tol=tol)
    stamp = config_hash("verify", values)
    print(f"settings: h={h} tol={tol} seeds={seeds} config_hash={stamp}")
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"check={r.name} worst={r.worst:.3e} tol={r.tol:.1e} status={status}")
        if not r.passed:
            failures.append(r.name)
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


@ad.no_grad()
def cmd_export_embeddings(args) -> int:
    """Encode a dataset with a checkpoint and write the embedding container."""
    values = _config_section(args)
    if "ckpt" not in values or "data" not in values or "out" not in values:
        raise ConfigError("export-embeddings needs --ckpt, --data and --out")
    model = _restore_model(values["ckpt"])[0]  # the checkpoint's arrays are freed
    encoded = _encoded_input("export-embeddings", model, values["data"])
    save_embeddings(encoded, values["out"])
    print(f"wrote {values['out']}: items={encoded.batch} D={encoded.dim}")
    return 0


def _argument(flag: Flag) -> dict:
    """The add_argument keywords that declare `flag`; unset flags parse as None."""
    if flag.type is bool:
        kwargs = dict(action="store_const", const=True)
    else:
        kwargs = dict(type=flag.type, choices=flag.choices)
    kwargs.update(dest=flag.dest, help=flag.help)
    return {key: value for key, value in kwargs.items() if value is not None}


# name, help, config section, function, and the section's keys it takes (None: all)
COMMANDS = (
    ("gen-data", "generate a synthetic paired dataset", "data", cmd_gen_data, None),
    ("train", "train on a generated dataset", "train", cmd_train, None),
    ("eval", "retrieval metrics from a checkpoint", "eval", cmd_eval, None),
    ("sim", "score breakdown for one audio/text item pair", "sim", cmd_sim, None),
    *(
        (name, "finite-difference, oracle and invariant self-checks", "verify", cmd_verify, None)
        for name in ("grad-check", "verify")
    ),
    (
        "export-embeddings", "write encoder outputs to an embedding container", "eval",
        cmd_export_embeddings, ("ckpt", "data", "out"),
    ),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `xmal` parser, built once per process and shared, so never changed."""
    parser = argparse.ArgumentParser(
        prog="xmal",
        description="Cross-modal alignment toolbox: synthetic data, training, retrieval "
        "evaluation, score breakdowns, and numeric self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, section, func, keys in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for flag in SETTINGS[section]:
            if keys is None or flag.dest in keys:
                p.add_argument(flag.name, **_argument(flag))
        p.set_defaults(func=func, section=section)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        logger = setup_logging()
        logger.info("running %s", args.command)
        code = args.func(args)
        logger.debug("%s finished with exit code %d", args.command, code)
        return code
    except (XmalError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
