"""Command-line front door: data generation, training, evaluation, pairwise
score breakdowns, and self-verification.

Every command resolves its settings from an optional `--config` file section
overridden by flags, stamps outputs with a content hash of the resolved
settings plus the seed, and is deterministic given both.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import autodiff as ad, evaluation, objective as obj, trainer, verify
from .attention import AttentionConfig, hierarchical_similarity_matrix
from .config import (
    SCHEMAS,
    canonical_text,
    coerce,
    config_hash,
    merge_config,
    parse_config_file,
    setup_logging,
)
from .data import (
    EmbeddingItem,
    EmbeddingSet,
    SynthConfig,
    generate,
    load_dataset,
    load_embeddings,
    save_dataset,
    save_embeddings,
)
from .confidence import factor_pair_terms
from .errors import ConfigError, XmalError
from .model import EncodedBatch, Model, ModelConfig
from .objective import ObjectiveConfig
from .trainer import TrainConfig

TRAIN_DEFAULTS = {
    "epochs": 50,
    "batch_size": 8,
    "lr": 1e-3,
    "optimizer": "adam",
    "beta1": 0.9,
    "beta2": 0.999,
    "opt_eps": 1e-8,
    "tau": 0.07,
    "alpha": 0.01,
    "beta": 0.005,
    "mode": "THA+DCR",
    "temperature": 9.0,
    "direction": "both",
    "combine": "mean",
    "seed": 0,
    "checkpoint_interval": 0,
}


def _config_section(args, section: str) -> dict:
    file_values = None
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config).get(section)
    flag_values = {key: getattr(args, key, None) for key in SCHEMAS[section]}
    values = merge_config(section, file_values, flag_values)
    threads = values.get("threads", 1)
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    # Compute is vectorized and single-threaded; the cap never changes results.
    return values


def cmd_gen_data(args) -> int:
    values = _config_section(args, "data")
    if "out" not in values:
        raise ConfigError("gen-data needs --out")
    if "pairs" not in values:
        raise ConfigError("gen-data needs --pairs")
    cfg = SynthConfig(
        pairs=values["pairs"],
        concept_count=values.get("concepts", 16),
        factor_count=values.get("K", 8),
        embed_dim=values.get("D", 32),
        text_tokens=values.get("N", 6),
        audio_tokens=values.get("M", 8),
        noise_sigma=values.get("sigma", 0.1),
        seed=values.get("seed", 0),
        shared_projection=values.get("shared_projection", False),
    )
    resolved = {
        "pairs": cfg.pairs,
        "concepts": cfg.concept_count,
        "K": cfg.factor_count,
        "D": cfg.embed_dim,
        "N": cfg.text_tokens,
        "M": cfg.audio_tokens,
        "sigma": cfg.noise_sigma,
        "seed": cfg.seed,
        "shared_projection": cfg.shared_projection,
    }
    stamp = config_hash("data", resolved)
    ds = generate(cfg)
    save_dataset(ds, values["out"], manifest_extra={"config_hash": stamp})
    print(
        f"wrote {values['out']}: pairs={cfg.pairs} concepts={cfg.concept_count} "
        f"K={cfg.factor_count} D={cfg.embed_dim} N={cfg.text_tokens} M={cfg.audio_tokens} "
        f"sigma={cfg.noise_sigma} seed={cfg.seed} config_hash={stamp}"
    )
    return 0


def _train_effective(values: dict) -> dict:
    skip = ("data", "out", "log", "resume", "threads")  # paths and execution knobs
    effective = dict(TRAIN_DEFAULTS)
    effective.update({k: v for k, v in values.items() if k not in skip})
    return effective


def _build_train_configs(effective: dict, dataset) -> tuple[ModelConfig, TrainConfig]:
    k = effective.get("K", dataset.config.factor_count)
    model_cfg = ModelConfig(
        embed_dim=dataset.config.embed_dim,
        factor_count=k,
        hidden=effective.get("hidden"),
        attention=AttentionConfig(
            temperature=effective["temperature"],
            direction=effective["direction"],
            combine=effective["combine"],
        ),
    )
    train_cfg = TrainConfig(
        epochs=effective["epochs"],
        batch_size=effective["batch_size"],
        learning_rate=effective["lr"],
        optimizer=effective["optimizer"],
        beta1=effective["beta1"],
        beta2=effective["beta2"],
        opt_eps=effective["opt_eps"],
        seed=effective["seed"],
        objective=ObjectiveConfig(
            tau=effective["tau"],
            alpha=effective["alpha"],
            beta=effective["beta"],
            similarity_mode=effective["mode"],
        ),
        clip_norm=effective.get("clip_norm"),
        checkpoint_interval=effective["checkpoint_interval"],
    )
    return model_cfg, train_cfg


def _parse_train_blob(blob: str) -> dict:
    effective = {}
    for line in blob.strip().splitlines():
        if line.startswith("["):
            continue
        key, _, value = line.partition("=")
        if value == "None":
            continue
        effective[key] = coerce("train", key, value)
    return effective


def write_loss_log(path: str, stamp: str, effective: dict, result):
    lines = [
        f"config_hash={stamp}",
        f"seed={effective['seed']}",
        f"mode={effective['mode']}",
    ]
    for rec in result.log:
        lines.append(
            f"step={rec.step} loss_s={rec.loss_s!r} loss_d={rec.loss_d!r} "
            f"loss_a={rec.loss_a!r} loss={rec.loss!r}"
        )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    values = _config_section(args, "train")
    if "data" not in values or "out" not in values:
        raise ConfigError("train needs --data and --out")
    dataset = load_dataset(values["data"])

    start_step = 0
    optimizer = None
    if values.get("resume"):
        ckpt = trainer.load_checkpoint(values["resume"])
        effective = _parse_train_blob(ckpt.config_text)
        print(f"resuming from {values['resume']} at step {ckpt.step} with its stored config")
        model_cfg, train_cfg = _build_train_configs(effective, dataset)
        model = Model.build(model_cfg, train_cfg.seed)
        trainer.restore_params(model, ckpt.tensors)
        optimizer = trainer.make_optimizer(train_cfg)
        optimizer.load_state({k: v for k, v in ckpt.tensors.items() if k.startswith("opt.")})
        start_step = ckpt.step
    else:
        effective = _train_effective(values)
        effective.setdefault("K", dataset.config.factor_count)
        model_cfg, train_cfg = _build_train_configs(effective, dataset)
        model = Model.build(model_cfg, train_cfg.seed)

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
        on_step=snapshot if train_cfg.checkpoint_interval > 0 else None,
    )
    trainer.save_checkpoint(out, model, result.optimizer, _total_steps(train_cfg, dataset), blob)
    log_path = values.get("log", out + ".log")
    write_loss_log(log_path, stamp, effective, result)
    print(
        f"trained {len(result.log)} steps -> {out} (log {log_path}) "
        f"config_hash={stamp} seed={effective['seed']}"
    )
    return 0


def _total_steps(cfg: TrainConfig, dataset) -> int:
    return (len(dataset.items) // cfg.batch_size) * cfg.epochs


def _restore_model(ckpt_path: str, dataset=None, embeddings=None) -> tuple[Model, dict]:
    ckpt = trainer.load_checkpoint(ckpt_path)
    effective = _parse_train_blob(ckpt.config_text)
    dim = None
    if dataset is not None:
        dim = dataset.config.embed_dim
    elif embeddings is not None:
        dim = embeddings.dim
    if dim is None:
        raise ConfigError("need a dataset or embeddings to size the model")
    model_cfg = ModelConfig(
        embed_dim=dim,
        factor_count=effective.get("K", 8),
        hidden=effective.get("hidden"),
        attention=AttentionConfig(
            temperature=effective.get("temperature", 9.0),
            direction=effective.get("direction", "both"),
            combine=effective.get("combine", "mean"),
        ),
    )
    model = Model.build(model_cfg, effective.get("seed", 0))
    trainer.restore_params(model, ckpt.tensors)
    return model, effective


def cmd_eval(args) -> int:
    values = _config_section(args, "eval")
    if "ckpt" not in values:
        raise ConfigError("eval needs --ckpt")
    dataset = load_dataset(values["data"]) if values.get("data") else None
    embeddings = load_embeddings(values["embeddings"]) if values.get("embeddings") else None
    if dataset is None and embeddings is None:
        raise ConfigError("eval needs --data or --embeddings")
    model, _ = _restore_model(values["ckpt"], dataset, embeddings)
    modes = tuple(values.get("modes", "THA+DCR").split(","))
    for mode in modes:
        obj.mode_components(mode)
    try:
        ks = tuple(int(x) for x in str(values.get("k", "1,5,10")).split(","))
    except ValueError as e:
        raise ConfigError(f"--k must be comma-separated integers, got {values['k']!r}") from e
    seed = values.get("seed", 0)
    resolved = {
        "ckpt": values["ckpt"],
        "data": values.get("data", ""),
        "embeddings": values.get("embeddings", ""),
        "modes": ",".join(modes),
        "k": ",".join(str(k) for k in ks),
        "seed": seed,
    }
    stamp = config_hash("eval", resolved)
    reports = evaluation.evaluate(
        model,
        dataset=dataset,
        embeddings=embeddings,
        modes=modes,
        ks=ks,
        seed=seed,
        config_hash=stamp,
    )
    out = values.get("out")
    if out:
        evaluation.write_report_text(out + ".txt", reports)
        evaluation.write_report_binary(out + ".xrpt", reports)
    for r in reports:
        metrics = " ".join(f"r@{k}={r.r_at[k]:.2f}" for k in sorted(r.r_at))
        print(f"{r.mode} {r.direction} size={r.size} {metrics} config_hash={stamp} seed={seed}")
    return 0


def _pair_batch(model: Model, dataset, embeddings, index_a: int, index_b: int) -> EncodedBatch:
    """A 1-item batch of audio item index_a and text item index_b."""
    items = embeddings.items if embeddings is not None else dataset.items
    for index in (index_a, index_b):
        if not (0 <= index < len(items)):
            raise ConfigError(f"item {index} out of range (0..{len(items) - 1})")
    a, t = items[index_a], items[index_b]
    if embeddings is not None:
        return EncodedBatch(
            audio_levels=[ad.Tensor(lvl[None]) for lvl in a.audio_levels],
            audio_global=ad.Tensor(a.audio_global[None]),
            text_levels=[ad.Tensor(lvl[None]) for lvl in t.text_levels],
            text_global=ad.Tensor(t.text_global[None]),
        )
    return model.encode_arrays(
        np.asarray(a.audio, dtype=np.float64)[None], np.asarray(t.text, dtype=np.float64)[None]
    )


@ad.no_grad()
def cmd_sim(args) -> int:
    """Score breakdown of one pair, scored as a 1 x 1 batch by the same
    encoders and fused ops that `eval` uses."""
    values = _config_section(args, "sim")
    if "ckpt" not in values or "item_a" not in values or "item_b" not in values:
        raise ConfigError("sim needs --ckpt and two item indices (--item-a, --item-b)")
    dataset = load_dataset(values["data"]) if values.get("data") else None
    embeddings = load_embeddings(values["embeddings"]) if values.get("embeddings") else None
    if dataset is None and embeddings is None:
        raise ConfigError("sim needs --data or --embeddings")
    model, effective = _restore_model(values["ckpt"], dataset, embeddings)
    encoded = _pair_batch(model, dataset, embeddings, values["item_a"], values["item_b"])

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
    dp = float(model.component_matrix(encoded, "DP").value[0, 0])
    lines.append(f"DP={dp!r}")

    cfg = model.cfg.attention
    tha_total = 0.0
    for lvl, (a_l, t_l) in enumerate(zip(encoded.audio_levels, encoded.text_levels), start=1):
        te, ae, level = (
            float(hierarchical_similarity_matrix(
                [a_l], [t_l], dataclasses.replace(cfg, direction=direction)
            ).value[0, 0])
            for direction in ("text_enhanced", "audio_enhanced", cfg.direction)
        )
        tha_total += level
        lines.append(f"THA.level{lvl}.text_enhanced={te!r}")
        lines.append(f"THA.level{lvl}.audio_enhanced={ae!r}")
        lines.append(f"THA.level{lvl}={level!r}")
    lines.append(f"THA={tha_total!r}")

    text_z, audio_z = model.batch_factors(encoded)
    g, cos, _ = factor_pair_terms(text_z.value, audio_z.value, model.params)
    dcr_total = 0.0
    for i in range(g.shape[0]):
        g_i, cos_i = float(g[i, 0, 0]), float(cos[i, 0, 0])
        dcr_total += g_i * cos_i
        lines.append(f"DCR.factor{i}.confidence={g_i!r}")
        lines.append(f"DCR.factor{i}.cosine={cos_i!r}")
    lines.append(f"DCR={dcr_total!r}")
    lines.append(f"THA+DP={tha_total + dp!r}")
    lines.append(f"THA+DCR={tha_total + dcr_total!r}")
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    values = _config_section(args, "verify")
    h = values.get("h", 1e-5)
    tol = values.get("tol", 1e-6)
    seeds = values.get("seeds", 3)
    results = verify.run_all(seeds=seeds, h=h, tol=tol)
    stamp = config_hash("verify", {"h": h, "tol": tol, "seeds": seeds})
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
    values = _config_section(args, "eval")
    if "ckpt" not in values or "data" not in values or "out" not in values:
        raise ConfigError("export-embeddings needs --ckpt, --data and --out")
    dataset = load_dataset(values["data"])
    model, _ = _restore_model(values["ckpt"], dataset)
    encoded = model.encode_pairs(dataset.items)
    items = []
    for i in range(encoded.batch):
        items.append(
            EmbeddingItem(
                audio_levels=[lvl.value[i].copy() for lvl in encoded.audio_levels],
                audio_global=encoded.audio_global.value[i].copy(),
                text_levels=[lvl.value[i].copy() for lvl in encoded.text_levels],
                text_global=encoded.text_global.value[i].copy(),
            )
        )
    es = EmbeddingSet(
        dim=model.cfg.embed_dim,
        audio_counts=tuple(lvl.value.shape[1] for lvl in encoded.audio_levels),
        text_counts=tuple(lvl.value.shape[1] for lvl in encoded.text_levels),
        items=items,
    )
    save_embeddings(es, values["out"])
    print(f"wrote {values['out']}: items={len(items)} D={es.dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmal",
        description="Cross-modal alignment toolbox: synthetic data, training, retrieval "
        "evaluation, score breakdowns, and numeric self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument(
            "--threads", type=int, help="accepted, but changes nothing yet (compute is single-threaded)"
        )

    p = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    common(p)
    p.add_argument("--out", help="dataset file to write")
    p.add_argument("--pairs", type=int)
    p.add_argument("--concepts", type=int)
    p.add_argument("--K", type=int, dest="K")
    p.add_argument("--D", type=int, dest="D")
    p.add_argument("--N", type=int, dest="N")
    p.add_argument("--M", type=int, dest="M")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--shared-projection", dest="shared_projection", action="store_const", const=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a generated dataset")
    common(p)
    p.add_argument("--data")
    p.add_argument("--out", help="checkpoint file to write")
    p.add_argument("--log", help="loss log path (default: <out>.log)")
    p.add_argument("--resume", help="checkpoint to continue from (uses its stored config)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--opt-eps", type=float, dest="opt_eps")
    p.add_argument("--tau", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--mode", choices=obj.MODES)
    p.add_argument("--lambda", type=float, dest="temperature", help="attention sharpness")
    p.add_argument("--direction", choices=("text_enhanced", "audio_enhanced", "both"))
    p.add_argument("--combine", choices=("mean", "sum"))
    p.add_argument("--K", type=int, dest="K")
    p.add_argument("--hidden", type=int)
    p.add_argument("--clip-norm", type=float, dest="clip_norm")
    p.add_argument("--checkpoint-interval", type=int, dest="checkpoint_interval")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics from a checkpoint")
    common(p)
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--embeddings", help="embedding container replacing the encoders")
    p.add_argument("--modes", help="comma-separated similarity modes")
    p.add_argument("--k", help="comma-separated ranks, e.g. 1,5,10")
    p.add_argument("--out", help="report prefix; writes <out>.txt and <out>.xrpt")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sim", help="score breakdown for one audio/text item pair")
    common(p)
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--embeddings")
    p.add_argument("--item-a", type=int, dest="item_a", help="audio item index")
    p.add_argument("--item-b", type=int, dest="item_b", help="text item index")
    p.set_defaults(func=cmd_sim)

    for name in ("grad-check", "verify"):
        p = sub.add_parser(name, help="finite-difference, oracle and invariant self-checks")
        common(p)
        p.add_argument("--h", type=float, help="central-difference step")
        p.add_argument("--tol", type=float, help="primitive-check tolerance")
        p.add_argument("--seeds", type=int)
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-embeddings", help="write encoder outputs to an embedding container")
    common(p)
    p.add_argument("--ckpt")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        logger = setup_logging()
        logger.info("running %s", args.command)
        code = args.func(args)
        logger.debug("%s finished with exit code %d", args.command, code)
        return code
    except XmalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
