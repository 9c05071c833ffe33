"""Training loop determinism, optimizers, and checkpoint files."""

import dataclasses
import hashlib
import os
import re

import numpy as np
import pytest

from containers import body, sealed
from xmal import autodiff as ad
from xmal.attention import AttentionConfig
from xmal.data import SynthConfig, generate
from xmal.errors import (
    ConfigError,
    CorruptedRecordError,
    DimensionError,
    FormatError,
    TrainingDiverged,
    VersionError,
    XmalError,
)
from xmal.model import Model, ModelConfig
from xmal.objective import ObjectiveConfig
from xmal.trainer import (
    Adam,
    TrainConfig,
    epoch_permutation,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
    train,
)


def toy_dataset(pairs=16, seed=3, sigma=0.1):
    cfg = SynthConfig(
        pairs=pairs, concept_count=8, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, noise_sigma=sigma, seed=seed,
    )
    return generate(cfg)


def toy_model(seed=5, dim=16, k=4):
    return Model.build(ModelConfig(embed_dim=dim, factor_count=k, attention=AttentionConfig()), seed)


def make_cfg(**overrides):
    base = dict(
        epochs=2, batch_size=8, learning_rate=1e-3, optimizer="adam", seed=1,
        objective=ObjectiveConfig(tau=0.07, alpha=0.01, beta=0.005, similarity_mode="THA+DCR"),
    )
    base.update(overrides)
    return TrainConfig(**base)


def logs_equal(a, b):
    return len(a) == len(b) and all(
        x.step == y.step
        and x.loss_s == y.loss_s
        and x.loss_d == y.loss_d
        and x.loss_a == y.loss_a
        and x.loss == y.loss
        for x, y in zip(a, b)
    )


def test_zero_learning_rate_keeps_params_and_loss_constant():
    ds = toy_dataset()
    model = toy_model()
    before = {k: v.value.copy() for k, v in model.params.items()}
    cfg = make_cfg(
        learning_rate=0.0,
        objective=ObjectiveConfig(tau=0.07, alpha=0.0, beta=0.0, similarity_mode="DP"),
        epochs=3,
    )
    result = train(model, ds, cfg)
    for name, val in before.items():
        assert np.array_equal(model.params[name].value, val)
    # each epoch visits the same data in a different order, but step k of
    # every epoch sees the same permutation seedings, so compare epochs 2, 3
    per_epoch = [rec.loss for rec in result.log]
    assert len(set(round(v, 12) for v in per_epoch)) <= len(per_epoch)
    # with identical params, re-running any batch gives identical loss
    rerun = train(toy_model(), ds, cfg)
    assert logs_equal(result.log, rerun.log)


def test_training_reduces_loss_on_seeded_toy_run():
    cfg_data = SynthConfig(
        pairs=64, concept_count=8, factor_count=4, embed_dim=16,
        text_tokens=5, audio_tokens=8, noise_sigma=0.1, seed=7,
    )
    ds = generate(cfg_data)
    model = toy_model(seed=7)
    cfg = make_cfg(epochs=50, batch_size=8, learning_rate=1e-3, seed=7)
    result = train(model, ds, cfg)
    first10 = np.mean([r.loss for r in result.log[:10]])
    last10 = np.mean([r.loss for r in result.log[-10:]])
    assert last10 < first10


def test_determinism_same_config_same_log():
    ds = toy_dataset()
    a = train(toy_model(), ds, make_cfg())
    b = train(toy_model(), ds, make_cfg())
    assert logs_equal(a.log, b.log)


def test_unweighted_factor_losses_logged_as_zero():
    ds = toy_dataset()
    cfg = make_cfg(objective=ObjectiveConfig(tau=0.07, alpha=0.0, beta=0.0, similarity_mode="DP"))
    result = train(toy_model(), ds, cfg)
    assert all(r.loss_d == 0.0 and r.loss_a == 0.0 for r in result.log)
    assert all(r.loss == r.loss_s for r in result.log)


def test_logged_losses_are_model_losses_of_the_step_batch(monkeypatch):
    """A step logs `Model.losses` of its batch. With alpha = beta = 0 the
    factor losses are exactly 0.0 and the covariance is never computed."""
    ds = toy_dataset()
    unweighted = ObjectiveConfig(tau=0.07, alpha=0.0, beta=0.0, similarity_mode="THA+DP")
    for ocfg in (make_cfg().objective, unweighted):
        cfg = make_cfg(epochs=1, learning_rate=0.0, objective=ocfg)  # every step sees one model
        model = toy_model()
        log = train(model, ds, cfg).log
        order = epoch_permutation(cfg.seed, 0, len(ds))
        assert len(log) == 2
        for rec in log:
            batch = ds.items[order[(rec.step - 1) * 8 : rec.step * 8]]
            losses = model.losses(model.encode_arrays(batch.audio, batch.text), ocfg)
            assert (rec.loss_s, rec.loss_d, rec.loss_a, rec.loss) == tuple(
                float(loss.value) for loss in losses
            )
    assert all(r.loss_d == r.loss_a == 0.0 and r.loss == r.loss_s for r in log)

    def unused(self, encoded):
        raise AssertionError("factor_covariance called with unweighted factor losses")

    monkeypatch.setattr(Model, "factor_covariance", unused)
    assert logs_equal(train(toy_model(), ds, cfg).log, log)


def test_batch_size_validation_with_factor_losses():
    with pytest.raises(ConfigError):
        make_cfg(batch_size=1)
    make_cfg(batch_size=1, objective=ObjectiveConfig(alpha=0.0, beta=0.0, similarity_mode="DP"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")),
        ("beta2", 1.0), ("beta2", -0.1), ("beta2", float("nan")),
        ("opt_eps", 0.0), ("opt_eps", -1e-8), ("opt_eps", float("nan")),
    ],
)
def test_adam_settings_outside_their_range_are_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        make_cfg(**{field: value})


def _float_fields():
    """(dataclass, field) for every float field of the config dataclasses
    that a library caller or a dataset file can build directly."""
    return [
        (cls, f.name)
        for cls in (SynthConfig, TrainConfig, ObjectiveConfig, AttentionConfig)
        for f in dataclasses.fields(cls)
        if f.type in ("float", "float | None")
    ]


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize(
    "cls, field", _float_fields(), ids=[f"{c.__name__}.{n}" for c, n in _float_fields()]
)
def test_a_non_finite_float_field_is_rejected_naming_it(cls, field, value):
    required = {"pairs": 2} if cls is SynthConfig else {}
    with pytest.raises(XmalError, match=rf"^{field} must be"):
        cls(**required, **{field: float(value)})


def test_adam_state_without_a_tensor_names_it():
    with pytest.raises(DimensionError, match="'opt.t'"):
        Adam(0.1).load_state({}, {})
    with pytest.raises(DimensionError, match="'opt.v.x'"):
        Adam(0.1).load_state({"opt.t": np.array(1.0), "opt.m.x": np.zeros(2)}, {})


def test_dataset_smaller_than_batch_rejected():
    with pytest.raises(ConfigError):
        train(toy_model(), toy_dataset(pairs=4), make_cfg(batch_size=8))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_reports_step():
    ds = toy_dataset()
    cfg = make_cfg(learning_rate=1e18, epochs=3)
    with pytest.raises(TrainingDiverged) as exc:
        train(toy_model(), ds, cfg)
    assert exc.value.step >= 1
    assert str(exc.value.step) in str(exc.value)


def test_adam_matches_hand_stepped_recurrence():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    opt = Adam(lr, b1, b2, eps)
    theta = 2.0
    p = ad.parameter(np.array(theta), "x")
    m = v = 0.0
    for t in range(1, 4):
        g = 2.0 * theta  # gradient of theta^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)

        grads = ad.gradients(ad.mul(p, p), [p])
        opt.step([p], grads)
        assert abs(float(p.value) - theta) < 1e-12


def test_sgd_step():
    opt = make_optimizer(make_cfg(optimizer="sgd", learning_rate=0.5))
    p = ad.parameter(np.array([2.0, -2.0]), "x")
    opt.step([p], {"x": np.array([1.0, 1.0])})
    assert np.array_equal(p.value, [1.5, -2.5])


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    ds = toy_dataset()
    model = toy_model()
    cfg = make_cfg(epochs=1)
    result = train(model, ds, cfg)
    p1 = str(tmp_path / "a.xckp")
    p2 = str(tmp_path / "b.xckp")
    save_checkpoint(p1, model, result.optimizer, 2, "[train]\nseed=1\n")
    ckpt = load_checkpoint(p1)
    model2 = Model.from_tensors(ckpt.tensors, AttentionConfig())
    opt2 = make_optimizer(cfg)
    opt2.load_state({k: v for k, v in ckpt.tensors.items() if k.startswith("opt.")}, model2.params)
    save_checkpoint(p2, model2, opt2, ckpt.step, ckpt.config_text)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_a_failed_save_leaves_the_checkpoint_it_would_replace_whole(tmp_path, monkeypatch):
    """A save that fails before its temporary file replaces the target, here
    in `os.replace`, re-raises and leaves the existing checkpoint
    byte-identical, with no `*.tmp` file behind."""
    path = tmp_path / "a.xckp"
    model = toy_model()
    save_checkpoint(str(path), model, Adam(1e-3), 1, "")
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_checkpoint(str(path), model, Adam(1e-3), 2, "[train]\nseed=2\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.xckp"]


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("conf.b2", None, "checkpoint is missing parameter 'conf.b2'"),
        ("text.readout", None, "checkpoint is missing parameter 'text.readout'"),
        (
            "factors.audio", np.zeros((8, 2, 16)),
            "checkpoint parameter 'factors.audio' has shape (8, 2, 16), model expects (4, 4, 16)",
        ),
        ("conf.w1", np.zeros(8), "checkpoint parameter 'conf.w1' has shape (8,), not 2-d"),
    ],
    ids=("missing-conf.b2", "missing-text.readout", "factors.audio-of-another-K", "conf.w1-1d"),
)
def test_from_tensors_names_a_missing_or_misshaped_parameter(name, value, message):
    tensors = {n: p.value for n, p in toy_model(k=4).params.items()}
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    with pytest.raises(DimensionError, match=re.escape(message)):
        Model.from_tensors(tensors, AttentionConfig())


@pytest.mark.parametrize(
    "cfg, seed, digest",
    [
        (
            ModelConfig(embed_dim=32, factor_count=8), 11,
            "b7865916f285668d7842775b2bf72eef8a14e3f28cd082692b7bc35530d97247",
        ),
        (
            ModelConfig(embed_dim=16, factor_count=4, hidden=3), 5,
            "25c84671702270223a8eebc84d4f815d57c1f2085dfb71838c9eb1f8eaac6d2e",
        ),
    ],
)
def test_built_parameters_are_pinned(cfg, seed, digest):
    """The seeded init draw, parameters in name order, pinned byte for byte."""
    h = hashlib.sha256()
    for p in Model.build(cfg, seed).parameters():
        h.update(p.value.tobytes())
    assert h.hexdigest() == digest


def test_from_tensors_restores_dimensions_and_holds_copies():
    built = Model.build(ModelConfig(embed_dim=16, factor_count=4, hidden=3), 5)
    tensors = {name: p.value.copy() for name, p in built.params.items()}
    attention = AttentionConfig(temperature=2.0, direction="text_enhanced")
    model = Model.from_tensors(tensors, attention)
    assert model.cfg == ModelConfig(embed_dim=16, factor_count=4, hidden=3, attention=attention)
    assert list(model.params) == list(built.params)
    for name, p in model.params.items():
        assert p.name == name and p.requires_grad
        assert np.array_equal(p.value, tensors[name])
        assert not np.shares_memory(p.value, tensors[name])


def test_checkpoint_version_check(tmp_path):
    path = str(tmp_path / "a.xckp")
    model = toy_model()
    save_checkpoint(path, model, Adam(1e-3), 0, "")
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = (77).to_bytes(4, "little")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(VersionError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "damage, error, message",
    [
        ("cut_in_header", CorruptedRecordError, "needed 12 bytes, got 6"),
        ("cut_in_tensors", CorruptedRecordError, "needed"),
        ("cut_in_config", CorruptedRecordError, "needed 15 bytes, got 14"),
        ("trailing_byte", CorruptedRecordError, "trailing bytes"),
        ("bad_magic", FormatError, "bad magic b'NOPE'"),
        ("flipped_byte", CorruptedRecordError, "checksum mismatch, the checkpoint is damaged"),
        ("no_checksum", CorruptedRecordError, "no room for the checksum"),
        ("version_3", VersionError, "checkpoint version 3, expected 4"),
    ],
)
def test_damaged_checkpoint_raises(tmp_path, damage, error, message):
    """Cuts and trailing bytes under a checksum that holds are caught by
    the reader's bounds; a flipped byte by the checksum; a version-3 file,
    which has no trailer, by its version."""
    path = str(tmp_path / "a.xckp")
    save_checkpoint(path, toy_model(), Adam(1e-3), 0, "[train]\nseed=1\n")
    blob = open(path, "rb").read()
    payload = body(blob)
    flipped = bytearray(blob)
    flipped[len(blob) // 3] ^= 0x01
    blob = {
        "cut_in_header": sealed(payload[:14]),
        "cut_in_tensors": sealed(payload[: len(payload) // 2]),
        "cut_in_config": sealed(payload[:-1]),
        "trailing_byte": sealed(payload + b"\0"),
        "bad_magic": b"NOPE" + blob[4:],
        "flipped_byte": bytes(flipped),
        "no_checksum": blob[:10],
        "version_3": payload[:4] + (3).to_bytes(4, "little") + payload[8:],
    }[damage]
    open(path, "wb").write(blob)
    with pytest.raises(FormatError, match=message) as info:
        load_checkpoint(path)
    assert type(info.value) is error


def test_resume_reproduces_uninterrupted_log(tmp_path):
    ds = toy_dataset(pairs=16)
    cfg = make_cfg(epochs=10, batch_size=8)  # 2 steps/epoch -> 20 steps

    one_shot = train(toy_model(seed=21), ds, cfg)

    model = toy_model(seed=21)
    cfg_half = make_cfg(epochs=5, batch_size=8)
    first_half = train(model, ds, cfg_half)
    path = str(tmp_path / "mid.xckp")
    save_checkpoint(path, model, first_half.optimizer, 10, "")

    ckpt = load_checkpoint(path)
    resumed_model = Model.from_tensors(ckpt.tensors, AttentionConfig())
    opt = make_optimizer(cfg)
    opt.load_state(
        {k: v for k, v in ckpt.tensors.items() if k.startswith("opt.")}, resumed_model.params
    )
    second_half = train(resumed_model, ds, cfg, start_step=ckpt.step, optimizer=opt)

    merged = first_half.log + second_half.log
    assert logs_equal(one_shot.log, merged)


@pytest.mark.parametrize("mode", ["DP", "THA", "DCR", "THA+DP", "THA+DCR"])
def test_every_similarity_mode_trains(mode):
    ds = toy_dataset(pairs=8, seed=13)
    cfg = make_cfg(
        epochs=1, batch_size=4,
        objective=ObjectiveConfig(tau=0.07, alpha=0.01, beta=0.005, similarity_mode=mode),
    )
    result = train(toy_model(seed=17), ds, cfg)
    assert len(result.log) == 2
    assert all(np.isfinite([r.loss_s, r.loss_d, r.loss_a, r.loss]).all() for r in result.log)


@pytest.mark.parametrize("k,dim", [(2, 8), (4, 16), (8, 16), (6, 24)])
def test_factor_count_axis_trains_and_evaluates(k, dim):
    from xmal.evaluation import evaluate

    cfg_data = SynthConfig(
        pairs=8, concept_count=max(8, k), factor_count=k, embed_dim=dim,
        text_tokens=4, audio_tokens=8, noise_sigma=0.1, seed=k,
    )
    ds = generate(cfg_data)
    model = Model.build(ModelConfig(embed_dim=dim, factor_count=k), seed=k)
    result = train(model, ds, make_cfg(epochs=1, batch_size=4))
    assert all(np.isfinite(r.loss) for r in result.log)
    with ad.no_grad():
        encoded = model.encode_arrays(ds.items.audio, ds.items.text)
    reports = evaluate(model, encoded, modes=("THA+DCR",), ks=(1,))
    assert all(0.0 <= r.r_at[1] <= 100.0 for r in reports)


def test_gradient_clipping_bounds_update():
    ds = toy_dataset()
    model = toy_model()
    cfg = make_cfg(clip_norm=1e-6, epochs=1, optimizer="sgd", learning_rate=1.0)
    before = {k: v.value.copy() for k, v in model.params.items()}
    train(model, ds, cfg)
    moved = sum(
        float(((model.params[k].value - v) ** 2).sum()) for k, v in before.items()
    )
    # two sgd steps, each clipped to 1e-6 global norm
    assert np.sqrt(moved) < 3e-6


def test_planted_hinge_gradient_changes_every_step_after_the_first():
    """The encoder blocks are one fused op per tap segment, which records no
    `hinge` node; it scales its ReLU stage by GRAD_OVERRIDES["hinge"], so a
    planted factor still reaches every update of a THA+DCR run."""
    ds = toy_dataset(pairs=32)
    cfg = make_cfg(epochs=1, batch_size=8)

    def losses():
        return [rec.loss for rec in train(toy_model(), ds, cfg).log]

    clean = losses()
    ad.GRAD_OVERRIDES["hinge"] = 1.5
    try:
        planted = losses()
    finally:
        ad.GRAD_OVERRIDES.clear()
    assert len(clean) == len(planted) == 4
    assert clean[0] == planted[0]  # step 1 runs before any update
    assert all(abs(a - b) > 1e-6 * abs(a) for a, b in zip(clean[1:], planted[1:]))


def test_a_batch16_train_step_records_at_most_80_tape_nodes():
    ds = toy_dataset(pairs=16)
    model = Model.build(ModelConfig(embed_dim=16, factor_count=4), seed=0)
    ocfg = ObjectiveConfig(alpha=0.01, beta=0.005, similarity_mode="THA+DCR")
    first = next(ad._node_ids) + 1
    loss = model.losses(model.encode_arrays(ds.items.audio, ds.items.text), ocfg)[-1]
    assert loss._id - first + 1 <= 80
