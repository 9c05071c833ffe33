"""Command-line surface: flags, config files, output stamping, exit codes."""

import argparse
import dataclasses
import os
import re
import struct
from pathlib import Path

import numpy as np
import oracle
import pytest

from containers import body, sealed
from xmal import attention, autodiff as ad, cli, evaluation, trainer, verify
from xmal.autodiff import Tensor
from xmal.attention import AttentionConfig
from xmal.cli import KEY_TYPES, SETTINGS, TRAIN_DEFAULTS, _encoded_input, _restore_model, main
from xmal.config import finite_float, parse_config_file
from xmal.data import SynthConfig, load_dataset, load_embeddings, save_embeddings
from xmal.errors import ConfigError, CorruptedRecordError
from xmal.model import EncodedBatch, Model, ModelConfig
from xmal.objective import MODES, ObjectiveConfig
from xmal.trainer import TrainConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, capsys, name="d.xmal", **extra):
    path = str(tmp_path / name)
    args = [
        "gen-data", "--pairs", "24", "--K", "4", "--D", "16", "--N", "5", "--M", "8",
        "--sigma", "0.1", "--seed", "7", "--out", path,
    ]
    for key, val in extra.items():
        args.extend([key, val])
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return path


def test_gen_data_writes_file_and_manifest(tmp_path, capsys):
    path = gen(tmp_path, capsys)
    ds = load_dataset(path)
    assert ds.config.pairs == 24
    assert ds.config.factor_count == 4
    assert ds.config.embed_dim == 16
    manifest = dict(
        line.split("=", 1) for line in open(path + ".manifest").read().splitlines()
    )
    assert manifest["K"] == "4" and manifest["seed"] == "7"
    assert len(manifest["config_hash"]) == 12


def test_gen_data_divisibility_error_nonzero_exit(tmp_path, capsys):
    code, out, err = run(
        capsys, "gen-data", "--pairs", "8", "--K", "3", "--D", "16",
        "--out", str(tmp_path / "bad.xmal"),
    )
    assert code != 0
    assert "divisible" in err


def test_gen_data_byte_identical_reruns(tmp_path, capsys):
    p1 = gen(tmp_path, capsys, name="a.xmal")
    p2 = gen(tmp_path, capsys, name="b.xmal")
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    data = str(tmp / "d.xmal")
    ckpt = str(tmp / "ck.xckp")
    assert main([
        "gen-data", "--pairs", "24", "--K", "4", "--D", "16", "--N", "5", "--M", "8",
        "--sigma", "0.1", "--seed", "7", "--out", data,
    ]) == 0
    assert main([
        "train", "--data", data, "--out", ckpt, "--epochs", "2", "--batch-size", "8",
        "--seed", "3",
    ]) == 0
    return data, ckpt


def test_train_writes_checkpoint_and_log(trained):
    data, ckpt = trained
    blob = open(ckpt, "rb").read()
    assert blob[:4] == b"XCKP"
    log = open(ckpt + ".log").read().splitlines()
    assert log[0].startswith("config_hash=")
    assert log[1] == "seed=3"
    steps = [line for line in log if line.startswith("step=")]
    assert len(steps) == 6  # 24 // 8 * 2 epochs
    assert all("loss=" in line for line in steps)


def test_train_zero_weights_logs_zero_components(tmp_path, capsys):
    data = gen(tmp_path, capsys)
    ckpt = str(tmp_path / "dp.xckp")
    code, out, err = run(
        capsys, "train", "--data", data, "--out", ckpt, "--epochs", "1",
        "--batch-size", "8", "--alpha", "0", "--beta", "0", "--mode", "DP",
    )
    assert code == 0, err
    for line in open(ckpt + ".log").read().splitlines():
        if line.startswith("step="):
            assert "loss_d=0.0" in line and "loss_a=0.0" in line


def test_train_rejects_a_negative_checkpoint_interval(tmp_path, capsys):
    data = gen(tmp_path, capsys)
    ckpt = tmp_path / "ck.xckp"
    code, out, err = run(
        capsys, "train", "--data", data, "--out", str(ckpt), "--epochs", "1",
        "--checkpoint-interval", "-1",
    )
    assert code == 1 and out == ""
    assert _one_error_line(err) and "checkpoint_interval must be >= 0" in err, err
    assert list(tmp_path.glob("ck.xckp*")) == []


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--beta1", "1", "beta1 must be in [0, 1), got 1.0"),
        ("--beta2", "1", "beta2 must be in [0, 1), got 1.0"),
        ("--opt-eps", "0", "opt_eps must be > 0, got 0.0"),
    ],
)
def test_train_rejects_adam_settings_that_make_every_parameter_nan(
    tmp_path, capsys, flag, value, message
):
    data = gen(tmp_path, capsys)
    ckpt = tmp_path / "ck.xckp"
    code, out, err = run(
        capsys, "train", "--data", data, "--out", str(ckpt), "--epochs", "1", flag, value,
    )
    assert code == 1 and out == ""
    assert _one_error_line(err) and message in err, err
    assert list(tmp_path.glob("ck.xckp*")) == []


@pytest.mark.parametrize("dim, k", [("0", "1"), ("-8", "2")])
def test_gen_data_rejects_a_width_below_one(tmp_path, capsys, dim, k):
    out_path = tmp_path / "d.xmal"
    code, out, err = run(
        capsys, "gen-data", "--pairs", "4", "--concepts", "4", f"--D={dim}", "--K", k,
        "--out", str(out_path),
    )
    assert code == 1 and out == ""
    assert _one_error_line(err) and f"embed dim must be >= 1, got {dim}" in err, err
    assert not out_path.exists()


def test_resume_from_a_checkpoint_without_adam_state_is_one_error_line(trained, tmp_path, capsys):
    """A checkpoint that holds SGD's (empty) optimizer state under a stored
    config that says adam cannot resume: the missing tensor is named."""
    data, ckpt = trained
    model, _, stored = _restore_model(ckpt)
    assert "optimizer=adam" in stored.config_text.splitlines()
    bad = str(tmp_path / "sgd.xckp")
    trainer.save_checkpoint(bad, model, trainer.Sgd(0.1), stored.step, stored.config_text)
    resumed = tmp_path / "r.xckp"
    code, out, err = run(capsys, "train", "--data", data, "--out", str(resumed), "--resume", bad)
    assert code == 1
    assert err == f"error: {bad}: the adam optimizer state has no 'opt.t' tensor\n", err
    assert not resumed.exists()


class _State(trainer.Optimizer):
    """An optimizer that saves the given state tensors."""

    def __init__(self, tensors):
        self.tensors = tensors

    def state_tensors(self):
        return self.tensors


@pytest.mark.parametrize("changes, message", (
    ({"opt.t": np.zeros(0)}, "'opt.t' must be one finite whole number >= 0, got []"),
    ({"opt.t": np.array(np.nan)}, "'opt.t' must be one finite whole number >= 0, got nan"),
    ({"opt.t": np.array(-3.0)}, "'opt.t' must be one finite whole number >= 0, got -3.0"),
    ({"opt.m.text.w": np.zeros(1)}, "'opt.m.text.w' has shape (1,), not its parameter's "),
    ({"opt.m.text.x": np.zeros(1), "opt.v.text.x": np.zeros(1)},
     "'opt.m.text.x' names no model parameter"),
))
def test_resume_refuses_adam_state_of_a_wrong_value_or_shape(
    trained, tmp_path, capsys, changes, message
):
    """Adam state that names its tensors right but holds wrong values is one
    error line naming the checkpoint and the tensor: an empty, NaN or
    negative step count used to escape as IndexError or ValueError or end
    in a non-finite loss, and a moment of another shape broadcast."""
    data, ckpt = trained
    model, _, stored = _restore_model(ckpt)
    state = {k: v for k, v in stored.tensors.items() if k.startswith("opt.")}
    bad = str(tmp_path / "bad.xckp")
    trainer.save_checkpoint(bad, model, _State({**state, **changes}), stored.step, stored.config_text)
    resumed = tmp_path / "r.xckp"
    code, out, err = run(capsys, "train", "--data", data, "--out", str(resumed), "--resume", bad)
    assert code == 1
    prefix = f"error: {bad}: the adam optimizer state's "
    assert err.startswith(prefix + message) and _one_error_line(err), err
    assert not resumed.exists()


def test_train_missing_dataset_nonzero_exit(tmp_path, capsys):
    code, out, err = run(
        capsys, "train", "--data", str(tmp_path / "none.xmal"), "--out", str(tmp_path / "x"),
    )
    assert code != 0


def test_eval_mode_direction_cardinality(trained, capsys):
    data, ckpt = trained
    code, out, err = run(
        capsys, "eval", "--ckpt", ckpt, "--data", data,
        "--modes", "DP,THA,DCR,THA+DCR", "--k", "1,5,10",
    )
    assert code == 0, err
    lines = [l for l in out.splitlines() if " size=" in l]
    assert len(lines) == 8  # 4 modes x 2 directions
    assert all("r@1=" in l and "r@10=" in l for l in lines)


@pytest.mark.parametrize("flag, value, repeated", (
    ("--modes", "DP,THA,DP", "DP"), ("--k", "1,5,1", "1"), ("--k", "5,05", "5"),
))
def test_eval_refuses_a_repeated_mode_or_rank(trained, tmp_path, capsys, flag, value, repeated):
    data, ckpt = trained
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data, flag, value,
                            "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == f"error: {flag} lists {repeated} more than once\n", err
    assert not (tmp_path / "r.txt").exists() and not (tmp_path / "r.xrpt").exists()


def test_eval_missing_checkpoint_fails(tmp_path, capsys, trained):
    data, _ = trained
    code, out, err = run(capsys, "eval", "--ckpt", str(tmp_path / "no.xckp"), "--data", data)
    assert code != 0


def test_eval_unknown_mode_rejected(trained, capsys):
    data, ckpt = trained
    code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "WAT")
    assert code != 0
    assert "mode" in err.lower()


def test_eval_bad_k_rejected(trained, tmp_path, capsys):
    data, ckpt = trained
    cfg_path = str(tmp_path / "k.cfg")
    with open(cfg_path, "w") as f:
        f.write("[eval]\nk=1,x\n")
    for extra in (("--k", "1,x"), ("--config", cfg_path)):
        code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data, *extra)
        assert code == 1
        assert err.startswith("error: --k") and "'1,x'" in err


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


def test_an_os_error_is_one_error_line(trained, tmp_path, capsys):
    data, ckpt = trained
    for argv in (
        ("--ckpt", ckpt, "--data", str(tmp_path)),
        ("--ckpt", ckpt, "--data", data, "--config", str(tmp_path)),
    ):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 1 and out == "", argv
        assert _one_error_line(err) and "directory" in err, err


@pytest.mark.parametrize("seed", ("-5", str(2**64)))
def test_eval_seed_outside_u64_writes_no_report(trained, tmp_path, capsys, monkeypatch, seed):
    """The seed is refused before the input is encoded."""
    data, ckpt = trained
    calls = []
    encode = Model.encode_arrays
    monkeypatch.setattr(Model, "encode_arrays", lambda *args: calls.append(args) or encode(*args))
    out = tmp_path / "r"
    code, stdout, err = run(
        capsys, "eval", "--ckpt", ckpt, "--data", data, "--seed", seed, "--out", str(out)
    )
    assert code == 1 and stdout == ""
    assert _one_error_line(err) and err.startswith("error: --seed must fit in u64"), err
    assert not (tmp_path / "r.txt").exists() and not (tmp_path / "r.xrpt").exists()
    assert calls == []


def test_eval_reports_are_reproducible(trained, tmp_path, capsys):
    data, ckpt = trained
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    for out_path in (out1, out2):
        code, _, err = run(
            capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "DP,THA+DCR",
            "--k", "1,5", "--out", out_path,
        )
        assert code == 0, err
    assert open(out1 + ".txt").read() == open(out2 + ".txt").read()
    assert open(out1 + ".xrpt", "rb").read() == open(out2 + ".xrpt", "rb").read()


def test_a_checkpoint_restores_without_an_init_draw(tmp_path, capsys, monkeypatch):
    """eval, sim, export-embeddings and train --resume restore the model
    from the checkpoint's tensors alone: each succeeds with `Model.build`
    made to raise, and the resumed run ends on the uninterrupted checkpoint."""
    data = gen(tmp_path, capsys, name="d.xmal")
    full = str(tmp_path / "full.xckp")
    code, _, err = run(
        capsys, "train", "--data", data, "--out", full, "--epochs", "2", "--batch-size", "8",
        "--hidden", "3", "--checkpoint-interval", "3",
    )
    assert code == 0, err

    def no_build(*args):
        raise AssertionError("Model.build called")

    monkeypatch.setattr(Model, "build", no_build)
    half = str(tmp_path / "half.xckp")
    for argv in (
        ("eval", "--ckpt", full, "--data", data, "--modes", "DP,DCR"),
        ("sim", "--ckpt", full, "--data", data, "--item-a", "1", "--item-b", "2"),
        ("export-embeddings", "--ckpt", full, "--data", data, "--out", str(tmp_path / "e.xemb")),
        ("train", "--data", data, "--out", half, "--resume", full + ".step000003"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert open(full, "rb").read() == open(half, "rb").read()


def test_train_resume_reproduces_log(tmp_path, capsys):
    data = gen(tmp_path, capsys, name="resume.xmal")
    full = str(tmp_path / "full.xckp")
    half = str(tmp_path / "half.xckp")
    common = ["--data", data, "--batch-size", "8", "--seed", "11"]
    # one-shot 4 epochs (12 steps), snapshot every 6 steps
    code, _, err = run(
        capsys, "train", *common, "--out", full, "--epochs", "4",
        "--checkpoint-interval", "6",
    )
    assert code == 0, err
    one_shot = [l for l in open(full + ".log").read().splitlines() if l.startswith("step=")]
    # a bare --resume, and the original command line with --resume: settings
    # equal to the stored ones pass
    for extra in ((), (*common[2:], "--epochs", "4", "--checkpoint-interval", "6")):
        code, _, err = run(capsys, "train", "--data", data, "--out", half,
                           "--resume", full + ".step000006", *extra)
        assert code == 0, err
        resumed = [l for l in open(half + ".log").read().splitlines() if l.startswith("step=")]
        assert resumed == one_shot[6:]
        # final checkpoints agree byte for byte
        assert open(full, "rb").read() == open(half, "rb").read()


def test_resume_onto_its_own_file_writes_what_a_fresh_out_gets(tmp_path, capsys):
    """`train --resume X --out X` replaces X with the bytes, log and
    snapshots that the same resume writes to a fresh --out."""
    data = gen(tmp_path, capsys)
    full = str(tmp_path / "full.xckp")
    code, _, err = run(
        capsys, "train", "--data", data, "--out", full, "--epochs", "2", "--batch-size", "8",
        "--hidden", "3", "--checkpoint-interval", "3",
    )
    assert code == 0, err
    own, fresh = full + ".step000003", str(tmp_path / "fresh.xckp")
    for out in (fresh, own):
        code, _, err = run(capsys, "train", "--data", data, "--out", out, "--resume", own)
        assert code == 0, err
    for suffix in ("", ".log", ".step000006"):
        assert open(own + suffix, "rb").read() == open(fresh + suffix, "rb").read(), suffix
    assert open(own, "rb").read() == open(full, "rb").read()


def test_an_out_in_a_missing_directory_is_one_error_line_naming_it(tmp_path, capsys):
    """The error names the --out path given, not the temporary file the
    write goes through, and nothing is left behind."""
    out = str(tmp_path / "missing" / "d.xmal")
    code, _, err = run(capsys, "gen-data", "--out", out, "--pairs", "8")
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize("form", ("flag", "config"))
def test_resume_refuses_a_setting_it_would_ignore(trained, tmp_path, capsys, form):
    """A `[train]` setting given next to --resume that differs from the value
    the resume uses, stored or default, is one error line naming it, and
    nothing is written."""
    data, ckpt = trained
    out = tmp_path / "r.xckp"
    if form == "flag":
        argv, key = ("--epochs", "9"), "epochs"
    else:
        (tmp_path / "run.cfg").write_text("[train]\nseed=3\ntemperature=5\n")
        argv, key = ("--config", str(tmp_path / "run.cfg")), "temperature"
    code, out_text, err = run(
        capsys, "train", "--data", data, "--out", str(out), "--resume", ckpt, *argv
    )
    assert code == 1 and _one_error_line(err), err
    assert f" {key}=" in err
    assert out_text == "" and not list(tmp_path.glob("r.xckp*"))


def test_sim_breakdown_consistency(trained, capsys):
    data, ckpt = trained
    code, out, err = run(
        capsys, "sim", "--ckpt", ckpt, "--data", data, "--item-a", "1", "--item-b", "2",
    )
    assert code == 0, err
    values = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line and " " not in line.split("=")[0]
    )
    dp = float(values["DP"])
    tha = float(values["THA"])
    dcr = float(values["DCR"])
    levels = sum(float(values[f"THA.level{l}"]) for l in (1, 2, 3))
    assert abs(levels - tha) < 1e-10
    factor_sum = sum(
        float(values[f"DCR.factor{i}.confidence"]) * float(values[f"DCR.factor{i}.cosine"])
        for i in range(4)
    )
    assert abs(factor_sum - dcr) < 1e-10
    assert abs(float(values["THA+DP"]) - (tha + dp)) < 1e-10
    assert abs(float(values["THA+DCR"]) - (tha + dcr)) < 1e-10


def test_sim_bad_item_index(trained, capsys):
    data, ckpt = trained
    code, out, err = run(
        capsys, "sim", "--ckpt", ckpt, "--data", data, "--item-a", "99", "--item-b", "0",
    )
    assert code != 0
    assert "out of range" in err


def test_sim_self_pair_identical_embeddings_dp_is_one(trained, tmp_path, capsys):
    _, ckpt = trained
    rng = np.random.default_rng(4)
    dim = 16
    shared_levels = [rng.normal(size=(1, c, dim)) for c in (4, 2, 1)]
    shared_global = rng.normal(size=(1, dim))
    es = EncodedBatch(
        audio_levels=[Tensor(a.copy()) for a in shared_levels],
        audio_global=Tensor(shared_global.copy()),
        text_levels=[Tensor(a.copy()) for a in shared_levels],
        text_global=Tensor(shared_global.copy()),
    )
    epath = str(tmp_path / "same.xemb")
    save_embeddings(es, epath)
    code, out, err = run(
        capsys, "sim", "--ckpt", ckpt, "--embeddings", epath, "--item-a", "0", "--item-b", "0",
    )
    assert code == 0, err
    dp = float([l for l in out.splitlines() if l.startswith("DP=")][0].split("=")[1])
    assert abs(dp - 1.0) < 1e-12


def _random_embeddings(path: str, dim: int, seed: int) -> str:
    """Write a 3-item embedding set of width `dim` at `path`."""
    rng = np.random.default_rng(seed)
    save_embeddings(EncodedBatch(
        audio_levels=[Tensor(rng.normal(size=(3, c, dim))) for c in (4, 2, 1)],
        audio_global=Tensor(rng.normal(size=(3, dim))),
        text_levels=[Tensor(rng.normal(size=(3, c, dim))) for c in (5, 3, 2)],
        text_global=Tensor(rng.normal(size=(3, dim))),
    ), path)
    return path


def test_eval_and_sim_refuse_data_together_with_embeddings(trained, tmp_path, capsys):
    """Each command reads one input; given both, it names both flags and
    reads neither, here a 24-pair dataset and a 3-item embedding set."""
    data, ckpt = trained
    epath = _random_embeddings(str(tmp_path / "three.xemb"), 16, seed=4)
    for argv in (
        ("eval", "--ckpt", ckpt, "--modes", "DP", "--k", "1", "--out", str(tmp_path / "r")),
        ("sim", "--ckpt", ckpt, "--item-a", "0", "--item-b", "1"),
    ):
        code, out, err = run(capsys, *argv, "--data", data, "--embeddings", epath)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {argv[0]} takes --data or --embeddings, not both\n", err
    assert list(tmp_path.iterdir()) == [tmp_path / "three.xemb"]


def test_eval_on_an_empty_embedding_set_is_a_contract_error(trained, tmp_path, capsys):
    _, ckpt = trained
    dim = 16
    es = EncodedBatch(
        audio_levels=[Tensor(np.zeros((0, c, dim))) for c in (4, 2, 1)],
        audio_global=Tensor(np.zeros((0, dim))),
        text_levels=[Tensor(np.zeros((0, c, dim))) for c in (4, 2, 1)],
        text_global=Tensor(np.zeros((0, dim))),
    )
    epath = str(tmp_path / "empty.xemb")
    save_embeddings(es, epath)
    code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--embeddings", epath, "--modes", "DP")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "non-empty" in err
    code, out, err = run(
        capsys, "sim", "--ckpt", ckpt, "--embeddings", epath, "--item-a", "0", "--item-b", "0",
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: {epath}: the embedding set is empty") and "out of range" not in err


def test_an_input_of_another_width_is_one_error_in_every_command(trained, tmp_path, capsys):
    """The model is rebuilt from the checkpoint alone, so a dataset or an
    embedding set of another width fails each command the same way, naming
    the input, its width and the checkpoint's."""
    _, ckpt = trained  # D=16
    data = gen(tmp_path, capsys, "wide.xmal", **{"--D": "32"})
    epath = _random_embeddings(str(tmp_path / "wide.xemb"), 32, seed=2)
    written = str(tmp_path / "out.xemb")
    pair = ("--item-a", "0", "--item-b", "1")
    for path, argv in (
        (data, ("eval", "--ckpt", ckpt, "--data", data, "--modes", "DP", "--k", "1")),
        (epath, ("eval", "--ckpt", ckpt, "--embeddings", epath, "--modes", "DP", "--k", "1")),
        (data, ("sim", "--ckpt", ckpt, "--data", data, *pair)),
        (epath, ("sim", "--ckpt", ckpt, "--embeddings", epath, *pair)),
        (data, ("export-embeddings", "--ckpt", ckpt, "--data", data, "--out", written)),
        (data, ("train", "--data", data, "--out", str(tmp_path / "r.xckp"), "--resume", ckpt)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {path}: width 32 does not match the checkpoint's 16\n", argv
    assert not (tmp_path / "out.xemb").exists() and not (tmp_path / "r.xckp").exists()


def test_eval_records_no_tape_while_it_encodes(trained, capsys, monkeypatch):
    """`residual_blocks` keeps each block's input and ReLU mask while a tape
    records, so `xmal eval` encodes under `no_grad`."""
    from xmal import encoders

    data, ckpt = trained
    recording = []
    for name in ("encode_text_batch", "encode_audio_batch"):
        encode = getattr(encoders, name)
        monkeypatch.setattr(
            encoders, name,
            lambda *args, encode=encode: recording.append(ad.is_recording()) or encode(*args),
        )
    code, _, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "DP", "--k", "1")
    assert code == 0, err
    assert recording == [False, False]


def test_sim_breakdowns_agree_from_a_dataset_and_its_exported_embeddings(
    trained, tmp_path, capsys
):
    """sim encodes only the pair's two items of a dataset and slices the pair
    out of an embedding set. Both print the same breakdown: the same lines,
    with values equal up to BLAS rounding (1-item encodes differ from the
    exported whole-batch encode by about 1e-15)."""
    data, ckpt = trained
    epath = str(tmp_path / "d.xemb")
    code, _, err = run(capsys, "export-embeddings", "--ckpt", ckpt, "--data", data, "--out", epath)
    assert code == 0, err
    for a, b in ((0, 0), (3, 7), (23, 12)):  # the last item against the middle one
        printed = []
        for source in (("--data", data), ("--embeddings", epath)):
            code, out, err = run(
                capsys, "sim", "--ckpt", ckpt, *source, "--item-a", str(a), "--item-b", str(b)
            )
            assert code == 0, err
            stamp, pair, *values = out.splitlines()
            assert stamp.startswith("config_hash=") and pair == f"item_audio={a} item_text={b}"
            printed.append(dict(line.split("=") for line in values))
        from_data, from_file = printed
        assert list(from_data) == list(from_file) and len(from_data) == 22
        for key, value in from_data.items():
            assert abs(float(value) - float(from_file[key])) < 1e-12, (a, b, key)


def test_sim_matches_diagnostics_confidences(trained, capsys):
    """Each factor pair's printed confidence equals the per-item oracle's:
    both items encoded row by row, split into factors and scored by the
    confidence network's formula."""
    data, ckpt = trained
    ds = load_dataset(data)
    params = _restore_model(ckpt)[0].params
    for a, b in ((0, 0), (3, 7)):
        code, out, err = run(
            capsys, "sim", "--ckpt", ckpt, "--data", data, "--item-a", str(a), "--item-b", str(b),
        )
        assert code == 0, err
        printed = {}
        for line in out.splitlines():
            if line.startswith("DCR.factor") and ".confidence=" in line:
                idx = int(line.split(".")[1][len("factor"):])
                printed[idx] = float(line.split("=")[1])
        audio = oracle.item_factors(oracle.encode_audio(ds.items.audio[a], params)[1], params, "audio")
        text = oracle.item_factors(oracle.encode_text(ds.items.text[b], params)[1], params, "text")
        assert sorted(printed) == [0, 1, 2, 3]
        for i in range(4):
            assert abs(printed[i] - oracle.confidence(text[i], audio[i], params)) < 1e-10, (a, b, i)


def test_sim_matches_eval_component_matrices(trained, capsys):
    data, ckpt = trained
    ds = load_dataset(data)
    model, *_ = _restore_model(ckpt)
    with ad.no_grad():
        encoded = model.encode_arrays(ds.items.audio, ds.items.text)
        scores = {mode: model.similarity_matrix(encoded, mode).value for mode in MODES}
    keys = ["config_hash", "item_audio", "DP"]
    for lvl in (1, 2, 3):
        keys += [f"THA.level{lvl}.text_enhanced", f"THA.level{lvl}.audio_enhanced", f"THA.level{lvl}"]
    keys.append("THA")
    for i in range(4):
        keys += [f"DCR.factor{i}.confidence", f"DCR.factor{i}.cosine"]
    keys += ["DCR", "THA+DP", "THA+DCR"]
    for a, b in ((0, 0), (1, 2), (17, 5)):
        code, out, err = run(
            capsys, "sim", "--ckpt", ckpt, "--data", data, "--item-a", str(a), "--item-b", str(b),
        )
        assert code == 0, err
        lines = out.splitlines()
        assert [line.split("=", 1)[0] for line in lines] == keys
        values = dict(line.split("=", 1) for line in lines[2:])
        for name, matrix in scores.items():
            assert abs(float(values[name]) - matrix[a, b]) < 1e-12, (name, a, b)


@pytest.mark.parametrize(
    "train_flags", [(), ("--direction", "text_enhanced", "--combine", "sum", "--lambda", "5")],
    ids=["default", "text_enhanced-sum"],
)
def test_sim_totals_are_similarity_matrix_entries(tmp_path, capsys, train_flags):
    """sim prints each mode's total as the entry of `Model.similarity_matrix`
    on its 1 x 1 batch, bit for bit. At K = 8 a sum of the factor terms in
    another order differs from the DCR entry in the last bit."""
    data = gen(tmp_path, capsys, **{"--K": "8"})
    ckpt = str(tmp_path / "ck.xckp")
    code, _, err = run(capsys, "train", "--data", data, "--out", ckpt, "--epochs", "1", *train_flags)
    assert code == 0, err
    model = _restore_model(ckpt)[0]
    for a, b in ((0, 0), (3, 7), (23, 12), (9, 4)):
        code, out, err = run(
            capsys, "sim", "--ckpt", ckpt, "--data", data, "--item-a", str(a), "--item-b", str(b),
        )
        assert code == 0, err
        printed = dict(line.split("=", 1) for line in out.splitlines()[2:])
        with ad.no_grad():
            pair = _encoded_input("sim", model, data, pair=(a, b))
            for mode in MODES:
                expected = repr(float(model.similarity_matrix(pair, mode).value[0, 0]))
                assert printed[mode] == expected, (a, b, mode)


def _write_old_checkpoint(trained, tmp_path, monkeypatch, version, rename):
    """The trained checkpoint written as `version` with every tensor name,
    parameters and Adam moments alike, mapped through `rename(name, value)`
    to a dict of old-layout tensors, and without the CRC32 trailer that
    versions before 4 lacked."""
    from types import SimpleNamespace

    from xmal import trainer

    _, ckpt = trained
    current = trainer.load_checkpoint(ckpt)
    tensors = {}
    for name, value in current.tensors.items():
        tensors.update(rename(name, value))
    old = SimpleNamespace(params={name: ad.Tensor(v) for name, v in tensors.items()})
    path = str(tmp_path / f"v{version}.xckp")
    with monkeypatch.context() as m:
        m.setattr(trainer, "CHECKPOINT_VERSION", version)
        trainer.save_checkpoint(path, old, trainer.Optimizer(), current.step, current.config_text)
    blob = body(open(path, "rb").read())
    open(path, "wb").write(blob)
    assert blob[4:8] == version.to_bytes(4, "little")
    return path, tensors


def _assert_version_rejected(trained, path, version, capsys):
    from xmal import trainer
    from xmal.errors import VersionError

    data, _ = trained
    message = f"checkpoint version {version}, expected 4"
    with pytest.raises(VersionError, match=message):
        trainer.load_checkpoint(path)
    code, out, err = run(capsys, "eval", "--ckpt", path, "--data", data, "--modes", "DP", "--k", "1")
    assert code == 1
    assert message in err


def test_version_1_checkpoint_is_rejected(trained, tmp_path, capsys, monkeypatch):
    """A checkpoint in the version-1 layout, one (D/K, D) tensor per factor
    named `factors.{modality}.k{i}`, fails to load with VersionError, and
    `xmal eval` on it exits 1 naming the version."""

    def per_factor(name, value):
        if name.endswith(("factors.text", "factors.audio")):
            return {f"{name}.k{i}": factor for i, factor in enumerate(value)}
        return {name: value}

    path, tensors = _write_old_checkpoint(trained, tmp_path, monkeypatch, 1, per_factor)
    assert "factors.text.k3" in tensors and "opt.m.factors.audio.k0" in tensors
    _assert_version_rejected(trained, path, 1, capsys)


def test_version_2_checkpoint_is_rejected(trained, tmp_path, capsys, monkeypatch):
    """A checkpoint in the version-2 layout, one tensor per encoder block
    named `text.block01.w` and so on and one per audio merge named
    `audio.merge2.w` to `audio.merge4.w`, fails to load with VersionError,
    and `xmal eval` on it exits 1 naming the version."""

    def per_block(name, value):
        stream, _, kind = name.rpartition(".")
        if stream.endswith(("text", "audio")) and kind in ("w", "b"):
            return {f"{stream}.block{i + 1:02d}.{kind}": v for i, v in enumerate(value)}
        if name.endswith("audio.merge"):
            return {f"{name}{i + 2}.w": v for i, v in enumerate(value)}
        return {name: value}

    path, tensors = _write_old_checkpoint(trained, tmp_path, monkeypatch, 2, per_block)
    for name in ("text.block01.w", "audio.block12.b", "audio.merge4.w", "opt.v.text.block11.w"):
        assert name in tensors
    assert "text.w" not in tensors and "opt.m.audio.merge" not in tensors
    _assert_version_rejected(trained, path, 2, capsys)


def test_version_3_checkpoint_is_rejected(trained, tmp_path, capsys, monkeypatch):
    """A checkpoint in the version-3 layout, today's tensors without the
    CRC32 trailer, fails to load with VersionError, and `xmal eval` on it
    exits 1 naming the version."""
    path, _ = _write_old_checkpoint(trained, tmp_path, monkeypatch, 3, lambda n, v: {n: v})
    _assert_version_rejected(trained, path, 3, capsys)


def test_export_embeddings_round_trip(trained, tmp_path, capsys):
    data, ckpt = trained
    epath = str(tmp_path / "enc.xemb")
    code, out, err = run(
        capsys, "export-embeddings", "--ckpt", ckpt, "--data", data, "--out", epath,
    )
    assert code == 0, err
    code, out, err = run(
        capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "DP", "--k", "1",
    )
    direct = [l for l in out.splitlines() if " size=" in l]
    code, out, err = run(
        capsys, "eval", "--ckpt", ckpt, "--embeddings", epath, "--modes", "DP", "--k", "1",
    )
    via_file = [l for l in out.splitlines() if " size=" in l]
    strip = lambda ls: [l.split(" config_hash=")[0] for l in ls]
    assert strip(direct) == strip(via_file)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    out_path = str(tmp_path / "cfg.xmal")
    with open(cfg_path, "w") as f:
        f.write("[data]\npairs=8\nK=4\nD=16\nseed=5\n")
    code, _, err = run(capsys, "gen-data", "--config", cfg_path, "--out", out_path,
                       "--seed", "9")
    assert code == 0, err
    ds = load_dataset(out_path)
    assert ds.config.pairs == 8
    assert ds.config.seed == 9  # flag wins over file


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad.cfg")
    with open(cfg_path, "w") as f:
        f.write("[data]\npairs=8\nKK=4\n")
    code, out, err = run(capsys, "gen-data", "--config", cfg_path,
                         "--out", str(tmp_path / "x.xmal"))
    assert code != 0
    assert "KK" in err


def test_config_file_unknown_section_rejected(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad2.cfg")
    with open(cfg_path, "w") as f:
        f.write("[dataz]\npairs=8\n")
    code, out, err = run(capsys, "gen-data", "--config", cfg_path,
                         "--out", str(tmp_path / "x.xmal"))
    assert code != 0
    assert "dataz" in err


def test_grad_check_passes_and_prints_worst_errors(capsys):
    code, out, err = run(capsys, "grad-check", "--seeds", "1")
    assert code == 0, err
    assert "h=1e-05" in out
    assert "status=PASS" in out
    passed = re.findall(r"^all (\d+) checks passed$", out, re.MULTILINE)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"(\d+) checks in all", " ".join(readme.split()))
    assert len(passed) == 1 and stated == passed, (passed, stated)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__",
        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw),
    )
    cli.build_parser.cache_clear()
    for command in ("eval", "sim"):
        code, out, err = run(capsys, command)
        assert code == 1 and err.startswith(f"error: {command} needs --ckpt"), err
    assert built.count("xmal") == 1 and len(built) == 1 + len(cli.COMMANDS)  # and its subparsers


def test_grad_check_flag_overrides_echoed(capsys):
    code, out, err = run(capsys, "grad-check", "--seeds", "1", "--h", "2e-05", "--tol", "1e-4")
    assert code == 0, err
    assert "h=2e-05" in out and "tol=0.0001" in out


@pytest.mark.parametrize(
    "argv, message",
    (
        pytest.param(("grad-check", "--seeds", "0"), "seeds >= 1", id="0"),
        pytest.param(("grad-check", "--seeds", "-1"), "seeds >= 1", id="-1"),
        pytest.param(("verify", "--seeds", "1", "--tol", "0"), "tol > 0, got 0.0", id="tol-0"),
        pytest.param(
            ("grad-check", "--seeds", "1", "--tol=-1e-06"), "tol > 0, got -1e-06", id="tol-neg"
        ),
    ),
)
def test_grad_check_without_a_draw_is_one_error_line(capsys, argv, message):
    """A setting under which no check is drawn, or none can pass, is one
    error line."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert _one_error_line(err) and message in err, err


def test_grad_check_fails_on_injected_gradient_bug(capsys):
    ad.GRAD_OVERRIDES["hinge"] = 1.02
    try:
        code, out, err = run(capsys, "verify", "--seeds", "1")
    finally:
        ad.GRAD_OVERRIDES.clear()
    assert code != 0
    assert "hinge" in err  # the failing op is named
    assert "FAIL" in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_divergence_exit_names_step(tmp_path, capsys):
    data = gen(tmp_path, capsys, name="div.xmal")
    code, out, err = run(
        capsys, "train", "--data", data, "--out", str(tmp_path / "d.xckp"),
        "--epochs", "3", "--batch-size", "8", "--lr", "1e18",
    )
    assert code != 0
    assert "step" in err and any(ch.isdigit() for ch in err)


def test_invalid_log_level_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("XMAL_LOG", "loud")
    code, out, err = run(
        capsys, "gen-data", "--pairs", "4", "--K", "4", "--D", "16",
        "--out", str(tmp_path / "x.xmal"),
    )
    assert code != 0
    assert "XMAL_LOG" in err


def test_log_levels_accepted(tmp_path, capsys, monkeypatch):
    for level in ("error", "info", "debug"):
        monkeypatch.setenv("XMAL_LOG", level)
        code, _, err = run(
            capsys, "gen-data", "--pairs", "4", "--K", "4", "--D", "16",
            "--out", str(tmp_path / f"{level}.xmal"),
        )
        assert code == 0, err


def test_eval_threads_flag_starts_no_thread_and_changes_nothing(tmp_path, capsys, monkeypatch):
    """`eval --threads 64` on 150 pairs scores on the calling thread alone
    and prints what `--threads 1` prints."""
    import threading

    data = gen(tmp_path, capsys, "e.xmal", **{"--pairs": "150"})
    ckpt = str(tmp_path / "e.xckp")
    code, _, err = run(
        capsys, "train", "--data", data, "--out", ckpt, "--epochs", "1", "--batch-size", "50",
        "--mode", "DP", "--seed", "3",
    )
    assert code == 0, err
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: starts.append(t) or start(t))
    printed = {}
    for threads in ("1", "64"):
        code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "THA+DCR",
                             "--threads", threads)
        assert code == 0, err
        printed[threads] = out
    assert starts == []
    assert printed["1"] == printed["64"]


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
ALL_MODES = "DP,THA,DCR,THA+DCR,THA+DP"


@pytest.fixture(scope="module")
def eval_300(tmp_path_factory):
    """A 300-pair dataset (5 strips, the last ragged) and a DP checkpoint."""
    d = tmp_path_factory.mktemp("eval300")
    data, ckpt = str(d / "e.xmal"), str(d / "e.xckp")
    assert main([
        "gen-data", "--pairs", "300", "--K", "4", "--D", "16", "--N", "5", "--M", "8",
        "--sigma", "0.1", "--seed", "7", "--out", data,
    ]) == 0
    assert main([
        "train", "--data", data, "--out", ckpt, "--epochs", "1", "--batch-size", "50",
        "--mode", "DP", "--seed", "3",
    ]) == 0
    return data, ckpt


def _eval_outputs(capsys, eval_300, out, *flags):
    data, ckpt = eval_300
    code, stdout, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data, "--out", out, *flags)
    assert code == 0, err
    return stdout, Path(out + ".txt").read_text(), Path(out + ".xrpt").read_bytes()


def test_eval_forks_workers_and_reports_byte_identical_across_threads(
    eval_300, tmp_path, capsys, monkeypatch
):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outputs = {}
    for threads in (1, 2, 64):
        forks.clear()
        outputs[threads] = _eval_outputs(
            capsys, eval_300, str(tmp_path / f"r{threads}"), "--modes", ALL_MODES,
            "--threads", str(threads),
        )
        assert len(forks) == min(threads, CPUS, 5) - 1, threads
    assert outputs[1] == outputs[2] == outputs[64]


@pytest.mark.skipif(CPUS < 2, reason="eval forks only with two usable CPUs")
def test_eval_worker_failure_is_one_error_line_and_leaves_no_child(eval_300, capsys, monkeypatch):
    parent = os.getpid()
    scores = attention.hierarchical_similarity_matrix

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("tile failed")
        return scores(*args)

    monkeypatch.setattr(attention, "hierarchical_similarity_matrix", fails_in_a_child)
    data, ckpt = eval_300
    code, out, err = run(
        capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "THA", "--threads", "2"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: eval worker 1 failed: RuntimeError: tile failed"]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_eval_info_log_line_changes_no_output(eval_300, tmp_path, capsys, caplog, monkeypatch):
    quiet = _eval_outputs(
        capsys, eval_300, str(tmp_path / "quiet"), "--modes", ALL_MODES, "--threads", "2"
    )
    assert not [r for r in caplog.records if r.name == "xmal.evaluation"]
    monkeypatch.setenv("XMAL_LOG", "info")
    logged = _eval_outputs(
        capsys, eval_300, str(tmp_path / "logged"), "--modes", ALL_MODES, "--threads", "2"
    )
    assert logged == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "xmal.evaluation"]
    assert len(lines) == 1
    peak = ", this process's peak RSS so far [0-9.]+ MB"  # read from /proc/self/status
    if not os.access("/proc/self/status", os.R_OK):
        peak = ""
    if CPUS >= 2:
        figure = ", largest forked worker's private memory [0-9.]+ MB"  # read from smaps_rollup
        if not os.access("/proc/self/smaps_rollup", os.R_OK):
            figure = ""
        assert re.fullmatch(f"5 strips, 2 workers{figure}{peak}", lines[0]), lines[0]
    else:
        assert re.fullmatch(f"5 strips, 1 worker{peak}", lines[0]), lines[0]
    caplog.clear()
    serial = _eval_outputs(
        capsys, eval_300, str(tmp_path / "serial"), "--modes", ALL_MODES, "--threads", "1"
    )
    assert serial == quiet
    lines = [r.getMessage() for r in caplog.records if r.name == "xmal.evaluation"]
    assert len(lines) == 1  # no worker's figure left over from earlier children
    assert re.fullmatch(f"5 strips, 1 worker{peak}", lines[0]), lines[0]


def test_threads_flag_validated(tmp_path, capsys):
    """Only eval takes --threads, and it must be at least 1; the commands it
    would not act on refuse it as an unknown flag."""
    code, out, err = run(
        capsys, "eval", "--ckpt", str(tmp_path / "none.xckp"), "--data",
        str(tmp_path / "none.xmal"), "--threads", "0",
    )
    assert code != 0
    assert "threads" in err
    for argv in (
        ("gen-data", "--pairs", "4", "--K", "4", "--D", "16", "--out", str(tmp_path / "t.xmal")),
        ("verify", "--seeds", "1"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--threads", "1"])
        assert exit_info.value.code == 2, argv
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err, argv
    assert not (tmp_path / "t.xmal").exists()


def _with_config_text(src: str, dst: str, text: str):
    """Write to dst a copy of checkpoint src whose stored config is `text`."""
    blob = body(open(src, "rb").read())
    old = trainer.load_checkpoint(src).config_text.encode("utf-8")
    new = text.encode("utf-8")
    open(dst, "wb").write(sealed(blob[: -4 - len(old)] + struct.pack("<I", len(new)) + new))


def test_stored_config_unknown_key_is_a_config_error(trained, tmp_path, capsys):
    """A stored train config is read as strictly as a config file: a key no
    flag declares makes eval, sim and train --resume exit 1 naming it."""
    data, ckpt = trained
    bad = str(tmp_path / "bogus.xckp")
    _with_config_text(ckpt, bad, trainer.load_checkpoint(ckpt).config_text + "bogus=1\n")
    with pytest.raises(ConfigError, match=r"unknown key 'bogus' in \[train\]"):
        _restore_model(bad)
    for argv in (
        ("eval", "--ckpt", bad, "--data", data, "--modes", "DP", "--k", "1"),
        ("sim", "--ckpt", bad, "--data", data, "--item-a", "0", "--item-b", "0"),
        ("train", "--data", data, "--out", str(tmp_path / "r.xckp"), "--resume", bad),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error: ") and "unknown key 'bogus'" in err, argv


def test_a_dataset_with_a_nan_sigma_is_one_error_line_naming_the_file(trained, tmp_path, capsys):
    data, ckpt = trained
    bad = str(tmp_path / "nan.xmal")
    blob = bytearray(body(open(data, "rb").read()))
    struct.pack_into("<d", blob, 40, float("nan"))  # after magic, 7 u32s and the u64 seed
    open(bad, "wb").write(sealed(blob))
    for argv in (
        ("eval", "--ckpt", ckpt, "--data", bad, "--modes", "DP", "--k", "1"),
        ("train", "--data", bad, "--out", str(tmp_path / "r.xckp")),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err == f"error: {bad}: noise_sigma must be finite, got nan\n", err


def _without_conf_b2(ckpt: str, dst: str):
    model, _, stored = _restore_model(ckpt)
    del model.params["conf.b2"]
    trainer.save_checkpoint(dst, model, trainer.Sgd(0.1), stored.step, stored.config_text)


def _diagonal_direction(ckpt: str, dst: str):
    text = trainer.load_checkpoint(ckpt).config_text
    assert "direction=both\n" in text
    _with_config_text(ckpt, dst, text.replace("direction=both\n", "direction=diagonal\n"))


@pytest.mark.parametrize("write, message", (
    (_diagonal_direction, "direction must be one of "),
    (_without_conf_b2, "checkpoint is missing parameter 'conf.b2'"),
))
def test_a_checkpoint_content_error_names_the_checkpoint(trained, tmp_path, capsys, write, message):
    data, ckpt = trained
    bad = str(tmp_path / "bad.xckp")
    write(ckpt, bad)
    code, out, err = run(capsys, "eval", "--ckpt", bad, "--data", data, "--modes", "DP", "--k", "1")
    assert code == 1 and out == "" and _one_error_line(err), err
    assert err.startswith(f"error: {bad}: {message}"), err


FLOAT_SETTINGS = [
    pytest.param(section, flag, id=f"{section}{flag.name}")
    for section, flags in SETTINGS.items()
    for flag in flags
    if flag.type in (float, finite_float)
]
FLOAT_COMMANDS = {"data": "gen-data", "train": "train", "verify": "grad-check"}


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("section, flag", FLOAT_SETTINGS)
def test_a_non_finite_float_setting_is_refused_wherever_it_is_read(
    trained, tmp_path, capsys, section, flag, value
):
    """NaN and the infinities are refused as a flag (exit 2), in a config
    file and in a checkpoint's stored train config (one error line, exit
    1), each time naming the setting."""
    command = FLOAT_COMMANDS[section]
    with pytest.raises(SystemExit) as exit_info:
        main([command, f"{flag.name}={value}"])
    assert exit_info.value.code == 2
    assert f"argument {flag.name}: invalid" in capsys.readouterr().err
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"[{section}]\n{flag.dest}={value}\n")
    code, out, err = run(capsys, command, "--config", str(cfg_path))
    named = f"[{section}] {flag.dest}: cannot read {value!r}"
    assert code == 1 and _one_error_line(err) and named in err, err
    if section == "train":
        data, ckpt = trained
        bad = str(tmp_path / "bad.xckp")
        _with_config_text(ckpt, bad, f"[train]\n{flag.dest}={value}\n")
        code, out, err = run(capsys, "eval", "--ckpt", bad, "--data", data, "--modes", "DP")
        assert code == 1 and _one_error_line(err) and named in err, err


def test_config_file_with_undecodable_bytes_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"[data]\npairs=8\n# \xff\n")
    with pytest.raises(ConfigError, match=re.escape(str(cfg_path)) + ": not valid UTF-8"):
        parse_config_file(str(cfg_path), KEY_TYPES)
    code, out, err = run(capsys, "gen-data", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.xmal"))
    assert code == 1 and err.startswith("error: ") and "not valid UTF-8" in err


def test_config_file_values_are_checked_in_every_section(tmp_path, capsys):
    """A value that does not read as its type fails the run, whichever
    command reads the file."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[data]\npairs=8\nK=4\nD=16\n[train]\nepochs=x\n")
    code, out, err = run(capsys, "gen-data", "--config", str(cfg_path),
                         "--out", str(tmp_path / "x.xmal"))
    assert code == 1
    assert err.startswith("error: ") and "run.cfg:6: [train] epochs: cannot read 'x' as int" in err
    assert not (tmp_path / "x.xmal").exists()


@pytest.mark.parametrize("part", ("tensor name", "config text"))
def test_checkpoint_with_undecodable_text_is_a_corrupted_record(part, trained, tmp_path, capsys):
    data, ckpt = trained
    bad = str(tmp_path / "bad.xckp")
    blob = body(open(ckpt, "rb").read())  # rewritten below under a checksum that holds
    if part == "tensor name":  # 0xff over the first byte of the name audio.b
        at = blob.index(b"audio.b")
        open(bad, "wb").write(sealed(blob[:at] + b"\xff" + blob[at + 1:]))
    else:
        old = trainer.load_checkpoint(ckpt).config_text.encode("utf-8")
        open(bad, "wb").write(sealed(blob[: -4 - len(old)] + struct.pack("<I", 2) + b"\xff["))
    with pytest.raises(CorruptedRecordError, match=re.escape(bad) + f": .*{part} is not valid UTF-8"):
        trainer.load_checkpoint(bad)
    code, out, err = run(capsys, "eval", "--ckpt", bad, "--data", data, "--modes", "DP", "--k", "1")
    assert code == 1 and err.startswith("error: ") and "not valid UTF-8" in err


def test_a_stored_config_without_k_restores_k_from_the_tensors(trained, tmp_path, capsys):
    """K and the confidence hidden width are read off the checkpoint's
    tensors, so the D=16, K=4 checkpoint with the `K=4` line removed from
    its stored config evaluates to the same reports as with the line kept."""
    data, ckpt = trained
    lines = trainer.load_checkpoint(ckpt).config_text.splitlines(keepends=True)
    assert "K=4\n" in lines
    stripped = str(tmp_path / "no_k.xckp")
    _with_config_text(ckpt, stripped, "".join(line for line in lines if line != "K=4\n"))
    reports = []
    for name, path in (("kept", ckpt), ("removed", stripped)):
        out_prefix = str(tmp_path / name)
        code, out, err = run(
            capsys, "eval", "--ckpt", path, "--data", data, "--modes", "DP,THA,DCR,THA+DCR",
            "--out", out_prefix,
        )
        assert code == 0, err
        text = open(out_prefix + ".txt").read().splitlines()
        reports.append((
            [line.split(" config_hash=")[0] for line in out.splitlines()],
            [line for line in text if not line.startswith("config_hash=")],
        ))
    assert reports[0] == reports[1] and len(reports[0][0]) == 8


def _mutations(blob: bytes, header: int, seed: int):
    """20 seeded damaged copies of a container file: 6 changed header bytes,
    7 truncations and 7 single-byte flips past the header."""
    rng = np.random.default_rng(seed)
    out = []
    for at in rng.integers(0, header, size=6):
        damaged = bytearray(blob)
        damaged[at] = (damaged[at] + int(rng.integers(1, 256))) % 256
        out.append(("header", int(at), bytes(damaged)))
    for cut in rng.integers(0, len(blob), size=7):
        out.append(("cut", int(cut), blob[:cut]))
    for at in rng.integers(header, len(blob), size=7):
        damaged = bytearray(blob)
        damaged[at] ^= 1 << int(rng.integers(0, 8))
        out.append(("flip", int(at), bytes(damaged)))
    return out


@pytest.mark.parametrize("fmt", ("dataset", "checkpoint", "embeddings"))
def test_every_mutated_container_is_one_error_line(trained, tmp_path, capsys, fmt):
    """Through `xmal eval`, each damaged copy of a dataset, checkpoint or
    embedding set exits 1 with one `error: ...` line: no traceback, no
    report, and no flipped payload byte accepted."""
    data, ckpt = trained
    epath = str(tmp_path / "e.xemb")
    code, _, err = run(capsys, "export-embeddings", "--ckpt", ckpt, "--data", data, "--out", epath)
    assert code == 0, err
    source, flag, header, seed = {
        "dataset": (data, "--data", 52, 11),
        "checkpoint": (ckpt, "--ckpt", 20, 12),
        "embeddings": (epath, "--embeddings", 40, 13),
    }[fmt]
    inputs = {"--ckpt": ckpt, "--data": data} if fmt != "embeddings" else {"--ckpt": ckpt}
    bad = str(tmp_path / f"bad.{fmt}")
    blob = open(source, "rb").read()
    for kind, at, damaged in _mutations(blob, header, seed):
        open(bad, "wb").write(damaged)
        argv = [arg for pair in {**inputs, flag: bad}.items() for arg in pair]
        code, out, err = run(capsys, "eval", *argv, "--modes", "DP", "--k", "1")
        assert (code, out) == (1, ""), (kind, at, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (kind, at, err)


def test_embedding_set_reports_are_byte_identical_to_the_dataset_path(trained, tmp_path, capsys):
    """At a ragged size (300 pairs: 4 full strips and one of 44), eval over
    an exported embedding set writes the same text and binary reports as
    eval over the dataset the set was exported from, encoded beforehand or
    by eval's workers, in one process or two."""
    _, ckpt = trained
    data = gen(tmp_path, capsys, name="e.xmal", **{"--pairs": "300", "--seed": "8"})
    epath = str(tmp_path / "e.xemb")
    code, _, err = run(capsys, "export-embeddings", "--ckpt", ckpt, "--data", data, "--out", epath)
    assert code == 0, err
    model, *_ = _restore_model(ckpt)
    with ad.no_grad():
        pairs = load_dataset(data).items
        from_data = model.encode_arrays(pairs.audio, pairs.text)
    modes = ("DP", "THA", "DCR", "THA+DP", "THA+DCR")
    blobs = []
    for threads in (1, 2):
        for name, source in (("d", from_data), ("p", pairs), ("e", load_embeddings(epath))):
            reports = evaluation.evaluate(
                model, source, modes=modes, ks=(1, 5, 10), seed=3, config_hash="stamp",
                threads=threads,
            )
            name = f"{name}{threads}"
            evaluation.write_report_text(str(tmp_path / f"{name}.txt"), reports)
            evaluation.write_report_binary(str(tmp_path / f"{name}.xrpt"), reports)
            blobs.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("txt", "xrpt")])
    assert all(blob == blobs[0] for blob in blobs) and len(blobs) == 6
    assert b"eval_size=300" in blobs[0][0]
    outs = []
    for source in (("--data", data), ("--embeddings", epath)):
        code, out, err = run(capsys, "eval", "--ckpt", ckpt, *source, "--modes", ",".join(modes))
        assert code == 0, err
        outs.append([line.split(" config_hash=")[0] for line in out.splitlines()])
    assert outs[0] == outs[1] and len(outs[0]) == 2 * len(modes)


def test_train_config_file_settings_reach_checkpoint_and_restore(
    trained, tmp_path, capsys, monkeypatch
):
    """direction, K and hidden set in a [train] file are stored in the
    checkpoint, and eval and sim rebuild the model with them."""
    data, _ = trained
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(
        "[train]\ndirection=text_enhanced\nK=2\nhidden=3\nepochs=1\nbatch_size=8\nseed=3\n"
    )
    ckpt = str(tmp_path / "cfg.xckp")
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--data", data, "--out", ckpt)
    assert code == 0, err
    stored = set(trainer.load_checkpoint(ckpt).config_text.splitlines())
    assert {"direction=text_enhanced", "K=2", "hidden=3"} <= stored

    restored = []
    evaluate = evaluation.evaluate
    monkeypatch.setattr(
        evaluation, "evaluate",
        lambda model, *args, **kw: restored.append(model.cfg) or evaluate(model, *args, **kw),
    )
    code, _, err = run(
        capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "THA,DCR", "--k", "1"
    )
    assert code == 0, err
    [cfg] = restored
    assert (cfg.factor_count, cfg.hidden, cfg.attention.direction) == (2, 3, "text_enhanced")

    code, out, err = run(
        capsys, "sim", "--ckpt", ckpt, "--data", data, "--item-a", "1", "--item-b", "2"
    )
    assert code == 0, err
    values = dict(line.split("=", 1) for line in out.splitlines()[2:])
    cosines = [key for key in values if key.endswith(".cosine")]
    assert cosines == ["DCR.factor0.cosine", "DCR.factor1.cosine"]
    for lvl in (1, 2, 3):
        assert values[f"THA.level{lvl}"] == values[f"THA.level{lvl}.text_enhanced"]
        assert values[f"THA.level{lvl}"] != values[f"THA.level{lvl}.audio_enhanced"]


def test_one_eval_section_serves_eval_and_export_embeddings(trained, tmp_path, capsys):
    data, ckpt = trained
    cfg_path = str(tmp_path / "eval.cfg")
    with open(cfg_path, "w") as f:
        f.write(f"[eval]\nckpt={ckpt}\ndata={data}\nmodes=DP\nk=1\n")
    by_flags, by_file = str(tmp_path / "flags.xemb"), str(tmp_path / "file.xemb")
    code, _, err = run(
        capsys, "export-embeddings", "--ckpt", ckpt, "--data", data, "--out", by_flags
    )
    assert code == 0, err
    code, _, err = run(capsys, "export-embeddings", "--config", cfg_path, "--out", by_file)
    assert code == 0, err
    assert open(by_flags, "rb").read() == open(by_file, "rb").read()
    code, via_file, err = run(capsys, "eval", "--config", cfg_path)
    assert code == 0, err
    code, via_flags, err = run(
        capsys, "eval", "--ckpt", ckpt, "--data", data, "--modes", "DP", "--k", "1"
    )
    assert code == 0, err
    assert via_file == via_flags


# command, config section, its stamp, and the settings it is run with
PINNED_STAMPS = (
    ("gen-data", "data", "37fb9c18caf1",
     dict(pairs=24, K=4, D=16, N=5, M=8, sigma=0.1, seed=7, out="d.xmal")),
    ("train", "train", "9fde3227190d",
     dict(data="d.xmal", out="ck.xckp", epochs=1, batch_size=8, seed=3, mode="DP")),
    ("eval", "eval", "aba88ec381d5", dict(ckpt="ck.xckp", data="d.xmal", modes="DP", k=1)),
    ("sim", "sim", "c800df648453", dict(ckpt="ck.xckp", data="d.xmal", item_a=1, item_b=2)),
    ("grad-check", "verify", "44c95cadc9f2", dict(seeds=1)),
)


@pytest.mark.parametrize("via", ("flags", "config"))
def test_config_hash_stamps_are_pinned(via, tmp_path, capsys, monkeypatch):
    """Fixed settings, given as flags or as a config file with relative
    paths, print the same config_hash stamps from release to release."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "run_all", lambda **kw: [])  # the stamp needs no checks run
    for command, section, stamp, settings in PINNED_STAMPS:
        if via == "flags":
            argv = [x for k, v in settings.items() for x in (f"--{k.replace('_', '-')}", str(v))]
        else:
            body = "".join(f"{k}={v}\n" for k, v in settings.items())
            (tmp_path / "run.cfg").write_text(f"[{section}]\n{body}")
            argv = ["--config", "run.cfg"]
        code, out, err = run(capsys, command, *argv)
        assert code == 0, err
        assert f"config_hash={stamp}" in out.split(), command


SUBCOMMAND_FLAGS = {
    "gen-data": ("--config", "--out", "--pairs", "--concepts", "--K", "--D", "--N", "--M",
                 "--sigma", "--seed", "--shared-projection"),
    "train": ("--config", "--data", "--out", "--log", "--resume", "--epochs", "--batch-size",
              "--lr", "--optimizer", "--beta1", "--beta2", "--opt-eps", "--tau", "--alpha",
              "--beta", "--mode", "--lambda", "--direction", "--combine", "--K", "--hidden",
              "--clip-norm", "--checkpoint-interval", "--seed"),
    "eval": ("--config", "--threads", "--ckpt", "--data", "--embeddings", "--modes", "--k",
             "--out", "--seed"),
    "sim": ("--config", "--ckpt", "--data", "--embeddings", "--item-a", "--item-b"),
    "grad-check": ("--config", "--h", "--tol", "--seeds"),
    "verify": ("--config", "--h", "--tol", "--seeds"),
    "export-embeddings": ("--config", "--ckpt", "--data", "--out"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed == {"--help", *SUBCOMMAND_FLAGS[command]}


def test_choices_rejection_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--mode", "XYZ"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'XYZ'" in capsys.readouterr().err


def test_train_defaults_are_the_config_classes_defaults():
    """Each `[train]` default and choice list is its config class's or
    module's, under the setting's key."""
    train, objective, attn = TrainConfig(), ObjectiveConfig(), AttentionConfig()
    assert TRAIN_DEFAULTS == {
        "epochs": train.epochs,
        "batch_size": train.batch_size,
        "lr": train.learning_rate,
        "optimizer": train.optimizer,
        "beta1": train.beta1,
        "beta2": train.beta2,
        "opt_eps": train.opt_eps,
        "tau": objective.tau,
        "alpha": objective.alpha,
        "beta": objective.beta,
        "mode": objective.similarity_mode,
        "temperature": attn.temperature,
        "direction": attn.direction,
        "combine": attn.combine,
        "checkpoint_interval": train.checkpoint_interval,
        "seed": train.seed,
    }
    assert {flag.dest: flag.choices for flag in SETTINGS["train"] if flag.choices} == {
        "optimizer": trainer.OPTIMIZERS,
        "mode": MODES,
        "direction": attention.DIRECTIONS,
        "combine": attention.COMBINES,
    }


# a value other than its field's default for every [data] and [train] setting
# but the paths, as given on the command line (None: a bare switch)
NON_DEFAULT = {
    "data": {
        "pairs": "12", "concepts": "12", "K": "2", "D": "8", "N": "3", "M": "6",
        "sigma": "0.25", "seed": "5", "shared_projection": None,
    },
    "train": {
        "epochs": "2", "batch_size": "4", "lr": "0.01", "optimizer": "sgd", "beta1": "0.8",
        "beta2": "0.99", "opt_eps": "1e-06", "tau": "0.1", "alpha": "0.02", "beta": "0.01",
        "mode": "THA+DP", "temperature": "5.0", "direction": "text_enhanced",
        "combine": "sum", "K": "2", "hidden": "3", "clip_norm": "1.5",
        "checkpoint_interval": "2", "seed": "5",
    },
}
SECTION_CONFIGS = {
    "data": (SynthConfig,),
    "train": (TrainConfig, ObjectiveConfig, AttentionConfig, ModelConfig),
}


class Built(Exception):
    """Raised in place of running a command: the config objects it built."""


@pytest.mark.parametrize(
    "section, flag",
    [
        (section, flag) for section in NON_DEFAULT for flag in SETTINGS[section]
        if flag.dest not in ("out", "data", "log", "resume")
    ],
    ids=lambda x: x.name if isinstance(x, cli.Flag) else x,
)
def test_each_setting_reaches_its_config_field(section, flag, trained, tmp_path, monkeypatch):
    """No `[data]` or `[train]` setting is dropped: exactly one config class
    of its section has the field it names, and that field of the config the
    command builds holds the setting's non-default value given as a flag."""
    owners = [
        cls for cls in SECTION_CONFIGS[section]
        if flag.sets in {f.name for f in dataclasses.fields(cls)}
    ]
    assert len(owners) == 1, (flag.name, flag.sets, owners)
    default = next(f.default for f in dataclasses.fields(owners[0]) if f.name == flag.sets)
    given = NON_DEFAULT[section][flag.dest]
    expected = True if given is None else flag.type(given)
    assert expected != default

    if section == "data":
        def built(cfg):
            raise Built({SynthConfig: cfg})
        monkeypatch.setattr(cli, "generate", built)
        command, base = "gen-data", {"--out": str(tmp_path / "d.xmal"), "--pairs": "16"}
    else:
        def built(model, dataset, cfg, **kwargs):
            raise Built({
                TrainConfig: cfg, ObjectiveConfig: cfg.objective,
                ModelConfig: model.cfg, AttentionConfig: model.cfg.attention,
            })
        monkeypatch.setattr(trainer, "train", built)
        command, base = "train", {"--data": trained[0], "--out": str(tmp_path / "ck.xckp")}
    argv = [command]
    for name, value in {**base, flag.name: given}.items():
        argv += [name] if value is None else [name, value]
    with pytest.raises(Built) as caught:
        main(argv)
    assert getattr(caught.value.args[0][owners[0]], flag.sets) == expected


def test_lambda_is_the_one_setting_whose_key_is_not_its_flag_name():
    """README's config-key rule and its one exception match the table."""
    keyed = {flag.name: flag.key for flags in SETTINGS.values() for flag in flags if flag.key}
    assert keyed == {"--lambda": "temperature"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())
    assert "A config key is the flag's name with `-` turned into `_`" in text
    assert "the one exception is `--lambda`, whose key is `temperature`" in text
