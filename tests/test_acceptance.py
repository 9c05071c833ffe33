"""Acceptance suite: every release criterion at its stated tolerance, one
printed PASS/FAIL line each.

The behavioral criteria share one seeded toy run: a 288-pair synthetic world
split into 256 training pairs and 32 held-out pairs, trained for 100 epochs
at batch 16 with the default optimizer settings.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy.stats import binom

from xmal import evaluation, factors, verify
from xmal.autodiff import no_grad
from xmal.attention import AttentionConfig
from xmal.cli import main
from xmal.data import Dataset, SynthConfig, generate, load_dataset, save_dataset
from xmal.evaluation import recall_at_k
from xmal.model import Model, ModelConfig
from xmal.objective import ObjectiveConfig
from xmal.trainer import (
    TrainConfig,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
    train,
)

SEED = 11
EVAL_SIZE = 32
CHANCE = 100.0 / EVAL_SIZE  # 3.125%


@contextlib.contextmanager
def criterion(number: int, name: str):
    outcome = {"passed": False}
    try:
        yield outcome
        outcome["passed"] = True
    finally:
        status = "PASS" if outcome["passed"] else "FAIL"
        print(f"\n[criterion {number}] {name}: {status}")


def held_out_covariance(model: Model, items) -> np.ndarray:
    """The K x K cross-modal factor covariance of the held-out pairs."""
    with no_grad():
        return model.factor_covariance(model.encode_arrays(items.audio, items.text)).value


@pytest.fixture(scope="module")
def toy_run():
    """The shared seeded run behind criteria 4-6."""
    t0 = time.perf_counter()
    data_cfg = SynthConfig(
        pairs=256 + EVAL_SIZE, concept_count=16, factor_count=8, embed_dim=32,
        text_tokens=6, audio_tokens=8, noise_sigma=0.1, seed=SEED,
    )
    world = generate(data_cfg)
    train_ds = Dataset(config=data_cfg, items=world.items[:256])
    eval_ds = Dataset(config=data_cfg, items=world.items[256:])

    model = Model.build(
        ModelConfig(embed_dim=32, factor_count=8, attention=AttentionConfig()), seed=SEED
    )
    cfg = TrainConfig(
        epochs=100, batch_size=16, learning_rate=1e-3, optimizer="adam", seed=SEED,
        objective=ObjectiveConfig(tau=0.07, alpha=0.01, beta=0.005, similarity_mode="THA+DCR"),
    )
    start_cov = held_out_covariance(model, eval_ds.items)
    train(model, train_ds, cfg)
    elapsed = time.perf_counter() - t0
    return {
        "start_cov": start_cov,
        "end_cov": held_out_covariance(model, eval_ds.items),
        "model": model,
        "train_ds": train_ds,
        "eval_ds": eval_ds,
        "elapsed": elapsed,
    }


def test_criterion_1_gradient_correctness():
    with criterion(1, "reverse-mode gradients match central differences"):
        t0 = time.perf_counter()
        results = verify.loss_gradient_checks(
            seeds=10, h=1e-5, tol=1e-4, entries_per_tensor=2
        )
        elapsed = time.perf_counter() - t0
        for r in results:
            print(f"  {r.name}: max relative error {r.worst:.3e} (tol {r.tol:.0e})")
            assert r.worst < 1e-4, r.name
        print(f"  runtime {elapsed:.1f}s")
        assert elapsed < 60.0
        assert {r.name for r in results} == {"loss_s", "loss_d", "loss_a", "loss_total"}


def test_criterion_2_oracle_equivalence():
    with criterion(2, "implementations match independent oracles"):
        results = verify.oracle_checks()
        for r in results:
            print(f"  {r.name}: {r.worst:.3e} (tol {r.tol:.0e})")
            assert r.passed, r.name
        names = {r.name for r in results}
        assert "nt_xent_identity_b2" in names
        assert {"nt_xent_direct_b2", "nt_xent_direct_b3", "nt_xent_direct_b4"} <= names
        assert "attend_vs_composed_oracle" in names
        assert "hinge_normalize_vs_direct" in names
        assert "factor_covariance_vs_direct_sum" in names
        assert {"tha_kernel_vs_composed", "dcr_kernel_vs_composed"} <= names


def test_criterion_3_invariant_suite():
    with criterion(3, "numeric invariants hold on 100 randomized instances"):
        results = verify.invariant_checks(instances=100)
        for r in results:
            print(f"  {r.name}: {r.worst:.3e}")
            assert r.passed, r.name
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            s = rng.normal(size=(6, 6))
            for direction in ("audio_to_text", "text_to_audio"):
                values = [recall_at_k(s, k, direction) for k in range(1, 7)]
                assert all(b >= a for a, b in zip(values, values[1:]))
                assert values[-1] == 100.0
                assert recall_at_k(np.exp(s), 2, direction) == recall_at_k(s, 2, direction)
                assert (
                    recall_at_k(5.0 * s + 3.0, 2, direction) == recall_at_k(s, 2, direction)
                )
        print("  recall monotonicity and rank-transform invariance: 100 instances")


def test_criterion_4_disentanglement_behavior(toy_run):
    with criterion(4, "factor decoupling improves on held-out data"):
        start, end = (
            float(factors.decoupling_loss(toy_run[key]).value) for key in ("start_cov", "end_cov")
        )
        ratio = end / start
        min_diag = float(np.diag(toy_run["end_cov"]).min())
        print(
            f"  off-diagonal energy {start:.4f} -> {end:.4f} ({100 * ratio:.1f}%), "
            f"min diagonal {min_diag:.3f}, runtime {toy_run['elapsed']:.0f}s"
        )
        assert ratio <= 0.5
        assert min_diag >= 0.5
        assert toy_run["elapsed"] < 600.0


def test_criterion_5_retrieval_learning(toy_run):
    with criterion(5, "trained retrieval beats 10x chance; untrained sits at chance"):
        items = toy_run["eval_ds"].items
        with no_grad():
            encoded = toy_run["model"].encode_arrays(items.audio, items.text)
        reports = evaluation.evaluate(
            toy_run["model"], encoded, modes=("THA+DCR",), ks=(1,), seed=SEED
        )
        for r in reports:
            print(f"  trained {r.direction}: R@1 = {r.r_at[1]:.2f}% (need >= {10 * CHANCE:.2f}%)")
            assert r.r_at[1] >= 10 * CHANCE
        lo = binom.ppf(0.005, 10 * EVAL_SIZE, 1.0 / EVAL_SIZE)
        hi = binom.ppf(0.995, 10 * EVAL_SIZE, 1.0 / EVAL_SIZE)
        hits = {"text_to_audio": 0, "audio_to_text": 0}
        for seed in range(10):
            untrained = Model.build(
                ModelConfig(embed_dim=32, factor_count=8, attention=AttentionConfig()),
                seed=1000 + seed,
            )
            with no_grad():
                encoded = untrained.encode_arrays(items.audio, items.text)
            for r in evaluation.evaluate(untrained, encoded, modes=("THA+DCR",), ks=(1,)):
                hits[r.direction] += round(r.r_at[1] * EVAL_SIZE / 100.0)
        for direction, count in hits.items():
            print(f"  untrained {direction}: {count} hits over 10 seeds, 99% band [{lo:.0f}, {hi:.0f}]")
            assert lo <= count <= hi


def test_criterion_6_mode_additivity_and_reproducibility(toy_run, tmp_path, monkeypatch):
    with criterion(6, "mode additivity and byte-identical reruns"):
        model = toy_run["model"]
        items = toy_run["eval_ds"].items
        encoded = model.encode_arrays(items.audio, items.text)
        combined = model.similarity_matrix(encoded, "THA+DCR").value
        parts = (
            model.similarity_matrix(encoded, "THA").value
            + model.similarity_matrix(encoded, "DCR").value
        )
        diff = np.abs(combined - parts).max()
        print(f"  |THA+DCR - (THA + DCR)| max = {diff:.2e}")
        assert diff < 1e-12

        import os

        def run_pipeline(tag: str, threads: str):
            # identical flags; only the working directory and eval's thread cap vary
            workdir = tmp_path / tag
            workdir.mkdir()
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                assert main([
                    "gen-data", "--pairs", "24", "--K", "4", "--D", "16", "--N", "5",
                    "--M", "8", "--seed", "7", "--out", "d.xmal",
                ]) == 0
                assert main([
                    "train", "--data", "d.xmal", "--out", "ck.xckp", "--epochs", "2",
                    "--batch-size", "8", "--seed", "3",
                ]) == 0
                assert main([
                    "eval", "--ckpt", "ck.xckp", "--data", "d.xmal",
                    "--modes", "DP,THA+DCR", "--k", "1,5", "--out", "rep",
                    "--threads", threads,
                ]) == 0
                # 300 pairs are 5 strips, enough to fork an eval worker per CPU
                assert main([
                    "gen-data", "--pairs", "300", "--K", "4", "--D", "16", "--N", "5",
                    "--M", "8", "--seed", "8", "--out", "d300.xmal",
                ]) == 0
                assert main([
                    "eval", "--ckpt", "ck.xckp", "--data", "d300.xmal",
                    "--modes", "DP,THA,DCR,THA+DCR,THA+DP", "--out", "rep300",
                    "--threads", threads,
                ]) == 0
            finally:
                os.chdir(cwd)
            return workdir

        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        w1 = run_pipeline("a", "1")
        assert forks == []
        w2 = run_pipeline("b", "4")
        workers = min(4, len(os.sched_getaffinity(0)), 5)  # ample THA and DCR work
        assert len(forks) == workers - 1
        for name, binary in (
            ("d.xmal", True), ("d.xmal.manifest", False), ("ck.xckp", True),
            ("ck.xckp.log", False), ("rep.txt", False), ("rep.xrpt", True),
            ("d300.xmal", True), ("rep300.txt", False), ("rep300.xrpt", True),
        ):
            mode = "rb" if binary else "r"
            assert open(w1 / name, mode).read() == open(w2 / name, mode).read(), name
        print(
            "  gen-data/train reruns and eval across --threads 1 vs 4 byte-identical, "
            f"and so is a 300-pair eval on {workers} workers"
        )


def test_criterion_7_serialization_and_resume(tmp_path):
    with criterion(7, "containers round-trip bit-exactly; resume replays the log"):
        data_cfg = SynthConfig(
            pairs=16, concept_count=8, factor_count=4, embed_dim=16,
            text_tokens=5, audio_tokens=8, noise_sigma=0.1, seed=3,
        )
        ds = generate(data_cfg)
        dpath = str(tmp_path / "d.xmal")
        save_dataset(ds, dpath)
        loaded = load_dataset(dpath)
        dpath2 = str(tmp_path / "d2.xmal")
        save_dataset(loaded, dpath2)
        assert open(dpath, "rb").read() == open(dpath2, "rb").read()
        print("  dataset save -> load -> save: byte-identical")

        model = Model.build(ModelConfig(embed_dim=16, factor_count=4), 5)
        cfg = TrainConfig(
            epochs=10, batch_size=8, seed=5,
            objective=ObjectiveConfig(tau=0.07, alpha=0.01, beta=0.005, similarity_mode="THA+DCR"),
        )
        one_shot = train(
            Model.build(ModelConfig(embed_dim=16, factor_count=4), 5), ds, cfg
        )

        half_model = Model.build(ModelConfig(embed_dim=16, factor_count=4), 5)
        half_cfg = TrainConfig(
            epochs=5, batch_size=8, seed=5,
            objective=ObjectiveConfig(tau=0.07, alpha=0.01, beta=0.005, similarity_mode="THA+DCR"),
        )
        first = train(half_model, ds, half_cfg)
        cpath = str(tmp_path / "mid.xckp")
        save_checkpoint(cpath, half_model, first.optimizer, 10, "[train]\nseed=5\n")

        ckpt = load_checkpoint(cpath)
        cpath2 = str(tmp_path / "mid2.xckp")
        resumed_model = Model.from_tensors(ckpt.tensors, AttentionConfig())
        opt = make_optimizer(cfg)
        opt.load_state(
            {k: v for k, v in ckpt.tensors.items() if k.startswith("opt.")}, resumed_model.params
        )
        save_checkpoint(cpath2, resumed_model, opt, ckpt.step, ckpt.config_text)
        assert open(cpath, "rb").read() == open(cpath2, "rb").read()
        print("  checkpoint save -> load -> save: byte-identical")

        second = train(resumed_model, ds, cfg, start_step=ckpt.step, optimizer=opt)
        merged = [(r.step, r.loss_s, r.loss_d, r.loss_a, r.loss) for r in first.log + second.log]
        reference = [(r.step, r.loss_s, r.loss_d, r.loss_a, r.loss) for r in one_shot.log]
        assert merged == reference
        print("  resumed training reproduces the uninterrupted loss log exactly")

        from xmal.data import load_embeddings, save_embeddings

        encoded = resumed_model.encode_arrays(ds.items.audio[:4], ds.items.text[:4])
        epath = str(tmp_path / "e.xemb")
        save_embeddings(encoded, epath)
        epath2 = str(tmp_path / "e2.xemb")
        save_embeddings(load_embeddings(epath), epath2)
        assert open(epath, "rb").read() == open(epath2, "rb").read()
        print("  embeddings save -> load -> save: byte-identical")
