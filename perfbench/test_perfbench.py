"""Checks of the benchmark itself: its correctness gate catches a planted
wrong gradient, the traced run's accounting closes, and BENCHMARK.json
names exactly the metrics the code reports.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from xmal import autodiff as ad  # noqa: E402


def test_train_check_passes_on_the_reference_program(tmp_path):
    result = workloads.run("train-b16", seed=3, seconds=0.0, trace=False, workdir=tmp_path)
    assert result.correct
    assert result.attempted == 36 and result.failed == 0


def test_planted_wrong_gradient_fails_the_train_check(tmp_path):
    ad.GRAD_OVERRIDES["hinge"] = 1.5
    try:
        result = workloads.run("train-b16", seed=3, seconds=0.0, trace=False, workdir=tmp_path)
    finally:
        ad.GRAD_OVERRIDES.clear()
    assert not result.correct
    # Step 1 is a forward pass only; every later step sees the wrong update.
    assert result.failed == result.attempted - 1


def test_traced_run_counts_nodes_and_accounts_for_the_step(tmp_path):
    result = workloads.run("train-b16", seed=3, seconds=0.0, trace=True, workdir=tmp_path)
    assert result.correct  # includes traced losses bit-identical to untraced ones
    m = result.metrics
    assert m["autodiff.nodes"] == 990
    assert m["factors.project.calls"] == 4
    layers = sum(
        value
        for name, value in m.items()
        if name.endswith(("fwd_ms", "bwd_ms"))
        or name in ("autodiff.tape_self_ms", "trainer.optimizer_ms", "trainer.step_self_ms")
    )
    assert abs(layers + m["trace.self_ms"] - m["trace.op_ms"]) < 1e-6 * m["trace.op_ms"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for section, units in (("end_to_end", workloads.END_TO_END_UNITS),
                           ("per_layer", workloads.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
