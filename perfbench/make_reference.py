"""Write the outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py                  # seeds 0..31, every workload
    python3 perfbench/make_reference.py --seeds 3 17     # add or replace some seeds

For each seed it sets a workload up as a run would and records one train
episode's per-step losses, or one eval call's R@k values, in
`perfbench/reference.json`. Run it from the root of a checkout of the
commit whose outputs define "correct" (the benchmark's baseline), never of
a change under test: a run passes only if it reproduces these outputs.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=int, nargs="*", default=list(range(workloads.REFERENCE_SEEDS))
    )
    args = parser.parse_args()
    for seed in args.seeds:
        if not (0 <= seed < workloads.REFERENCE_SEEDS):
            parser.error(f"seeds must lie in [0, {workloads.REFERENCE_SEEDS})")

    path = workloads.REFERENCE_PATH
    table = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in args.seeds:
            entry = table["seeds"].setdefault(str(seed), {})
            for name, w in workloads.WORKLOADS.items():
                entry[name] = w.reference_output(w.setup(seed, workdir))
                print(f"seed {seed}: {name}", flush=True)
            table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps(table, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
