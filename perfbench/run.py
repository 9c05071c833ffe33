"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-b16 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from `src/`. Each
invocation is one fresh process running one workload, so `peak_rss_mb`
covers that workload alone. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: the only parallelism is the
# program's own `--threads`, so the process never uses more threads than cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "xmal" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'xmal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.MissingReference as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()  # left in place while another run still uses it

    for line in result.lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
