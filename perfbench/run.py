"""Run one workload of the falconnet benchmark and print its metrics.

    python3 perfbench/run.py --workload fused-falcon-b1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is the full record (environment, model identity, per-kernel table), which
``--out`` also appends to a JSON-lines file for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# One BLAS thread: at most nproc, and on a shared 2-core machine it gave
# steadier and lower latency than two. Must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "falconnet" / "__init__.py").is_file():
        print(f"error: no falconnet sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import bench  # imports numpy, after the thread count is fixed

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload '{args.workload}', expected one of "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = bench.WORKLOADS[args.workload]
    cfg = bench.preset_config(wl.preset)
    work = root / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        weights = tmp / f"{wl.preset}.falc"
        bench.write_weights(cfg, weights)
        result, record = bench.measure(wl, cfg, weights, args.seed, args.seconds,
                                       bool(args.trace), root)
    finally:
        shutil.rmtree(tmp)
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
