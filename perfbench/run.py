"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload kv-roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, pass_s, peak_rss_mb,
out_rel_err); ``--trace 1`` prints the per-layer metrics and writes the
spans to ``perfbench/results/trace-<workload>-seed<seed>.json``.
``--smoke`` shrinks the inputs so a run takes seconds (for the tests).

The program is imported from ``src/`` of the checkout that holds this file;
without it the run exits with status 2 and prints no result. Exit status 1
means a correctness check failed (the result is still printed).
"""

import argparse
import json
import os
import sys

# Pin the BLAS pool before numpy is imported: the default follows the core
# count and varies with the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("prefill-planted-4k", "kv-roundtrip", "decode-stream", "analysis-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sinkquant", "__init__.py")):
        print(f"perfbench: no sinkquant sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import harness

    result, failures = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
