"""Run each workload several times, one seed per run, and summarize the spread.

    python3 perfbench/repeat.py --runs 10 --seconds 20
    python3 perfbench/repeat.py --runs 5 --workload decode-stream --first-seed 101

Every run is a separate ``run.py`` process, started only after the previous
one has exited. Each result line is appended to
``perfbench/results/repeat.jsonl``. For every workload and end-to-end metric
the summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the interquartile spread as a share of the median, which is the figure
the bounds in ``BENCHMARK.json`` are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOAD_NAMES  # noqa: E402

RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=os.path.dirname(HERE))
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return {"workload": workload, "seed": seed, "seconds": seconds, "exit": proc.returncode,
            "wall_s": wall_s, "result": result}


def summarize(records):
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload and r["result"]]
        if not runs:
            lines.append(f"{workload}: no result")
            continue
        failed = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        lines.append(
            f"{workload}: {len(runs)} runs, all correct: {all(r['result']['correct'] for r in runs)}, "
            f"failed/attempted: {sorted(failed)}, longest run {max(r['wall_s'] for r in runs):.1f} s"
        )
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            lines.append(f"  {metric:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: every workload")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    out_path = os.path.join(HERE, "results", "repeat.jsonl")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    records = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload or WORKLOAD_NAMES:
            record = run_once(workload, seed, args.seconds)
            records.append(record)
            with open(out_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: exit {record['exit']}, {record['wall_s']:.1f} s", file=sys.stderr)
    print(summarize(records))
    return 0 if all(r["exit"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
