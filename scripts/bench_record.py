"""Record the benchmark of one checkout in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 29 [--root DIR]

Runs `python3 bench/run.py --workload W --seed S --seconds 30` of the
checkout at --root (default: the one holding this script), for every
workload of its BENCHMARK.json and every seed of SEEDS, one run at a
time.  Each run's last line of standard output is the JSON object with
the keys correct, attempted, failed and metrics; the record keeps, per
workload, the number of correct runs, the failed operations, and the
median and quartiles of each end-to-end metric over the seeds, with the
values behind them.  The file is written to this repository, whatever
--root is.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = [1, 2, 3, 4, 5]
SECONDS = 30  # the benchmark's run length, as in BENCHMARK.json


def parse_run(stdout):
    """The result object on the last non-empty line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    result = json.loads(lines[-1])
    missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    if missing:
        raise ValueError(f"result line lacks {', '.join(sorted(missing))}")
    return result


def spread(values):
    """Median and quartiles (inclusive method) of the values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(results, metrics):
    """One workload's runs: correct runs, failed operations, and the
    spread of each named metric over the runs that printed it."""
    out = {
        "runs": len(results),
        "correct": sum(r["correct"] is True for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if values:
            out["metrics"][name] = {"unit": results[0]["metrics"][name]["unit"], **spread(values)}
    return out


def run_once(root, workload, seed):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    return parse_run(proc.stdout)


def commit_of(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout whose bench/run.py runs")
    args = parser.parse_args(argv)
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for w in spec["workloads"]:
        results = []
        for seed in SEEDS:
            try:
                results.append(run_once(args.root, w["name"], seed))
            except ValueError as exc:
                print(f"{w['name']} seed {seed}: {exc}", file=sys.stderr)
            else:
                print(f"{w['name']} seed {seed}: correct {results[-1]['correct']}", file=sys.stderr)
        workloads[w["name"]] = summarize(results, metrics)
    record = {
        "commit": commit_of(args.root),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seconds": SECONDS,
        "seeds": SEEDS,
        "workloads": workloads,
    }
    (REPO / f"BENCH_{args.pr}.json").write_text(json.dumps(record, indent=2) + "\n")
    complete = all(s["runs"] == len(SEEDS) == s["correct"] for s in workloads.values())
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
