"""Record the benchmark of a change against a base checkout, in pairs,
in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 31 --base-root BASE [--root DIR]
        [--seeds 1 2 3]

For every workload of the BENCHMARK.json at --root (default: the
checkout holding this script) and every seed (default SEEDS), runs
`python3 bench/run.py --workload W --seed S --seconds 30` of the checkout
at --base-root (the base, say the parent commit) and of the one at
--root (the change) back to back, one run at a time, the base first on
every other seed, so a drift of the host's speed falls on both sides
alike.  A baseline is a base at the same commit as the change: its pairs
show the spread of pairs that differ in nothing.  Each run's last line
of standard output is the JSON object with the keys correct, attempted,
failed and metrics.  The record keeps, per workload and side, the number
of correct runs, the failed operations, and the median and quartiles of
each end-to-end metric over the seeds, with the values behind them; and
per end-to-end metric the pairs' change/base ratios, their median, and
how many pairs the change improved, in the direction BENCHMARK.json
gives.  The file is written to this repository, whatever --root is.
Standard library only.

Each side gets its own PYTHONPYCACHEPREFIX, an empty directory outside
both checkouts, for every process of its runs and of its Tier-1 suite,
so that no side reads bytecode from its tree: stale bytecode under src/
inflated setup_s by about 10 %, and a copied checkout's stale
bench/__pycache__ was recompiled by every worker, +4.9 % with
PYTHONDONTWRITEBYTECODE set.  After the last run, each checkout runs its
Tier-1 suite once (TIER1, with src/ on PYTHONPATH), and the record's
"tier1" holds, per side, the passed and failed tests and the wall time
in seconds, read off pytest's summary line.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = [1, 2, 3, 4, 5]
SECONDS = 30  # the benchmark's run length, as in BENCHMARK.json
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")
_WALL = re.compile(r" in (\d+(?:\.\d+)?)s\b")


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


def compare(pairs, metrics):
    """Per metric, over the (base result, change result) pairs in which
    both runs printed it: each pair's change/base ratio (None where the
    base reads 0), their median and quartiles (inclusive method), and how
    many pairs improved; metrics maps a name to "lower" or "higher", the
    better direction.  The host's drift moves both runs of a pair alike,
    so it widens each side's quartiles but not the ratios'."""
    out = {}
    for name, better in metrics.items():
        values = [
            (base["metrics"][name]["value"], change["metrics"][name]["value"])
            for base, change in pairs
            if name in base["metrics"] and name in change["metrics"]
        ]
        if not values:
            continue
        ratios = [c / b if b else None for b, c in values]
        known = [r for r in ratios if r is not None]
        quartiles = spread(known) if known else dict.fromkeys(("median", "q1", "q3"))
        out[name] = {
            "better": better,
            "pairs": len(values),
            "improved": sum(c < b if better == "lower" else c > b for b, c in values),
            "median_ratio": quartiles["median"],
            "ratio_q1": quartiles["q1"],
            "ratio_q3": quartiles["q3"],
            "ratios": ratios,
        }
    return out


def parse_summary(stdout):
    """{passed, failed, wall_s} from pytest's summary line, the last line
    of stdout that gives the run's time ("2 failed, 448 passed in 60.01s");
    an error counts as failed.  None if no line gives the time."""
    for line in reversed(stdout.splitlines()):
        wall = _WALL.search(line)
        if wall:
            counts = {kind.rstrip("s"): int(n) for n, kind in _COUNT.findall(line)}
            return {
                "passed": counts.get("passed", 0),
                "failed": counts.get("failed", 0) + counts.get("error", 0),
                "wall_s": float(wall[1]),
            }
    return None


def side_env(pycache):
    """The environment of a side's processes: bytecode read and written
    under pycache only, never in a checkout."""
    return dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))


def run_tier1(root, pycache):
    env = side_env(pycache)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    return parse_summary(proc.stdout)


def run_once(root, workload, seed, pycache):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=root, env=side_env(pycache), stdout=subprocess.PIPE, text=True)
    return parse_run(proc.stdout)


def run_pairs(spec, sides, seeds, pycache):
    """Per workload of spec, the summary of each side's runs and the
    comparison of their pairs, seed by seed, the base first on every
    other seed; and whether every run printed a correct result."""
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = {}
    complete = True
    for name in [w["name"] for w in spec["workloads"]]:
        results = {side: [] for side in sides}
        pairs = []
        for i, seed in enumerate(seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            run = {}
            for side in order:
                try:
                    run[side] = run_once(sides[side], name, seed, pycache[side])
                except ValueError as exc:
                    print(f"{name} seed {seed} {side}: {exc}", file=sys.stderr)
                else:
                    results[side].append(run[side])
                    print(f"{name} seed {seed} {side}: correct {run[side]['correct']}", file=sys.stderr)
            if len(run) == 2:
                pairs.append((run["base"], run["change"]))
        summaries = {side: summarize(results[side], metrics) for side in sides}
        complete &= all(s["runs"] == len(seeds) == s["correct"] for s in summaries.values())
        workloads[name] = dict(summaries, pairs=compare(pairs, metrics))
    return workloads, complete


def commit_of(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--root", type=Path, default=REPO, help="the change's checkout (default: this one)")
    parser.add_argument(
        "--base-root",
        type=Path,
        required=True,
        help="checkout to pair with --root, seed by seed, in alternating order",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS, help="benchmark seeds, one run each")
    args = parser.parse_args(argv)
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    sides = {"base": args.base_root, "change": args.root}
    with tempfile.TemporaryDirectory() as tmp:
        pycache = {side: Path(tmp) / side for side in sides}
        workloads, complete = run_pairs(spec, sides, args.seeds, pycache)
        tier1 = {}
        for side, root in sides.items():
            tier1[side] = run_tier1(root, pycache[side])
            print(f"tier1 {side}: {tier1[side]}", file=sys.stderr)
    record = dict(
        commit=commit_of(args.root),
        base_commit=commit_of(args.base_root),
        python=platform.python_version(),
        cores=os.cpu_count(),
        seconds=SECONDS,
        seeds=args.seeds,
        workloads=workloads,
        tier1=tier1,
    )
    (REPO / f"BENCH_{args.pr}.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
