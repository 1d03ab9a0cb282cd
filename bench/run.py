"""Benchmark of the epsindep CLI.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: moment-kernel-heavy, moment-many-labels, crosscheck-battery
(see bench/README.md).  One client drives `epsindep.cli.main` in a closed
loop inside fresh worker processes (bench/worker.py), one at a time.
Every output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer split from a
traced run and its overhead against an untraced run of the same inputs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
from worker import CAL_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170  # a run must end within 180 s
PROBES = 3  # set-up-only workers per run, so setup_s is a median
MOMENT_WORKERS = 3  # workers per moment run, each a fresh process
MIN_QUERIES = 100  # so that at least 10 samples lie beyond the p90
BATCH_QUERIES = 100  # the fixed batch of a traced run
BATTERY_SLOT_S = 15  # time budgeted per battery: one battery takes 13-20 s

# traced layer -> name of its call-count metric (None: not reported)
LAYERS = {
    "ncpartitions.enumerate": "ncpartitions.enumerate_calls",
    "cumulants.kappa_pi": "cumulants.kappa_pi_calls",
    "moments.definition": "moments.definition_calls",
    "moments.cumulant": "moments.cumulant_calls",
    "moments.shortcut": "moments.shortcut_calls",
    "cumulants.table_build": "cumulants.table_builds",
    "cumulants.to_moments": "cumulants.to_moments_calls",
    "cumulants.arcsine_table": "cumulants.arcsine_table_calls",
    "ncpartitions.reduction": "ncpartitions.reduction_calls",
    "ncpartitions.is_nc": "ncpartitions.is_nc_calls",
    "graphgroup.trace": "graphgroup.trace_calls",
    "partitions.set_partitions": "partitions.set_partitions_calls",
    "crosscheck.membership": None,
    "crosscheck.evaluator": None,
    "crosscheck.group_model": None,
    "crosscheck.factorization": None,
    "epsilon.load": None,
}


class WorkerError(Exception):
    pass


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.workdir = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.results = []

    def spawn(self, **job):
        """Run one fresh worker to completion and return its result."""
        job.update(workload=self.workload, seed=self.seed, workdir=str(self.workdir))
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise WorkerError("run exceeded its deadline")
        job["spawned"] = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise WorkerError("worker exceeded the run deadline")
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.results.append(result)
        return result

    def probes(self):
        """Set-up-only workers that prepare the same files as the first
        measured worker."""
        batteries = [self.battery_job(0)] if self.workload == inputs.BATTERY else []
        for _ in range(PROBES):
            self.spawn(mode="probe", batteries=batteries)

    def battery_job(self, battery):
        return [battery, inputs.battery_graphs(self.seed, battery)]

    def moment_loop(self):
        """MOMENT_WORKERS fresh workers, each for its share of the time,
        continuing one query stream; at least MIN_QUERIES in all."""
        start = 0
        for k in range(MOMENT_WORKERS):
            last = k == MOMENT_WORKERS - 1
            r = self.spawn(
                mode="loop", start=start, slice=self.seconds / MOMENT_WORKERS,
                min_ops=max(0, MIN_QUERIES - start) if last else 0,
            )
            start += len(r["ops"])

    def battery_loop(self):
        """One battery per BATTERY_SLOT_S of the run's time, at least one,
        each in a fresh worker.  The count follows from --seconds alone,
        so every commit checks the same graphs for a given seed."""
        for battery in range(max(1, int(self.seconds // BATTERY_SLOT_S))):
            self.spawn(mode="loop", batteries=[self.battery_job(battery)])

    def batch(self, trace, spans=None):
        """The fixed batch (first BATCH_QUERIES queries, or battery 0) in
        one fresh worker."""
        if self.workload == inputs.BATTERY:
            return self.spawn(mode="loop", batteries=[self.battery_job(0)], trace=trace, spans=spans)
        return self.spawn(mode="loop", start=0, stop=BATCH_QUERIES, trace=trace, spans=spans)

    # -- aggregation ------------------------------------------------------

    def ops(self):
        return [op for r in self.results for op in r["ops"]]

    def failed_ops(self):
        """Ops with at least one failed check; a traced run repeats the
        untraced batch's indices, so ops are counted per worker."""
        return sum(len({index for index, _ in r["failures"]}) for r in self.results)

    def facts(self):
        return sum((Counter(r["facts"]) for r in self.results), Counter())


def end_to_end(run):
    ops = run.ops()
    walls = [op[1] for op in ops]
    busy = sum(walls)
    facts = run.facts()
    cases = facts.get("cases", len(ops)) if run.workload == inputs.BATTERY else len(ops)
    metrics = {
        "query_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "query_p90_ms": (statistics.quantiles(walls, n=10)[-1] * 1e3, "ms"),
        "queries_per_s": (len(ops) / busy, "1/s"),
        "cases_per_s": (cases / busy, "1/s"),
        "cpu_s": (sum(op[2] for op in ops) / len(ops), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in run.results), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in run.results), "MB"),
    }
    calibration = statistics.median(r["calibration_s"] for r in run.results)
    if run.workload == inputs.BATTERY:
        extra = [f"battery_s {busy / (len(ops) / 3):.6g} s (one battery, mean); calls: "
                 + ", ".join(f"{op[1]:.3f}" for op in ops)]
    else:
        extra = []
    notes = [
        f"queries {len(ops)}, of which {sum(w > metrics['query_p90_ms'][0] / 1e3 for w in walls)} beyond the p90",
        f"workers {len(run.results) - PROBES} plus {PROBES} set-up probes",
        f"calibration kernel {calibration * 1e3:.3f} ms (reference {CAL_REF_S * 1e3:g} ms); "
        f"unscaled query p50 {statistics.median(op[3] for op in ops) * 1e3:.6g} ms",
    ] + extra
    return metrics, notes


def per_layer(run, untraced, traced):
    layers = traced["layers"]
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    metrics = {}
    for name, calls_name in LAYERS.items():
        metrics[f"{name}_s"] = (self_s.get(name, 0.0), "s")
        if calls_name:
            metrics[calls_name] = (calls.get(name, 0), "count")
    metrics["ncpartitions.members"] = (counts.get("members", 0), "count")
    metrics["ncpartitions.members_per_candidate"] = (
        counts.get("members", 0) / counts["candidates"] if counts.get("candidates") else 0.0, "ratio"
    )
    builds = calls.get("cumulants.table_build", 0)
    metrics["cumulants.table_reuse_share"] = (counts.get("table_reused", 0) / builds if builds else 0.0, "ratio")
    metrics["crosscheck.cases"] = (traced["facts"].get("cases", 0), "count")
    ops = len(traced["ops"])
    metrics["input.factorization_share"] = (traced["facts"].get("factorization_applies", 0) / ops, "ratio")
    metrics["cli.self_s"] = (self_s.get("cli", 0.0), "s")
    # the calibrations taken inside ops are child spans; they are not op time
    op_time = layers["cli_inclusive_s"] - self_s.pop("bench.calibration", 0.0)
    metrics["trace.coverage_share"] = (1 - self_s.get("cli", 0.0) / op_time, "ratio")
    untraced_s = sum(op[1] for op in untraced["ops"])
    traced_s = sum(op[1] for op in traced["ops"])
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    notes = [f"traced ops {ops}; layer shares of traced op time: " + ", ".join(
        f"{name} {self_s[name] / op_time:.1%}"
        for name in sorted(self_s, key=self_s.get, reverse=True)
        if self_s[name] / op_time >= 0.005
    )]
    if run.workload != inputs.BATTERY:
        verdict = "PASS" if metrics["trace.coverage_share"][0] >= 0.9 else "FAIL"
        notes.append(f"coverage check (named layers >= 90% of op time): {verdict}")
    return metrics, notes


def input_notes(run):
    facts = run.facts()
    ops = len(run.ops())
    if run.workload == inputs.BATTERY:
        return [f"checked cases {facts.get('cases', 0)} over {ops} crosscheck calls"]
    labels = ", ".join(
        f"{k} labels {facts[f'labels_{k}'] / ops:.1%}" for k in range(1, inputs.SIZE + 1) if f"labels_{k}" in facts
    )
    return [
        f"distinct labels per query: {labels}",
        f"factorization_applies share {facts.get('factorization_applies', 0) / ops:.1%}",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "epsindep" / "__init__.py").is_file():
        print(f"no epsindep package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.probes()
        if args.trace:
            untraced = run.batch(trace=False)
            spans_dir = ROOT / ".bench_out"
            spans_dir.mkdir(exist_ok=True)
            spans = spans_dir / f"spans-{args.workload}-seed{args.seed}.csv"
            traced = run.batch(trace=True, spans=str(spans))
            metrics, notes = per_layer(run, untraced, traced)
            notes.append(f"spans written to {spans.relative_to(ROOT)}")
        else:
            if args.workload == inputs.BATTERY:
                run.battery_loop()
            else:
                run.moment_loop()
            metrics, notes = end_to_end(run)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    attempted = len(run.ops())
    failed = run.failed_ops()
    for r in run.results:
        for index, why in r["failures"][:5]:
            print(f"FAILED op {index}: {why}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + input_notes(run):
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ratio")
    correct = attempted > 0 and not failed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
