"""One fresh benchmark worker process: set up, run its share of a
workload through `epsindep.cli.main` in a closed loop, check every output,
and print one JSON result line.  Started by run.py; the only argument is a
JSON job description.

A fresh process per worker matters: ncpartitions keeps a module-global
reduction cache, and a second battery in the same process would measure a
warm cache that no CLI user sees.

Times are reported at a reference host speed.  The worker times a fixed
calibration kernel before every op, after the last one, and every
PROBE_PERIOD_S during an op (from a SIGALRM handler, whose time is taken
out of the op).  Each op's time is scaled by CAL_REF_S over the mean of
the calibrations around and inside it.  On a shared 2-core host the speed
of plain Python code drifts by up to 1.6x within minutes; the scaling
removes most of that drift while a change to the program still moves the
numbers in full.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
CAL_REF_S = 0.0035  # calibration time that defines the reference speed
PROBE_PERIOD_S = 0.25


def calibrate():
    """Seconds taken by a fixed pure-Python kernel of Fraction arithmetic,
    tuples and dicts: the same kind of work as the program, so its time
    follows the host's speed for that work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    memo = {}
    for i in range(1, 600):
        f = Fraction(i % 7 - 3, i % 11 + 1)
        acc = acc * Fraction(1, 2) + f
        memo[(i & 31, i % 3)] = [acc, f]
    return time.perf_counter() - t0


class Tracer:
    """Spans kept in memory: one per wrapped call, with its op id, parent
    span, layer name, start and end.  Written out when the worker ends."""

    def __init__(self):
        self.names = []
        self.op_ids = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.op = -1
        self.counts = Counter()

    def wrap(self, name, fn):
        names, op_ids, parents, starts, ends, stack = (
            self.names, self.op_ids, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            op_ids.append(self.op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def self_times(self, scale):
        """Per-layer self time: each span's duration minus its children's,
        scaled by the factor of the op it belongs to."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out = Counter()
        calls = Counter()
        for sid, name in enumerate(self.names):
            out[name] += (self.ends[sid] - self.starts[sid] - child[sid]) * scale[self.op_ids[sid]]
            calls[name] += 1
        ops_s = sum(
            (self.ends[sid] - self.starts[sid]) * scale[self.op_ids[sid]]
            for sid, parent in enumerate(self.parents)
            if parent < 0
        )
        return out, calls, ops_s

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span,op,parent,name,start,end\n")
            for sid in range(len(self.names)):
                fh.write(
                    f"{sid},{self.op_ids[sid]},{self.parents[sid]},{self.names[sid]},"
                    f"{self.starts[sid]!r},{self.ends[sid]!r}\n"
                )


def install_tracing(tracer):
    """Wrap the calls into each module's public functions at the call
    sites the program uses; nothing under src/ changes."""
    from epsindep import cli, crosscheck, cumulants, epsilon, moments, ncpartitions

    sites = [
        (cli, "mixed_moment_cumulant", "moments.cumulant"),
        (crosscheck, "mixed_moment_cumulant", "moments.cumulant"),
        (cli, "mixed_moment_by_definition", "moments.definition"),
        (crosscheck, "mixed_moment_by_definition", "moments.definition"),
        (cli, "factorization_shortcut", "moments.shortcut"),
        (crosscheck, "factorization_shortcut", "moments.shortcut"),
        (cli, "moments_from_tables", "cumulants.to_moments"),
        (crosscheck, "moments_from_tables", "cumulants.to_moments"),
        (moments, "kappa_pi", "cumulants.kappa_pi"),
        (cumulants, "arcsine_table", "cumulants.arcsine_table"),
        (crosscheck, "arcsine_table", "cumulants.arcsine_table"),
        (crosscheck, "is_epsilon_noncrossing", "ncpartitions.is_nc"),
        (crosscheck, "reduction_membership", "ncpartitions.reduction"),
        (crosscheck, "generator_mixed_moment", "graphgroup.trace"),
        (ncpartitions, "partitions_of_set", "partitions.set_partitions"),
        (crosscheck, "partitions_of_set", "partitions.set_partitions"),
        (crosscheck, "membership_equivalence_check", "crosscheck.membership"),
        (crosscheck, "evaluator_equivalence_check", "crosscheck.evaluator"),
        (crosscheck, "group_model_check", "crosscheck.group_model"),
        (crosscheck, "factorization_check", "crosscheck.factorization"),
    ]
    for module, attr, name in sites:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))

    enumerate_nc = moments.enumerate_nc_epsilon

    def counted_enumerate(entries, e, cap=None):
        members = enumerate_nc(entries, e, cap=cap)
        tracer.counts["members"] += len(members)
        tracer.counts["candidates"] += inputs.candidates(tuple(entries))
        return members

    moments.enumerate_nc_epsilon = tracer.wrap("ncpartitions.enumerate", counted_enumerate)

    from_moments = cumulants.CumulantTable.from_moments
    built = set()

    def counted_from_moments(cls, kind, moments_seq, label=None):
        key = (kind, tuple(moments_seq))
        tracer.counts["table_reused"] += key in built
        built.add(key)
        return from_moments(kind, moments_seq, label=label)

    cumulants.CumulantTable.from_moments = classmethod(
        tracer.wrap("cumulants.table_build", counted_from_moments)
    )
    from_json = epsilon.EpsilonMatrix.from_json
    epsilon.EpsilonMatrix.from_json = classmethod(
        tracer.wrap("epsilon.load", lambda cls, data: from_json(data))
    )
    return tracer.wrap("cli", cli.main)


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def tuple_arg(entries):
    return ",".join(inputs.LABELS[k] for k in entries)


class Worker:
    def __init__(self, job):
        self.job = job
        self.workload = job["workload"]
        self.workdir = Path(job["workdir"])
        self.failures = []
        self.facts = Counter()  # input properties for the report
        self.tracer = Tracer() if job.get("trace") else None
        self.ops = []  # (index, wall s, cpu s, calibrations inside) per CLI call
        self.cals = []  # calibration before each op, then after the last
        self.during = []  # calibrations taken inside the current op
        self.paused = [0.0, 0.0]  # wall and CPU time of those calibrations
        self.probe = self.tracer.wrap("bench.calibration", calibrate) if self.tracer else calibrate
        signal.signal(signal.SIGALRM, self.on_alarm)

    def on_alarm(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.during.append(self.probe())
        self.paused[0] += time.perf_counter() - t0
        self.paused[1] += time.process_time() - c0

    def fail(self, index, why):
        self.failures.append((index, why))

    def setup(self):
        """Import the package from this checkout and write the input files
        shared by all ops."""
        sys.path.insert(0, str(ROOT / "src"))
        import epsindep
        from epsindep import cli

        if Path(epsindep.__file__).resolve().parent != (ROOT / "src" / "epsindep").resolve():
            raise RuntimeError(f"imported epsindep from {epsindep.__file__}, not from this checkout")
        self.main = install_tracing(self.tracer) if self.tracer else cli.main
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.workload == inputs.BATTERY:
            for b, graphs in self.job["batteries"]:
                for g, (spec, _, _) in enumerate(graphs):
                    write_json(self.workdir / f"battery{b}-graph{g}.json", spec)
        else:
            write_json(self.workdir / "graph.json", inputs.MOMENT_GRAPH)
            write_json(self.workdir / "arcsine.json", inputs.ARCSINE_DIST)
        self.ready = time.perf_counter()
        self.cals.append(calibrate())

    def call(self, index, argv):
        """One timed CLI call; returns its parsed JSON output or None."""
        out = io.StringIO()
        if self.tracer:
            self.tracer.op = index
        self.during = []
        self.paused = [0.0, 0.0]
        c0 = time.process_time()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            with contextlib.redirect_stdout(out):
                code = self.main(argv)
        except Exception as exc:  # any exception is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.ops.append((index, t1 - t0 - self.paused[0], c1 - c0 - self.paused[1], self.during))
        self.cals.append(calibrate())
        if code != 0:
            self.fail(index, f"exit {code}")
            return None
        try:
            return json.loads(out.getvalue())
        except json.JSONDecodeError as exc:
            self.fail(index, f"output is not JSON: {exc}")
            return None

    # -- moment workloads -------------------------------------------------

    def moment_op(self, index):
        entries, dist = inputs.moment_query(self.workload, self.job["seed"], index)
        if dist is None:
            dist_path = self.workdir / "arcsine.json"
        else:
            dist_path = self.workdir / "dist.json"
            write_json(dist_path, dist)
        argv = [
            "moment", "--graph", str(self.workdir / "graph.json"), "--dist", str(dist_path),
            "--tuple", tuple_arg(entries), "--method", "both",
        ]
        payload = self.call(index, argv)
        self.facts[f"labels_{len(set(entries))}"] += 1
        if payload is None:
            return
        values = payload["values"]
        if payload.get("agree") is not True or values["cumulant"] != values["definition"]:
            self.fail(index, f"evaluators disagree: {values}")
        if payload["factorization_applies"]:
            self.facts["factorization_applies"] += 1
            if payload["factorization_value"] != values["cumulant"]:
                self.fail(index, f"shortcut {payload['factorization_value']} != {values['cumulant']}")
        if self.workload == inputs.KERNEL_HEAVY:
            self.third_route.append((index, entries, values["cumulant"]))

    def check_third_route(self):
        """Kernel-heavy values against the graph-product group trace,
        computed after the timed loop."""
        from epsindep import EpsilonMatrix, generator_mixed_moment

        e = EpsilonMatrix(inputs.SIZE, inputs.cycle_pairs(), diag=[0, 0, 1, 0, 0])
        for index, entries, value in self.third_route:
            want = generator_mixed_moment(entries, e)
            if Fraction(value) != want:
                self.fail(index, f"cumulant value {value} != group trace {want}")

    def run_moments(self):
        self.third_route = []
        job = self.job
        index = job["start"]
        stop = job.get("stop")
        loop_start = time.perf_counter()
        while True:
            if stop is not None:
                if index >= stop:
                    break
            elif time.perf_counter() - loop_start >= job["slice"] and index - job["start"] >= job["min_ops"]:
                break
            self.moment_op(index)
            index += 1
        self.check_third_route()

    # -- crosscheck battery -----------------------------------------------

    def run_battery(self):
        for b, graphs in self.job["batteries"]:
            for g, (_, cc_seed, expected) in enumerate(graphs):
                index = 3 * b + g
                argv = [
                    "crosscheck", "--graph", str(self.workdir / f"battery{b}-graph{g}.json"),
                    "--max-n", str(inputs.BATTERY_MAX_N), "--seed", str(cc_seed),
                    "--instances", str(inputs.BATTERY_INSTANCES),
                ]
                report = self.call(index, argv)
                if report is None:
                    continue
                self.facts["cases"] += report["total_cases"]
                cases = {c["name"]: c["cases"] for c in report["checks"]}
                if report["total_failures"] != 0:
                    self.fail(index, f"total_failures {report['total_failures']}")
                for name, want in expected.items():
                    if cases.get(name) != want:
                        self.fail(index, f"{name} cases {cases.get(name)} != expected {want}")

    def result(self):
        """Times scaled to the reference speed; ops become (index, wall,
        cpu, unscaled wall)."""
        scale = {}
        for k, (index, _, _, during) in enumerate(self.ops):
            samples = [self.cals[k], *during, self.cals[k + 1]]
            scale[index] = CAL_REF_S * len(samples) / sum(samples)
        out = {
            "setup_s": (self.ready - self.job["spawned"]) * CAL_REF_S / self.cals[0],
            "ops": [(index, wall * scale[index], cpu * scale[index], wall) for index, wall, cpu, _ in self.ops],
            "calibration_s": sorted(self.cals)[len(self.cals) // 2],
            "failures": self.failures,
            "facts": dict(self.facts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if self.tracer:
            self_s, calls, ops_s = self.tracer.self_times(scale)
            out["layers"] = {
                "self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(self.tracer.counts), "cli_inclusive_s": ops_s,
            }
            if self.job.get("spans"):
                self.tracer.write(self.job["spans"])
        return out


def main():
    job = json.loads(sys.argv[1])
    worker = Worker(job)
    worker.setup()
    if job["mode"] == "loop":
        if worker.workload == inputs.BATTERY:
            worker.run_battery()
        else:
            worker.run_moments()
    print(json.dumps(worker.result()))


if __name__ == "__main__":
    main()
