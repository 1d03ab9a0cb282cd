"""Compare the CLI output of two checkouts, call by call.

    python3 scripts/compare_outputs.py --base-root PARENT [--root DIR] [--queries N]

Writes the input files of these calls to a temporary directory:
- the first N (default 400) seed-1 and seed-2 queries of both moment
  workloads, with --method both, the first 40 of each also with --table;
- crosscheck --max-n 5 on the six seed-1 battery graphs (batteries 0 and
  1), as the benchmark runs it;
- a moment call on six and on ten points of a free and of a classical
  label for each spec of NAMED_LAWS, with --method cumulant and --method
  definition alone, and one with --method both on a point mass whose
  printed moment has more than 640 digits;
- a moment call for each path of READER_CASES, as the graph and as the
  distribution file, whose exit code and stderr give the JSON reader's
  rejection of it;
- each call of PARSER_CALLS, whose output is argparse's help, usage or
  error text, or which only the full parser reads;
then runs one child process per checkout, the base at --base-root and the
change at --root (default: the one holding this script), with string-hash
seeds 1 and 2, so an output that depends on hash order differs.  Each child
imports its checkout's epsindep and calls epsindep.cli.main in process on
each of them and on every case of tests/golden_cli.json, and prints one
line per call: the call, its exit code and the SHA-256 digests of its
stdout and stderr.  The inputs come from this repository's
bench/inputs.py, imported read-only, and tests/test_golden.py, so both
checkouts get the same calls.

Prints the first call whose exit code, stdout or stderr differs and exits
1, or prints the number of calls compared and exits 0.  Standard library
only.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
QUERIES = 400
TABLE_QUERIES = 40  # of each (workload, seed), also run with --table
SEEDS = (1, 2)
BATTERIES = (0, 1)  # of seed 1: six graphs
# every named law, with a parameter that is not 1 where it takes one, on
# tuples of each length of NAMED_POINTS: ten is the longest tuple the
# moment workloads read
NAMED_POINTS = (6, 10)
NAMED_LAWS = (
    {"named": "semicircle", "variance": "3/2"},
    {"named": "arcsine"},
    {"named": "bernoulli"},
    {"named": "point_mass", "value": "-3/7"},
)
# a point mass whose fourth moment has 801 digits over 573
LONG_POINT_MASS = {"named": "point_mass", "value": f"{10**200 + 7}/{3**300}"}
# files the JSON reader rejects, as in tests/test_cli.py's test_reader_errors:
# a BOM, a byte that is not UTF-8, a syntax error on line 3 with each line
# ending, a raw CR in a string, a repeated key, and (None) a directory and
# a path that does not exist
READER_CASES = {
    "bom": b'\xef\xbb\xbf{"a": 1}',
    "not-utf8": b'\xff{"a": 1}',
    "lf": b'{\n"a":\n x}\n',
    "crlf": b'{\r\n"a":\r\n x}\r\n',
    "cr": b'{\r"a":\r x}\r',
    "cr-in-string": b'{\n"abc\rd": 1}',
    "repeated-key": b'{"a": 1, "a": 2}',
    "directory": None,
    "missing": None,
}
# calls that print argparse's help, usage or error text, or that the fast
# path hands to the full parser: an abbreviation, "--json --table", a
# repeated option and an "=" form; "G" stands for the moment graph and
# "D" for the arcsine file.  Both children inherit one environment and a
# piped stdout, so argparse wraps its text at one width on both sides.
PARSER_CALLS = (
    ("--help",),
    ("enumerate", "--help"),
    ("moment", "--help"),
    ("crosscheck", "--help"),
    ("moment", "--graph"),
    ("bogus", "--graph", "G"),
    ("moment", "--gr", "G", "--di", "D", "--tu", "x1,x2,x1,x2"),
    ("enumerate", "--graph", "G", "--tuple", "x1,x3,x1,x3", "--json", "--table"),
    ("crosscheck", "--graph", "G", "--max-n", "2", "--instances", "2", "--seed", "1", "--seed", "2"),
    ("moment", "--graph", "G", "--dist", "D", "--tuple", "x1,x3,x1,x3", "--cap=5"),
)


def load(name, path):
    """A module of this repository loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_calls(workdir, queries):
    """The argv of every call but the golden ones, with the input files
    they read written to workdir."""
    inputs = load("bench_inputs", REPO / "bench" / "inputs.py")

    def write(name, data):
        path = workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    graph = write("graph.json", inputs.MOMENT_GRAPH)
    arcsine = write("arcsine.json", inputs.ARCSINE_DIST)
    calls = []
    for workload in (inputs.KERNEL_HEAVY, inputs.MANY_LABELS):
        for seed in SEEDS:
            for index in range(queries):
                entries, dist = inputs.moment_query(workload, seed, index)
                dist_path = arcsine if dist is None else write(f"{workload}-{seed}-{index}.json", dist)
                argv = [
                    "moment", "--graph", graph, "--dist", dist_path,
                    "--tuple", ",".join(inputs.LABELS[k] for k in entries), "--method", "both",
                ]
                calls.append(argv)
                if index < TABLE_QUERIES:
                    calls.append(argv + ["--table"])
    for battery in BATTERIES:
        for g, (spec, seed, _) in enumerate(inputs.battery_graphs(1, battery)):
            calls.append([
                "crosscheck", "--graph", write(f"battery{battery}-graph{g}.json", spec),
                "--max-n", str(inputs.BATTERY_MAX_N), "--seed", str(seed),
                "--instances", str(inputs.BATTERY_INSTANCES),
            ])
    named_graph = write("named-graph.json", {"labels": ["f", "c"], "diagonal": {"c": 1}})
    for k, spec in enumerate(NAMED_LAWS):
        dist = write(f"named-{k}.json", {"f": spec, "c": spec})
        for label in ("f", "c"):
            for points in NAMED_POINTS:
                for method in ("cumulant", "definition"):
                    calls.append([
                        "moment", "--graph", named_graph, "--dist", dist,
                        "--tuple", ",".join([label] * points), "--method", method,
                    ])
    calls.append([
        "moment", "--graph", named_graph, "--dist", write("named-long.json", {"f": LONG_POINT_MASS}),
        "--tuple", "f,f,f,f", "--method", "both",
    ])
    files = {"graph": write("reader-graph.json", {"labels": ["a"]}),
             "dist": write("reader-dist.json", {"a": {"moments": ["1"]}})}
    for case, content in READER_CASES.items():
        for which in files:
            path = workdir / f"reader-{case}-{which}"
            if case == "directory":
                path.mkdir()
            elif case != "missing":
                path.write_bytes(content)
            paths = dict(files, **{which: str(path)})
            calls.append([
                "moment", "--graph", paths["graph"], "--dist", paths["dist"], "--tuple", "a", "--method", "both",
            ])
    calls += [[{"G": graph, "D": arcsine}.get(a, a) for a in argv] for argv in PARSER_CALLS]
    return calls


def digest(text):
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def child(root, calls_path):
    """Run every call of calls_path, then every golden case, through the
    epsindep of the checkout at root, printing one result line each."""
    sys.path.insert(0, str(Path(root) / "src"))
    import epsindep
    from epsindep.cli import main

    if Path(epsindep.__file__).resolve().parent != (Path(root) / "src" / "epsindep").resolve():
        raise RuntimeError(f"imported epsindep from {epsindep.__file__}, not from {root}")

    stdout = sys.stdout  # run_cases below redirects sys.stdout

    def call(argv, label):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        print(json.dumps([label, code, digest(out.getvalue()), digest(err.getvalue())]), file=stdout)
        return code

    for argv in json.loads(Path(calls_path).read_text()):
        call(argv, argv)
    # test_golden writes each case's files, builds its argv and calls its
    # `main`, which this stands in for, labelled with the case
    golden = load("test_golden", REPO / "tests" / "test_golden.py")
    for case, _, _ in json.loads(Path(golden.FIXTURE).read_text()):
        golden.main = lambda argv: call(argv, case)
        golden.run_cases([case])


def first_difference(base_lines, change_lines):
    """None when the two children printed the same results, else a report
    of the first call whose exit code, stdout or stderr differs, or of
    the first call only one side made."""
    for k, (base, change) in enumerate(zip(base_lines, change_lines)):
        if base == change:
            continue
        (label, base_code, base_out, base_err), (change_label, change_code, change_out, change_err) = (
            json.loads(base), json.loads(change)
        )
        if label != change_label:
            return f"call {k}: the base ran {label}, the change {change_label}"
        what = [
            name
            for name, a, b in [
                (f"exit code {base_code} -> {change_code}", base_code, change_code),
                ("stdout", base_out, change_out),
                ("stderr", base_err, change_err),
            ]
            if a != b
        ]
        return f"call {k}, {' '.join(map(str, label))}: differs in {', '.join(what)}"
    if len(base_lines) != len(change_lines):
        k = min(len(base_lines), len(change_lines))
        side, lines = ("base", base_lines) if len(base_lines) > k else ("change", change_lines)
        return f"call {k}, {' '.join(map(str, json.loads(lines[k])[0]))}: run by the {side} alone"
    return None


def run_child(root, calls_path, hash_seed):
    code = (
        f"import sys; sys.path.insert(0, {str(REPO / 'scripts')!r}); "
        f"import compare_outputs; compare_outputs.child({str(root)!r}, {str(calls_path)!r})"
    )
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True, env=env)
    return proc.stdout.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-root", type=Path, required=True, help="checkout of the base, say the parent commit")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout of the change (default: this one)")
    parser.add_argument(
        "--queries", type=int, default=QUERIES, help=f"moment queries per workload and seed (default: {QUERIES})"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        calls_path = workdir / "calls.json"
        calls_path.write_text(json.dumps(write_calls(workdir, args.queries)))
        base = run_child(args.base_root.resolve(), calls_path, 1)
        change = run_child(args.root.resolve(), calls_path, 2)
    report = first_difference(base, change)
    if report is not None:
        print(report)
        return 1
    print(f"{len(base)} calls: exit code, stdout and stderr identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
