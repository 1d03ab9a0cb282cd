"""scripts/compare_outputs.py on canned child output: the diff and its
report, with no checkout or benchmark run."""

import importlib.util
import json
import subprocess
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

MOMENT = ["moment", "--graph", "g.json", "--dist", "d.json", "--tuple", "x1,x2", "--method", "both"]
CROSSCHECK = ["crosscheck", "--graph", "g.json", "--max-n", "5"]


def line(argv, code=0, out="{}\n", err=""):
    """What a child prints for one call."""
    return json.dumps([argv, code, compare_outputs.digest(out), compare_outputs.digest(err)])


def test_equal_outputs_report_nothing():
    lines = [line(MOMENT), line(CROSSCHECK, 1, '{"total_failures": 1}\n')]
    assert compare_outputs.first_difference(lines, list(lines)) is None


def test_first_differing_call_is_named_with_what_differs():
    base = [line(MOMENT), line(MOMENT + ["--table"]), line(CROSSCHECK)]
    change = [line(MOMENT), line(MOMENT + ["--table"], 2, "", "input error: x\n"), line(CROSSCHECK, 1)]
    assert compare_outputs.first_difference(base, change) == (
        "call 1, " + " ".join(MOMENT + ["--table"]) + ": differs in exit code 0 -> 2, stdout, stderr"
    )
    change = [line(MOMENT), line(MOMENT + ["--table"]), line(CROSSCHECK, out="{} \n")]
    assert compare_outputs.first_difference(base, change) == f"call 2, {' '.join(CROSSCHECK)}: differs in stdout"


def test_calls_made_by_one_side_alone():
    base = [line(MOMENT), line(CROSSCHECK)]
    assert compare_outputs.first_difference(base, base[:1]) == f"call 1, {' '.join(CROSSCHECK)}: run by the base alone"
    assert compare_outputs.first_difference(base[:1], base) == f"call 1, {' '.join(CROSSCHECK)}: run by the change alone"
    assert compare_outputs.first_difference(base, [line(CROSSCHECK), line(MOMENT)]) == (
        f"call 0: the base ran {MOMENT}, the change {CROSSCHECK}"
    )


def test_calls_cover_both_moment_workloads_and_the_battery(tmp_path):
    # two queries per (workload, seed), both also with --table, the six
    # battery graphs, each named law on a free and a classical label at
    # six and ten points by either route alone, one long point mass, and
    # each reader case as either file, each reading a path in the
    # directory, then the parser calls
    calls = compare_outputs.write_calls(tmp_path, 2)
    assert len(calls) == 2 * 2 * 2 * 2 + 6 + 4 * 2 * 2 * 2 + 1 + 9 * 2 + 10
    calls, parser_calls = calls[:-10], calls[-10:]
    # help for the program and each subcommand, an option without its
    # value, an unknown subcommand, and calls the fast path declines: an
    # abbreviation, --json with --table, a repeated option, an "=" form;
    # they read the first workload's graph and arcsine files
    graph, dist = str(tmp_path / "graph.json"), str(tmp_path / "arcsine.json")
    assert parser_calls == [
        ["--help"],
        ["enumerate", "--help"],
        ["moment", "--help"],
        ["crosscheck", "--help"],
        ["moment", "--graph"],
        ["bogus", "--graph", graph],
        ["moment", "--gr", graph, "--di", dist, "--tu", "x1,x2,x1,x2"],
        ["enumerate", "--graph", graph, "--tuple", "x1,x3,x1,x3", "--json", "--table"],
        ["crosscheck", "--graph", graph, "--max-n", "2", "--instances", "2", "--seed", "1", "--seed", "2"],
        ["moment", "--graph", graph, "--dist", dist, "--tuple", "x1,x3,x1,x3", "--cap=5"],
    ]
    assert calls[0][calls[0].index("--graph") + 1] == graph
    assert calls[0][calls[0].index("--dist") + 1] == dist
    moments = [argv for argv in calls if argv[0] == "moment"]
    assert sum("--table" in argv for argv in moments) == 8
    workloads = moments[:16]
    assert all(argv[argv.index("--method") + 1] == "both" for argv in workloads)
    assert [argv[argv.index("--max-n") + 1] for argv in calls if argv[0] == "crosscheck"] == ["5"] * 6
    named = calls[22:55]
    graph = json.loads(Path(named[0][named[0].index("--graph") + 1]).read_text())
    assert graph == {"labels": ["f", "c"], "diagonal": {"c": 1}}
    read = [
        (
            json.loads(Path(argv[argv.index("--dist") + 1]).read_text()),
            argv[argv.index("--tuple") + 1],
            argv[argv.index("--method") + 1],
        )
        for argv in named
    ]
    assert read == [
        ({"f": spec, "c": spec}, ",".join([label] * points), method)
        for spec in compare_outputs.NAMED_LAWS
        for label in ("f", "c")
        for points in (6, 10)
        for method in ("cumulant", "definition")
    ] + [({"f": compare_outputs.LONG_POINT_MASS}, "f,f,f,f", "both")]
    names = {spec["named"] for spec in compare_outputs.NAMED_LAWS}
    assert names == {"semicircle", "arcsine", "bernoulli", "point_mass"}
    value = Fraction(compare_outputs.LONG_POINT_MASS["value"]) ** 4
    assert len(str(value.numerator)) > 640
    paths = {argv[k + 1] for argv in calls for k, a in enumerate(argv) if a in ("--graph", "--dist")}
    assert all(Path(path).parent == tmp_path for path in paths)
    assert {path for path in paths if not Path(path).exists()} == {
        str(tmp_path / f"reader-missing-{which}") for which in ("graph", "dist")
    }
    # each reader case once as the graph and once as the distribution
    # file, beside the valid other file; the directory case is a directory
    # and the missing case a path that does not exist
    read = [
        (Path(argv[argv.index("--graph") + 1]).name, Path(argv[argv.index("--dist") + 1]).name)
        for argv in calls[-18:]
    ]
    assert read == [
        pair
        for case in compare_outputs.READER_CASES
        for pair in [(f"reader-{case}-graph", "reader-dist.json"), ("reader-graph.json", f"reader-{case}-dist")]
    ]
    assert all(path.is_dir() == ("directory" in path.name) for path in tmp_path.glob("reader-*"))
    assert (tmp_path / "reader-bom-dist").read_bytes() == b'\xef\xbb\xbf{"a": 1}'


def test_children_get_different_hash_seeds(tmp_path, monkeypatch, capsys):
    # an output that depends on string-hash order differs between them
    seeds = []

    def run(argv, env, **kwargs):
        seeds.append(env["PYTHONHASHSEED"])
        return subprocess.CompletedProcess(argv, 0, stdout="")

    monkeypatch.setattr(compare_outputs.subprocess, "run", run)
    assert compare_outputs.main(["--base-root", str(tmp_path), "--queries", "1"]) == 0
    assert seeds == ["1", "2"]
    assert capsys.readouterr().out == "0 calls: exit code, stdout and stderr identical\n"

