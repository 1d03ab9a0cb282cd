import argparse
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import epsindep
from epsindep import EpsilonMatrix, cli, crosscheck
from epsindep.cli import main
from epsindep.ncpartitions import encode
from oracles import enumerate_set_partitions, kernel, refines

FIVE_CYCLE = {
    "labels": ["x1", "x2", "x3", "x4", "x5"],
    "independent_pairs": [
        ["x1", "x3"],
        ["x1", "x4"],
        ["x2", "x4"],
        ["x2", "x5"],
        ["x3", "x5"],
    ],
}

NINES = "9" * 5000

SEMICIRCLES = [
    {"label": name, "named": "semicircle", "variance": "1"}
    for name in FIVE_CYCLE["labels"]
]


def canonical_keys(e, max_n):
    """Every instance of the battery up to relabeling, by brute force over
    all tuples up to max_n: the tuple relabeled by first occurrence, the
    eps entries between its labels in that order, and their diagonal."""
    keys = set()
    for n in range(1, max_n + 1):
        for entries in product(range(e.size), repeat=n):
            order = list(dict.fromkeys(entries))
            keys.add((
                tuple(order.index(a) for a in entries),
                tuple(e.eps(a, b) for a, b in combinations(order, 2)),
                tuple(e.diagonal(a) for a in order),
            ))
    return keys


@pytest.fixture
def five_cycle(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(FIVE_CYCLE))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(SEMICIRCLES))
    return str(graph), str(dist)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def fresh_env(**variables):
    """The environment of a fresh interpreter that imports this package,
    with the variables given set."""
    src = str(Path(epsindep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def run_fresh(argv, **variables):
    """The CLI in a fresh interpreter, with the environment variables
    given set: its whole stdout and stderr, tracebacks included."""
    argv = [sys.executable, "-m", "epsindep.cli"] + argv
    return subprocess.run(argv, env=fresh_env(**variables), capture_output=True, text=True, timeout=60)


class TestEnumerate:
    def test_cycle_edge_pair(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, out = run(capsys, ["enumerate", "--graph", graph, "--tuple", "x1,x2,x1,x2"])
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        assert data["kernel_member"] is False

    def test_off_cycle_pair(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, out = run(capsys, ["enumerate", "--graph", graph, "--tuple", "x1,x3,x1,x3"])
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 4
        assert [[1, 3], [2, 4]] in data["partitions"]
        assert data["kernel_member"] is True

    def test_constant_tuple(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, out = run(capsys, ["enumerate", "--graph", graph, "--tuple", "x1,x1,x1,x1"])
        assert code == 0
        assert json.loads(out)["count"] == 14

    def test_deterministic_output(self, five_cycle, capsys):
        graph, _ = five_cycle
        argv = ["enumerate", "--graph", graph, "--tuple", "x1,x3,x1,x3"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("tuple_arg", ["a,b,a", "a,a,a,a"])
    def test_table_reads_back_as_partitions(self, tmp_path, capsys, tuple_arg):
        # --table puts a "-" line before each partition and each block,
        # so the partitions read back as the JSON lists them
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a", "b"]}))
        argv = ["enumerate", "--graph", str(graph), "--tuple", tuple_arg]
        _, out = run(capsys, argv)
        _, table = run(capsys, argv + ["--table"])
        lines = table.splitlines()
        parts = []
        for line in lines[lines.index("partitions:") + 1 :]:
            if line == "  -":
                parts.append([])
            elif line == "    -":
                parts[-1].append([])
            elif line.startswith("      "):
                parts[-1][-1].append(int(line))
            else:
                break
        assert parts == json.loads(out)["partitions"]

    def test_closed_stdout(self, tmp_path):
        # a reader gone after one byte of about 930 KB: exit 2 and one
        # line on stderr, no traceback
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"]}))
        argv = [sys.executable, "-m", "epsindep.cli", "enumerate", "--graph", str(graph)]
        argv += ["--tuple", ",".join("a" * 9)]
        proc = subprocess.Popen(
            argv, env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        assert proc.stdout.read(1) == "{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == "error: standard output closed\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
    def test_long_output_in_bounded_memory(self, tmp_path):
        # Bell(10) = 115,975 partitions, about 12 MB of JSON: the output is
        # written as it is encoded, never held whole or copied
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"], "diagonal": {"a": 1}}))
        argv = ["enumerate", "--graph", str(graph), "--tuple", ",".join("a" * 10)]
        code = (
            "import resource, sys; from epsindep.cli import main; "
            f"code = main({argv!r}); "
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=fresh_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        status, peak_kb = map(int, proc.stderr.split())
        assert status == 0
        assert peak_kb < 120 * 1024

    def test_cap_exceeded(self, five_cycle, capsys):
        graph, _ = five_cycle
        code = main(["enumerate", "--graph", graph, "--cap", "3", "--tuple", "x1,x2,x1,x2"])
        assert code == 2
        assert capsys.readouterr().err == "error: n=4 exceeds enumeration cap 3\n"

    def test_flags_follow_the_off_diagonal(self, tmp_path, capsys):
        # every graph on 1-3 labels with every diagonal: all_free iff no
        # pair is independent, all_independent iff every pair is
        graph = tmp_path / "graph.json"
        for labels in (["a"], ["a", "b"], ["a", "b", "c"]):
            pairs = list(combinations(labels, 2))
            for mask in range(1 << len(pairs)):
                chosen = [list(p) for k, p in enumerate(pairs) if mask >> k & 1]
                for diag in product((0, 1), repeat=len(labels)):
                    spec = {"labels": labels, "independent_pairs": chosen}
                    spec["diagonal"] = dict(zip(labels, diag))
                    graph.write_text(json.dumps(spec))
                    code, out = run(capsys, ["enumerate", "--graph", str(graph), "--tuple", "a"])
                    assert code == 0
                    flags = json.loads(out)["flags"]
                    assert flags["all_free"] == (not chosen)
                    assert flags["all_independent"] == (len(chosen) == len(pairs))


class TestMoment:
    def test_free_pair_vanishes(self, five_cycle, capsys):
        graph, dist = five_cycle
        code, out = run(
            capsys,
            ["moment", "--graph", graph, "--tuple", "x1,x2,x1,x2", "--dist", dist],
        )
        assert code == 0
        data = json.loads(out)
        assert data["values"] == {"cumulant": "0/1", "definition": "0/1"}
        assert data["agree"] is True

    def test_independent_pair(self, five_cycle, capsys):
        graph, dist = five_cycle
        code, out = run(
            capsys,
            ["moment", "--graph", graph, "--tuple", "x1,x3,x1,x3", "--dist", dist],
        )
        assert code == 0
        data = json.loads(out)
        assert data["values"]["cumulant"] == "1/1"
        assert data["factorization_applies"] is True
        assert data["factorization_value"] == "1/1"

    def test_single_method(self, five_cycle, capsys):
        graph, dist = five_cycle
        code, out = run(
            capsys,
            [
                "moment",
                "--graph",
                graph,
                "--tuple",
                "x1,x1",
                "--dist",
                dist,
                "--method",
                "cumulant",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["values"] == {"cumulant": "1/1"}
        assert "agree" not in data

    def test_cap_exceeded(self, five_cycle, capsys):
        graph, dist = five_cycle
        tuple_arg = "x1,x2,x1,x2,x1,x2,x1,x2"
        argv = ["moment", "--graph", graph, "--dist", dist, "--tuple", tuple_arg]
        for method in ("cumulant", "both"):
            code = main(argv + ["--cap", "3", "--method", method])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == "error: n=8 exceeds enumeration cap 3\n"

    def test_cap_checked_before_tables(self, five_cycle, tmp_path, capsys):
        # the length is checked before the distribution file is read, so
        # an over-cap tuple never pays for its tables
        graph, _ = five_cycle
        dist = str(tmp_path / "missing.json")
        argv = ["moment", "--graph", graph, "--dist", dist, "--tuple", ",".join(["x1"] * 13)]
        code = main(argv + ["--cap", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: n=13 exceeds enumeration cap 12\n"

    def test_length_11_both_methods(self, five_cycle, capsys):
        # x1 and x3 commute, so the definition route sees two factors
        graph, dist = five_cycle
        tuple_arg = ",".join(["x1", "x3"] * 5 + ["x1"])
        code, out = run(capsys, ["moment", "--graph", graph, "--dist", dist, "--tuple", tuple_arg])
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True
        assert data["values"]["cumulant"] == "0/1"

    def test_one_cap_for_every_method(self, five_cycle, capsys):
        graph, dist = five_cycle
        tuple_arg = ",".join(["x1", "x3"] * 5 + ["x1"])
        argv = ["moment", "--graph", graph, "--dist", dist, "--tuple", tuple_arg, "--cap", "10"]
        for method in ("cumulant", "definition", "both"):
            code, out = run(capsys, argv + ["--method", method])
            assert code == 2
            assert out == ""

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "free", "moments": ["0", "zz"]},
            {"kind": "free", "moments": []},
            {"kind": "nope", "moments": ["0", "1"]},
            {"named": "unknown"},
            ["0", "1"],
            {"kind": "free", "moments": ["0", float("inf")]},
            {"named": "point_mass", "value": "x"},
            {"named": "semicircle", "variance": "1/0"},
        ],
    )
    def test_bad_spec_for_unused_label(self, five_cycle, tmp_path, capsys, spec):
        graph, _ = five_cycle
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"x1": {"named": "semicircle"}, "x5": spec}))
        code, out = run(
            capsys, ["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x1"]
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("label", ["x1", "x5"])
    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"named": "semicircle", "varience": "2"}, "varience"),
            ({"named": "point_mass", "valu": "2"}, "valu"),
            ({"moments": ["0", "1", "0", "2"], "kinds": "classical"}, "kinds"),
            ({"named": "arcsine", "variance": "2"}, "variance"),
            ({"named": "semicircle", "value": "2"}, "value"),
            ({"moments": ["0", "1", "0", "2"], "variance": "2"}, "variance"),
        ],
    )
    def test_unknown_spec_key(self, five_cycle, tmp_path, capsys, label, spec, key):
        # a misspelt parameter is an input error, not its default in
        # disguise, whether the tuple uses the label or not
        graph, _ = five_cycle
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"x1": {"named": "semicircle"}, label: spec}))
        code = main(["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"input error: unknown key {key!r} in distribution spec")

    def test_moments_and_named_together(self, five_cycle, tmp_path, capsys):
        graph, _ = five_cycle
        dist = tmp_path / "dist.json"
        spec = {"named": "semicircle", "moments": ["0", "2"]}
        dist.write_text(json.dumps({"x1": spec}))
        code = main(["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "both 'moments' and 'named'" in captured.err

    @pytest.mark.parametrize(
        "specs, written",
        [
            ({"a": {"named": "bogus"}}, {"named": "bogus"}),
            ([{"label": "a", "moments": []}], {"label": "a", "moments": []}),
        ],
        ids=["object", "array"],
    )
    def test_errors_quote_the_spec_as_written(self, tmp_path, capsys, specs, written):
        # the spec the file holds, with no kind or label filled in
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"]}))
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(specs))
        code = main(["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", "a"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert repr(written) in captured.err
        assert "'kind'" not in captured.err

    def test_long_unknown_key_is_excerpted(self, five_cycle, tmp_path, capsys):
        graph, _ = five_cycle
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"x1": {"named": "arcsine", "k" * 5000: "1"}}))
        code = main(["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "(5000 characters)" in err and len(err) < 200

    @pytest.mark.parametrize("method", ["cumulant", "definition", "both"])
    @pytest.mark.parametrize("tuple_arg", ["x1,x2,x1,x2", "x1,x1,x2,x2"])
    def test_kind_contradicting_diagonal(self, tmp_path, capsys, method, tuple_arg):
        # the diagonal decides the kind, whatever the method or the tuple
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["x1", "x2"]}))
        dist = tmp_path / "dist.json"
        spec = {
            "x1": {"kind": "classical", "moments": ["0", "1", "0", "2", "0", "5"]},
            "x2": {"named": "arcsine"},
        }
        dist.write_text(json.dumps(spec))
        argv = ["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg]
        code = main(argv + ["--method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")

    def test_tables_only_for_used_labels(self, five_cycle, tmp_path, capsys):
        # a short moment list on an unused label does not limit the order
        graph, _ = five_cycle
        dist = tmp_path / "dist.json"
        spec = {"x1": {"named": "semicircle"}, "x2": {"kind": "free", "moments": ["0"]}}
        dist.write_text(json.dumps(spec))
        code, out = run(
            capsys, ["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x1,x1,x1"]
        )
        assert code == 0
        assert json.loads(out)["values"] == {"cumulant": "2/1", "definition": "2/1"}

    def test_duplicate_label(self, five_cycle, tmp_path, capsys):
        # an array-form file with two specs for one label is ambiguous
        graph, _ = five_cycle
        dist = tmp_path / "dist.json"
        specs = [{"label": "x1", "moments": ["1", "2"]}, {"label": "x1", "moments": ["5", "7"]}]
        dist.write_text(json.dumps(specs))
        code = main(["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "'x1'" in captured.err

    def test_label_differs_from_key(self, tmp_path, capsys):
        # in an object-form file the key is the label: a spec naming
        # another one is rejected, not silently moved to its key
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a", "b"]}))
        dist = tmp_path / "dist.json"
        specs = {
            "a": {"label": "b", "named": "point_mass", "value": "3"},
            "b": {"named": "arcsine"},
        }
        dist.write_text(json.dumps(specs))
        code = main(["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", "a,a"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        assert "'a'" in captured.err and "'b'" in captured.err

    @pytest.mark.parametrize(
        "spec, tuple_arg, label",
        [({"a": {"named": "arcsine"}}, "a,b", "b"), ({"a": {"moments": ["1", "2"]}}, "a,a,a", "a")],
        ids=["no-spec", "short-spec"],
    )
    def test_missing_moments_name_the_label(self, tmp_path, capsys, spec, tuple_arg, label):
        # the label as the user wrote it, not its index in the graph
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a", "b"]}))
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(spec))
        code = main(["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"input error: label {label!r} has multiplicity")

    def test_moments_to_each_labels_multiplicity(self, five_cycle, tmp_path, capsys):
        # x1,x2,x1,x2,x3 reads x1 and x2 to order 2 and x3 to order 1, so
        # specs that long print what specs to the tuple's length print
        graph, _ = five_cycle
        moments = {
            "x1": ["1/2", "3", "-1/3", "2", "5"],
            "x2": ["2", "1/5", "7", "0", "1"],
            "x3": ["-1", "4", "1/7", "3", "2"],
        }
        outs = []
        for orders in ({"x1": 2, "x2": 2, "x3": 1}, {"x1": 5, "x2": 5, "x3": 5}):
            dist = tmp_path / "dist.json"
            spec = {name: {"moments": seq[: orders[name]]} for name, seq in moments.items()}
            dist.write_text(json.dumps(spec))
            argv = ["moment", "--graph", graph, "--dist", str(dist), "--tuple", "x1,x2,x1,x2,x3"]
            code, out = run(capsys, argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["agree"] is True

    @staticmethod
    def moment_of_aba(tmp_path, capsys, moments):
        """`moment --tuple a,b,a` with the given moment list for a, so
        that a's first two moments are read and the rest only validated."""
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a", "b"]}))
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"a": {"moments": moments}, "b": {"moments": ["1"]}}))
        code = main(["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", "a,b,a"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "bad", ["1/0", "x", NINES, "1e99999", True], ids=["1/0", "x", "5000-digits", "1e99999", "true"]
    )
    def test_bad_moment_beyond_multiplicity(self, tmp_path, capsys, bad):
        # an unread moment is validated as a read one is, with one message
        results = []
        for pos in (1, 3):
            moments = ["1/3", "2", "-1", "5"]
            moments[pos] = bad
            results.append(self.moment_of_aba(tmp_path, capsys, moments))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 2 and out == ""
        assert err.startswith("input error: bad rational ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["١/٢", " 1/2 ", "1_0", "+3", "0.5", "1e2"])
    def test_unread_moment_in_any_valid_form(self, tmp_path, capsys, value):
        # a numeral Fraction reads but the plain-numeral rule does not is
        # accepted unread, and does not change the value.  Fraction reads
        # "1_0" only from Python 3.11 on; before, it is a bad rational
        # unread as it is at a read position
        valid = value != "1_0" or sys.version_info >= (3, 11)
        read = self.moment_of_aba(tmp_path, capsys, ["1/3", value, "1"])
        assert read[0] == (0 if valid else 2)
        plain = self.moment_of_aba(tmp_path, capsys, ["1/3", "2", "1"])
        assert plain[0] == 0
        unread = self.moment_of_aba(tmp_path, capsys, ["1/3", "2", value])
        assert unread == (plain if valid else read)

    def test_read_moment_error_reported_first(self, tmp_path, capsys):
        code, out, err = self.moment_of_aba(tmp_path, capsys, ["1/3", "x", "2", "1/0"])
        assert code == 2 and out == ""
        assert err.startswith("input error: bad rational 'x': ") and err.count("\n") == 1

    def test_missing_distribution(self, five_cycle, tmp_path, capsys):
        graph, _ = five_cycle
        dist = tmp_path / "short.json"
        dist.write_text(json.dumps(SEMICIRCLES[:1]))
        code, _ = run(
            capsys,
            ["moment", "--graph", graph, "--tuple", "x1,x2,x1,x2", "--dist", str(dist)],
        )
        assert code == 2


class TestCrosscheck:
    def test_five_cycle_passes(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, out = run(
            capsys,
            ["crosscheck", "--graph", graph, "--max-n", "4", "--instances", "25"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["total_failures"] == 0
        assert data["total_cases"] > 0

    def test_corrupt_self_test(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, out = run(
            capsys,
            [
                "crosscheck",
                "--graph",
                graph,
                "--max-n",
                "3",
                "--instances",
                "25",
                "--self-test-corrupt",
            ],
        )
        # the harness must detect the corruption and exit non-zero
        assert code == 1
        assert json.loads(out)["total_failures"] > 0

    def test_membership_failure_example(self, monkeypatch):
        # flip the pairwise verdict on one partition: {1},{3} of label 0
        # and {2} of label 1 in the tuple (0, 1, 0), listed in that order
        # by the check and reported in canonical form; no block of it
        # crosses another, so its crossings claim labels 0 and 1 cross
        geometry = crosscheck.crossings

        def flipped(blocks):
            crossed = geometry(blocks)
            if blocks == [(1, 0), (4, 0), (2, 1)]:
                assert crossed == ()
                return ((0, 1 << 1), (1, 1 << 0))
            return crossed

        monkeypatch.setattr(crosscheck, "crossings", flipped)
        report, ok = crosscheck.run_crosscheck(EpsilonMatrix(2), max_n=4, instances=0)
        assert not ok
        membership = report["checks"][0]
        assert membership["name"] == "membership_equivalence"
        assert membership["failures"] == 1
        assert membership["examples"] == [
            {"tuple": [0, 1, 0], "partition": [[1], [2], [3]], "fast": False, "slow": True}
        ]
        assert report["total_failures"] == 1

    @pytest.mark.parametrize(
        "route, check, keys",
        [
            ("generator_mixed_moment", "group_model", {"tuple", "group", "cumulant"}),
            ("factorization_shortcut", "factorization", {"tuple", "shortcut", "full"}),
        ],
    )
    def test_value_check_failure_example(self, five_cycle, capsys, monkeypatch, route, check, keys):
        # one route of a value check returns its value plus 1: the check
        # fails, exit 1, and its examples print both values as "p/q"
        exact = getattr(crosscheck, route)

        def raised(*args):
            value = exact(*args)
            return None if value is None else value + 1

        monkeypatch.setattr(crosscheck, route, raised)
        graph, _ = five_cycle
        argv = ["crosscheck", "--graph", graph, "--max-n", "4", "--instances", "5"]
        code, out = run(capsys, argv)
        assert code == 1
        report = {c["name"]: c for c in json.loads(out)["checks"]}
        assert report[check]["failures"] > 0
        examples = report[check]["examples"]
        assert examples and all(set(ex) == keys for ex in examples)
        values = [v for ex in examples for k, v in ex.items() if k != "tuple"]
        assert all(re.fullmatch(r"-?\d+/\d+", v) for v in values)

    @pytest.mark.parametrize(
        "limits",
        [
            ["--cap", "3", "--max-n", "5"],
            ["--max-n", "0"],
            ["--max-n", "-1"],
            ["--cap", "-2"],
            ["--max-n", "2", "--instances", "-5"],
        ],
    )
    def test_max_n_outside_cap(self, five_cycle, capsys, limits):
        graph, _ = five_cycle
        code = main(["crosscheck", "--graph", graph] + limits)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")

    def test_graph_without_labels(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": []}))
        code = main(["crosscheck", "--graph", str(graph), "--max-n", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_cap_reaches_every_evaluator(self, tmp_path, capsys):
        # --max-n above the default cap of 12 runs once --cap allows it
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"]}))
        argv = ["crosscheck", "--graph", str(graph), "--cap", "13", "--max-n", "13"]
        code, out = run(capsys, argv + ["--instances", "0"])
        assert code == 0
        assert json.loads(out)["total_failures"] == 0

    def test_length_bounds_per_check(self, tmp_path, capsys):
        # membership and factorization stop at length 6, the group model
        # runs to --max-n
        graph = tmp_path / "graph.json"
        spec = {"labels": ["a", "b", "c"], "independent_pairs": [["a", "c"]], "diagonal": {"b": 1}}
        graph.write_text(json.dumps(spec))
        argv = ["crosscheck", "--graph", str(graph), "--max-n", "7", "--instances", "20"]
        code, out = run(capsys, argv)
        assert code == 0
        cases = {c["name"]: c["cases"] for c in json.loads(out)["checks"]}
        assert cases == {
            "membership_equivalence": 7438,
            "evaluator_equivalence": 20,
            "group_model": 1643,
            "factorization": 411,
        }

    def test_every_instance_meets_the_shared_trace(self, monkeypatch):
        # the trace is shared by the instances that differ only on the
        # diagonal, yet each compares its own cumulant value: raising the
        # value wherever a classical label occurs fails exactly those
        e = EpsilonMatrix(3, [(0, 2)], diag=[0, 1, 0])
        exact = crosscheck.mixed_moment_cumulant

        def raised(entries, ce, tables):
            value = exact(entries, ce, tables)
            return value + 1 if any(ce.diagonal(a) for a in set(entries)) else value

        monkeypatch.setattr(crosscheck, "mixed_moment_cumulant", raised)
        report, ok = crosscheck.run_crosscheck(e, max_n=5, instances=0)
        keys = canonical_keys(e, 5)
        group = {c["name"]: c for c in report["checks"]}["group_model"]
        assert not ok
        assert group["cases"] == len(keys)
        assert group["failures"] == sum(1 in diag for _, _, diag in keys)

    def test_one_partition_list_per_tuple_and_one_trace_per_pattern(self, monkeypatch):
        # per run: each tuple up to length 6 lists its partitions below
        # the kernel once, and each (tuple, commutation pattern) is traced
        # once, however many diagonals the pattern comes with
        listed, traced = [], []
        listing, trace = crosscheck.mask_partitions_below_kernel, crosscheck.generator_mixed_moment

        def spy_listing(points, tables):
            listed.append(tuple(sorted(points.items())))
            return listing(points, tables)

        def spy_trace(entries, ce):
            traced.append((entries, tuple(ce.eps(a, b) for a, b in combinations(range(ce.size), 2))))
            return trace(entries, ce)

        monkeypatch.setattr(crosscheck, "mask_partitions_below_kernel", spy_listing)
        monkeypatch.setattr(crosscheck, "generator_mixed_moment", spy_trace)
        e = EpsilonMatrix(3, [(0, 2)], diag=[0, 1, 0])
        _, ok = crosscheck.run_crosscheck(e, max_n=7, instances=0)
        keys = canonical_keys(e, 7)
        assert ok
        assert sorted(traced) == sorted({(t, offdiag) for t, offdiag, _ in keys})
        short = {t for t, _, _ in keys if len(t) <= 6}
        assert sorted(listed) == sorted(tuple(sorted(encode(t).items())) for t in short)

    def test_crossings_once_per_tuple_and_partition(self, monkeypatch):
        # per run: each partition below the kernel of each tuple up to
        # length 6 has its crossings computed once, however many matrices
        # the tuple comes with; a partition's blocks name its tuple
        seen = []
        geometry = crosscheck.crossings

        def spy(blocks):
            seen.append(frozenset(blocks))
            return geometry(blocks)

        monkeypatch.setattr(crosscheck, "crossings", spy)
        e = EpsilonMatrix(3, [(0, 2)], diag=[0, 1, 0])
        _, ok = crosscheck.run_crosscheck(e, max_n=7, instances=0)
        assert ok
        want = [
            frozenset((sum(1 << (x - 1) for x in b), t[b[0] - 1]) for b in p)
            for t in {t for t, _, _ in canonical_keys(e, 7) if len(t) <= 6}
            for p in enumerate_set_partitions(len(t))
            if refines(p, kernel(t))
        ]
        assert sorted(seen, key=sorted) == sorted(want, key=sorted)


def bench_inputs():
    """bench/inputs.py, the benchmark's seeded inputs, loaded read-only."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_inputs", root / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_battery_case_counts_match_the_benchmark_gate():
    # bench/inputs.py counts the canonical instances without importing
    # epsindep; the battery's seed-1 graphs must meet those counts here,
    # before the benchmark's gate sees them
    inputs = bench_inputs()
    for graph, seed, expected in inputs.battery_graphs(1, 0):
        e = EpsilonMatrix.from_json(graph)
        report, ok = crosscheck.run_crosscheck(
            e, inputs.BATTERY_MAX_N, seed=seed, instances=inputs.BATTERY_INSTANCES
        )
        cases = {c["name"]: c["cases"] for c in report["checks"]}
        assert ok
        assert {name: cases[name] for name in expected} == expected


def test_bench_tracer_finds_every_call_site():
    # bench/worker.py wraps module attributes by name; a renamed or
    # removed one raises AttributeError here
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; sys.path[:0] = ['bench', 'src']; import worker; "
        "worker.install_tracing(worker.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names():
    # the package exports the three routes, what the CLI and the battery
    # read, and the errors; helpers only the tests call are in oracles.py
    assert sorted(epsindep.__all__) == [
        "CLASSICAL",
        "CumulantTable",
        "DomainError",
        "EnumerationLimitError",
        "EpsIndepError",
        "EpsilonMatrix",
        "FREE",
        "InputError",
        "TableError",
        "arcsine_moments",
        "arcsine_table",
        "cumulants",
        "enumerate_nc_epsilon",
        "epsilon",
        "errors",
        "factorization_shortcut",
        "format_fraction",
        "generator_mixed_moment",
        "graphgroup",
        "is_admissible_tuple",
        "is_epsilon_noncrossing",
        "kappa_pi",
        "mixed_moment_by_definition",
        "mixed_moment_cumulant",
        "moments",
        "ncpartitions",
        "partitions",
        "reduce_word",
        "reduction_membership",
    ]


class TestInputHandling:
    def test_bad_json(self, tmp_path, capsys):
        graph = tmp_path / "bad.json"
        graph.write_text("{not json")
        code, _ = run(capsys, ["enumerate", "--graph", str(graph), "--tuple", "a"])
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("independent_pairs", [5]),
            ("diagonal", [0, 1]),
            # a misspelled key, which would otherwise be ignored
            ("independant_pairs", [["x1", "x3"]]),
        ],
    )
    def test_malformed_graph(self, tmp_path, capsys, field, value):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(dict(FIVE_CYCLE, **{field: value})))
        code = main(["enumerate", "--graph", str(graph), "--tuple", "x1,x2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("input error:")

    @pytest.mark.parametrize("which", ["graph", "dist"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b'\xef\xbb\xbf{"a": 1}', "{path}: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            (b'\xff{"a": 1}', "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            # one syntax error on line 3, whichever line ending the file uses
            (b'{\n"a":\n x}\n', "{path}: line 3, column 2: Expecting value"),
            (b'{\r\n"a":\r\n x}\r\n', "{path}: line 3, column 2: Expecting value"),
            (b'{\r"a":\r x}\r', "{path}: line 3, column 2: Expecting value"),
            (b'{\n"abc\rd": 1}', "{path}: line 2, column 5: Invalid control character at"),
            (b'{"a": 1, "a": 2}', "repeated key 'a' in a JSON object"),
            (None, "cannot read {path}: [Errno 21] Is a directory: '{path}'"),
        ],
        ids=["bom", "not-utf8", "lf", "crlf", "cr", "cr-in-string", "repeated-key", "directory"],
    )
    def test_reader_errors(self, tmp_path, capsys, which, content, message):
        # the exact message of each way the JSON reader rejects a file
        files = {"graph": tmp_path / "graph.json", "dist": tmp_path / "dist.json"}
        files["graph"].write_text('{"labels": ["a"]}')
        files["dist"].write_text('{"a": {"moments": ["1"]}}')
        path = files[which] = tmp_path / which
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = ["moment", "--graph", str(files["graph"]), "--dist", str(files["dist"]), "--tuple", "a"]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "input error: " + message.format(path=path) + "\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("which", ["graph", "dist"])
    def test_reader_reads_a_named_pipe(self, five_cycle, tmp_path, capsys, which):
        # a pipe gives its bytes in short reads and has no size to stat:
        # read to EOF, it gives the output of the regular file
        files = dict(zip(["graph", "dist"], five_cycle))
        argv = ["moment", "--graph", files["graph"], "--dist", files["dist"], "--tuple", "x1,x3,x1,x3"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        content = Path(files[which]).read_bytes()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def write():
            fd = os.open(fifo, os.O_WRONLY)
            try:
                os.write(fd, content[: len(content) // 2])
                time.sleep(0.05)
                os.write(fd, content[len(content) // 2 :])
            finally:
                os.close(fd)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        argv[argv.index(files[which])] = str(fifo)
        try:
            assert (main(argv), capsys.readouterr().out) == (0, expected)
        finally:
            writer.join(timeout=10)
            if writer.is_alive():  # the call never opened the pipe
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        assert not writer.is_alive()

    def test_reader_reads_past_one_chunk(self, five_cycle, tmp_path, capsys):
        # whitespace between the specs spreads the file over three reads
        graph, dist = five_cycle
        argv = ["moment", "--graph", graph, "--dist", dist, "--tuple", "x1,x2,x1,x2"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        text = Path(dist).read_text()
        cut = text.index("}, {") + 2
        padded = tmp_path / "padded.json"
        padded.write_text(text[:cut] + " \n\t" * cli._READ_CHUNK + text[cut:])
        assert padded.stat().st_size > 2 * cli._READ_CHUNK
        argv[argv.index(dist)] = str(padded)
        assert (main(argv), capsys.readouterr().out) == (0, expected)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("case, code", [("good", 0), ("directory", 2), ("missing", 2), ("not-utf8", 2)])
    def test_reader_closes_its_descriptor(self, five_cycle, tmp_path, case, code):
        # whether the read succeeds, fails or the bytes do not decode
        graph, dist = five_cycle
        path = tmp_path / case
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"\xff[]")
        elif case == "good":
            path.write_bytes(Path(dist).read_bytes())
        before = len(os.listdir("/proc/self/fd"))
        assert main(["moment", "--graph", graph, "--dist", str(path), "--tuple", "x1,x1"]) == code
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("command", ["enumerate", "moment"])
    @pytest.mark.parametrize(
        "tuple_arg, position", [("x1,,x2", 2), ("x1,", 2), (",x1", 1), ("x1, ,x2", 2), ("x1,x2,,", 3)]
    )
    def test_empty_tuple_item(self, five_cycle, capsys, command, tuple_arg, position):
        # an empty item is an input error that names its position, not dropped
        graph, dist = five_cycle
        argv = [command, "--graph", graph, "--tuple", tuple_arg]
        code = main(argv + (["--dist", dist] if command == "moment" else []))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"input error: item {position} of --tuple {tuple_arg!r} is empty\n"

    def test_file_not_utf8(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_bytes(b'\xff{"labels": ["a"]}')
        code = main(["enumerate", "--graph", str(graph), "--tuple", "a"])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize(
        "which, text",
        [
            ("dist", '{"x1": {"moments": [%s]}}' % NINES),
            ("dist", '{"x1": {"moments": ["%s"]}}' % NINES),
            ("graph", '{"labels": ["x1", "x2"], "diagonal": {"x1": %s}}' % NINES),
            ("dist", '{"x1": {"moments": ["1e300000"]}}'),
            ("dist", '{"x1": {"moments": ["1E-300000"]}}'),
            ("dist", '{"x1": {"moments": ["2.5e+4301"]}}'),
            ("dist", '{"x1": {"moments": [1e300000]}}'),
        ],
        ids=[
            "dist-literal", "dist-string", "graph-literal",
            "exponent", "negative-exponent", "decimal-exponent", "exponent-literal",
        ],
    )
    def test_numeral_beyond_digit_limit(self, tmp_path, capsys, which, text):
        # more digits than the interpreter converts to int (4,300 by
        # default), as a JSON number literal or inside a string, or an
        # exponent beyond that limit, rejected before the value is built
        files = {"graph": '{"labels": ["x1", "x2"]}', "dist": '{"x1": {"moments": ["1"]}}'}
        files[which] = text
        paths = {}
        for name, content in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(content)
        argv = ["moment", "--graph", str(paths["graph"]), "--dist", str(paths["dist"])]
        code = main(argv + ["--tuple", "x1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error:")
        # one short line: a long rejected string is echoed as a prefix
        # and its length
        assert len(captured.err) < 300

    @pytest.mark.parametrize(
        "graph_text, dist_text",
        [
            ('{"labels": [1e4300]}', None),
            ('{"labels": ["a"], "independent_pairs": [["a", 1e4300]]}', None),
            ('{"labels": ["a"]}', '[{"label": 1e4300, "named": "arcsine"}]'),
            ('{"labels": ["a"]}', '{"a": {"named": "arcsine", "kind": 1e4300}}'),
        ],
        ids=["graph-label", "graph-pair", "dist-label", "dist-kind"],
    )
    def test_long_number_echoed_in_error(self, tmp_path, graph_text, dist_text):
        # the rejected value, 10**4300, has more digits than the
        # interpreter converts to str by default; its excerpt does not
        graph = tmp_path / "graph.json"
        graph.write_text(graph_text)
        argv = ["enumerate", "--graph", str(graph), "--tuple", "a"]
        if dist_text is not None:
            dist = tmp_path / "dist.json"
            dist.write_text(dist_text)
            argv = ["moment", "--dist", str(dist)] + argv[1:]
        proc = run_fresh(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "named, key, numeral, tuple_arg",
        [("point_mass", "value", "1e4300", "a"), ("semicircle", "variance", "1e-4300", "a,a")],
    )
    def test_named_parameter_literal_or_string(
        self, tmp_path, capsys, named, key, numeral, tuple_arg
    ):
        # a JSON number literal reaches the law as the rational json read,
        # a string through parse_fraction: one value, one output
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"]}))
        dist = tmp_path / "dist.json"
        outputs = []
        for value in (numeral, f'"{numeral}"'):
            dist.write_text('{"a": {"named": "%s", "%s": %s}}' % (named, key, value))
            argv = ["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg]
            outputs.append(run(capsys, argv))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "graph_spec, dist_spec, tuple_arg",
        [
            ({"labels": ["x1", "x2"]}, {"x1": {"moments": ["1"]}}, "x1," + NINES),
            ({"labels": ["x1", "x2"]}, {"x1": {"moments": NINES}}, "x1"),
            ({"labels": ["x1", "x2"], "diagonal": {NINES: 1}}, {"x1": {"moments": ["1"]}}, "x1"),
        ],
        ids=["tuple-label", "moments-not-array", "diagonal-label"],
    )
    def test_long_input_echoed_short(self, tmp_path, capsys, graph_spec, dist_spec, tuple_arg):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(graph_spec))
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(dist_spec))
        code = main(["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("input error:")
        assert " characters)" in captured.err
        assert len(captured.err) < 300

    def test_exponent_within_digit_limit(self, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["x1", "x2"]}))
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"x1": {"moments": ["25e-1", "1e300"]}}))
        argv = ["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", "x1,x1"]
        code, out = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["values"]["definition"] == f"{10**300}/1"

    def test_result_beyond_digit_limit(self, tmp_path, capsys):
        # every input numeral has 451 digits; the exact moment has more
        # than 4,300, and is printed in full
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["x1", "x2"]}))
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({
            name: {"moments": [f"{a}/{10**450 + i}" for i in range(12)]}
            for name, a in (("x1", 7), ("x2", 3))
        }))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        tuple_arg = ",".join(["x1", "x2"] * 4)
        argv = ["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg]
        code, out = run(capsys, argv + ["--method", "both"])
        assert code == 0
        values = json.loads(out)["values"]
        assert values["cumulant"] == values["definition"]
        assert len(values["cumulant"].partition("/")[2]) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.parametrize("labels", ["abc", {"a": 1, "b": 2}, [1, 2], [1, "1"]])
    def test_labels_not_an_array(self, tmp_path, capsys, labels):
        # iterating either of the first two would give the labels a, b,
        # ...; names that are not strings no tuple could name, and 1 and
        # "1" would be two labels
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": labels}))
        code = main(["enumerate", "--graph", str(graph), "--tuple", str(next(iter(labels)))])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize(
        "which, text",
        [
            ("dist", '{"a": {"moments": ["1", "2"]}, "a": {"moments": ["5", "7"]}}'),
            ("graph", '{"labels": ["b"], "labels": ["a", "b"]}'),
            ("graph", '{"labels": ["a", "b"], "diagonal": {"a": 1, "a": 0}}'),
        ],
        ids=["dist-label", "graph-labels", "graph-diagonal"],
    )
    def test_repeated_json_key(self, tmp_path, capsys, which, text):
        # json.load would keep the last value of the key
        files = {"graph": '{"labels": ["a", "b"]}', "dist": '{"a": {"moments": ["1", "2"]}}'}
        files[which] = text
        for name, content in files.items():
            (tmp_path / f"{name}.json").write_text(content)
        argv = ["moment", "--graph", str(tmp_path / "graph.json"), "--dist", str(tmp_path / "dist.json")]
        code = main(argv + ["--tuple", "a,a"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: repeated key ")

    def test_decimal_literals_read_exactly(self, tmp_path, capsys):
        # as JSON number literals, as strings, and as a named law's value
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a", "b", "c"], "independent_pairs": [["a", "b"]]}))
        dist = tmp_path / "dist.json"
        dist.write_text(
            '{"a": {"moments": [0.1, 0.01]}, "b": {"moments": ["0.1", "0.01"]},'
            ' "c": {"named": "point_mass", "value": 0.1}}'
        )
        for tuple_arg in ("a,a", "b,b", "c,c", "a,b"):
            argv = ["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg]
            code, out = run(capsys, argv)
            assert code == 0
            assert json.loads(out)["values"] == {"cumulant": "1/100", "definition": "1/100"}

    @pytest.mark.parametrize("which", ["graph", "dist"])
    def test_deeply_nested_json(self, five_cycle, tmp_path, capsys, which):
        files = dict(zip(("graph", "dist"), five_cycle))
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        files[which] = str(nested)
        argv = ["moment", "--graph", files["graph"], "--dist", files["dist"], "--tuple", "x1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", ["enumerate", "moment"])
    def test_tuple_beyond_recursion_limit(self, tmp_path, capsys, command):
        # enumeration recurses once per point, the cumulant route once per
        # removed block: 150 times on a classical Gaussian label (kappa_2
        # only, so each block holds two points).  With the limit lowered,
        # a tuple of 300 points stands in for a far longer one at the
        # default limit
        n = 300
        code, out, err = self._lowered_limit_call(tmp_path, capsys, command, n, "gaussian")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_gaussian_tuple_within_recursion_limit(self, tmp_path, capsys):
        # the cumulant route recurses once per removed block, here 75
        # two-point blocks, below the 100 frames the lowered limit leaves
        n = 150
        code, out, err = self._lowered_limit_call(tmp_path, capsys, "moment", n, "gaussian")
        assert code == 0
        assert json.loads(out)["values"] == {"cumulant": f"{math.prod(range(n - 1, 0, -2))}/1"}
        assert err == ""

    def test_point_mass_tuple_within_recursion_limit(self, tmp_path, capsys):
        # a point mass has only kappa_1: its points are singletons, which
        # the cumulant route factors out, so it does not recurse at all
        n = 300
        code, out, err = self._lowered_limit_call(tmp_path, capsys, "moment", n, "point_mass")
        assert code == 0
        assert json.loads(out)["values"] == {"cumulant": f"{2**n}/1"}
        assert err == ""

    @staticmethod
    def _lowered_limit_call(tmp_path, capsys, command, n, law):
        """main on a tuple of n points, n labels for enumerate and one
        classical label of the law for moment, with the recursion limit
        100 frames above the current depth."""
        names = [f"x{k}" for k in range(n)]
        graph = tmp_path / "graph.json"
        dist = tmp_path / "dist.json"
        if command == "enumerate":
            graph.write_text(json.dumps({"labels": names}))
            tuple_arg = ",".join(names)
            extra = []
        else:
            graph.write_text(json.dumps({"labels": ["x"], "diagonal": {"x": 1}}))
            if law == "point_mass":
                spec = {"named": "point_mass", "value": "2"}
            else:  # standard Gaussian: m_k = (k - 1)!! for even k, else 0
                moments = [0, 1]
                while len(moments) < n:
                    moments.append(len(moments) * moments[-2])
                spec = {"moments": [str(m) for m in moments]}
            dist.write_text(json.dumps({"x": spec}))
            tuple_arg = ",".join(["x"] * n)
            extra = ["--dist", str(dist), "--method", "cumulant"]
        argv = [command, "--graph", str(graph), "--cap", str(n), "--tuple", tuple_arg] + extra
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            code = main(argv)
        finally:
            sys.setrecursionlimit(limit)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is a Linux limit")
    def test_memory_exhausted(self, tmp_path):
        # Bell(10) partitions do not fit in 30 MB of address space: one
        # line and exit 2, not exit 1 (a failed check) and a traceback
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (30 << 20, 30 << 20))

        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"], "diagonal": {"a": 1}}))
        argv = ["enumerate", "--graph", str(graph), "--tuple", ",".join("a" * 10)]
        proc = subprocess.run(
            [sys.executable, "-m", "epsindep.cli"] + argv,
            env=fresh_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=limit,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: out of memory\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is a Linux limit")
    @pytest.mark.parametrize("megabytes", range(24, 41))
    def test_memory_exhausted_at_any_limit(self, tmp_path, megabytes):
        # wherever the limit falls, the report is printed after the
        # handler has freed the traceback: inside it, the print could
        # fail again, with exit 1 and "Exception ignored" lines
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"], "diagonal": {"a": 1}}))
        proc = subprocess.run(
            [sys.executable, "-m", "epsindep.cli", "enumerate", "--graph", str(graph), "--tuple", ",".join("a" * 10)],
            env=fresh_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=limit,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is a Linux limit")
    @pytest.mark.parametrize("megabytes", [26, 31, 36])
    def test_memory_exhausted_without_automatic_gc(self, tmp_path, megabytes):
        # the enumeration's partial output stays in a reference cycle (its
        # recursive closure) once the traceback is freed; main collects it
        # itself, so the report comes alone whenever the collector would run
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a"], "diagonal": {"a": 1}}))
        code = "import gc, sys; gc.disable(); from epsindep.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "enumerate", "--graph", str(graph), "--tuple", ",".join("a" * 10)],
            env=fresh_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=limit,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")

    def test_unknown_label(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, _ = run(capsys, ["enumerate", "--graph", graph, "--tuple", "nope"])
        assert code == 2

    def test_table_output_mode(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, out = run(
            capsys,
            ["enumerate", "--graph", graph, "--tuple", "x1,x2", "--table"],
        )
        assert code == 0
        assert "count\t1" in out

    def test_boolean_moment(self, tmp_path, capsys):
        # Fraction(True) == 1, but a JSON boolean is no moment
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["x1"]}))
        dist = tmp_path / "dist.json"
        dist.write_text('{"x1": {"moments": [true, false, true]}}')
        code = main(["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", "x1,x1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: bad rational True")

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_cap_variable(self, five_cycle, value):
        # read when a command needs the default cap, not at import
        graph, _ = five_cycle
        proc = run_fresh(["enumerate", "--graph", graph, "--tuple", "x1"], EPSINDEP_MAX_N=value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("input error:")
        assert "EPSINDEP_MAX_N" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["enumerate", "moment"])
    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_bad_cap_option(self, five_cycle, capsys, command, cap):
        # rejected like a bad EPSINDEP_MAX_N, not met as a cap no tuple fits
        graph, dist = five_cycle
        argv = [command, "--graph", graph, "--tuple", "x1", "--cap", cap]
        code = main(argv + (["--dist", dist] if command == "moment" else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: --cap must be a positive integer, got {cap}\n"

    def test_cap_option_overrides_variable(self, tmp_path):
        # the membership check's blocks of 4 points are not held to
        # EPSINDEP_MAX_N once --cap is given
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"labels": ["a", "b"]}))
        argv = ["crosscheck", "--graph", str(graph), "--cap", "6", "--max-n", "5", "--instances", "2"]
        proc = run_fresh(argv, EPSINDEP_MAX_N="3")
        assert proc.stderr == ""
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_failures"] == 0

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with a POSIX shell")
    @pytest.mark.parametrize("command", ["enumerate", "moment", "crosscheck"])
    def test_stdout_closed_at_start(self, five_cycle, command):
        # with fd 1 closed, sys.stdout is None and every print a no-op: a
        # result nobody can read is exit 2, not a silent success
        graph, dist = five_cycle
        extra = {
            "enumerate": ["--tuple", "x1,x1"],
            "moment": ["--dist", dist, "--tuple", "x1,x1"],
            "crosscheck": ["--max-n", "2"],
        }[command]
        script = 'exec "$0" -m epsindep.cli "$@" >&-'
        proc = subprocess.run(
            ["sh", "-c", script, sys.executable, command, "--graph", graph] + extra,
            env=fresh_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: standard output closed\n"


# Argument lists for the parser check below; "G" and "D" stand for the
# graph and distribution files.
ARGV_CORPUS = [
    [],
    ["-h"],
    ["--he"],
    ["frobnicate"],
    ["MOMENT", "--graph", "G"],
    ["moment", "-h"],
    ["enumerate", "--help"],
    ["crosscheck", "--he"],
    ["moment", "-h", "stray"],
    ["-h", "moment"],
    ["--graph", "G", "enumerate", "--tuple", "x1"],
    ["moment"],
    ["moment", "--graph", "G", "--tuple", "x1"],
    ["enumerate", "--tuple", "x1"],
    ["enumerate", "--graph", "G", "--tuple"],
    ["moment", "--graph", "G", "--dist", "D", "--tuple", "x1,x2", "stray"],
    ["enumerate", "--graph", "G", "--tuple", "x1", "moment"],
    ["enumerate", "--graph", "G", "--tuple", "x1", "-x"],
    ["enumerate", "--graph=G", "--tuple=x1,x3,x1,x3"],
    ["moment", "--gr", "G", "--di", "D", "--tu", "x1,x3,x1,x3"],
    ["moment", "--graph", "G", "--dist", "D", "--tuple", "x1,x2,x1", "--m", "cumulant"],
    ["crosscheck", "--graph", "G", "--s", "1"],
    ["moment", "--", "--graph", "G", "--dist", "D", "--tuple", "x1"],
    ["enumerate", "--graph", "G", "--tuple", "x1", "--"],
    ["enumerate", "--graph", "D", "--graph", "G", "--tuple", "x1,x2,x1"],
    ["enumerate", "--graph", "G", "--tuple", "x1", "--json", "--table"],
    ["moment", "--graph", "G", "--dist", "D", "--tuple", "x1", "--table"],
    ["moment", "--graph", "G", "--dist", "D", "--tuple", "x1", "--method", "bogus"],
    ["enumerate", "--graph", "G", "--tuple", "x1", "--cap", "x"],
    ["moment", "--graph", "G", "--dist", "D", "--tuple", "x1", "--cap", "-3"],
    ["crosscheck", "--graph", "G", "--max-n"],
    ["crosscheck", "--graph", "G", "--max-n", "2", "--instances", "3", "--seed", "-1"],
]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_option_has_help(command):
    for action in cli._COMMANDS[command]._actions:
        if action.option_strings and action.dest != "help":
            assert action.help, f"{command} {action.option_strings[0]} has no help text"


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_subcommand_parser_matches_full_parser(five_cycle, capsys, monkeypatch, argv):
    # a call that _fast_parse declines goes to the full parser, so
    # whether it starts with a subcommand or not, the outcome is that of
    # the full parser alone, the oracle
    graph, dist = five_cycle
    files = {"G": graph, "D": dist}
    argv = [re.sub(r"\b[GD]\b", lambda m: files[m[0]], a) for a in argv]
    got = main(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_COMMANDS", {})
    assert got == (main(argv), capsys.readouterr())


# Pieces of argv for the fast-path check below: each option of a
# subcommand, with values that pass and values that fail its type or
# choices, then other tokens: the other subcommands' options,
# abbreviations, "=" forms, the tokens argparse reads specially and stray
# values.  "G" and "D" stand for the graph and distribution files; no
# value makes a call long.
OPTION_VALUES = {
    "--graph": ["G", "G", "D"],
    "--dist": ["D", "D", "G"],
    "--tuple": ["x1,x2", "x1,x3,x1", " x2 ", "", "-x"],
    "--cap": ["3", "2", "+2", "0", "x", "-3"],
    "--method": ["cumulant", "definition", "both", "bogus"],
    "--max-n": ["1", "2", "2", "x"],
    "--seed": ["0", "7", "-1"],
    "--instances": ["0", "2", "x"],
}
OTHER_TOKENS = sorted({o for p in cli._COMMANDS.values() for a in p._actions for o in a.option_strings}) + [
    "--gr", "--tu", "--di", "--ca", "--js", "--ta", "--m", "--s", "--max", "--inst", "--self",
    "--graph=G", "--tuple=x1", "--cap=3", "--method=both", "--", "-3", "-x",
    "", "x1", "1", "both", "G", "moment",
]
REQUIRED = {
    "enumerate": ["--graph", "G", "--tuple", "x1,x2"],
    "moment": ["--graph", "G", "--dist", "D", "--tuple", "x1,x3,x1"],
    "crosscheck": ["--graph", "G", "--max-n", "2"],
}


def option_pieces(option):
    """The option alone if it takes no value, else with one of its values."""
    if option not in OPTION_VALUES:
        return st.just([option])
    return st.sampled_from(OPTION_VALUES[option]).map(lambda value: [option, value])


@st.composite
def fast_path_argvs(draw):
    """A subcommand, mostly with its required options, then a few of its
    options, each at most once more, and rarely another token, each piece
    put in at a random boundary between the pieces before it."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    required = REQUIRED[command]
    pieces = [required[k:k + 2] for k in range(0, len(required), 2)] if draw(st.integers(0, 3)) else []
    options = [o for a in cli._COMMANDS[command]._actions for o in a.option_strings if a.dest != "help"]
    extras = [draw(option_pieces(o)) for o in draw(st.lists(st.sampled_from(options), unique=True, max_size=3))]
    if not draw(st.integers(0, 3)):
        extras.append([draw(st.sampled_from(OTHER_TOKENS))])
    for piece in extras:
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fast_path_argvs())
def test_fast_parse_matches_full_parser(five_cycle, capsys, monkeypatch, argv):
    # the exit code and both streams are those of the full parser, the
    # oracle, whether _fast_parse reads argv or hands it to argparse; a
    # small default cap keeps every crosscheck short
    monkeypatch.setenv("EPSINDEP_MAX_N", "3")
    graph, dist = five_cycle
    argv = [{"G": graph, "D": dist}.get(a, a) for a in argv]
    got = main(argv), capsys.readouterr()
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_COMMANDS", {})
        assert got == (main(argv), capsys.readouterr())


def test_benchmark_argv_takes_the_fast_path(monkeypatch):
    # the argv bench/worker.py builds for moment and crosscheck, read by
    # _fast_parse alone, to the namespace the full parser gives
    inputs = bench_inputs()
    argvs = [
        [
            "moment", "--graph", "graph.json", "--dist", "dist.json",
            "--tuple", ",".join(inputs.LABELS[k] for k in inputs.moment_query(workload, 1, index)[0]),
            "--method", "both",
        ]
        for workload in (inputs.KERNEL_HEAVY, inputs.MANY_LABELS)
        for index in range(8)
    ] + [
        [
            "crosscheck", "--graph", "graph.json", "--max-n", str(inputs.BATTERY_MAX_N),
            "--seed", str(seed), "--instances", str(inputs.BATTERY_INSTANCES),
        ]
        for _, seed, _ in inputs.battery_graphs(1, 0)
    ]
    want = [vars(cli._PARSER.parse_args(argv)) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a call the fast path should take")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [vars(cli._parse(argv)) for argv in argvs] == want


# JSON values of every type a payload holds, with the strings the
# encoder escapes: quotes, backslashes, control characters, non-ASCII
# and lone surrogates
json_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x07\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
        st.characters(categories=["Cs"]),
        st.characters(),
    )
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | json_text,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(json_text, children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_chunks_match_the_encoder(value):
    # the same text as the encoder _emit used to run, in no more chunks,
    # so a batch of chunks holds no more text than before
    chunks = list(cli._json_chunks(value))
    assert "".join(chunks) == json.dumps(value, sort_keys=True, indent=2)
    assert len(chunks) <= len(list(json.JSONEncoder(sort_keys=True, indent=2).iterencode(value)))


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), ["a", [Fraction(1, 2)]], {"a": 1.0}, {1: "a"}])
def test_json_chunks_reject_other_types(value):
    with pytest.raises(TypeError):
        "".join(cli._json_chunks(value))


def test_escaped_label_names(tmp_path, capsys):
    # label names the encoder escapes come out as it writes them
    names = ["\u00e9", 'q"', "b\\s", "\u0007"]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"labels": names, "independent_pairs": [names[:2]]}))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({name: {"named": "arcsine"} for name in names}))
    tuple_arg = ",".join(names + names[::-1])
    for argv in (
        ["moment", "--graph", str(graph), "--dist", str(dist), "--tuple", tuple_arg],
        ["enumerate", "--graph", str(graph), "--tuple", tuple_arg, "--json"],
    ):
        code, out = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["tuple"] == names + names[::-1]
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
