import json

import pytest

from epsindep.cli import main

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

SEMICIRCLES = [
    {"label": name, "named": "semicircle", "variance": "1"}
    for name in FIVE_CYCLE["labels"]
]


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

    def test_cap_exceeded(self, five_cycle, capsys):
        graph, _ = five_cycle
        code, _ = run(
            capsys,
            ["enumerate", "--graph", graph, "--cap", "3", "--tuple", "x1,x2,x1,x2"],
        )
        assert code == 2


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
            code, out = run(capsys, argv + ["--cap", "3", "--method", method])
            assert code == 2
            assert out == ""

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


class TestInputHandling:
    def test_bad_json(self, tmp_path, capsys):
        graph = tmp_path / "bad.json"
        graph.write_text("{not json")
        code, _ = run(capsys, ["enumerate", "--graph", str(graph), "--tuple", "a"])
        assert code == 2

    @pytest.mark.parametrize("field, value", [("independent_pairs", [5]), ("diagonal", [0, 1])])
    def test_malformed_graph(self, tmp_path, capsys, field, value):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(dict(FIVE_CYCLE, **{field: value})))
        code = main(["enumerate", "--graph", str(graph), "--tuple", "x1,x2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("input error:")

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
