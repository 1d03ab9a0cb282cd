"""scripts/bench_record.py on canned bench/run.py and pytest output: the
parsers and the summary, with no benchmark or test run; its refusal of a
call without a base; and each side's own bytecode prefix, on a stub
bench/run.py in a scratch tree."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def run_output(p50, correct=True, failed=0):
    """What bench/run.py prints: report lines, then the result object."""
    result = {
        "correct": correct,
        "attempted": 6,
        "failed": failed,
        "metrics": {
            "query_p50_ms": {"value": p50, "unit": "ms"},
            "peak_rss_mb": {"value": 17.5, "unit": "MB"},
        },
    }
    return (
        "workload crosscheck-battery, seed 1, trace 0\n"
        f"  query_p50_ms                             {p50:.6g} ms\n"
        "  fail_ratio                               0 ratio\n"
        + json.dumps(result)
        + "\n"
    )


def test_parse_reads_the_last_line():
    result = bench_record.parse_run(run_output(61.5))
    assert result["correct"] is True
    assert result["attempted"] == 6
    assert result["metrics"]["query_p50_ms"] == {"value": 61.5, "unit": "ms"}


@pytest.mark.parametrize("stdout", ["", "\n\n", '{"correct": true, "attempted": 1}\n'])
def test_parse_rejects_a_run_without_a_result(stdout):
    with pytest.raises(ValueError):
        bench_record.parse_run(stdout)


def test_summary_counts_runs_and_spreads_each_metric():
    outputs = [run_output(v) for v in (60.0, 70.0, 80.0, 90.0)] + [run_output(100.0, correct=False, failed=2)]
    results = [bench_record.parse_run(out) for out in outputs]
    summary = bench_record.summarize(results, ["query_p50_ms", "peak_rss_mb", "setup_s"])
    assert (summary["runs"], summary["correct"], summary["failed"]) == (5, 4, 2)
    assert summary["metrics"]["query_p50_ms"] == {
        "unit": "ms", "median": 80.0, "q1": 70.0, "q3": 90.0, "values": [60.0, 70.0, 80.0, 90.0, 100.0]
    }
    assert summary["metrics"]["peak_rss_mb"]["median"] == 17.5
    assert "setup_s" not in summary["metrics"]  # no run printed it


def result(**values):
    """A parsed run result with the given metric values."""
    return {
        "correct": True,
        "attempted": 6,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()},
    }


def test_compare_counts_improved_pairs_in_each_direction():
    pairs = [
        (result(queries_per_s=10.0, cpu_s=2.0), result(queries_per_s=12.0, cpu_s=1.0)),
        (result(queries_per_s=10.0, cpu_s=2.0), result(queries_per_s=9.0, cpu_s=1.5)),
        (result(queries_per_s=8.0, cpu_s=0.0), result(queries_per_s=10.0, cpu_s=1.0)),
    ]
    out = bench_record.compare(pairs, {"queries_per_s": "higher", "cpu_s": "lower", "setup_s": "lower"})
    assert out["queries_per_s"] == {
        "better": "higher", "pairs": 3, "improved": 2, "median_ratio": 1.2,
        "ratio_q1": 1.05, "ratio_q3": 1.225, "ratios": [1.2, 0.9, 1.25],
    }
    # a base that reads 0 gives no ratio, and the change is no improvement on it
    assert out["cpu_s"]["ratios"] == [0.5, 0.75, None]
    assert (out["cpu_s"]["improved"], out["cpu_s"]["median_ratio"]) == (2, 0.625)
    assert "setup_s" not in out  # no run printed it


def test_ratio_quartiles_ignore_a_drift_both_sides_share():
    # the host slows down over the seeds: each side's own values spread
    # fourfold, while every pair's ratio stays within 1.4-1.6
    drift = [1.0, 1.5, 2.0, 3.0, 4.0]
    ratios = [1.5, 1.4, 1.6, 1.5, 1.5]
    pairs = [
        (result(query_p50_ms=d), result(query_p50_ms=d * r)) for d, r in zip(drift, ratios)
    ]
    base = bench_record.spread(drift)
    out = bench_record.compare(pairs, {"query_p50_ms": "lower"})["query_p50_ms"]
    assert (base["q1"], base["q3"]) == (1.5, 3.0)
    assert (out["ratio_q1"], out["median_ratio"], out["ratio_q3"]) == (1.5, 1.5, 1.5)
    # no ratio at all where every base reads 0
    zero = bench_record.compare([(result(cpu_s=0.0), result(cpu_s=1.0))], {"cpu_s": "lower"})
    assert zero["cpu_s"]["median_ratio"] is zero["cpu_s"]["ratio_q1"] is zero["cpu_s"]["ratio_q3"] is None


def test_paired_record_alternates_the_sides(tmp_path, monkeypatch):
    # no benchmark runs: run_once returns canned results, the change
    # twice as fast as the base, and the record goes to a scratch copy
    spec = {
        "workloads": [{"name": "crosscheck-battery"}],
        "end_to_end": [{"name": "queries_per_s", "better": "higher"}],
    }
    change, base = tmp_path / "change", tmp_path / "base"
    for root in (change, base):
        (root / "src" / "__pycache__").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []
    prefixes = {}

    def canned(root, workload, seed, pycache):
        # each side keeps one bytecode prefix of its own, outside both trees
        assert prefixes.setdefault(root.name, pycache) == pycache
        assert change not in pycache.parents and base not in pycache.parents
        calls.append((root.name, workload, seed))
        return result(queries_per_s=20.0 + seed if root == change else 10.0)

    def tier1_run(root, pycache):
        assert prefixes[root.name] == pycache
        return dict(tier1, side=root.name)

    monkeypatch.setattr(bench_record, "run_once", canned)
    tier1 = {"passed": 450, "failed": 0, "wall_s": 53.42}
    monkeypatch.setattr(bench_record, "run_tier1", tier1_run)
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    argv = ["--pr", "7", "--root", str(change), "--base-root", str(base), "--seeds", "3", "4", "5"]
    assert bench_record.main(argv) == 0
    assert calls == [
        ("base", "crosscheck-battery", 3),
        ("change", "crosscheck-battery", 3),
        ("change", "crosscheck-battery", 4),
        ("base", "crosscheck-battery", 4),
        ("base", "crosscheck-battery", 5),
        ("change", "crosscheck-battery", 5),
    ]
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["seeds"] == [3, 4, 5]
    [(name, workload)] = record["workloads"].items()
    assert name == "crosscheck-battery"
    assert workload["base"]["metrics"]["queries_per_s"]["median"] == 10.0
    assert workload["change"]["metrics"]["queries_per_s"]["values"] == [23.0, 24.0, 25.0]
    assert workload["pairs"]["queries_per_s"] == pytest.approx({
        "better": "higher", "pairs": 3, "improved": 3, "median_ratio": 2.4,
        "ratio_q1": 2.35, "ratio_q3": 2.45, "ratios": [2.3, 2.4, 2.5],
    })
    assert record["tier1"] == {"base": dict(tier1, side="base"), "change": dict(tier1, side="change")}
    assert prefixes["base"] != prefixes["change"]
    # no bytecode of either tree is touched
    assert (change / "src" / "__pycache__").exists() and (base / "src" / "__pycache__").exists()


def test_a_record_needs_a_base(tmp_path, monkeypatch, capsys):
    # a record of one checkout is no paired comparison: argparse exits 2
    # before any run, and no file is written
    monkeypatch.setattr(bench_record, "run_once", lambda *args: pytest.fail("a benchmark ran"))
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--pr", "7", "--root", str(ROOT)])
    assert exc.value.code == 2
    assert "--base-root" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_each_side_reads_bytecode_under_its_own_prefix(tmp_path, monkeypatch):
    # a stub bench/run.py that imports a module of its tree and prints
    # its interpreter's bytecode prefix in the result: the module's
    # bytecode goes under the prefix, and none into the tree
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    bench = tmp_path / "tree" / "bench"
    bench.mkdir(parents=True)
    (bench / "helper.py").write_text("VALUE = 1\n")
    (bench / "run.py").write_text(
        "import json, sys\nimport helper\nprint(json.dumps({'correct': True, 'attempted': 1, "
        "'failed': 0, 'metrics': {}, 'prefix': sys.pycache_prefix}))\n"
    )
    prefix = tmp_path / "prefix"
    assert bench_record.run_once(bench.parent, "w", 1, prefix)["prefix"] == str(prefix)
    assert list(prefix.rglob("helper.*.pyc"))
    assert not (bench / "__pycache__").exists()


@pytest.mark.parametrize(
    "stdout, want",
    [
        ("450 passed in 53.42s\n", {"passed": 450, "failed": 0, "wall_s": 53.42}),
        ("2 failed, 448 passed, 1 skipped in 60.01s\n", {"passed": 448, "failed": 2, "wall_s": 60.01}),
        # the summary is the last timed line; errors count as failed
        (
            "...F.. [100%]\nFAILED tests/t.py::test_x - assert 1 in 2.5s\n"
            "1 failed, 447 passed, 2 errors in 61.00s (0:01:01)\n\n",
            {"passed": 447, "failed": 3, "wall_s": 61.0},
        ),
        ("no tests ran in 0.01s\n", {"passed": 0, "failed": 0, "wall_s": 0.01}),
        ("", None),
        ("ERROR: file or directory not found: tests\n", None),
    ],
)
def test_parse_summary_reads_pytests_last_line(stdout, want):
    assert bench_record.parse_summary(stdout) == want
