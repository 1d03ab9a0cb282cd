"""scripts/bench_record.py on canned bench/run.py output: the parser and
the summary, with no benchmark run."""

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
