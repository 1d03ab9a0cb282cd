"""Golden CLI output: the exact stdout and exit code of a fixed set of
`enumerate`, `moment` and `crosscheck` calls, compared byte for byte with
tests/golden_cli.json.

A change that alters any output byte fails here.  To record the outputs
of the current code (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stdout

from epsindep.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

LABELS = ["x1", "x2", "x3", "x4", "x5"]
# the 5-cycle: every pair that is not an edge of the cycle is independent
GRAPH = {
    "labels": LABELS,
    "independent_pairs": [
        [LABELS[a], LABELS[b]] for a in range(5) for b in range(a + 2, 5) if (a, b) != (0, 4)
    ],
    "diagonal": {"x3": 1},
}
DIST = {name: {"named": "arcsine"} for name in LABELS}
# a second file whose laws have non-integer moments: common denominators
# of 1 (arcsine) would hide a wrong divisor
RATIONAL_DIST = {
    "x1": {"moments": ["1/2", "-1/3", "2/5", "3/7", "-5/11", "7/13", "9/17", "11/19"]},
    "x2": {"named": "semicircle", "variance": "1/3"},
    "x3": {"named": "point_mass", "value": "2/7"},
    "x5": {"moments": [f"7/{10**30 + i}" for i in range(1, 9)]},
}
# random rationals, long enough for the length-12 cases
LONG_DIST = {
    "x2": {"moments": "1/4 6/5 1 5 4/5 -1/2 -9/5 0 -1 -9/4 -1 -5".split()},
    "x3": {"moments": "5/8 0 0 -1/7 -7/6 6/7 7/3 9/5 9 0 -1 1/2".split()},
}
DISTS = {"arcsine": DIST, "rational": RATIONAL_DIST, "long": LONG_DIST}

CASES = [
    ["enumerate", "--tuple", "x1,x3,x1,x3"],
    ["enumerate", "--tuple", "x1,x2,x1,x2,x1,x2"],
    ["enumerate", "--tuple", "x3,x3,x3,x3,x3"],
    ["enumerate", "--tuple", "x1,x1,x1,x1,x1"],
    ["enumerate", "--tuple", "x1,x3,x2,x3,x1,x2"],
    ["enumerate", "--tuple", "x2,x4,x2,x4,x2", "--table"],
    ["moment", "--method", "both", "--tuple", "x1,x3,x1,x3"],
    ["moment", "--method", "both", "--tuple", "x1,x2,x1,x2,x1,x2"],
    ["moment", "--method", "both", "--tuple", "x3,x3,x3,x3,x3,x3,x3,x3"],
    ["moment", "--method", "both", "--tuple", "x2,x2,x3,x3,x2,x2,x3,x3"],
    ["moment", "--method", "both", "--tuple", "x1,x2,x2,x1,x1,x2,x2,x1"],
    ["moment", "--method", "both", "--tuple", "x3,x2,x3,x3,x2,x3", "--table"],
    ["crosscheck", "--max-n", "3", "--instances", "20"],
    ["crosscheck", "--max-n", "4", "--instances", "20", "--self-test-corrupt"],
    # the benchmark's battery length
    ["crosscheck", "--max-n", "5", "--instances", "20"],
    # the factorization shortcut applies to the first two, not the others
    ["moment", "--dist", "rational", "--method", "both", "--tuple", "x1,x3,x1,x3"],
    ["moment", "--dist", "rational", "--method", "both", "--tuple", "x5,x3,x5,x3,x5,x2,x2"],
    ["moment", "--dist", "rational", "--method", "both", "--tuple", "x1,x2,x1,x2"],
    ["moment", "--dist", "rational", "--method", "both", "--tuple", "x1,x5,x1,x5,x5,x1,x3,x3"],
    # length 12, the default cap: one free label, one classical label, and
    # a free pair of a free and a classical label
    ["moment", "--cap", "12", "--method", "both", "--tuple", ",".join(["x1"] * 12)],
    ["moment", "--cap", "12", "--method", "both", "--tuple", ",".join(["x3"] * 12)],
    [
        "moment", "--dist", "long", "--cap", "12", "--method", "both",
        "--tuple", "x3,x2,x3,x3,x3,x3,x3,x2,x2,x3,x2,x3",
    ],
]


def run_cases(cases=CASES):
    """[argv, exit code, stdout] per case, with the fixed graph and
    distributions written to a temporary directory; a moment case names
    its distribution after --dist, arcsine if it names none."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.json") for name in ["graph", *DISTS]}
        for name, data in dict(DISTS, graph=GRAPH).items():
            with open(files[name], "w") as fh:
                json.dump(data, fh)
        for case in cases:
            argv = [case[0], "--graph", files["graph"]] + case[1:]
            if "--dist" in argv:
                at = argv.index("--dist") + 1
                argv[at] = files[argv[at]]
            elif case[0] == "moment":
                argv += ["--dist", files["arcsine"]]
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            out.append([case, code, buf.getvalue()])
    return out


def test_cli_output_matches_golden_file():
    with open(FIXTURE) as fh:
        want = json.load(fh)
    assert run_cases() == want


def test_corrupt_examples_print_p_over_q():
    # the failing cases the corrupted battery reports hold integers too,
    # printed as "p/1" like every rational of the CLI
    case = ["crosscheck", "--max-n", "4", "--instances", "20", "--self-test-corrupt"]
    [(_, code, out)] = run_cases([case])
    assert code == 1
    examples = [ex for check in json.loads(out)["checks"] for ex in check.get("examples", [])]
    values = [v for ex in examples for v in ex.values() if isinstance(v, str)]
    assert values
    assert all(re.fullmatch(r"-?\d+/\d+", v) for v in values)


def test_corrupt_battery_reaches_mixed_tuples():
    # the corruption raises m_k of the first label, k its number of
    # points, which tuples with further labels read too
    case = ["crosscheck", "--max-n", "4", "--instances", "20", "--self-test-corrupt"]
    [(_, code, out)] = run_cases([case])
    assert code == 1
    [evaluator] = [c for c in json.loads(out)["checks"] if c["name"] == "evaluator_equivalence"]
    assert any(len(set(ex["tuple"])) >= 2 for ex in evaluator["examples"])


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(run_cases(), fh, indent=1)
        fh.write("\n")
