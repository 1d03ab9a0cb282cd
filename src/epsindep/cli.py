"""Batch CLI: enumerate epsilon-non-crossing sets, evaluate mixed
moments by one or both evaluators, and run the cross-validation battery.

All rationals are printed as "p/q" strings in lowest terms with positive
denominator; output is deterministic byte-for-byte for fixed inputs.
Exit codes: 0 ok, 1 check/agreement failure, 2 input error.
"""

import argparse
import json
import os
import sys

from .cumulants import CLASSICAL, FREE, format_fraction, table_from_spec
from .epsilon import EpsilonMatrix, is_admissible_tuple
from .errors import EpsIndepError, InputError
from .crosscheck import run_crosscheck
from .moments import (
    factorization_shortcut,
    mixed_moment_by_definition,
    mixed_moment_cumulant,
    moments_from_tables,
)
from .ncpartitions import enumerate_nc_epsilon, is_epsilon_noncrossing
from .partitions import kernel


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_graph(path):
    return EpsilonMatrix.from_json(_load_json(path))


def _parse_tuple(text, e):
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise InputError("empty tuple")
    if e.labels is not None:
        return tuple(e.label_index(name) for name in names), names
    try:
        entries = tuple(int(name) for name in names)
    except ValueError:
        raise InputError("graph has no label names; tuple entries must be integers")
    e.check_tuple(entries)
    return entries, names


def _load_tables(path, e, max_order):
    data = _load_json(path)
    if isinstance(data, dict):
        data = [dict(spec, label=name) for name, spec in sorted(data.items())]
    if not isinstance(data, list):
        raise InputError("distribution file must be a JSON array or object")
    tables = {}
    for spec in data:
        if "label" not in spec:
            raise InputError(f"distribution spec without label: {spec!r}")
        name = spec["label"]
        idx = e.label_index(name) if e.labels is not None else int(name)
        spec = dict(spec)
        spec.setdefault("kind", CLASSICAL if e.diagonal(idx) == 1 else FREE)
        tables[idx] = table_from_spec(spec, max_order=max_order)
    return tables


def _emit(payload, table_mode):
    if table_mode:
        for line in _as_table(payload):
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _as_table(payload, prefix=""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _as_table(value, prefix + "  ")
            else:
                yield f"{prefix}{key}\t{value}"
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                yield from _as_table(value, prefix + "  ")
            else:
                yield f"{prefix}{value}"
    else:
        yield f"{prefix}{payload}"


def cmd_enumerate(args):
    e = _load_graph(args.graph)
    entries, names = _parse_tuple(args.tuple, e)
    parts = enumerate_nc_epsilon(entries, e, cap=args.cap)
    ker = kernel(entries)
    size = e.size
    payload = {
        "tuple": names,
        "count": len(parts),
        "partitions": [p.to_json() for p in parts],
        "kernel_member": is_epsilon_noncrossing(ker, entries, e),
        "admissible_tuple": is_admissible_tuple(entries, e),
        "flags": {
            "constant_tuple": len(set(entries)) == 1,
            "all_free": all(
                e.eps(a, b) == 0 for a in range(size) for b in range(size) if a != b
            ),
            "all_independent": all(
                e.eps(a, b) == 1 for a in range(size) for b in range(size) if a != b
            ),
        },
    }
    _emit(payload, args.table)
    return 0


def cmd_moment(args):
    e = _load_graph(args.graph)
    entries, names = _parse_tuple(args.tuple, e)
    max_order = max(args.max_n, len(entries))
    tables = _load_tables(args.dist, e, max_order)
    values = {}
    if args.method in ("cumulant", "both"):
        values["cumulant"] = format_fraction(
            mixed_moment_cumulant(entries, e, tables, cap=args.cap)
        )
    if args.method in ("definition", "both"):
        values["definition"] = format_fraction(
            mixed_moment_by_definition(entries, e, moments_from_tables(tables))
        )
    short = factorization_shortcut(entries, e, tables)
    payload = {
        "tuple": names,
        "method": args.method,
        "values": values,
        "factorization_applies": short is not None,
        "factorization_value": format_fraction(short) if short is not None else None,
    }
    ok = True
    if args.method == "both":
        payload["agree"] = values["cumulant"] == values["definition"]
        ok = payload["agree"]
    _emit(payload, args.table)
    return 0 if ok else 1


def cmd_crosscheck(args):
    e = _load_graph(args.graph)
    report, ok = run_crosscheck(
        e,
        max_n=args.max_n,
        seed=args.seed,
        instances=args.instances,
        corrupt=args.self_test_corrupt,
    )
    _emit(report, args.table)
    return 0 if ok else 1


def _default_cap():
    return int(os.environ.get("EPSINDEP_MAX_N", "12"))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epsindep",
        description="Exact mixed moments under prescribed mixtures of "
        "classical and free independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="independence graph JSON file")
        p.add_argument("--cap", type=int, default=_default_cap(), help="enumeration size cap")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false", default=False)
        fmt.add_argument("--table", dest="table", action="store_true")

    p = sub.add_parser("enumerate", help="list the epsilon-non-crossing set of a tuple")
    common(p)
    p.add_argument("--tuple", required=True, help="comma-separated label names")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("moment", help="evaluate a mixed moment exactly")
    common(p)
    p.add_argument("--tuple", required=True, help="comma-separated label names")
    p.add_argument("--dist", required=True, help="distribution spec JSON file")
    p.add_argument(
        "--method", choices=("cumulant", "definition", "both"), default="both"
    )
    p.add_argument("--max-n", type=int, default=12, help="table order to prepare")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("crosscheck", help="run the cross-validation battery")
    common(p)
    p.add_argument("--max-n", type=int, default=5, help="maximum tuple length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200, help="random evaluator instances")
    p.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="corrupt a moment table to verify the harness detects it",
    )
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EpsIndepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
