"""Batch CLI: enumerate epsilon-non-crossing sets, evaluate mixed
moments by one or both evaluators, and run the cross-validation battery.

All rationals are printed as "p/q" strings in lowest terms with positive
denominator; output is deterministic byte-for-byte for fixed inputs.
Exit codes: 0 ok, 1 check/agreement failure, 2 input error or closed stdout.

A call made of a subcommand and its exact option strings, each once with
a valid value, is read off the actions build_parser declared for that
subcommand, without argparse's loop; any other goes through the full
parser, the one source of help, usage and errors.  JSON is written
directly, the same bytes as json.dumps(payload, sort_keys=True, indent=2),
in batches of text; the payload, an enumeration's list included, is built
whole first.
"""

import argparse
import gc
import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _ascii_string

from .cumulants import format_fraction, parse_fraction, spec_moments, spec_table
from .epsilon import EpsilonMatrix, is_admissible_tuple
from .errors import EnumerationLimitError, EpsIndepError, InputError, excerpt
from .crosscheck import run_crosscheck
from .moments import factorization_shortcut, mixed_moment_by_definition, mixed_moment_cumulant
# not called here: bench/worker.py wraps this name in this module
from .moments import moments_from_tables  # noqa: F401
from .ncpartitions import enumerate_nc_epsilon, kernel_noncrossing


def default_cap():
    """The size cap when --cap is not given: EPSINDEP_MAX_N, else 12."""
    text = os.environ.get("EPSINDEP_MAX_N", "12")
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise InputError(f"EPSINDEP_MAX_N must be a positive integer, got {text!r}")


def _check_cap(entries, cap):
    """Every evaluator and enumeration is exponential in the tuple
    length; this is the one place that length is bounded."""
    if len(entries) > cap:
        raise EnumerationLimitError(f"n={len(entries)} exceeds enumeration cap {cap}")


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key, sought only when the dict
    is shorter than the pairs, is an input error, not a silent override."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise InputError(f"repeated key {excerpt(repeated)} in a JSON object")
    return out


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_float=parse_fraction)
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_CHUNK = 1 << 16


def _load_json(path):
    """The file's JSON, number literals in decimal or exponent form read as
    the exact rationals they spell, by _DECODER, which keeps no input
    between calls; the bytes read as UTF-8 (RFC 8259) whatever the locale,
    "\\r\\n" and "\\r" as "\\n" as text mode reads them, a BOM rejected.
    The bytes come through one descriptor, read to EOF with no buffered
    file object; a failed read names the path, as open() would."""
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        except OSError as exc:
            # on Linux a directory opens and only its read fails, unnamed
            raise OSError(exc.errno, exc.strerror, path) from None
        finally:
            os.close(fd)
        data = b"".join(chunks)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        text = data.decode()
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:
        # a number literal over the interpreter's int-to-str digit limit,
        # or bytes that are not UTF-8
        raise InputError(f"{path}: {exc}")


def _load_graph(path):
    return EpsilonMatrix.from_json(_load_json(path))


def _parse_tuple(text, e):
    """The tuple's label indices and names; an empty item is an input error."""
    names = [t.strip() for t in text.split(",")]
    if "" in names:
        empty = f"item {names.index('') + 1} of --tuple {excerpt(text)} is empty"
        raise InputError("empty tuple" if names == [""] else empty)
    return tuple(e.label_index(name) for name in names), names


def _load_tables(path, e, entries):
    """Validate every spec in the distribution file, then build a table
    for each label of the tuple to its count in the tuple (counted once):
    the most any evaluator reads of it and all that spec_moments builds
    (0 for a label outside the tuple; the rest of a moments list is only
    validated).  spec_table builds it from the spec, kept beside its
    moments: a free named arcsine's from closed-form cumulants, any
    other's from its moments.
    Each spec is read as written, under its key (an object, in key order)
    or its "label" (an array).  A label's kind is fixed by the graph's
    diagonal; a spec that names another kind is rejected, whether its
    label is used or not."""
    data = _load_json(path)
    if isinstance(data, dict):
        for name, spec in data.items():
            if isinstance(spec, dict) and spec.get("label", name) != name:
                raise InputError(
                    f"spec under key {excerpt(name)} names another label, {excerpt(spec['label'])}"
                )
        named = sorted(data.items())
    elif isinstance(data, list):
        named = ((spec.get("label") if isinstance(spec, dict) else None, spec) for spec in data)
    else:
        raise InputError("distribution file must be a JSON array or object")
    counts = {}
    for a in entries:
        counts[a] = counts.get(a, 0) + 1
    specs = {}
    for name, spec in named:
        if not isinstance(spec, dict) or isinstance(data, list) and "label" not in spec:
            raise InputError(f"distribution spec without label: {excerpt(spec)}")
        idx = e.label_index(name)
        if idx in specs:
            raise InputError(f"label {excerpt(name)} has more than one spec")
        kind = e.kind(idx)
        specs[idx] = spec, spec_moments(spec, counts.get(idx, 0))
        if spec.get("kind", kind) != kind:
            raise InputError(
                f"label {excerpt(name)} has diagonal {e.diagonal(idx)}, so its kind is "
                f"{kind}, but its spec gives kind {spec['kind']!r}"
            )
    tables = {}
    for idx, count in counts.items():
        spec, moments = specs.get(idx, (None, None))
        if moments is None or len(moments) < count:
            given = "no spec" if moments is None else f"its spec gives {len(moments)} moments"
            raise InputError(
                f"label {excerpt(e.labels[idx])} has multiplicity {count} in the tuple, but {given}"
            )
        tables[idx] = spec_table(spec, e.kind(idx), moments)
    return tables


def _emit(payload, table_mode):
    """The payload line by line, or as JSON written in batches of
    _json_chunks (the payload itself is built whole first)."""
    if table_mode:
        for line in _as_table(payload):
            print(line)
        return
    chunks = _json_chunks(payload)
    while batch := "".join(islice(chunks, 65536)):
        print(batch, end="")
    print()


# the JSON text of a scalar, as the encoder writes it, by its exact type
_SCALARS = {
    str: _ascii_string,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_chunks(value, indent="\n"):
    """The text json.JSONEncoder(sort_keys=True, indent=2).iterencode
    gives for value, written directly, in no more chunks than it yields.
    A str, int, bool or None, of exactly that type, is a scalar; lists,
    tuples and dicts hold values, and a dict's keys must be strings.  Any
    other value or key, a subclass of a scalar type included, raises
    TypeError."""
    write = _SCALARS.get(type(value))
    if write is not None:
        yield write(value)
        return
    inner = indent + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            write = _SCALARS.get(type(item))
            if write is None:
                yield sep + _ascii_string(key) + ": "
                yield from _json_chunks(item, inner)
            else:
                yield sep + _ascii_string(key) + ": " + write(item)
            sep = "," + inner
        yield indent + "}" if value else "{}"
    elif isinstance(value, (list, tuple)):
        sep = "[" + inner
        for item in value:
            write = _SCALARS.get(type(item))
            if write is None:
                yield sep
                yield from _json_chunks(item, inner)
            else:
                yield sep + write(item)
            sep = "," + inner
        yield indent + "]" if value else "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _as_table(payload, prefix=""):
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list, tuple)):
                yield f"{prefix}{key}:"
                yield from _as_table(value, prefix + "  ")
            else:
                yield f"{prefix}{key}\t{value}"
    else:
        for value in payload:
            if isinstance(value, (dict, list, tuple)):
                yield f"{prefix}-"
                yield from _as_table(value, prefix + "  ")
            else:
                yield f"{prefix}{value}"


def cmd_enumerate(args):
    e = _load_graph(args.graph)
    entries, names = _parse_tuple(args.tuple, e)
    _check_cap(entries, args.cap)
    parts = enumerate_nc_epsilon(entries, e)
    full = (1 << e.size) - 1
    payload = {
        "tuple": names,
        "count": len(parts),
        "partitions": parts,
        "kernel_member": kernel_noncrossing(entries, e),
        "admissible_tuple": is_admissible_tuple(entries, e),
        "flags": {
            "constant_tuple": len(set(entries)) == 1,
            "all_free": all(bar | 1 << a == full for a, bar in enumerate(e.against)),
            "all_independent": all(bar & ~(1 << a) == 0 for a, bar in enumerate(e.against)),
        },
    }
    _emit(payload, args.table)
    return 0


def cmd_moment(args):
    e = _load_graph(args.graph)
    entries, names = _parse_tuple(args.tuple, e)
    _check_cap(entries, args.cap)
    tables = _load_tables(args.dist, e, entries)
    values = {}
    if args.method in ("cumulant", "both"):
        values["cumulant"] = format_fraction(mixed_moment_cumulant(entries, e, tables))
    if args.method in ("definition", "both"):
        values["definition"] = format_fraction(mixed_moment_by_definition(entries, e, tables))
    short = factorization_shortcut(entries, e, tables)
    payload = {
        "tuple": names,
        "method": args.method,
        "values": values,
        "factorization_applies": short is not None,
        "factorization_value": format_fraction(short) if short is not None else None,
    }
    if args.method == "both":
        payload["agree"] = values["cumulant"] == values["definition"]
    _emit(payload, args.table)
    return 0 if payload.get("agree", True) else 1


def cmd_crosscheck(args):
    if not 1 <= args.max_n <= args.cap:
        raise InputError(f"--max-n {args.max_n} is outside 1..{args.cap} (--cap)")
    if args.instances < 0:
        raise InputError(f"--instances {args.instances} is negative")
    e = _load_graph(args.graph)
    if not e.size:
        raise InputError("the graph has no labels to check")
    report, ok = run_crosscheck(
        e,
        max_n=args.max_n,
        seed=args.seed,
        instances=args.instances,
        corrupt=args.self_test_corrupt,
    )
    _emit(report, args.table)
    return 0 if ok else 1


def build_parser():
    """The full parser, its subcommand parsers by name, and for each
    subcommand what _fast_parse reads of it: the actions that add_argument
    returned, by option string (every option but -h), the namespace
    parse_args starts from (each action's default, the subcommand and its
    func), and the required actions."""
    parser = argparse.ArgumentParser(
        prog="epsindep",
        description="Exact mixed moments under prescribed mixtures of "
        "classical and free independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables = {}

    def command(name, func, summary, takes_tuple):
        """A subcommand's parser with the shared options, and a function
        that adds a store or store-const option, of one value or none (all
        that _fast_parse reads), to it and to its table."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        options, defaults, required = tables[name] = {}, {"command": name, "func": func}, []

        def add(*args, group=p, **kwargs):
            action = group.add_argument(*args, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))
            defaults.setdefault(action.dest, action.default)
            if action.required:
                required.append(action)

        add("--graph", required=True, help="independence graph JSON file")
        add(
            "--cap",
            type=int,
            default=None,
            help="largest tuple length any evaluator or enumeration accepts "
            "(default: EPSINDEP_MAX_N, else 12)",
        )
        fmt = p.add_mutually_exclusive_group()
        add(
            "--json", group=fmt, dest="table", action="store_false", default=False,
            help="print the result as indented JSON (default)",
        )
        add(
            "--table", group=fmt, dest="table", action="store_true",
            help="print the result as indented lines, a '-' line opening each "
            "list or object inside a list",
        )
        if takes_tuple:
            add("--tuple", required=True, help="comma-separated label names")
        return add

    command("enumerate", cmd_enumerate, "list the epsilon-non-crossing set of a tuple", True)

    add = command("moment", cmd_moment, "evaluate a mixed moment exactly", True)
    add("--dist", required=True, help="distribution spec JSON file")
    add(
        "--method",
        choices=("cumulant", "definition", "both"),
        default="both",
        help="evaluator: the cumulant sum, the definition, or both and "
        "whether they agree (default: both)",
    )

    add = command("crosscheck", cmd_crosscheck, "run the cross-validation battery", False)
    add("--max-n", type=int, default=5, help="maximum tuple length, from 1 to --cap")
    add("--seed", type=int, default=0, help="seed of the random evaluator instances (default: 0)")
    add("--instances", type=int, default=200, help="random evaluator instances, at least 0")
    add(
        "--self-test-corrupt",
        action="store_true",
        help="corrupt a moment table to verify the harness detects it",
    )
    return parser, sub.choices, tables


_PARSER, _COMMANDS, _OPTION_TABLES = build_parser()


def _fast_parse(command, argv):
    """What the parser of subcommand `command` returns for argv, read off
    the actions build_parser declared for it, without argparse's loop;
    None, for argparse to decide, unless every token is an exact option
    string, no dest is given twice, each option that takes a value is
    followed by one that does not start with "-" and passes the option's
    type and choices, and every required option is given."""
    options, defaults, required = _OPTION_TABLES[command]
    values = dict(defaults)
    seen = {}
    tokens = iter(argv)
    for token in tokens:
        action = options.get(token)
        if action is None or action.dest in seen:
            return None
        seen[action.dest] = action
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(seen.get(action.dest) is not action for action in required):
        return None
    return argparse.Namespace(**values)


def _parse(argv):
    """What _PARSER.parse_args(argv) returns, or the same exit.  A call
    that starts with a subcommand goes to _fast_parse; one that it
    declines, and any other call, goes through _PARSER, the one source of
    usage, help and errors."""
    args = _fast_parse(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return _PARSER.parse_args(argv) if args is None else args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if sys.stdout is None:
        # fd 1 was closed at start: every print would be a silent no-op
        print("error: standard output closed", file=sys.stderr)
        return 2
    try:
        if args.cap is None:
            args.cap = default_cap()
        elif args.cap < 1:
            raise InputError(f"--cap must be a positive integer, got {args.cap}")
        code = args.func(args)
        print(end="", flush=True)  # a gone reader shows here, not at exit; no-op if no stdout
        return code
    except BrokenPipeError:
        # nothing more reaches the reader; the exit-time flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EpsIndepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # deeply nested JSON, or a tuple longer than the recursion limit
        print("error: input nested or long beyond the recursion limit", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # reported only once the handler is left and the traceback, whose
    # frames hold what filled the memory, is freed, and with it what a
    # cycle among them (a recursive closure) holds: else printing or the
    # exit can fail again, with exit 1 or "Exception ignored" lines
    gc.collect()
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
