"""Command-line front end.

Commands: compose, invert, oplus, theta, decompose, check, dump-algebra.
Group elements travel as JSON documents

    {"alpha": 0.0, "a": [0,0,0,0], "omega": [0,0,0,0], "u": [0,0,0],
     "theta": [0,0,0]}

with missing fields defaulting to zero.  GroupParams and XLParams read the
values, and decompose its 5x5 matrix, by one rule: a number is a real number
that is not a bool (true and "1" are not).
Exit codes: 0 success, 2 parse error (or an element whose W(omega), L(u) or
`oplus` matrix overflows float64), 3 decomposition outside the reachable set,
4 property failure in `check`.

All numeric output is printed with 17 significant digits and a fixed key
order, so identical inputs (and seeds) produce byte-identical output.

The element commands (compose, invert, oplus, theta and decompose) run on
the float core of the group law, and dump-algebra and the jacobi and casimir
suites of check on the integer layer; none of them imports numpy.  Only the
sampled suites of check import it, inside the command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from ._names import GENERATOR_NAMES, SUITE_NAMES, _float_entries
from .lorentz import DecompositionError
from .poincare import (GroupParams, _oplus_entries, _theta_closed_entries,
                       _theta_numeric, compose, element_doc, inverse)
from .xlorentz import XLParams, _xl_decompose

PARSE_ERROR, UNREACHABLE, PROPERTY_FAILURE = 2, 3, 4

_FIELDS = ("alpha", "a", "omega", "u", "theta")


class ParseError(ValueError):
    pass


# --- canonical JSON ----------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite number in output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {canonical_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in obj)
        if flat:
            return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
        items = [inner + canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _print(obj):
    sys.stdout.write(canonical_json(obj) + "\n")


# --- element documents --------------------------------------------------------

def _document(obj, kind: str, fields: tuple) -> dict:
    """obj, checked to be a JSON object with no fields but `fields`."""
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ParseError(f"unknown {kind} document fields: {sorted(unknown)}")
    return obj


def parse_element_obj(obj) -> GroupParams:
    """GroupParams from a parsed element document.  Its values, their
    lengths, finiteness and the zero defaults are the rules of GroupParams
    and XLParams, whose rejections become a ParseError."""
    obj = _document(obj, "element", _FIELDS)
    try:
        xl = XLParams(**{k: v for k, v in obj.items() if k not in ("alpha", "a")})
        return GroupParams(xl=xl, **{k: v for k, v in obj.items() if k in ("alpha", "a")})
    except ValueError as exc:
        raise ParseError(f"field {exc}") from exc


def load_element(path: str) -> GroupParams:
    return parse_element_obj(_load_json(path))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # no file, not UTF-8, too deep
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def _matrix_out(m: list, labels: bool, as_csv: bool) -> None:
    """Print the 15x15 matrix with rows m of floats; NaN, an entry without a
    claim, prints as an empty cell or null."""
    if as_csv:
        lines = []
        if labels:
            lines.append("," + ",".join(GENERATOR_NAMES))
        for i, row in enumerate(m):
            cells = ["" if math.isnan(x) else _fmt_float(x) for x in row]
            prefix = GENERATOR_NAMES[i] + "," if labels else ""
            lines.append(prefix + ",".join(cells))
        sys.stdout.write("\n".join(lines) + "\n")
        return
    rows = [[None if math.isnan(x) else x for x in row] for row in m]
    doc = {"labels": list(GENERATOR_NAMES), "matrix": rows} if labels \
        else {"matrix": rows}
    _print(doc)


# --- commands -------------------------------------------------------------------

def cmd_compose(args) -> int:
    g2, g1 = load_element(args.left), load_element(args.right)
    _print(element_doc(compose(g2, g1)))
    return 0


def cmd_invert(args) -> int:
    _print(element_doc(inverse(load_element(args.element))))
    return 0


def _rows(e: list) -> list:
    """The 15 rows of the 15x15 matrix with entries e, row by row."""
    return [e[i:i + 15] for i in range(0, 225, 15)]


def cmd_oplus(args) -> int:
    e = _oplus_entries(load_element(args.element))
    # the inputs are finite, so a non-finite entry is a float64 overflow
    # (the 2x2 minors of W can read inf - inf where the exact value is 1)
    bad = next((k for k, x in enumerate(e) if not math.isfinite(x)), None)
    if bad is not None:
        row, col = (GENERATOR_NAMES[i] for i in divmod(bad, 15))
        raise ValueError(f"oplus entry ({row}, {col}) overflows float64")
    _matrix_out(_rows(e), args.labels, args.csv)
    return 0


def cmd_theta(args) -> int:
    g = load_element(args.element)
    e = _theta_closed_entries(g) if args.closed else _theta_numeric(g)
    _matrix_out(_rows(e), args.labels, args.csv)
    return 0


def cmd_decompose(args) -> int:
    m = _document(_load_json(args.matrix), "matrix", ("matrix",)).get("matrix")
    p = _xl_decompose(_float_entries("matrix", m, (5, 5)))
    _print(element_doc(GroupParams(xl=p)))
    return 0


def cmd_check(args) -> int:
    from .algebra import table_from_json_obj
    from .checks import run_suite
    table = None
    if args.constants:
        table = table_from_json_obj(_load_json(args.constants))
    report = run_suite(args.suite, args.trials, args.seed, table)
    _print(report)
    return 0 if report["pass"] else PROPERTY_FAILURE


def cmd_dump_algebra(args) -> int:
    from .algebra import table_to_csv, table_to_json_obj
    if args.format == "csv":
        sys.stdout.write(table_to_csv(both_orders=args.full))
    else:
        _print(table_to_json_obj(both_orders=args.full))
    return 0


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xpoincare",
        description="Extended Poincare group toolkit: compose and invert group "
                    "elements, emit representation matrices, run verification "
                    "suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two elements, left times right")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("invert", help="invert an element")
    p.add_argument("element")
    p.set_defaults(fn=cmd_invert)

    for name, fn in (("oplus", cmd_oplus), ("theta", cmd_theta)):
        p = sub.add_parser(name, help=f"emit the 15x15 {name} matrix")
        p.add_argument("element")
        p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
        p.add_argument("--labels", action="store_true",
                       help="prepend generator names")
        if name == "theta":
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--numeric", action="store_true", default=True)
            mode.add_argument("--closed", action="store_true",
                              help="closed-form entries; unclaimed block is null")
        p.set_defaults(fn=fn)

    p = sub.add_parser("decompose",
                       help="factor a 5x5 extended-Lorentz matrix into parameters")
    p.add_argument("--matrix", required=True, help="JSON file with a 5x5 'matrix'")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constants",
                   help="JSON structure-constant table replacing the builtin "
                        "(jacobi/casimir suites)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dump-algebra", help="emit the structure-constant table")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--full", action="store_true",
                   help="list both orders of each antisymmetric pair")
    p.set_defaults(fn=cmd_dump_algebra)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return UNREACHABLE
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
