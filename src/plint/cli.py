"""Command-line surface: evaluate families, run verification, print tables.

The families, their parameter flags and endpoints come from the family
table (families.TABLE); `eval` and `table` read it and nothing else.

Working precision is at least 5 and at most MAX_DIGITS (2000) digits,
from `--digits` or `PLINT_DIGITS`; `verify --tol` must be a finite number
>= 0 and defaults to 10^-digits.  Anything outside those limits is a
parameter problem.

Exit codes: 0 success, 1 verification failure, 2 parameter problems,
3 genuinely divergent requests, 141 (128 + SIGPIPE) when the reader of
stdout closes it before the output ends.  Identical invocations print
identical bytes, so outputs can be frozen as goldens.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, mpf

from . import exact
from .errors import (DivergentAtOne, DivergentValue, NonIntegrable,
                     ParameterError, PlintError)
from .families import LOWER, TABLE, closed_form
from .numerics import numeric_eval
from .verification import SUITES, all_passed, format_value, run_suite

FAMILIES = tuple(name for name, entry in TABLE.items() if entry.cli)

DEFAULT_DIGITS = 30
# one evaluation at 2000 digits takes seconds; at 10^4 digits minutes
MAX_DIGITS = 2000


def _resolve_digits(flag_value: int | None, fallback: int = DEFAULT_DIGITS) -> int:
    if flag_value is not None:
        digits = flag_value
    else:
        text = os.environ.get("PLINT_DIGITS")
        if text is None:
            return fallback
        try:
            digits = int(text)
        except ValueError:
            raise ParameterError(f"PLINT_DIGITS must be an integer, got {text!r}")
    if digits < 5:
        raise ParameterError(f"digits must be at least 5, got {digits}")
    if digits > MAX_DIGITS:
        raise ParameterError(f"digits must be at most {MAX_DIGITS}, got {digits}")
    return digits


def _check_tol(text: str) -> None:
    try:
        tol = mpf(text)
    except ValueError:
        raise ParameterError(f"--tol must be a number, got {text!r}")
    if not (mp.isfinite(tol) and tol >= 0):
        raise ParameterError(f"--tol must be finite and at least 0, got {text}")


def _parse_point(text: str) -> Fraction:
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"--x must be a decimal like 0.75, got {text!r}")
    if not 0 < x <= 1:
        raise ParameterError(f"--x must lie in (0, 1], got {text}")
    return x


def cmd_eval(args: argparse.Namespace) -> int:
    family = args.family
    entry = TABLE[family]
    for name in ("m", "n", "p", "q"):
        value = getattr(args, name)
        if name in entry.params and value is None:
            flags = " ".join(f"--{k}" for k in entry.params)
            raise ParameterError(f"family {family} requires {flags}")
        if name not in entry.params and value is not None:
            raise ParameterError(f"--{name} is not a parameter of family {family}")
    params = [getattr(args, name) for name in entry.params]
    x = _parse_point(args.x)
    if entry.endpoint is None and x != 1:
        raise ParameterError(f"family {family} has no evaluation point; drop --x")
    digits = _resolve_digits(args.digits)

    form = closed_form(family, params, x)
    value = numeric_eval(form, x, digits)
    rendered = format_value(value)
    if args.format == "json":
        payload = {
            "family": family,
            "params": params,
            "x": "1" if x == 1 else str(float(x)),
            "form": exact.to_dict(form),
            "compact": exact.compact(form),
            "value": rendered,
        }
        print(json.dumps(payload))
    else:
        print(f"{exact.compact(form)} = {rendered}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be at least 1, got {args.jobs}")
    if args.tol is not None:
        _check_tol(args.tol)
    digits = _resolve_digits(args.digits, fallback=20)
    records = run_suite(args.suite, tol=args.tol, grid=args.grid,
                        digits=digits, jobs=args.jobs)
    print(json.dumps(records))
    passed = sum(1 for r in records if r["pass"])
    print(f"{passed}/{len(records)} pass", file=sys.stderr)
    return 0 if all_passed(records) else 1


def _table_rows(args: argparse.Namespace) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    family = args.family
    entry = TABLE[family]
    names = entry.params

    def cap(flag: str) -> int:
        value = getattr(args, f"max_{flag}")
        if value is None:
            raise ParameterError(f"family {family} needs --max-{flag}")
        if value < 1:
            raise ParameterError(f"--max-{flag} must be at least 1, got {value}")
        return value

    if entry.rows == "odd-weight":
        if args.max_weight is None:
            raise ParameterError(f"family {family} needs --max-weight")
        if args.max_weight < 3:
            raise ParameterError(
                f"--max-weight must be at least 3, got {args.max_weight}")
        rows = [(p, w - p)
                for w in range(3, args.max_weight + 1, 2)
                for p in range(1, w - 1)]
        return names, rows
    caps = [cap(name) for name in names]
    if entry.rows == "triangle":
        rows = [(m, n) for m in range(1, caps[0] + 1)
                for n in range(1, min(m, caps[1]) + 1)]
    else:
        grids = [range(1, c + 1) for c in caps]
        rows = [(i,) for i in grids[0]]
        for grid in grids[1:]:
            rows = [r + (j,) for r in rows for j in grid]
    return names, rows


def cmd_table(args: argparse.Namespace) -> int:
    family = args.family
    digits = _resolve_digits(args.digits)
    names, rows = _table_rows(args)
    # tables are families of constants: x pinned to 1, and integrals over
    # [x, 1] printed from 0 (their value at the default endpoint 1 is zero)
    x = Fraction(0) if TABLE[family].endpoint == LOWER else Fraction(1)
    body = []
    for row in rows:
        form = closed_form(family, row, x)
        body.append((row, exact.compact(form),
                     format_value(numeric_eval(form, digits=digits))))

    if args.format == "json":
        print(json.dumps([
            {**dict(zip(names, row)), "symbolic": sym, "value": val}
            for row, sym, val in body
        ]))
    elif args.format == "csv":
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(list(names) + ["symbolic", "value"])
        for row, sym, val in body:
            writer.writerow(list(row) + [sym, val])
        sys.stdout.write(sink.getvalue())
    else:
        header = list(names) + ["symbolic", "value"]
        table = [[str(v) for v in row] + [sym, val] for row, sym, val in body]
        widths = [max(len(line[i]) for line in [header] + table)
                  for i in range(len(header))]
        for line in [header] + table:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plint",
        description="Exact closed forms for polylogarithm integrals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one family member")
    p_eval.add_argument("--family", required=True, choices=FAMILIES)
    for name in ("m", "n", "p", "q"):
        p_eval.add_argument(f"--{name}", type=int)
    p_eval.add_argument("--x", default="1",
                        help="endpoint in (0,1] as an exact decimal; for M it is"
                             " the lower endpoint (default 1)")
    p_eval.add_argument("--format", choices=("json", "text"), default="text")
    p_eval.add_argument("--digits", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=SUITES)
    p_verify.add_argument("--tol", help="relative tolerance (default 10^-digits)")
    p_verify.add_argument("--grid", default="full", choices=("small", "full"))
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--digits", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate a family over a grid")
    p_table.add_argument("--family", required=True, choices=FAMILIES)
    for name in ("m", "n", "p", "q", "weight"):
        p_table.add_argument(f"--max-{name}", type=int, dest=f"max_{name}")
    p_table.add_argument("--format", choices=("text", "csv", "json"),
                         default="text")
    p_table.add_argument("--digits", type=int)
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DivergentAtOne, DivergentValue, NonIntegrable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PlintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
