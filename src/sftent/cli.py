"""Command-line interface.

Subcommands: ``count``, ``entropy-rect``, ``entropy-omega``, ``projectional``
and ``reproduce`` (the checks of :mod:`sftent.reproduce`, with pass/fail
verdicts).  All real numbers print with 12 significant digits (natural
logarithm throughout); exact counts print in full decimal.  Exit codes: 0 ok,
1 reproduction failed, 2 usage/parse error, 3 budget exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import counting, entropy
from .errors import BudgetExceeded, SftentError
from .formats import FormatError, real_text, resolve_lattice, resolve_spec, resolve_system
from .reproduce import DEFAULT_N, DEFAULT_Q, DEFAULT_TERMS, REPRODUCERS

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_SEQUENCE_FORMATS = ("csv", "json", "plot")   # entropy tables and sequences


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_mode(text: str) -> int | None:
    """The counting margin a --mode value asks for: None for local counts."""
    if text == "local":
        return None
    if text.startswith("ext:"):
        try:
            return int(text[4:])
        except ValueError:
            pass
    raise FormatError(f"mode must be 'local' or 'ext:M', got {text!r}")


def _int_pair(text: str, sep: str, form: str) -> tuple[int, int]:
    """Two decimal integers joined by `sep` (case-insensitive), written `form`
    in the usage error."""
    try:
        a, b = map(int, text.lower().split(sep))
    except ValueError:
        raise FormatError(f"expected {form}, got {text!r}") from None
    return a, b


# ---------------------------------------------------------------------------
# serialisation of tables / sequences
# ---------------------------------------------------------------------------


def _json(obj) -> str:
    """One compact JSON line, keys sorted."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sequence_text(seq: entropy.EntropySequence, fmt: str) -> str:
    if fmt == "csv":
        lines = ["n,size,log_count,ratio"]
        lines += [
            f"{r.n},{r.size},{real_text(r.log_count)},{real_text(r.ratio)}" for r in seq.records
        ]
        lines.append(f"# estimate,{real_text(seq.estimate)},kind,{seq.estimator_kind}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({"records": [{"n": r.n, "size": r.size, "log_count": r.log_count, "ratio": r.ratio}
                                  for r in seq.records],
                      "estimate": seq.estimate, "estimator_kind": seq.estimator_kind, "note": seq.note})
    return "".join(f"{r.n} {real_text(r.ratio)}\n" for r in seq.records)   # plot


def _table_text(table: entropy.RectTable, fmt: str) -> str:
    if fmt == "csv":
        lines = ["m,n,log_count,ratio"]
        lines += [
            f"{m},{n},{real_text(lc)},{real_text(ratio)}" for m, n, lc, ratio in table.entries()
        ]
        lines.append(f"# h_r_estimate,{real_text(table.h_r_estimate)}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _json({"max_width": table.max_width, "max_height": table.max_height,
                      "log_counts": [list(row) for row in table.log_counts],
                      "h_r_estimate": table.h_r_estimate, "argmin": list(table.argmin)})
    # plot: the per-width ratio at the tallest column, the table's converging edge
    return "".join(
        f"{m} {real_text(table.ratio(m, table.max_height))}\n"
        for m in range(1, table.max_width + 1)
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_count(args) -> int:
    spec = resolve_spec(args.spec)
    lat = resolve_lattice(args.lattice)
    result = counting.count(lat, spec, margin=_parse_mode(args.mode), budget=args.budget)
    if args.format == "json":
        text = _json({"value": str(result.value), "mode": result.mode,
                      "margin": result.margin, "cells": result.lattice_size})
    elif args.format == "csv":
        text = "value,mode,cells\n" f"{result.value},{result.mode},{result.lattice_size}\n"
    else:
        text = f"{result.value} {result.mode} {result.lattice_size}\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_entropy_rect(args) -> int:
    spec = resolve_spec(args.spec)
    m, n = _int_pair(args.table, "x", "MxN")
    table = entropy.rect_entropy_table(spec, m, n)
    _emit(_table_text(table, args.format), args.out)
    return EXIT_OK


def _cmd_entropy_omega(args) -> int:
    spec = resolve_spec(args.spec)
    system = resolve_system(args.system)
    lo, hi = _int_pair(args.n_range, ":", "a:b")
    seq = entropy.system_entropy(spec, system, lo, hi)
    _emit(_sequence_text(seq, args.format), args.out)
    return EXIT_OK


def _cmd_projectional(args) -> int:
    spec = resolve_spec(args.spec)
    vx, vy = _int_pair(args.v, ",", "x,y")
    seq = entropy.projectional_entropy(spec, (vx, vy), args.n_max, margin=_parse_mode(args.mode))
    _emit(_sequence_text(seq, args.format), args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    ok, lines = REPRODUCERS[args.target](q=args.q, n=args.n, terms=args.terms)
    verdict = "PASS" if ok else "FAIL"
    text = "\n".join(lines + [f"{verdict} {args.target}"]) + "\n"
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@cache     # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftent",
        description=(
            "Exact pattern counts and spatial entropies of 2-D shifts of finite "
            "type.  All logarithms are natural; reals print with 12 significant "
            "digits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *formats):
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help=f"output format (default {formats[0]})")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("count", help="count admissible patterns on a lattice")
    p.add_argument("--spec", required=True, help="builtin name, full:N, inline JSON or a file")
    p.add_argument("--lattice", required=True, help="shorthand (rect:3,2), inline JSON or a file")
    p.add_argument("--mode", default="local", help="local (default) or ext:M")
    p.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET,
                   help="cap on N**cells of brute force and enumeration; with ext:M also on "
                        "a question set's pins, a pinned sweep step's words and a search's cells")
    add_common(p, "text", "csv", "json")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("entropy-rect", help="rectangular entropy table")
    p.add_argument("--spec", required=True)
    p.add_argument("--table", default="12x12", help="MxN table size")
    add_common(p, *_SEQUENCE_FORMATS)
    p.set_defaults(func=_cmd_entropy_rect)

    p = sub.add_parser("entropy-omega", help="entropy along an expanding system")
    p.add_argument("--spec", required=True)
    p.add_argument("--system", required=True, help="shorthand (omega_q:2), inline JSON or a file")
    p.add_argument("--n-range", default="1:8", help="index range a:b")
    add_common(p, *_SEQUENCE_FORMATS)
    p.set_defaults(func=_cmd_entropy_omega)

    p = sub.add_parser("projectional", help="entropy along a lattice direction")
    p.add_argument("--spec", required=True)
    p.add_argument("--v", required=True, help="direction vector 'x,y' (primitive)")
    p.add_argument("--n-max", type=int, default=24)
    p.add_argument("--mode", default="local")
    add_common(p, *_SEQUENCE_FORMATS)
    p.set_defaults(func=_cmd_projectional)

    p = sub.add_parser("reproduce", help="run a named verification experiment")
    p.add_argument("target", choices=sorted(REPRODUCERS))
    p.add_argument("--q", type=int, default=DEFAULT_Q)
    p.add_argument("--n", type=int, default=DEFAULT_N)
    p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
    add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact counts print in full: Python's int-to-str digit limit (3.11, and
    # 3.10 from 3.10.7 on) is lifted while the command runs, then restored
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except (BudgetExceeded, MemoryError) as exc:
        print(f"budget exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, SftentError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
