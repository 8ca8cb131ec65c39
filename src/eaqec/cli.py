"""Command-line front end for the library.

Subcommands cover the full pipeline: parsing code files (text or JSON),
dualizing, weight enumeration, minimum distance, checking the transform
identities, LP distance bounds, the bounds table, the registry of known codes,
and the extension rules.  Output is deterministic — identical inputs give
byte-identical output — and ``--format json`` encodes the same numbers as the
text form.  Each subcommand computes its result once and returns it as an
:class:`Output`; :func:`main` is the one place output is rendered and written.
Exit status: 0 on success, 1 when a verification fails, 2 on any usage, input
or output error, 130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

from .codes import (
    CodeRegistryEntry,
    EaqecCode,
    code_to_json_dict,
    dual,
    extend_code,
    format_code_text,
    from_generators,
    min_distance,
    parse_code_json,
    parse_code_text,
    registry,
)
from .enumerator import DEFAULT_BUDGET_LOG2, eaqec_identities, weight_enumerator
from .errors import EaqecError, ParseError
from .lpbound import build_table, lp_feasible_general, lp_upper_bound

_GROUP_CHOICES = ("stabilizer", "isotropic", "logical", "normalizer", "combined")


# ---------------------------------------------------------------------------
# input handling


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _load_code(path: str) -> EaqecCode:
    """Parse a code file, auto-detecting the JSON and text formats; a
    leading UTF-8 byte-order mark is dropped."""
    try:
        text = _read_input(path).decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8 ({exc})") from None
    if text.lstrip().startswith("{"):
        return from_generators(*parse_code_json(text))
    return from_generators(*parse_code_text(text))


# ---------------------------------------------------------------------------
# subcommands


class Output(NamedTuple):
    """A subcommand's result: the JSON record, its text rendering, and the
    exit status."""

    record: object
    text: str
    status: int = 0


def _cmd_dual(args: argparse.Namespace) -> Output:
    code = dual(_load_code(args.code_file))
    return Output(code_to_json_dict(code), format_code_text(code))


def _cmd_wenum(args: argparse.Namespace) -> Output:
    code = _load_code(args.code_file)
    group = getattr(code, f"{args.group}_group")
    enum = weight_enumerator(group, budget_log2=args.budget)
    record = {
        "n": enum.n,
        "group": args.group,
        "order": enum.order,
        "coefficients": list(enum.coeffs),
    }
    text = "".join(f"{w} {count}\n" for w, count in enumerate(enum.coeffs))
    return Output(record, text)


def _cmd_distance(args: argparse.Namespace) -> Output:
    code = _load_code(args.code_file)
    d = min_distance(code, budget_log2=args.budget)
    return Output({"n": code.n, "k": code.k, "c": code.c, "distance": d}, f"{d}\n")


def _cmd_verify_mw(args: argparse.Namespace) -> Output:
    code = _load_code(args.code_file)
    normalizer_check, isotropic_check = eaqec_identities(code, budget_log2=args.budget)
    ok = normalizer_check.holds and isotropic_check.holds
    checks = (
        ("normalizer-from-stabilizer", normalizer_check),
        ("isotropic-from-combined", isotropic_check),
    )
    record = {
        "checks": {
            name: {
                "direct": list(check.direct.coeffs),
                "transformed": list(check.transformed.coeffs),
                "holds": check.holds,
            }
            for name, check in checks
        },
        "holds": ok,
    }
    text = "".join(
        f"{name}: {'ok' if check.holds else 'MISMATCH'}\n"
        f"  direct:      {' '.join(map(str, check.direct.coeffs))}\n"
        f"  transformed: {' '.join(map(str, check.transformed.coeffs))}\n"
        for name, check in checks
    )
    text += "verification passed\n" if ok else "verification FAILED\n"
    return Output(record, text, 0 if ok else 1)


def _cmd_lp_bound(args: argparse.Namespace) -> Output:
    n, k = args.n, args.k
    c = args.c if args.c is not None else n - k
    if args.d is not None:
        feasible = lp_feasible_general(n, k, c, args.d)
        record = {"n": n, "k": k, "c": c, "d": args.d, "feasible": feasible}
        return Output(record, "feasible\n" if feasible else "infeasible\n")
    bound = lp_upper_bound(n, k, c)
    return Output({"n": n, "k": k, "c": c, "upper_bound": bound}, f"{bound}\n")


def _cmd_table(args: argparse.Namespace) -> Output:
    table = build_table(args.nmax)
    return Output(table.to_json_dict(), table.to_text())


def _cmd_registry(args: argparse.Namespace) -> Output:
    entries = registry()
    if args.nmax is not None:
        entries = tuple(e for e in entries if e.n <= args.nmax)
    record = {
        "entries": [
            {
                "n": e.n,
                "k": e.k,
                "d": e.d,
                "c": e.c,
                "source": e.source,
                "has_generators": e.generators is not None,
            }
            for e in entries
        ]
    }
    text = "".join(
        f"{e.params_str} source={e.source} "
        f"generators={'yes' if e.generators is not None else 'no'}\n"
        for e in entries
    )
    return Output(record, text)


def _cmd_extend(args: argparse.Namespace) -> Output:
    entry = CodeRegistryEntry(args.n, args.k, args.c, args.d, "literature")
    result = extend_code(entry, args.mode)
    record = {
        "n": result.n,
        "k": result.k,
        "d": result.d,
        "c": result.c,
        "mode": args.mode,
    }
    return Output(record, f"{result.params_str}\n")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqec",
        description=(
            "Entanglement-assisted quantum code toolkit: duality, weight "
            "enumerators, transform identities, and LP distance bounds."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--budget",
            type=int,
            metavar="LOG2",
            default=DEFAULT_BUDGET_LOG2,
            help=(
                "enumeration budget as log2 of the element count "
                "(default: %(default)s)"
            ),
        )

    def add_code_file(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "code_file",
            nargs="?",
            default="-",
            help="code file, text or JSON format; '-' reads stdin (default)",
        )

    p = sub.add_parser(
        "dual", help="swap entangled stabilizer pairs with logical pairs"
    )
    add_code_file(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("wenum", help="weight enumerator of one of the code's groups")
    add_code_file(p)
    p.add_argument(
        "--group",
        choices=_GROUP_CHOICES,
        default="stabilizer",
        help="which subgroup to enumerate (default: stabilizer)",
    )
    add_budget(p)
    p.set_defaults(func=_cmd_wenum)

    p = sub.add_parser("distance", help="minimum distance by group enumeration")
    add_code_file(p)
    add_budget(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser(
        "verify-mw",
        help="check both transform identities on a code; exit 1 on mismatch",
    )
    add_code_file(p)
    add_budget(p)
    p.set_defaults(func=_cmd_verify_mw)

    p = sub.add_parser(
        "lp-bound",
        help="LP distance bound for given parameters, or feasibility at --d",
    )
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--k", type=int, required=True, help="information qubit count")
    p.add_argument(
        "--c",
        type=int,
        default=None,
        help="ebit count (default: n - k, maximal entanglement)",
    )
    p.add_argument(
        "--d", type=int, default=None, help="trial distance to test instead of scanning"
    )
    p.set_defaults(func=_cmd_lp_bound)

    p = sub.add_parser(
        "table",
        help="bounds grid for all maximal-entanglement parameters up to --nmax",
    )
    p.add_argument("--nmax", type=int, required=True, help="largest qubit count")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("registry", help="list the known codes")
    p.add_argument(
        "--nmax", type=int, default=None, help="only list codes with n <= NMAX"
    )
    p.set_defaults(func=_cmd_registry)

    p = sub.add_parser("extend", help="apply an extension rule to known parameters")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--k", type=int, required=True, help="information qubit count")
    p.add_argument("--c", type=int, required=True, help="ebit count")
    p.add_argument("--d", type=int, required=True, help="distance")
    p.add_argument(
        "--mode",
        choices=("lengthen", "trade"),
        required=True,
        help="lengthen: [[n,k,d;c]] -> [[n+1,k,d;c+1]]; trade: -> [[n,k-1,d;c+1]]",
    )
    p.set_defaults(func=_cmd_extend)

    for p in sub.choices.values():
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
    return parser


def _write(stream: TextIO | None, text: str) -> None:
    """Write and flush ``text``, so an output error surfaces here and not at
    the interpreter's final flush.  A missing stream is an output error.  On
    failure the stream's descriptor, where it has one, is pointed at
    ``os.devnull``, so the final flush of what is left buffered cannot fail
    again (the recipe in the ``signal`` docs' note on SIGPIPE)."""
    if stream is None:
        raise OSError("the output stream is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _report(message: str) -> None:
    """Best-effort message to stderr: a failure to write it changes nothing."""
    try:
        _write(sys.stderr, message + "\n")
    except (OSError, ValueError):
        pass


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.func(args)
        if args.format == "json":
            _write(sys.stdout, json.dumps(out.record, indent=2, sort_keys=True) + "\n")
        else:
            _write(sys.stdout, out.text)
        return out.status
    except (EaqecError, ValueError, OSError) as exc:
        _report(f"error: {exc}")
        return 2
    except KeyboardInterrupt:
        _report("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
