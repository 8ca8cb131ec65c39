"""Command-line front end for the library.

Subcommands cover the full pipeline: parsing code files (text or JSON),
dualizing, weight enumeration, minimum distance, checking the transform
identities, LP distance bounds, the bounds table, the registry of known codes,
and the extension rules.  Output is deterministic — identical inputs give
byte-identical output — and ``--format json`` encodes the same numbers as the
text form.  Exit status: 0 on success, 1 when a verification fails, 2 on any
usage or input error, 130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import sys
from os import environ
from pathlib import Path
from typing import Sequence

from .codes import (
    CodeRegistryEntry,
    EaqecCode,
    build_code,
    complete_logical,
    code_to_json_dict,
    dual,
    extend_code,
    format_code_text,
    min_distance,
    parse_code_json,
    parse_code_text,
    registry,
)
from .enumerator import DEFAULT_BUDGET_LOG2, eaqec_identities, weight_enumerator
from .errors import EaqecError, ParseError
from .lpbound import (
    build_table,
    integer_feasible,
    lp_feasible,
    lp_feasible_general,
    lp_upper_bound,
)

BUDGET_ENV_VAR = "EAQEC_BUDGET_LOG2"

_GROUP_CHOICES = ("stabilizer", "isotropic", "logical", "normalizer", "combined")


# ---------------------------------------------------------------------------
# input handling


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _load_code(path: str) -> EaqecCode:
    """Parse a code file, auto-detecting the JSON and text formats."""
    try:
        text = _read_input(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8 ({exc})") from None
    if text.lstrip().startswith("{"):
        return build_code(*parse_code_json(text))
    return build_code(*parse_code_text(text))


def _budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return args.budget
    env = environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise EaqecError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_BUDGET_LOG2


def _print_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dual(args: argparse.Namespace) -> int:
    code = dual(_load_code(args.code_file))
    if args.format == "json":
        _print_json(code_to_json_dict(code))
    else:
        sys.stdout.write(format_code_text(code))
    return 0


def _cmd_wenum(args: argparse.Namespace) -> int:
    code = complete_logical(_load_code(args.code_file))
    group = {
        "stabilizer": code.stabilizer_group,
        "isotropic": code.isotropic_group,
        "logical": code.logical_group,
        "normalizer": code.normalizer_group,
        "combined": code.combined_group,
    }[args.group]
    enum = weight_enumerator(group, budget_log2=_budget(args))
    if args.format == "json":
        _print_json(
            {
                "n": enum.n,
                "group": args.group,
                "order": enum.order,
                "coefficients": list(enum.coeffs),
            }
        )
    else:
        for w, count in enumerate(enum.coeffs):
            print(f"{w} {count}")
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    code = _load_code(args.code_file)
    d = min_distance(code, budget_log2=_budget(args))
    if args.format == "json":
        _print_json({"n": code.n, "k": code.k, "c": code.c, "distance": d})
    else:
        print(d)
    return 0


def _cmd_verify_mw(args: argparse.Namespace) -> int:
    code = _load_code(args.code_file)
    normalizer_check, isotropic_check = eaqec_identities(
        code, budget_log2=_budget(args)
    )
    ok = normalizer_check.holds and isotropic_check.holds
    checks = (
        ("normalizer-from-stabilizer", normalizer_check),
        ("isotropic-from-combined", isotropic_check),
    )
    if args.format == "json":
        _print_json(
            {
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
        )
    else:
        for name, check in checks:
            print(f"{name}: {'ok' if check.holds else 'MISMATCH'}")
            print("  direct:      " + " ".join(str(x) for x in check.direct.coeffs))
            print(
                "  transformed: " + " ".join(str(x) for x in check.transformed.coeffs)
            )
        print("verification passed" if ok else "verification FAILED")
    return 0 if ok else 1


def _cmd_lp_bound(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    c = args.c if args.c is not None else n - k
    maximal = c == n - k
    if args.branch_and_bound and not maximal:
        raise EaqecError("--branch-and-bound requires maximal entanglement (c = n - k)")
    if args.d is not None:
        if maximal:
            feasible = lp_feasible(n, k, args.d)
            if feasible and args.branch_and_bound:
                feasible = integer_feasible(n, k, args.d) is not False
        else:
            feasible = lp_feasible_general(n, k, c, args.d)
        if args.format == "json":
            _print_json({"n": n, "k": k, "c": c, "d": args.d, "feasible": feasible})
        else:
            print("feasible" if feasible else "infeasible")
        return 0
    bound = lp_upper_bound(n, k, c, branch_and_bound=args.branch_and_bound)
    if args.format == "json":
        _print_json({"n": n, "k": k, "c": c, "upper_bound": bound})
    else:
        print(bound)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    table = build_table(args.nmax)
    if args.format == "json":
        _print_json(table.to_json_dict())
    else:
        sys.stdout.write(table.to_text())
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    entries = registry()
    if args.nmax is not None:
        entries = tuple(e for e in entries if e.n <= args.nmax)
    if args.format == "json":
        _print_json(
            {
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
        )
    else:
        for e in entries:
            has_gens = "yes" if e.generators is not None else "no"
            print(f"{e.params_str} source={e.source} generators={has_gens}")
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    entry = CodeRegistryEntry(args.n, args.k, args.c, args.d, "literature")
    result = extend_code(entry, args.mode)
    if args.format == "json":
        _print_json(
            {
                "n": result.n,
                "k": result.k,
                "d": result.d,
                "c": result.c,
                "mode": args.mode,
            }
        )
    else:
        print(result.params_str)
    return 0


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

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--budget",
            type=int,
            metavar="LOG2",
            default=None,
            help=(
                "enumeration budget as log2 of the element count "
                f"(default: ${BUDGET_ENV_VAR} or {DEFAULT_BUDGET_LOG2})"
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
    add_format(p)
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
    add_format(p)
    p.set_defaults(func=_cmd_wenum)

    p = sub.add_parser("distance", help="minimum distance by group enumeration")
    add_code_file(p)
    add_budget(p)
    add_format(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser(
        "verify-mw",
        help="check both transform identities on a code; exit 1 on mismatch",
    )
    add_code_file(p)
    add_budget(p)
    add_format(p)
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
    p.add_argument(
        "--branch-and-bound",
        action="store_true",
        help="also rule out trial distances with no integer solution",
    )
    add_format(p)
    p.set_defaults(func=_cmd_lp_bound)

    p = sub.add_parser(
        "table",
        help="bounds grid for all maximal-entanglement parameters up to --nmax",
    )
    p.add_argument("--nmax", type=int, required=True, help="largest qubit count")
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("registry", help="list the known codes")
    p.add_argument(
        "--nmax", type=int, default=None, help="only list codes with n <= NMAX"
    )
    add_format(p)
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
    add_format(p)
    p.set_defaults(func=_cmd_extend)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EaqecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
