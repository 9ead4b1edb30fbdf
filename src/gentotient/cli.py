"""Command-line interface.

Subcommands:
  eval EXPR QUANTITY     evaluate phi / exp / order / spectrum / report
  verify SUITE           run a named regression suite (nonzero exit on failure)
  solve P                solutions of phi(G) = p for prime p
  import PATH            validate and register a table / generator file as @id

Group expressions: `Z6`, `Z2^3`, `D8`, `Q16`, `SD16`, `S5`, `A6`, `M11`,
`MC(m,n,s,r)`, `Ab(2:1,2;3:1)`, `P(p,q,n)`, `@imported`; every `x` separates
the factors of a product (for example `Z6xS3`).  Each form but `@id` is the
pattern of a row of families.FAMILIES.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource limit, 4 input-file integrity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from itertools import accumulate
from pathlib import Path

from . import families
from .core import (
    CayleyTableGroup,
    Group,
    IntegrityError,
    PermutationClosureGroup,
    ResourceLimitError,
    report,
)
from .classc import solve_phi_eq_prime
from .families import ExpressionError
from .numtheory import decimal_digits
from .verification import SUITES, run_suite, summarize

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTEGRITY = 4

DEFAULT_REGISTRY = "gentotient_registry.json"

QUANTITIES = ("phi", "exp", "order", "spectrum", "report")


_ID = r"[\w.-]+"  # what @id accepts as an id
_AT_ID = re.compile(rf"@({_ID})")


def parse_group_expression(expr: str, registry_path: Path = None) -> Group:
    """Turn a family expression like `Z6xS3` into a group; every `x` separates factors."""
    expr = expr.replace(" ", "")
    if not expr:
        raise ExpressionError("empty expression")
    depth = list(accumulate((ch == "(") - (ch == ")") for ch in expr))
    if min(depth) < 0 or depth[-1]:
        raise ExpressionError(f"unbalanced parentheses in {expr!r}")
    factors = []
    for token in expr.split("x"):
        if not token:
            raise ExpressionError(f"empty factor in {expr!r}")
        factors.append(_build_factor(token, registry_path))
    if len(factors) == 1:
        return factors[0]
    return families.direct_product(factors)


def _build_factor(token: str, registry_path: Path = None) -> Group:
    """The group one factor names: an @id, or a form of families.FAMILIES."""
    try:
        m = _AT_ID.fullmatch(token)
        if m:
            return _load_registered(m[1], registry_path)
        for family in families.FAMILIES:
            m = family.pattern and family.pattern.fullmatch(token)
            if m:
                params = family.params(m)
                if family.log10_order:
                    _require_printable(token, "order", (family.log10_order(*params) >> 64) + 1)
                return family.build(*params)
    except (ValueError, KeyError, OverflowError) as exc:
        if isinstance(exc, ExpressionError):
            raise
        raise ExpressionError(f"cannot build {token!r}: {exc}") from exc
    raise ExpressionError(f"unrecognized factor {token!r}")


# ---------------------------------------------------------------------------
# imported-group registry
# ---------------------------------------------------------------------------


def _read_registry(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        registry = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"cannot read registry {path}: {exc}") from exc
    if not isinstance(registry, dict):
        raise IntegrityError(f"registry {path} is not a JSON object")
    return registry


def _write_registry(path: Path, registry: dict) -> None:
    """Replace the registry file in one step, so a reader never sees half of it."""
    # indent would switch json to its pure-Python encoder, several times slower
    text = json.dumps(registry, sort_keys=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IntegrityError(f"cannot write registry {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


_ENTRY_FIELD = {"cayley-table": "table", "permutation-generators": "generators"}


def _group_from_entry(entry: dict, name: str) -> Group:
    """The group a registry entry describes, checked against its declared order."""
    if entry["type"] == "cayley-table":
        group = CayleyTableGroup(entry["table"], name=name)
    else:
        group = PermutationClosureGroup(entry["generators"], name=name)
    declared = entry.get("order")
    if declared is not None and declared != group.order:
        raise IntegrityError(f"{name} has {group.order} elements, declared order is {declared!r}")
    return group


def _load_registered(group_id: str, registry_path: Path = None) -> Group:
    path = registry_path or Path(DEFAULT_REGISTRY)
    registry = _read_registry(path)
    if group_id not in registry:
        raise ExpressionError(f"no imported group @{group_id} in {path}")
    entry = registry[group_id]
    name = f"@{group_id}"
    kind = entry.get("type") if isinstance(entry, dict) else None
    if kind not in _ENTRY_FIELD:
        problem = "lacks 'type'" if kind is None else f"has unknown type {kind!r}"
        raise IntegrityError(f"registry {path}: entry {name} {problem}")
    if _ENTRY_FIELD[kind] not in entry:
        raise IntegrityError(f"registry {path}: entry {name} lacks {_ENTRY_FIELD[kind]!r}")
    try:
        return _group_from_entry(entry, name)
    except IntegrityError as exc:
        raise IntegrityError(f"registry {path}: entry {name}: {exc}") from exc


def import_group_file(path: Path, group_id: str, registry_path: Path) -> Group:
    """Validate a Cayley-table or permutation-generator file and register it.

    Table files: {"order": n, "table": [[...]]}, 0-indexed, index 0 = identity.
    Generator files: JSON list of image arrays on points 0..d-1.
    """
    # `x` separates the factors of a product, so @id cannot name an id with it
    if not re.fullmatch(_ID, group_id) or "x" in group_id:
        raise ExpressionError(
            f"@{group_id} could not be referenced: an id takes letters, digits, "
            f"'_', '.' and '-', but no 'x' (choose one with --id)"
        )
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"cannot read {path}: {exc}") from exc
    # the validated rows and generators are stored as read
    if isinstance(data, dict) and "table" in data:
        entry = {"type": "cayley-table", "table": data["table"], "order": data.get("order")}
    elif isinstance(data, list):
        entry = {"type": "permutation-generators", "generators": data}
    else:
        raise IntegrityError(f"{path}: expected a table object or a list of image arrays")
    try:
        group = _group_from_entry(entry, f"@{group_id}")
    except IntegrityError as exc:
        raise IntegrityError(f"{path}: {exc}") from exc
    entry["order"] = group.order
    registry = _read_registry(registry_path)
    registry[group_id] = entry
    _write_registry(registry_path, registry)
    return group


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_rows(rows, fmt: str, out) -> None:
    if fmt == "json":
        payload = {
            "rows": [r.as_dict() for r in rows],
            "summary": summarize(rows),
        }
        out.write(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")
        return
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["label", "expected", "computed", "status"])
        for r in rows:
            writer.writerow([r.label, r.expected, r.computed, r.status])
        return
    width = max(len(r.label) for r in rows) if rows else 0
    for r in rows:
        out.write(
            f"{r.label:<{width}}  expected={r.expected!r:<12} "
            f"computed={r.computed!r:<12} {r.status.upper()}\n"
        )
    summary = summarize(rows)
    out.write(f"{summary['pass']} passed, {summary['fail']} failed\n")


def _require_printable(expr: str, quantity: str, digits: int) -> None:
    """Refuse an answer with more decimal digits than Python prints."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and digits > limit:
        raise ResourceLimitError(
            f"the {quantity} of {expr} has {digits} decimal digits; "
            f"at most {limit} can be printed"
        )


def _cmd_eval(args, out) -> int:
    group = parse_group_expression(args.expr, args.registry)
    # these print |G|, and no other number they print exceeds it
    if args.quantity in ("order", "spectrum", "report"):
        _require_printable(args.expr, args.quantity, decimal_digits(group.order))
    if args.quantity == "order":
        result = {"order": group.order}
    elif args.quantity == "exp":
        result = {"exponent": group.spectrum().exponent()}
    elif args.quantity == "phi":
        result = {"phi": group.spectrum().phi()}
    elif args.quantity == "spectrum":
        spec = group.spectrum()
        result = {
            "order": group.order,
            "exponent": spec.exponent(),
            "spectrum": {str(d): spec.entries[d] for d in spec.orders()},
        }
    else:
        result = report(group).as_dict()
    if args.quantity in ("phi", "exp"):
        _require_printable(args.expr, args.quantity, decimal_digits(next(iter(result.values()))))
    if args.json:
        out.write(json.dumps(result, indent=1, sort_keys=True) + "\n")
    elif args.quantity in ("phi", "exp", "order"):
        out.write(f"{next(iter(result.values()))}\n")
    elif args.quantity == "spectrum":
        for d_str, count in result["spectrum"].items():
            out.write(f"{d_str}\t{count}\n")
        out.write(f"exponent: {result['exponent']}\n")
    else:
        for key, value in result.items():
            out.write(f"{key}: {value}\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    rows = run_suite(args.suite)
    fmt = "json" if args.json else ("csv" if args.csv else "text")
    _render_rows(rows, fmt, out)
    return EXIT_OK if all(r.status == "pass" for r in rows) else EXIT_VERIFY_FAIL


def _cmd_solve(args, out) -> int:
    solution = solve_phi_eq_prime(args.p)
    payload = {
        "p": solution.p,
        "kind": solution.kind,
        "groups": [
            {"name": g.name, "order": g.order, "phi": g.spectrum().phi()}
            for g in solution.specs
        ],
    }
    if args.json:
        out.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    else:
        if not solution.specs:
            out.write(f"phi(G) = {solution.p} has no solutions\n")
        for g in payload["groups"]:
            out.write(f"{g['name']}  order={g['order']}  phi={g['phi']}\n")
    return EXIT_OK


def _cmd_import(args, out) -> int:
    group_id = args.id or Path(args.path).stem
    group = import_group_file(Path(args.path), group_id, args.registry)
    out.write(f"registered @{group_id}: order {group.order}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentotient",
        description="Generalized totient of finite groups: count the elements "
                    "of maximal order.",
    )
    parser.add_argument("--registry", type=Path, default=Path(DEFAULT_REGISTRY),
                        help="path of the imported-group registry file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quantity on a group expression")
    p_eval.add_argument("expr")
    p_eval.add_argument("quantity", choices=QUANTITIES)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(run=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a regression suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    fmt = p_verify.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_verify.set_defaults(run=_cmd_verify)

    p_solve = sub.add_parser("solve", help="solve phi(G) = p for prime p")
    p_solve.add_argument("p", type=int)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(run=_cmd_solve)

    p_import = sub.add_parser("import", help="register a group file for @id use")
    p_import.add_argument("path")
    p_import.add_argument("--id", help="registry id (default: file stem)")
    p_import.set_defaults(run=_cmd_import)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code or 0)
    try:
        return args.run(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    raise SystemExit(main())
