"""Command-line interface.

Subcommands:
  eval EXPR QUANTITY     evaluate phi / exp / order / spectrum / report
  verify SUITE           run a named regression suite (nonzero exit on failure)
  solve P                solutions of phi(G) = p for prime p
  import PATH            validate and register a table / generator file as @id

Group expressions: `Z6`, `Z2^3`, `D8`, `Q16`, `SD16`, `S5`, `A6`, `M11`,
`MC(m,n,s,r)`, `Ab(2:1,2;3:1)`, `P(p,q,n)`, `@imported`, products with `x`
(for example `Z6xS3`).

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
from pathlib import Path

from . import families
from .core import (
    AbelianGroup,
    CayleyTableGroup,
    Group,
    IntegrityError,
    PermutationClosureGroup,
    ResourceLimitError,
    report,
)
from .classc import solve_phi_eq_prime
from .numtheory import decimal_digits, factorize, is_prime
from .verification import SUITES, run_suite, summarize

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTEGRITY = 4

DEFAULT_REGISTRY = "gentotient_registry.json"

QUANTITIES = ("phi", "exp", "order", "spectrum", "report")


class ExpressionError(ValueError):
    pass


_ID = r"[\w.-]+"  # what @id accepts as an id


_FACTOR_PATTERNS = [
    (re.compile(r"^M11$"), lambda m, reg: families.mathieu11()),
    (re.compile(r"^Z(\d+)\^(\d+)$"), lambda m, reg: _power_of_cyclic(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^Z(\d+)$"), lambda m, reg: families.cyclic(int(m.group(1)))),
    (re.compile(r"^D(\d+)$"), lambda m, reg: families.dihedral(int(m.group(1)))),
    (re.compile(r"^Q(\d+)$"), lambda m, reg: families.generalized_quaternion(int(m.group(1)))),
    (re.compile(r"^SD(\d+)$"), lambda m, reg: families.quasidihedral(int(m.group(1)))),
    (re.compile(r"^S(\d+)$"), lambda m, reg: families.symmetric(int(m.group(1)))),
    (re.compile(r"^A(\d+)$"), lambda m, reg: families.alternating(int(m.group(1)))),
    (re.compile(r"^MC\((\d+),(\d+),(\d+),(\d+)\)$"),
     lambda m, reg: families.metacyclic(*(int(x) for x in m.groups()))),
    (re.compile(r"^P\((\d+),(\d+),(\d+)\)$"),
     lambda m, reg: families.p_group_P(*(int(x) for x in m.groups()))),
    (re.compile(r"^Ab\(([0-9:,;]+)\)$"), lambda m, reg: _parse_abelian(m.group(1))),
    (re.compile(rf"^@({_ID})$"), lambda m, reg: _load_registered(m.group(1), reg)),
]


def _power_of_cyclic(base: int, k: int) -> Group:
    """Z_base^k as an abelian group, so its spectrum is subject to the cap."""
    if is_prime(base):
        return families.elementary_abelian(base, k)
    if base < 1 or k < 1:
        raise ValueError(f"need a base and a power >= 1, got Z{base}^{k}")
    if base == 1:
        return families.cyclic(1)
    return AbelianGroup([(p, [a] * k) for p, a in factorize(base).items()],
                        name=f"Z{base}^{k}")


def _parse_abelian(body: str) -> Group:
    ptype = []
    for chunk in body.split(";"):
        if ":" not in chunk:
            raise ExpressionError(f"bad abelian chunk {chunk!r}; want p:a1,a2,...")
        p_str, exps = chunk.split(":", 1)
        ptype.append((int(p_str), [int(a) for a in exps.split(",")]))
    return families.abelian(ptype)


def _split_product(expr: str) -> list[str]:
    """Split on 'x' separators outside parentheses."""
    out, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ExpressionError(f"unbalanced parentheses in {expr!r}")
        if ch == "x" and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ExpressionError(f"unbalanced parentheses in {expr!r}")
    out.append("".join(cur))
    return out


def parse_group_expression(expr: str, registry_path: Path = None) -> Group:
    """Turn a family expression like `Z6xS3` into a group."""
    expr = expr.replace(" ", "")
    if not expr:
        raise ExpressionError("empty expression")
    factors = []
    for token in _split_product(expr):
        if not token:
            raise ExpressionError(f"empty factor in {expr!r}")
        for pattern, build in _FACTOR_PATTERNS:
            m = pattern.match(token)
            if m:
                try:
                    factors.append(build(m, registry_path))
                except (ValueError, KeyError) as exc:
                    if isinstance(exc, ExpressionError):
                        raise
                    raise ExpressionError(f"cannot build {token!r}: {exc}") from exc
                break
        else:
            raise ExpressionError(f"unrecognized factor {token!r}")
    if len(factors) == 1:
        return factors[0]
    return families.direct_product(factors)


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
        if kind == "cayley-table":
            return CayleyTableGroup(entry["table"], name=name)
        return PermutationClosureGroup(
            [tuple(g) for g in entry["generators"]],
            expected_order=entry.get("order"),
            name=name,
        )
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
    if isinstance(data, dict) and "table" in data:
        table = data["table"]
        declared = data.get("order")
        if declared is not None and declared != len(table):
            raise IntegrityError(
                f"declared order {declared} but table has {len(table)} rows"
            )
        group = CayleyTableGroup(table, name=f"@{group_id}")
        # the validated rows as read; group.table would copy every entry
        entry = {"type": "cayley-table", "table": table}
    elif isinstance(data, list):
        group = PermutationClosureGroup([tuple(g) for g in data], name=f"@{group_id}")
        entry = {
            "type": "permutation-generators",
            "generators": [list(g) for g in group.generators],
            "order": group.order,
        }
    else:
        raise IntegrityError(
            f"{path}: expected a table object or a list of image arrays"
        )
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


def _require_printable(expr: str, quantity: str, n: int) -> None:
    """Refuse an answer with an integer too long for Python to print."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and decimal_digits(n) > limit:
        raise ResourceLimitError(
            f"the {quantity} of {expr} has {decimal_digits(n)} decimal digits; "
            f"at most {limit} can be printed"
        )


def _cmd_eval(args, out) -> int:
    group = parse_group_expression(args.expr, args.registry)
    # these print |G|, and no other number they print exceeds it
    if args.quantity in ("order", "spectrum", "report"):
        _require_printable(args.expr, args.quantity, group.order)
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
        _require_printable(args.expr, args.quantity, next(iter(result.values())))
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

    p_verify = sub.add_parser("verify", help="run a regression suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    fmt = p_verify.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p_solve = sub.add_parser("solve", help="solve phi(G) = p for prime p")
    p_solve.add_argument("p", type=int)
    p_solve.add_argument("--json", action="store_true")

    p_import = sub.add_parser("import", help="register a group file for @id use")
    p_import.add_argument("path")
    p_import.add_argument("--id", help="registry id (default: file stem)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code or 0)
    out = sys.stdout
    try:
        if args.command == "eval":
            return _cmd_eval(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "solve":
            return _cmd_solve(args, out)
        if args.command == "import":
            return _cmd_import(args, out)
        parser.error(f"unknown command {args.command}")
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
