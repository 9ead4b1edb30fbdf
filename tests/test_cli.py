"""Command-line surface: expressions, formats, exit codes, import registry."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentotient import classc, cli
from gentotient import families as fam
from gentotient.core import IntegrityError, ResourceLimitError, spectra_of


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression parsing ---------------------------------------------------------


def test_parse_simple_families():
    assert cli.parse_group_expression("Z6").order == 6
    assert cli.parse_group_expression("Z2^3").order == 8
    for expr, preset in (("D8", fam.dihedral(8)), ("Q16", fam.generalized_quaternion(16)),
                         ("SD16", fam.quasidihedral(16))):
        g = cli.parse_group_expression(expr)
        assert (g.kind, g.name, g.m, g.n, g.s, g.r) == \
            (preset.kind, preset.name, preset.m, preset.n, preset.s, preset.r)
    assert cli.parse_group_expression("S5").order == 120
    assert cli.parse_group_expression("A6").order == 360
    g = cli.parse_group_expression("MC(4,2,2,3)")
    assert (g.kind, g.m, g.n, g.s, g.r) == ("metacyclic", 4, 2, 2, 3)
    assert cli.parse_group_expression("P(3,2,2)").order == 6
    assert cli.parse_group_expression("Ab(2:1,2;3:1)").order == 24
    assert cli.parse_group_expression("M11").order == 7920


def test_parse_products():
    g = cli.parse_group_expression("Z6xS3")
    assert g.order == 36
    triple = cli.parse_group_expression("Z2xZ3xS3")
    assert triple.order == 36
    assert len(triple.factors) == 3


def test_parse_errors():
    for expr in ("", "Zx", "Z6x", "Wat", "MC(4,2)", "Z6xxS3", "Ab(6:1)",
                 "MC(4,2", ")(S3", "MC(4x2,1,0,1)"):
        with pytest.raises(cli.ExpressionError):
            cli.parse_group_expression(expr)


@pytest.mark.parametrize("expr, message", [
    ("Znope", "unrecognized factor 'Znope'"),
    ("Z1x", "empty factor in 'Z1x'"),
    ("MC((1", "unbalanced parentheses in 'MC((1'"),
    ("Ab(2)", "bad abelian chunk '2'; want p:a1,a2,..."),
    ("Ab(2:1;3)", "bad abelian chunk '3'; want p:a1,a2,..."),
    ("D2", "cannot build 'D2': dihedral order must be an even integer >= 4, got 2"),
    ("@nope", "no imported group @nope in {registry}"),
    # a factor is matched whole, and only ASCII digits are digits
    ("Z6\nxS3", "unrecognized factor 'Z6\\n'"),
    ("@nope\n", "unrecognized factor '@nope\\n'"),
    ("Z\u0663", "unrecognized factor 'Z\u0663'"),
    ("MC(\u0664,2,2,3)", "unrecognized factor 'MC(\u0664,2,2,3)'"),
])
def test_parse_error_text_is_pinned(tmp_path, capsys, expr, message):
    registry = tmp_path / "registry.json"
    code, out, err = run_cli(capsys, "--registry", str(registry), "eval", expr, "phi")
    assert (code, out) == (cli.EXIT_USAGE, "") == (2, "")
    assert err == f"error: {message.format(registry=registry)}\n"


def test_every_catalog_name_parses_back_to_its_group():
    # the grammar and the catalog read one table; a name the catalog prints
    # must build a group with the same order and spectrum
    groups = classc.scan_families.__wrapped__(60)
    parsed = [cli.parse_group_expression(g.name) for g in groups]
    for g, h, want, got in zip(groups, parsed, spectra_of(groups), spectra_of(parsed)):
        assert (h.order, got.entries) == (g.order, want.entries), g.name


# -- eval -----------------------------------------------------------------------


def test_eval_phi(capsys):
    code, out, _ = run_cli(capsys, "eval", "Z6xS3", "phi")
    assert code == 0
    assert out.strip() == "20"


def test_eval_report_trivial(capsys):
    code, out, _ = run_cli(capsys, "eval", "Z1", "report")
    assert code == 0
    assert "phi: 1" in out
    assert "in_class_c: True" in out


def test_eval_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "Q8", "spectrum", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectrum"] == {"1": 1, "2": 1, "4": 6}
    assert payload["exponent"] == 4


def test_eval_resource_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "Z99999999", "spectrum")
    assert code == cli.EXIT_RESOURCE == 3
    assert "cap" in err


def test_eval_refuses_an_abelian_group_beyond_the_cap(capsys):
    code, out, err = run_cli(capsys, "eval", "Z2^25", "phi")
    assert code == cli.EXIT_RESOURCE
    assert out == ""
    assert "|Z2^25| = 33554432 exceeds the enumeration cap" in err


def test_eval_bad_constructor_parameters(capsys):
    code, _, err = run_cli(capsys, "eval", "MC(4,2,1,3)", "phi")
    assert code == cli.EXIT_USAGE
    assert "rejected" in err or "metacyclic" in err


def test_eval_order_of_a_metacyclic_group_beyond_the_cap_is_immediate(capsys):
    # the constructor builds no table of r^k, so n may be far beyond any cap
    assert fam.metacyclic(10**8, 10**7, 0, 1)._rpow is None
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "eval", "MC(100000000,100000000,0,1)", "order")
    assert (code, out) == (0, f"{10**16}\n")
    code, out, err = run_cli(capsys, "eval", "MC(100000000,100000000,0,1)", "phi")
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert "exceeds the enumeration cap" in err
    assert time.perf_counter() - start < 5


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("fmt", [(), ("--json",)])
@pytest.mark.parametrize("expr, digits", [("Z2^100000", 30103), ("S100000", 456574),
                                          ("P(3,2,100000)", 47712),
                                          ("Z2^99999999999", 30102999567),
                                          ("S1000000", 5565709), ("A1000000", 5565709),
                                          ("Ab(2:1000000000000)", 301029995664)])
def test_eval_order_too_long_to_print_exits_3_naming_it(capsys, expr, digits, fmt):
    code, out, err = run_cli(capsys, "eval", expr, "order", *fmt)
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    limit = sys.get_int_max_str_digits()
    assert err == (f"error: the order of {expr} has {digits} decimal digits; "
                   f"at most {limit} can be printed\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("form, quantity", [("S", "order"), ("A", "phi"), ("A", "spectrum")])
@pytest.mark.parametrize("n", [10**290, 10**306, 10**400])
def test_factorial_orders_beyond_float_range_exit_3(capsys, form, quantity, n):
    # lgamma(n + 1) overflows a float here; the digit count needs no float
    expr = f"{form}{n}"
    code, out, err = run_cli(capsys, "eval", expr, quantity)
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    head, tail = f"error: the order of {expr} has ", " decimal digits; at most "
    assert err.startswith(head) and err.endswith(f"{sys.get_int_max_str_digits()} can be printed\n")
    digits = int(err[len(head):err.index(tail)])
    # between those of (n/2)^(n/2) and n^n
    assert (n // 2) * (len(str(n // 2)) - 1) <= digits <= n * len(str(n))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_eval_refuses_any_quantity_too_long_to_print(capsys):
    expr = "x".join(["Z7"] * 800)  # phi = 7^800 - 1 has 677 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "eval", expr, "phi")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (cli.EXIT_RESOURCE, "")
    assert err.endswith("has 677 decimal digits; at most 640 can be printed\n")


def test_composite_power_is_an_abelian_group_under_the_cap(capsys):
    g = cli.parse_group_expression("Z6^3")
    assert g.name == "Z6^3" and g.order == 216
    assert g.spectrum().entries == {1: 1, 2: 7, 3: 26, 6: 182}
    code, _, err = run_cli(capsys, "eval", "Z6^20000", "phi")
    assert code == cli.EXIT_RESOURCE
    # refused before it is built where Python limits printed digits
    assert err.startswith("error: the order of Z6^20000 has 15564 decimal digits"
                          if hasattr(sys, "get_int_max_str_digits") else
                          "error: |Z6^20000| = a 15564-digit number exceeds the enumeration cap")
    assert cli.parse_group_expression("Z1^5").order == 1


# -- fuzzed expressions ------------------------------------------------------------

# sizes up to 10^30 and primes such as 10^18 + 3 once hung in trial division; the
# last two are refused, one a product of two primes above 10^6, one psi_13
PARAM = st.one_of(st.integers(0, 16), st.integers(0, 10**5), st.integers(0, 10**30),
                  st.sampled_from([10**9 + 7, 10**18 + 3, 2**61 - 1,
                                   1000000007 * 1000000009, 3317044064679887385961981]))
POWER = st.one_of(st.integers(0, 12), st.integers(0, 2 * 10**4), st.integers(0, 10**12))
FACTOR = st.one_of(
    st.just("M11"),
    st.just(""),
    st.builds("Z{}".format, PARAM),
    st.builds("Z{}^{}".format, PARAM, POWER),
    st.builds("{}{}".format, st.sampled_from(["D", "Q", "SD"]), PARAM),
    st.builds("{}{}".format, st.sampled_from(["S", "A"]), POWER),
    st.builds("MC({},{},{},{})".format, PARAM, PARAM, PARAM, PARAM),
    st.builds("P({},{},{})".format, PARAM, PARAM, PARAM),
    st.lists(st.tuples(PARAM, st.lists(POWER, min_size=1, max_size=3)), min_size=1, max_size=3)
    .map(lambda chunks: "Ab({})".format(
        ";".join(f"{p}:{','.join(map(str, alphas))}" for p, alphas in chunks))),
)


@st.composite
def expressions(draw):
    expr = "x".join(draw(st.lists(FACTOR, min_size=1, max_size=3)))
    paren = draw(st.sampled_from(["", "(", ")", "()", ")("]))
    at = draw(st.integers(0, len(expr)))
    return expr[:at] + paren + expr[at:]


# each enumeration stays small: a cap of 10^6 elements bounds time and memory
@settings(max_examples=300, deadline=None)
@given(expr=expressions(), quantity=st.sampled_from(cli.QUANTITIES),
       as_json=st.booleans())
def test_eval_fuzzed_expressions_exit_cleanly(expr, quantity, as_json):
    out, err = io.StringIO(), io.StringIO()
    argv = ["eval", expr, quantity] + (["--json"] if as_json else [])
    with mock.patch.dict(os.environ, {"GENTOTIENT_MAX_ELEMENTS": str(10**6)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping main would be a traceback
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    try:
        cli.parse_group_expression(expr)
    except (cli.ExpressionError, ResourceLimitError):
        return
    assert code != cli.EXIT_USAGE, err.getvalue()


# -- verify ----------------------------------------------------------------------


def test_verify_paper_examples(capsys):
    code, out, _ = run_cli(capsys, "verify", "paper-examples")
    assert code == 0
    assert "phi(D8)" in out
    assert "0 failed" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "dihedral", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "summary"}
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == len(payload["rows"])
    for row in payload["rows"]:
        assert set(row) == {"label", "expected", "computed", "status"}
        assert row["status"] == "pass"


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "metacyclic", "--csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "label,expected,computed,status"


def test_verify_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "symmetric")
    _, second, _ = run_cli(capsys, "verify", "symmetric")
    assert first == second


VERIFY_ALL_SHA256 = {
    (): "fe2625b9c49073995a960ebd6c8f75f0c5d119d6a256829124873ec5b00c482a",
    ("--json",): "0a8c669b36c0aa826019702297ca9681a25c6377bae1126d05f3b9f1942aa809",
    ("--csv",): "b0d0600c676df5882c9c12baf59eae20bc7ba699c81d65ce874ff552d54fe240",
}


def test_verify_all_passes_and_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    assert "0 failed" in first
    code, second, _ = run_cli(capsys, "verify", "all")
    assert first == second
    # every output format is pinned byte for byte
    for flags, digest in VERIFY_ALL_SHA256.items():
        code, out, _ = run_cli(capsys, "verify", "all", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def test_verify_unknown_suite_is_usage_error(capsys):
    code = cli.main(["verify", "bogus"])
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


def test_failing_rows_yield_exit_one():
    from gentotient.verification import ReportRow

    rows = [ReportRow("ok", 1, 1), ReportRow("broken", 1, 2)]
    assert rows[1].status == "fail"
    assert not all(r.status == "pass" for r in rows)


# -- solve -----------------------------------------------------------------------


def test_solve_two(capsys):
    code, out, _ = run_cli(capsys, "solve", "2")
    assert code == 0
    for name in ("Z3", "Z4", "Z6", "D8", "D12"):
        assert name in out


def test_solve_seven_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "single-elementary-abelian"
    assert payload["groups"][0]["order"] == 8


def test_solve_eleven_empty(capsys):
    code, out, _ = run_cli(capsys, "solve", "11")
    assert code == 0
    assert "no solutions" in out


def test_solve_composite_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "4")
    assert code == cli.EXIT_USAGE
    assert "not prime" in err


# -- import ----------------------------------------------------------------------


def q8_table():
    return fam.generalized_quaternion(8).index_table().tolist()


def test_import_table_and_eval(tmp_path, capsys):
    table_file = tmp_path / "q8.json"
    table_file.write_text(json.dumps({"order": 8, "table": q8_table()}))
    registry = tmp_path / "registry.json"
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "import", str(table_file))
    assert code == 0
    assert "registered @q8" in out
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "eval", "@q8", "spectrum")
    assert code == 0
    assert out.splitlines()[:3] == ["1\t1", "2\t1", "4\t6"]
    # imported groups compose with families
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "eval", "@q8xZ3", "phi")
    assert code == 0
    assert out.strip() == "12"


def test_import_trivial_table(tmp_path, capsys):
    table_file = tmp_path / "one.json"
    table_file.write_text(json.dumps({"order": 1, "table": [[0]]}))
    registry = tmp_path / "registry.json"
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "import", str(table_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "eval", "@one", "report")
    assert "order: 1" in out


def test_import_rejects_corrupt_table(tmp_path, capsys):
    table = [row[:] for row in q8_table()]
    table[3][4] = table[3][5]
    table_file = tmp_path / "broken.json"
    table_file.write_text(json.dumps({"order": 8, "table": table}))
    code, _, err = run_cli(capsys, "--registry", str(tmp_path / "r.json"),
                           "import", str(table_file))
    assert code == cli.EXIT_INTEGRITY == 4
    assert "row" in err


def test_import_rejects_nonassociative_latin_square(tmp_path, capsys):
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    table_file = tmp_path / "loop.json"
    table_file.write_text(json.dumps({"order": 5, "table": loop}))
    code, _, err = run_cli(capsys, "--registry", str(tmp_path / "r.json"),
                           "import", str(table_file))
    assert code == cli.EXIT_INTEGRITY
    assert "associativity" in err


def test_import_permutation_generators(tmp_path, capsys):
    gens_file = tmp_path / "s3.json"
    gens_file.write_text(json.dumps([[1, 0, 2], [1, 2, 0]]))
    registry = tmp_path / "registry.json"
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "import", str(gens_file))
    assert code == 0
    assert "order 6" in out
    code, out, _ = run_cli(capsys, "--registry", str(registry),
                           "eval", "@s3", "phi")
    assert out.strip() == "0"


def test_import_of_a_file_that_is_not_text_exits_4(tmp_path, capsys):
    table_file = tmp_path / "q8.json"
    table_file.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "--registry", str(tmp_path / "r.json"),
                           "import", str(table_file))
    assert code == cli.EXIT_INTEGRITY
    assert str(table_file) in err


def test_malformed_registry_exits_4_naming_the_file(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text('{"q8": {"type": ')
    code, _, err = run_cli(capsys, "--registry", str(registry), "eval", "@q8", "phi")
    assert code == cli.EXIT_INTEGRITY
    assert str(registry) in err
    # import reads the registry before writing it back
    table_file = tmp_path / "one.json"
    table_file.write_text(json.dumps({"order": 1, "table": [[0]]}))
    code, _, err = run_cli(capsys, "--registry", str(registry), "import", str(table_file))
    assert code == cli.EXIT_INTEGRITY
    assert str(registry) in err
    assert registry.read_text() == '{"q8": {"type": '


@pytest.mark.parametrize("entry, problem", [
    ({"table": [[0]]}, "lacks 'type'"),
    ({"type": "cayley-table"}, "lacks 'table'"),
    ({"type": "lookup", "table": [[0]]}, "unknown type 'lookup'"),
    ({"type": "cayley-table", "table": [[0, 1], [1, 1]]}, "not a permutation"),
    ({"type": "cayley-table", "table": 5}, "the table is 5, not a list of rows"),
    ({"type": "cayley-table", "table": [[0, 1], 5]}, "row 1 is 5, not a list"),
    ({"type": "permutation-generators", "generators": [[1, "a"]]}, "integer lists"),
    ({"type": "permutation-generators", "generators": [5]}, "integer lists"),
    ({"type": "permutation-generators", "generators": 5}, "integer lists"),
    ({"type": "permutation-generators", "generators": []}, "integer lists"),
    # a declared order is checked against the group, for every quantity
    ({"type": "permutation-generators", "generators": [[1, 2, 0]], "order": 7},
     "@q has 3 elements, declared order is 7"),
    ({"type": "permutation-generators", "generators": [[1, 2, 0]], "order": "abc"},
     "declared order is 'abc'"),
    ({"type": "permutation-generators", "generators": [[1, 2, 0]], "order": 3.5},
     "declared order is 3.5"),
    ({"type": "permutation-generators", "generators": [[1, 2, 0]], "order": [1]},
     "declared order is [1]"),
    ({"type": "cayley-table", "table": [[0, 1], [1, 0]], "order": 5},
     "@q has 2 elements, declared order is 5"),
    ({"type": "cayley-table", "table": [[0, 1], [1, 0]], "order": "abc"},
     "declared order is 'abc'"),
    ({"type": "permutation-generators", "generators": [[]]}, "zero points"),
])
def test_broken_registry_entry_exits_4_naming_the_file(tmp_path, capsys, entry, problem):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"q": entry}))
    for quantity in cli.QUANTITIES:
        code, out, err = run_cli(capsys, "--registry", str(registry), "eval", "@q", quantity)
        assert (code, out) == (cli.EXIT_INTEGRITY, "")
        assert str(registry) in err and "@q" in err and problem in err


@pytest.mark.parametrize("data, problem", [
    ([[1, "a"]], "generators must be a nonempty list of integer lists"),
    ([5], "generators must be a nonempty list of integer lists"),
    ([], "generators must be a nonempty list of integer lists"),
    ([[1, 2, 0], [1, 0]], "[1, 0] is not a permutation of 0..2"),
    ({"table": 5}, "the table is 5, not a list of rows"),
    ({"table": [5]}, "row 0 is 5, not a list"),
    ({"order": 2, "table": [[0]]}, "@bad has 1 elements, declared order is 2"),
    ({"tables": [[0]]}, "expected a table object or a list of image arrays"),
    ([[]], "generators on zero points; the trivial group is [[0]]"),
])
def test_import_of_a_malformed_file_exits_4_naming_it(tmp_path, capsys, data, problem):
    group_file = tmp_path / "bad.json"
    group_file.write_text(json.dumps(data))
    registry = tmp_path / "registry.json"
    code, out, err = run_cli(capsys, "--registry", str(registry), "import", str(group_file))
    assert (code, out) == (cli.EXIT_INTEGRITY, "")
    assert err == f"error: {group_file}: {problem}\n"
    assert not registry.exists()


def test_registry_write_is_compact_and_atomic(tmp_path, capsys, monkeypatch):
    registry = tmp_path / "registry.json"
    table_file = tmp_path / "q8.json"
    table_file.write_text(json.dumps({"order": 8, "table": q8_table()}))
    assert run_cli(capsys, "--registry", str(registry), "import", str(table_file))[0] == 0
    text = registry.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q8.json", "registry.json"]

    # a write that fails before the rename leaves the old registry whole
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(IntegrityError, match="disk full") as err:
        cli.import_group_file(table_file, "other", registry)
    assert str(registry) in str(err.value)
    assert registry.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q8.json", "registry.json"]


def test_registry_that_cannot_be_written_exits_4_naming_it(tmp_path, capsys):
    table_file = tmp_path / "one.json"
    table_file.write_text(json.dumps({"order": 1, "table": [[0]]}))
    registry = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "--registry", str(registry), "import", str(table_file))
    assert code == cli.EXIT_INTEGRITY
    assert out == ""
    assert err.startswith(f"error: cannot write registry {registry}: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json"]


@pytest.mark.parametrize("group_id", ["box", "a b", "q(8)", "q8+"])
def test_import_refuses_an_id_that_at_id_cannot_name(tmp_path, capsys, group_id):
    registry = tmp_path / "registry.json"
    table_file = tmp_path / "box.json"
    table_file.write_text(json.dumps({"order": 1, "table": [[0]]}))
    args = ["--registry", str(registry), "import", str(table_file)]
    code, _, err = run_cli(capsys, *args, *([] if group_id == "box" else ["--id", group_id]))
    assert code == cli.EXIT_USAGE
    assert f"@{group_id}" in err
    assert not registry.exists()
    assert run_cli(capsys, *args, "--id", "b0")[0] == 0
    code, out, _ = run_cli(capsys, "--registry", str(registry), "eval", "@b0", "phi")
    assert (code, out) == (0, "1\n")


# -- module entry point -----------------------------------------------------------

# this checkout's source first, so the module runs installed or not
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULE_ENV = {**os.environ,
              "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


@pytest.mark.parametrize("argv, code, output", [
    (["eval", "P(3,2,100000000)", "order"], 3,
     "error: the order of P(3,2,100000000) has 47712126 decimal digits"),
    (["eval", "P(1000000007,2,2)", "order"], 0, "2000000014\n"),
    (["eval", "Z1000000000000000003^2", "order"], 0, f"{(10**18 + 3)**2}\n"),
    (["eval", "Ab(1000000000000000003:1)", "order"], 0, "1000000000000000003\n"),
    (["eval", "Z1000000016000000063^2", "order"], 3,
     "error: cannot factorize 1000000016000000063: it is composite"),
    (["solve", "1000000000000000003"], 0, "phi(G) = 1000000000000000003 has no solutions\n"),
    # exponents beyond float range: the digit count is an integer product
    (["eval", f"Z1^1{'0' * 400}", "order"], 0, "1\n"),
    (["eval", f"Z3^1{'0' * 400}", "order"], 3, f"error: the order of Z3^1{'0' * 400} has "),
    (["eval", f"P(3,2,1{'0' * 400})", "order"], 3,
     f"error: the order of P(3,2,1{'0' * 400}) has "),
])
def test_huge_parameters_answer_or_exit_3_at_once(argv, code, output):
    proc = subprocess.run([sys.executable, "-m", "gentotient", *argv],
                          capture_output=True, text=True, timeout=10, env=MODULE_ENV)
    assert proc.returncode == code
    assert (proc.stderr if code else proc.stdout).startswith(output)


def test_module_invocation_roundtrip():
    proc = subprocess.run(
        [sys.executable, "-m", "gentotient", "eval", "D8", "report"],
        capture_output=True, text=True, env=MODULE_ENV,
    )
    assert proc.returncode == 0
    assert "phi: 2" in proc.stdout
