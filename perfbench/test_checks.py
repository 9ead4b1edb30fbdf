"""The benchmark's correctness gate can fail.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks as ck  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from gentotient.core import ResourceLimitError  # noqa: E402


def _measure(ops):
    return harness.measure([ops], 0, harness.NullTracer(), inputs.Manifest())


def test_injected_wrong_expectation_is_reported():
    sweep = workloads.Sweep(random.Random(0), None, harness.NullTracer())
    op = sweep._metacyclic((4, 2, 2, 3))  # Q8 as a metacyclic presentation
    right = op.run

    def wrong_expectation(tr):
        entries, profile, exp, in_c, sufficient = right(tr)
        return entries, {**profile, 4: profile[4] + 2}, exp, in_c, sufficient

    stats = _measure([op, dataclasses.replace(op, run=wrong_expectation)])
    assert stats.failed == 1
    assert "spectrum" in stats.errors[0]


def test_wrong_exit_code_is_reported(tmp_path):
    session = workloads.Eval(random.Random(0), tmp_path, harness.NullTracer())
    answered = session._expect_exit("over-cap", session._argv("eval", "Z6", "phi"), 3,
                                    "over-cap", "Z6")
    refused = session._expect_exit("over-cap", session._argv("eval", "Z2^30", "phi"), 3,
                                   "over-cap", "Z2^30")
    stats = _measure([answered, refused])
    assert stats.failed == 1
    assert "exit code" in stats.errors[0]


def test_unexpected_refusal_and_exception_are_reported():
    aut = workloads.Aut(random.Random(0), None, harness.NullTracer())
    op = aut._nonabelian(("D", 5))

    def refuse(tr):
        raise ResourceLimitError("injected")

    def crash(tr):
        raise KeyError("injected")

    stats = _measure([op, dataclasses.replace(op, run=refuse),
                      dataclasses.replace(op, run=crash)])
    assert stats.failed == 2


def test_spectrum_invariants_catch_corruption():
    good = ck.cyclic_spectrum(12)
    assert ck.spectrum_invariants(good, 12) is None
    assert ck.spectrum_invariants({**good, 1: 2}, 13) is not None
    assert ck.spectrum_invariants(good, 24) is not None
    assert ck.spectrum_invariants({1: 1, 2: 1, 4: 1, 8: 1}, 4) is not None


def test_reference_formulas():
    assert ck.aut_abelian([(2, [1, 1])]) == 6
    assert ck.aut_abelian([(2, [1, 2])]) == 8
    assert ck.aut_abelian([(3, [1, 1, 1])]) == ck.gl_order(3, 3)
    assert ck.aut_abelian([(2, [1]), (3, [2])]) == 6
    assert ck.product_spectrum([ck.cyclic_spectrum(2), ck.cyclic_spectrum(2)]) == {1: 1, 2: 3}
    assert ck.p_group_spectrum(3, 2, 2) == {1: 1, 3: 2, 2: 3}


def test_summary_takes_medians_over_rounds():
    fast, slow = [0.001] * 300, [0.004] * 300
    out = harness.latency_summary([fast, fast, slow, fast, fast, fast])
    assert abs(out["ops_per_s"] - 1000) < 1e-6
    assert abs(out["p50_ms"] - 1.0) < 1e-9
    # the rung comes from four rounds (1200 operations), not from all six
    assert out["tail_q"] == 99.0
    assert out["tail_ms"] == 4.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(999) == 95.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(99) is None
