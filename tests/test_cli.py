import io
import json
import math
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrac import catalog, cli
from contfrac.cli import (
    EX_BUDGET,
    EX_DIVERGENT,
    EX_FAIL,
    EX_NOINPUT,
    EX_OK,
    EX_USAGE,
    main,
)
from contfrac.core import euler_series_expansion
from contfrac.riccati import RiccatiProblem, solve_riccati

REPORT_KEYS = {"family", "params", "value", "lower", "upper", "reference",
               "abs_error", "terms", "status", "eval_status", "stop", "renorms", "detail"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ eval

def test_eval_brouncker_prints_bracket(capsys):
    code, out, _ = run(capsys, "eval", "--family", "brouncker", "--tol", "1e-6")
    assert code == EX_OK
    assert "0.785398" in out
    assert "bracket" in out


def test_eval_e_euler_digits(capsys):
    code, out, _ = run(capsys, "eval", "--family", "e-euler", "--terms", "25", "--json")
    assert code == EX_OK
    payload = json.loads(out)
    assert abs(payload["value"] - math.e) < 1e-9
    assert payload["status"] == "converged"


def test_eval_prints_its_stop_reason_and_rescalings(capsys):
    args = ("eval", "--family", "brouncker", "--tol", "1e-4")
    code, out, _ = run(capsys, *args)
    assert code == EX_OK and "stop     bracket\n" in out and "renorms  115\n" in out
    code, out, _ = run(capsys, *args, "--json")
    payload = json.loads(out)
    assert code == EX_OK and (payload["stop"], payload["renorms"]) == ("bracket", 115)
    assert list(payload) == ["family", "params", "value", "lower", "upper", "terms",
                             "status", "stop", "renorms", "reference"]


def test_eval_json_names_a_signed_stop(capsys):
    code, out, _ = run(capsys, "eval", "--family", "pi-half-b", "--tol", "1e-4", "--json")
    payload = json.loads(out)
    assert code == EX_OK and payload["stop"] == "difference" and payload["lower"] is None


def test_eval_divergent_family_exits_3(capsys):
    code, out, _ = run(capsys, "eval", "--family", "F2", "--param", "mu=3",
                       "--param", "nu=1", "--param", "m=1", "--param", "n=1")
    assert code == EX_DIVERGENT


def test_eval_budget_exhausted_exits_2(capsys):
    code, _, _ = run(capsys, "eval", "--family", "log2", "--tol", "1e-14",
                     "--terms", "200")
    assert code == EX_BUDGET


def test_eval_family_list(capsys):
    code, out, _ = run(capsys, "eval", "--family", "list")
    assert code == EX_OK
    assert "F8" in out and "brouncker" in out and "mu, nu, m, n" in out


def test_eval_bad_family_exits_64(capsys):
    code, _, err = run(capsys, "eval", "--family", "F99")
    assert code == EX_USAGE and "unknown identity family" in err


def test_eval_constraint_violation_names_predicate(capsys):
    code, _, err = run(capsys, "eval", "--family", "F8", "--param", "a=1",
                       "--param", "b=1", "--param", "c=3", "--param", "r=1",
                       "--param", "p=1", "--param", "q=0.5")
    assert code == EX_USAGE and "a + b - c - r > 0" in err


def test_eval_exact_lists_rational_convergents(capsys):
    code, out, _ = run(capsys, "eval", "--family", "brouncker", "--exact",
                       "--terms", "3", "--json")
    assert code == EX_BUDGET  # three terms cannot reach the default tolerance
    payload = json.loads(out)
    assert payload["exact"] == ["1/1", "2/3", "13/15"]


def test_eval_exact_json_prints_each_convergent_reduced(capsys):
    # F3 has rational partial terms, so the continuants p_k, q_k are
    # fractions themselves; each entry is the reduced value p_k/q_k
    code, out, _ = run(capsys, "eval", "--family", "F3", "--param", "s=1/2", "--exact",
                       "--terms", "4", "--json")
    assert code == EX_BUDGET
    assert json.loads(out)["exact"] == ["3/2", "3/5", "87/70", "9/14"]


def _e_euler_convergent(k):
    """v_k of 2 + 2/(2 + 3/(3 + 4/(4 + ...))) from the integer recurrence."""
    p_prev, q_prev, p, q = 1, 0, 2, 1
    for j in range(1, k + 1):
        p, p_prev = (j + 1) * (p + p_prev), p
        q, q_prev = (j + 1) * (q + q_prev), q
    return F(p, q)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_exact_prints_convergents_past_the_int_digit_limit(capsys, fmt):
    # from v_1558 on, the numerators have more digits than Python's default
    # int-to-str limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "eval", "--family", "e-euler", "--exact", "--terms", "1600",
                       *(["--json"] if fmt == "json" else []))
    assert code == EX_OK
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with cli._unlimited_int_digits():
        v = _e_euler_convergent(1600)
        if fmt == "json":
            assert json.loads(out)["exact"][-1] == f"{v.numerator}/{v.denominator}"
        else:
            assert out.splitlines()[-1] == f"  v_1600 = {v}"


def test_eval_zero_terms_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--family", "brouncker", "--terms", "0")
    assert code == EX_USAGE and "--terms" in err


#: every count option, after the arguments its command needs besides
_COUNT_OPTIONS = {
    "eval --terms": ["eval", "--family", "brouncker", "--terms"],
    "series-to-cf --depth": ["convert", "series-to-cf", "--numerators", "1,2",
                             "--denominators", "1,3", "--depth"],
    "cf-to-series --depth": ["convert", "cf-to-series", "--family", "brouncker", "--depth"],
    "verify --jobs": ["verify", "--family", "log2", "--jobs"],
    "riccati --depth": ["riccati", "--a", "1", "--b", "0", "--c", "1", "--m", "0", "--depth"],
}


@pytest.mark.parametrize("argv", list(_COUNT_OPTIONS.values()), ids=list(_COUNT_OPTIONS))
def test_a_count_above_sys_maxsize_is_a_usage_error(capsys, argv):
    # no budget that large can be reached, and itertools.islice refuses one
    code, out, err = run(capsys, *argv, str(sys.maxsize + 1))
    assert code == EX_USAGE and out == ""
    assert err.startswith("usage error:") and f"[1, {sys.maxsize}]" in err
    assert "islice" not in err


def test_eval_takes_a_term_budget_of_sys_maxsize(capsys):
    code, out, _ = run(capsys, "eval", "--family", "brouncker", "--tol", "1e-3",
                       "--terms", str(sys.maxsize), "--json")
    assert code == EX_OK and json.loads(out)["stop"] == "bracket"


@pytest.mark.parametrize("argv, manifest, code, message", [
    (["eval", "--family", "F3", "--param", "s"], None, EX_USAGE,
     "usage error: --param expects name=value, got 's'"),
    (["verify", "--manifest"], [{"family": "log2"}, 1], EX_NOINPUT,
     "error: manifest entry 1: expected an object"),
], ids=["param-without-equals", "manifest-entry-not-an-object"])
def test_malformed_input_names_its_fault(tmp_path, capsys, argv, manifest, code, message):
    if manifest is not None:
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(manifest))
        argv = [*argv, str(path)]
    got, out, err = run(capsys, *argv)
    assert (got, out, err) == (code, "", message + "\n")


def test_eval_rejects_non_finite_tolerance(capsys):
    for tol in ("nan", "inf", "-1e-6"):
        code, _, err = run(capsys, "eval", "--family", "brouncker", "--tol", tol)
        assert code == EX_USAGE and "--tol" in err


# ------------------------------------------------------------ convert

def test_convert_series_to_cf_log2(capsys):
    code, out, _ = run(capsys, "convert", "series-to-cf",
                       "--numerators", "1,1,1,1", "--denominators", "1,2,3,4")
    assert code == EX_OK
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [["1", "1"], ["1", "1"], ["4", "1"], ["9", "1"]]


def test_convert_series_to_cf_json_prints_integral_terms_as_ints(capsys):
    code, out, _ = run(capsys, "convert", "series-to-cf", "--numerators", "1,1,1",
                       "--denominators", "1,2,3", "--json")
    assert code == EX_OK
    assert out == ('[{"numerator": 1, "denominator": 1}, {"numerator": 1, "denominator": 1}, '
                   '{"numerator": 4, "denominator": 1}]\n')


def test_convert_series_to_cf_json_prints_rational_terms_as_strings(capsys):
    # 1/2 - (1/3)/(2/3) + (2/5)/3: a_2 is the zero pivot n_0 d_1 - n_1 d_0
    code, out, _ = run(capsys, "convert", "series-to-cf", "--numerators", "1/2,1/3,2/5",
                       "--denominators", "1,2/3,3", "--json")
    assert code == EX_OK
    assert json.loads(out) == [{"numerator": "1/2", "denominator": 1},
                               {"numerator": "1/3", "denominator": 0},
                               {"numerator": "4/45", "denominator": "11/15"}]


def test_convert_cf_to_series_brouncker(capsys):
    code, out, _ = run(capsys, "convert", "cf-to-series", "--family", "brouncker",
                       "--depth", "3")
    assert code == EX_OK
    assert out.strip().splitlines() == ["1", "-1/3", "1/5"]


def test_convert_series_to_cf_depth_below_one_is_usage_error(capsys):
    for depth in ("0", "-2"):
        code, out, err = run(capsys, "convert", "series-to-cf", "--numerators", "1,1",
                             "--denominators", "1,2", "--depth", depth)
        assert code == EX_USAGE and "--depth" in err and out == ""


def test_convert_empty_series_is_usage_error(capsys):
    code, _, err = run(capsys, "convert", "series-to-cf",
                       "--numerators", "", "--denominators", "")
    assert code == EX_USAGE


def test_convert_zero_pivot_prints_every_term_and_exits_0(capsys):
    # the zero pivot n0 d1 - n1 d0 is the partial denominator a_2, a legal
    # term: convergents 1/2, 0, 1/3 are the partial sums
    code, out, err = run(capsys, "convert", "series-to-cf",
                         "--numerators", "1,1,1", "--denominators", "2,2,3")
    assert code == EX_OK
    assert out.strip().splitlines() == ["1\t2", "4\t0", "4\t1"]
    assert err == ""


def test_convert_zero_series_term_gives_partial_and_exit_2(capsys):
    # series term 1 is 0/2: its convergents were 1, 1, undefined, undefined
    # against the partial sums 1, 1, 4/3, 13/12
    code, out, err = run(capsys, "convert", "series-to-cf",
                         "--numerators", "1,0,1,1", "--denominators", "1,2,3,4")
    assert code == EX_BUDGET
    assert out.strip().splitlines() == ["1\t1"]
    assert "zero series term at depth 2" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_convert_cf_to_series_prints_terms_past_the_int_digit_limit(capsys, fmt):
    # from term 860 on, the denominators have more digits than Python's
    # default int-to-str limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "convert", "cf-to-series", "--family", "e-euler",
                       "--depth", "900", *(["--json"] if fmt == "json" else []))
    assert code == EX_OK
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    last = euler_series_expansion(catalog.make_cf("e-euler", {}), 900)[-1]
    with cli._unlimited_int_digits():
        if fmt == "json":
            assert json.loads(out)[-1] == str(last)
        else:
            assert out.splitlines()[-1] == str(last)


# ------------------------------------------------------------ verify

def test_verify_family_filter_emits_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "--family", "F3")
    assert code == EX_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        record = json.loads(line)
        assert set(record) == REPORT_KEYS
        assert record["family"] == "F3"
        assert record["status"] == "pass"


def test_verify_line_carries_the_stop_reason_and_rescalings(capsys):
    code, out, _ = run(capsys, "verify", "--family", "brouncker")
    assert code == EX_OK
    record = json.loads(out)
    assert {k: record[k] for k in ("status", "eval_status", "stop", "renorms", "terms")} == {
        "status": "pass", "eval_status": "converged", "stop": "bracket", "renorms": 115,
        "terms": 5001}


def test_verify_unknown_family_filter_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--family", "F99")
    assert code == EX_USAGE and "F99" in err


def test_verify_jobs_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--family", "F10")
    code2, out2, _ = run(capsys, "verify", "--family", "F10", "--jobs", "2")
    assert code1 == code2 == EX_OK
    assert out1 == out2


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, cores, want", [
    ("64", 2, 2),        # more jobs than cores
    ("64", None, 1),     # core count unknown
    ("64", 16, 3),       # more jobs than cases
    ("2", 16, 2),
])
def test_verify_pool_starts_no_more_workers_than_cases_or_cores(capsys, monkeypatch,
                                                                jobs, cores, want):
    # the verify command imports the pool class only when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    SerialPool.created.clear()
    code, out, _ = run(capsys, "verify", "--family", "F10", "--jobs", jobs)
    assert code == EX_OK and len(out.strip().splitlines()) == 3
    assert SerialPool.created == [want]


def test_verify_jobs_below_one_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--family", "F10", "--jobs", jobs)
        assert code == EX_USAGE and "--jobs" in err and out == ""


def test_verify_lines_say_why_a_case_did_not_pass(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"s": 2}, "tolerance": 1e-4, "max_terms": 100000},
        {"family": "F7", "params": {"q": 5, "r": 1, "s": 1}},
    ]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_FAIL
    passed, violated = (json.loads(line) for line in out.strip().splitlines())
    assert passed["eval_status"] == "converged" and passed["detail"] == ""
    assert violated["status"] == "constraint-violation"
    assert violated["eval_status"] is None and "q < r + s" in violated["detail"]


def test_verify_manifest_overflowing_parameter_is_undefined(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([{"family": "F3", "params": {"s": "1e400"}}]))
    code, out, err = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_FAIL and "Traceback" not in err
    record = json.loads(out)
    assert record["status"] == "undefined" and record["eval_status"] is None
    assert "reference evaluation failed" in record["detail"]


@pytest.mark.parametrize("max_terms", ["1e400", '"abc"', "2.7", "true"])
def test_verify_manifest_bad_max_terms_exit_66_with_position(tmp_path, capsys, max_terms):
    manifest = tmp_path / "cases.json"
    manifest.write_text(f'[{{"family": "brouncker", "max_terms": {max_terms}}}]')
    code, _, err = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_NOINPUT and "manifest entry 0:" in err


def test_verify_manifest_integral_float_max_terms_is_accepted(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text('[{"family": "brouncker", "max_terms": 4e5}]')
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_OK and json.loads(out)["status"] == "pass"


def test_verify_bracket_wider_than_tolerance_is_inconclusive_exit_2(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"s": 2}, "tolerance": 1e-4, "max_terms": 100000},
        {"family": "F3", "params": {"s": 1}, "max_terms": 12},
    ]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_BUDGET
    passed, record = (json.loads(line) for line in out.strip().splitlines())
    assert passed["status"] == "pass"
    assert record["status"] == "inconclusive" and record["eval_status"] == "budget-exhausted"
    assert record["lower"] <= record["reference"] <= record["upper"]
    assert record["upper"] - record["lower"] > 1e-4 and "above tolerance" in record["detail"]


def test_verify_budget_exhausted_without_bracket_is_inconclusive_exit_2(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([{"family": "pi-half-b", "tolerance": 1e-4, "max_terms": 50}]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_BUDGET
    record = json.loads(out)
    assert record["status"] == "inconclusive" and record["eval_status"] == "budget-exhausted"
    assert record["lower"] is None and record["abs_error"] <= 1e-4
    assert record["detail"] == "term budget exhausted without a bracket"


def test_verify_spent_budget_far_from_the_reference_is_inconclusive_exit_2(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([{"family": "pi-half-b", "tolerance": 1e-6, "max_terms": 50}]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_BUDGET
    record = json.loads(out)
    assert record["status"] == "inconclusive" and record["abs_error"] > 1e-6
    assert record["detail"] == "term budget exhausted without a bracket"


def test_verify_failure_outranks_inconclusive(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"s": 1}, "max_terms": 12},
        {"family": "F7", "params": {"q": 5, "r": 1, "s": 1}},
    ]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_FAIL
    assert [json.loads(line)["status"] for line in out.strip().splitlines()] == [
        "inconclusive", "constraint-violation"]


def test_verify_manifest_constraint_violation_exit_1(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"s": 2}, "tolerance": 1e-4, "max_terms": 100000},
        {"family": "F8", "params": {"a": 1, "b": 1, "c": 3, "r": 1, "p": 1, "q": "1/2"},
         "tolerance": 1e-6, "max_terms": 1000},
    ]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_FAIL
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["status"] == "pass"
    assert lines[1]["status"] == "constraint-violation"


def test_verify_manifest_rational_strings_are_exact(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"s": "11/2"}, "tolerance": 1e-6, "max_terms": 100000},
    ]))
    code, out, _ = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_OK
    assert json.loads(out)["params"]["s"] == "11/2"


def test_verify_unreadable_manifest_exit_66(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--manifest", str(tmp_path / "missing.json"))
    assert code == EX_NOINPUT and "cannot read" in err


def test_verify_malformed_manifest_exit_66(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--manifest", str(bad))
    assert code == EX_NOINPUT


def test_verify_manifest_unknown_family_rejected_with_position(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"s": 1}},
        {"family": "F99", "params": {}},
    ]))
    code, _, err = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_NOINPUT
    assert "entry 1" in err and "F99" in err


def test_verify_manifest_unknown_param_rejected_with_position(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"family": "F3", "params": {"sigma": 1}},
    ]))
    code, _, err = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_NOINPUT
    assert "entry 0" in err and "sigma" in err


def test_verify_manifest_nan_tolerance_exit_64(tmp_path, capsys):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([{"family": "brouncker", "tolerance": math.nan,
                                     "max_terms": 50}]))
    code, out, err = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_USAGE and "entry 0" in err and "tolerance" in err
    assert out == ""


@pytest.mark.parametrize("tolerance", ["true", "false"])
def test_verify_manifest_boolean_tolerance_exit_64(tmp_path, capsys, tolerance):
    # true used to run as a tolerance of 1.0: F3 at s=1 "passed" with [1.15, 1.5]
    manifest = tmp_path / "cases.json"
    manifest.write_text(f'[{{"family": "F3", "params": {{"s": 1}}, "tolerance": {tolerance}}}]')
    code, out, err = run(capsys, "verify", "--manifest", str(manifest))
    assert code == EX_USAGE and "entry 0" in err and "tolerance" in err
    assert out == ""


# ------------------------------------------------------------ closed output pipe

@pytest.mark.parametrize("argv", [
    ("eval", "--family", "F3", "--param", "s=7/3", "--exact", "--terms", "400",
     "--tol", "1e-6"),                                                    # 250 kB
    ("convert", "cf-to-series", "--family", "e-euler", "--depth", "900"),  # 2.8 MB
], ids=["eval", "cf-to-series"])
def test_a_reader_that_closes_the_pipe_early_gives_exit_2(argv):
    # a fresh interpreter writes to a real pipe, far more than its buffer
    # holds, and the reader closes it after one line
    src = str(pathlib.Path(cli.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); "
         "from contfrac.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == EX_BUDGET, err
    assert "Traceback" not in err and "Exception ignored" not in err


# ------------------------------------------------------------ riccati

def test_riccati_cot_case(capsys):
    code, out, _ = run(capsys, "riccati", "--a", "1", "--b", "0", "--c", "1",
                       "--m", "0", "--json")
    assert code == EX_OK
    payload = json.loads(out)
    assert abs(payload["cf_value"] - 0.6420926) < 1e-6
    assert payload["verdict"] == "pass"


def test_riccati_coth_case(capsys):
    code, out, _ = run(capsys, "riccati", "--a", "-1", "--b", "0", "--c", "1",
                       "--m", "0", "--json")
    assert code == EX_OK
    assert abs(json.loads(out)["cf_value"] - 1.3130353) < 1e-6


def test_riccati_json_reports_ode_error_estimate(capsys):
    code, out, _ = run(capsys, "riccati", "--a", "1", "--b", "1/3", "--c", "1",
                       "--m", "0", "--tol", "1e-8", "--json")
    assert code == EX_OK
    expected = solve_riccati(RiccatiProblem(1, F(1, 3), 1, 0), 1e-8).est_error
    assert json.loads(out)["ode_est_error"] == expected


# |w(1)| = 231: the comparison allows tol * |w|
LARGE_RICCATI = ("riccati", "--a", "-9", "--b", "-10", "--c", "-2", "--m", "3/2")


def test_riccati_large_value_passes_relative_to_its_size(capsys):
    code, out, _ = run(capsys, *LARGE_RICCATI)
    assert code == EX_OK
    assert "verdict    pass\n" in out and "stop       difference\n" in out
    assert "(tol * max(1, |ode value|))" in out and "ode x0" not in out


def test_riccati_json_line(capsys):
    code, out, _ = run(capsys, *LARGE_RICCATI, "--json")
    payload = json.loads(out)
    assert code == EX_OK
    assert set(payload) == {"cf_value", "ode_value", "abs_error", "allowed", "terms",
                            "ode_steps", "ode_est_error", "terminated_depth",
                            "eval_status", "stop", "verdict", "detail"}
    assert {k: payload[k] for k in ("terms", "ode_steps", "terminated_depth",
                                    "eval_status", "stop", "verdict")} == {
        "terms": 20, "ode_steps": 22, "terminated_depth": None,
        "eval_status": "converged", "stop": "difference", "verdict": "pass"}
    assert payload["cf_value"] == -230.98709872167765
    assert payload["abs_error"] <= payload["allowed"] == 1e-8 * abs(payload["ode_value"])


def test_riccati_out_of_scope_exponent_exit_64(capsys):
    code, _, err = run(capsys, "riccati", "--a", "1", "--b", "0", "--c", "1",
                       "--m", "-3")
    assert code == EX_USAGE and "boundary" in err


def test_riccati_terminating_preset_reports_depth(capsys):
    code, out, _ = run(capsys, "riccati", "--a", "1", "--b=-1/3", "--c", "1",
                       "--m", "0", "--json")
    assert code == EX_OK
    assert json.loads(out)["terminated_depth"] == 2


SPENT_RICCATI = ("riccati", "--a", "-23/4", "--b", "2", "--c", "3", "--m", "17/4",
                 "--depth", "6")


def test_riccati_spent_depth_budget_is_inconclusive(capsys):
    code, out, _ = run(capsys, *SPENT_RICCATI)
    assert code == EX_BUDGET
    assert "status     budget-exhausted\n" in out and "verdict    inconclusive\n" in out


def test_riccati_json_spent_depth_budget_is_inconclusive(capsys):
    code, out, _ = run(capsys, *SPENT_RICCATI, "--json")
    payload = json.loads(out)
    assert code == EX_BUDGET and payload["abs_error"] <= 1e-8
    assert payload["eval_status"] == "budget-exhausted"
    assert payload["verdict"] == "inconclusive"


# the fraction's differences stop contracting: eval_float flags it divergent
DIVERGENT_RICCATI = ("riccati", "--a", "33/4", "--b", "-17/2", "--c", "1", "--m", "-7/4",
                     "--depth", "2000")


def test_riccati_flagged_divergence_is_divergent_exit_3(capsys):
    code, out, _ = run(capsys, *DIVERGENT_RICCATI)
    assert code == EX_DIVERGENT
    assert "status     divergent-flagged\n" in out and "verdict    divergent\n" in out


def test_riccati_json_flagged_divergence_is_divergent_exit_3(capsys):
    code, out, _ = run(capsys, *DIVERGENT_RICCATI, "--json")
    payload = json.loads(out)
    assert code == EX_DIVERGENT
    assert payload["eval_status"] == "divergent-flagged" and payload["verdict"] == "divergent"


@pytest.mark.parametrize("argv, code, detail", [
    (LARGE_RICCATI, EX_OK, ""),
    (SPENT_RICCATI, EX_BUDGET, "term budget exhausted without a bracket"),
    (DIVERGENT_RICCATI, EX_DIVERGENT, "oscillation without contraction"),
], ids=["pass", "inconclusive", "divergent"])
def test_riccati_detail_says_why_the_verdict_is_not_pass(capsys, argv, code, detail):
    got, out, _ = run(capsys, *argv, "--json")
    assert (got, json.loads(out)["detail"]) == (code, detail)
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert (f"detail     {detail}\n" in out) if detail else ("detail" not in out)


def test_riccati_zero_depth_and_nan_tolerance_are_usage_errors(capsys):
    base = ("riccati", "--a", "1", "--b", "0", "--c", "1", "--m", "0")
    code, _, err = run(capsys, *base, "--depth", "0")
    assert code == EX_USAGE and "--depth" in err
    code, _, err = run(capsys, *base, "--tol", "nan")
    assert code == EX_USAGE and "--tol" in err


# ------------------------------------------------------------ parameter points

# every partial denominator (a + (k-1) r) p - (b + (k-1) r) q is 0
F8_ZERO_DENOMINATOR = ("--family", "F8", "--param", "a=2", "--param", "b=2", "--param", "c=2",
                       "--param", "r=1", "--param", "p=1", "--param", "q=1")


@pytest.mark.parametrize("argv, code, warning", [
    (("eval", *F8_ZERO_DENOMINATOR), EX_DIVERGENT, ""),
    (("convert", "cf-to-series", *F8_ZERO_DENOMINATOR, "--depth", "3"), EX_BUDGET,
     "warning: denominator continuant q_1 is zero\n"),
], ids=["eval-zero-denominator", "c2s-zero-denominator"])
def test_zero_denominator_point_ends_in_a_documented_code(capsys, argv, code, warning):
    assert run(capsys, *argv)[::2] == (code, warning)


def test_eval_passes_a_zero_partial_denominator(capsys):
    # a_1 = a p - b q = 0; the exact convergents settle on 0.848214285714286
    code, out, _ = run(capsys, "eval", "--family", "F8", "--param", "a=3/2", "--param", "b=9/4",
                       "--param", "c=2", "--param", "r=1/2", "--param", "p=3/2",
                       "--param", "q=1", "--tol", "1e-4", "--json")
    payload = json.loads(out)
    assert code == EX_OK and payload["status"] == "converged"
    assert abs(payload["value"] - payload["reference"]) < 1e-4


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "F3", "--param", "s=1e400"),               # OverflowError
    ("eval", "--family", "F5", "--param", "f=1e300", "--param", "h=1e300",
     "--param", "r=1"),                                             # ZeroDivisionError
    ("riccati", "--a", "1e400", "--b", "0", "--c", "1", "--m", "0"),  # OverflowError
    # the series ends at c_2 = 0 with D = u(1) = 1 - 1 = 0: a pole at x = 1
    ("riccati", "--a", "4", "--b", "-2", "--c", "1", "--m", "-1"),
], ids=["eval-overflow", "eval-reference-zero-division", "riccati-overflow",
        "riccati-series-refused"])
def test_point_that_cannot_be_evaluated_exits_64(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EX_USAGE
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_term_that_rounds_to_zero_exits_64_with_its_index(capsys):
    # a_k = 2s is a nonzero rational that rounds to 0.0
    code, out, err = run(capsys, "eval", "--family", "F3", "--param", "s=1e-400",
                         "--terms", "1000")
    assert code == EX_USAGE and out == ""
    assert err.startswith("error:") and "index 1" in err


# ------------------------------------------------------------ usage

def test_usage_error_on_bad_rational(capsys):
    code, _, err = run(capsys, "eval", "--family", "F3", "--param", "s=one")
    assert code == EX_USAGE


@pytest.mark.parametrize("command", [("eval",), ("convert", "cf-to-series")])
def test_repeated_param_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--family", "F3", "--param", "s=1",
                         "--param", " s=2")
    assert code == EX_USAGE and out == ""
    assert "--param s given more than once" in err


@pytest.mark.parametrize("argv, code, out", [
    (("riccati", "--a", "1", "--b", "-1/3", "--c", "1", "--m", "0"), EX_OK,
     "terminates at depth 2\n"),
    (("convert", "series-to-cf", "--numerators", "-1,1/2", "--denominators", "1,2"), EX_OK,
     "-1\t1\n1/2\t-5/2\n"),
    (("riccati", "--a", "1", "--b", "-.5", "--c", "1", "--m", "0"), EX_OK, "verdict    pass\n"),
    (("riccati", "--a", "1", "--b", "0", "--c", "1", "--m", "0", "--tol", "-1e-8"), EX_USAGE,
     ""),
], ids=["riccati", "series-to-cf", "no-leading-digit", "negative-tolerance"])
def test_a_negative_rational_after_a_flag_is_its_value(capsys, argv, code, out):
    got, stdout, err = run(capsys, *argv)
    assert got == code and out in stdout
    assert "expected one argument" not in err


def test_usage_error_on_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == EX_USAGE


# ------------------------------------------------------------ every input ends in an exit code

DOCUMENTED_EXITS = {EX_OK, EX_FAIL, EX_BUDGET, EX_DIVERGENT, EX_USAGE, EX_NOINPUT}
# every term budget drawn here is at most 2000: `eval` always gets --terms
# (its default is 10**6) and `verify` always a manifest whose entries give
# max_terms (the built-in suite and the manifest default run 400,000); no
# --jobs above 1, so no worker process starts
FAMILIES = st.sampled_from(catalog.family_ids() + ["F99", ""])
PARAM_NAMES = sorted({n for f in catalog.family_ids() for n in catalog.get_family(f).param_names}
                     | {"zz"})
GOOD = st.builds(lambda n, d: f"{n}/{d}", st.integers(1, 9), st.integers(1, 4))
RATIONALS = st.one_of(GOOD, st.integers(-6, 6).map(str), st.sampled_from(
    ["-1/2", "1/0", "0.5", "1e400", "1e-400", "nan", "inf", "abc", "", " 2 "]))
TOLERANCES = st.one_of(st.sampled_from(["1e-2", "1e-6", "1e-10"]), st.sampled_from(
    ["1e-300", "0", "-1e-6", "nan", "inf", "abc"]), st.floats().map(repr))
EXTRA = st.sampled_from([()] * 6 + [("--help",), ("-h",), ("--json",), ("--bogus",),
                                    ("--terms",), ("x",)])
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
                 st.sampled_from([float("nan"), float("inf"), -float("inf"), 2.5, 0.0, -1.0]),
                 st.lists(st.integers(0, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@st.composite
def points(draw):
    """A family id and parameters: three in four a full set of positive
    rationals, the rest any values, with names dropped or added."""
    family = draw(FAMILIES)
    names = catalog.get_family(family).param_names if family in catalog.family_ids() else ()
    if draw(st.integers(0, 3)):
        return family, {n: draw(GOOD) for n in names}
    params = {n: draw(RATIONALS) for n in names if draw(st.integers(0, 3))}
    return family, {**params, **draw(st.dictionaries(st.sampled_from(PARAM_NAMES), RATIONALS,
                                                     max_size=1))}


@st.composite
def params_argv(draw):
    family, params = draw(points())
    return ["--family", family, *(f"--param={n}={v}" for n, v in params.items())]


@st.composite
def eval_argv(draw):
    exact = draw(st.booleans())
    terms = draw(st.integers(-1, 100 if exact else 2000))
    argv = ["eval", *draw(st.one_of(params_argv(), st.just(["--family", "list"]))),
            "--terms", str(terms)]
    if draw(st.booleans()):
        argv += ["--tol", draw(TOLERANCES)]
    return argv + ["--exact"] * exact + list(draw(EXTRA))


@st.composite
def convert_argv(draw):
    if draw(st.booleans()):
        lists = st.lists(draw(st.sampled_from([GOOD, RATIONALS])), max_size=6).map(",".join)
        argv = ["convert", "series-to-cf", "--numerators", draw(lists),
                "--denominators", draw(lists)]
    else:
        argv = ["convert", "cf-to-series", *draw(params_argv())]
    if draw(st.booleans()):
        argv += ["--depth", str(draw(st.integers(-1, 200)))]
    return argv + list(draw(EXTRA))


@st.composite
def riccati_argv(draw):
    argv = ["riccati"]
    values = draw(st.sampled_from([GOOD, RATIONALS]))
    for name in draw(st.sampled_from([("a", "b", "c", "m")] * 4 + [("a", "c", "m")])):
        argv += [f"--{name}", draw(values)]
    if draw(st.booleans()):
        argv += ["--depth", str(draw(st.integers(-1, 2000)))]
    if draw(st.booleans()):
        argv += ["--tol", draw(TOLERANCES)]
    return argv + list(draw(EXTRA))


@st.composite
def cases(draw):
    """A manifest entry: a point with a budget of at most 2000 terms, and at
    most one field replaced by a value of the wrong type or range."""
    family, params = draw(points())
    case = {"family": family, "params": params, "max_terms": draw(st.integers(1, 2000)),
            "tolerance": draw(st.sampled_from([1e-2, 1e-6, 1e-12]))}
    field = draw(st.sampled_from([None] * 6 + ["family", "params", "tolerance", "max_terms"]))
    if field == "max_terms":  # no integral float above 2000
        case[field] = draw(st.one_of(JUNK, st.sampled_from([-1, 0, 2000.0, 1e400])))
    elif field == "params":
        case[field] = draw(st.one_of(JUNK, st.dictionaries(
            st.sampled_from(PARAM_NAMES), st.one_of(JUNK, st.floats()), max_size=3)))
    elif field is not None:
        case[field] = draw(st.one_of(JUNK, st.floats()))
    for optional in draw(st.sets(st.sampled_from(["params", "tolerance"]))):
        del case[optional]
    return case


@st.composite
def manifests(draw):
    """Manifest text, mostly a list of cases; None for a missing file."""
    kind = draw(st.sampled_from(["cases"] * 5 + ["json", "text", "missing"]))
    if kind == "cases":
        return json.dumps(draw(st.lists(cases(), max_size=3)))
    if kind == "json":
        return json.dumps(draw(JUNK))
    return draw(st.sampled_from(["", "[", "{}", "[1, 2]", "\x00"])) if kind == "text" else None


def exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and {"--help", "-h"} & set(argv), argv
            return EX_OK


@settings(max_examples=200, deadline=None)
@given(st.one_of(eval_argv(), convert_argv(), riccati_argv(),
                 st.lists(st.sampled_from(["convert", "riccati", "frob", "--help", "-h",
                                           "--version", "--a", "1", ""]), max_size=4)))
def test_any_command_line_ends_in_a_documented_exit_code(argv):
    assert exit_code(argv) in DOCUMENTED_EXITS, argv


@settings(max_examples=200, deadline=None)
@given(manifests(), st.sampled_from([(), (), (), ("--family", "F3"), ("--family", "F99"),
                                   ("--jobs", "1"), ("--jobs", "0"), ("--help",)]))
def test_any_manifest_ends_in_a_documented_exit_code(tmp_path_factory, manifest, extra):
    path = tmp_path_factory.getbasetemp() / "fuzzed-cases.json"
    if manifest is None:
        path.unlink(missing_ok=True)
    else:
        path.write_text(manifest)
    argv = ["verify", "--manifest", str(path), *extra]
    assert exit_code(argv) in DOCUMENTED_EXITS, argv
