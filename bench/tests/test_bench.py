"""Tests of the benchmark itself: generators, its own correctness check, and a
tiny smoke run of every workload in both modes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from contfrac import catalog, core, riccati  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["suite", "oracles", "exact"])
def test_generators_are_deterministic_per_seed(workload):
    assert W.generate(workload, 7, 0.2) == W.generate(workload, 7, 0.2)
    assert W.generate(workload, 7, 0.2) != W.generate(workload, 8, 0.2)


def test_suite_is_the_builtin_suite_reordered(tmp_path):
    data = W.generate("suite", 3)
    path = tmp_path / "m.json"
    W.write_inputs(data, path)
    loaded = [op.data["case"] for op in W.load_ops("suite", path)]
    key = lambda c: (c.family, sorted(c.params.items()), c.tolerance, c.max_terms)  # noqa: E731
    assert sorted(map(key, loaded)) == sorted(map(key, catalog.builtin_suite()))


def test_oracle_draws_stay_in_constraint():
    ops = W.generate("oracles", 11, 0.3)["ops"]
    for d in ops:
        if d["kind"] in ("verify", "reference"):
            P = catalog.normalize_params(d["family"], {k: F(v) for k, v in d["params"].items()})
            assert catalog.get_family(d["family"]).check(P) is None, d
            if d["family"] == "F8":
                assert W.f8_min_denominator(P, d["max_terms"]) >= W.F8_MIN_DENOMINATOR
                catalog.make_cf("F8", P).take(200)   # no ZeroDenominatorError
        elif d["kind"] == "permutation":
            a, b, c, r, p, q = d["args"]
            g = a + b - c - r
            assert g > 0 and c - b + r > 0 and c > 0 and a - c > 0 and p > 0 and p + q > 0
        elif d["kind"] == "riccati":
            a, c, m = F(d["a"]), F(d["c"]), F(d["m"])
            assert abs(a * c) <= 2 and m + 2 > 0


def test_riccati_draws_are_pole_free():
    ops = [d for d in W.generate("oracles", 5, 0.1)["ops"] if d["kind"] == "riccati"]
    for d in ops:
        problem = riccati.RiccatiProblem(F(d["a"]), F(d["b"]), F(d["c"]), F(d["m"]))
        riccati.solve_riccati(problem, d["tol"])   # raises PoleEncounteredError on a pole


def test_zero_denominator_and_zero_pivot_draws_are_detected():
    # (a + j r) p - (b + j r) q vanishes at j = 0 for this point
    P = {"a": F(3, 2), "b": F(9, 4), "c": F(2), "r": F(1), "p": F(3, 2), "q": F(1)}
    assert W.f8_min_denominator(P, 5000) == 0
    P.update(a=F(3, 4), c=F(2), r=F(1, 2), p=F(5, 4), q=F(15, 16))
    assert W.f8_min_denominator(P, 5000) == F(5, 64)
    assert W.series_has_zero_pivot([F(1), F(2)], [F(3), F(6)])
    for d in W.generate("exact", 2, 0.5)["ops"]:
        if d["kind"] == "series_to_cf":
            assert not W.series_has_zero_pivot([F(x) for x in d["numerators"]],
                                               [F(x) for x in d["denominators"]])
        elif d["kind"] in ("convergents", "contraction"):
            cf = catalog.make_cf(d["family"], {k: F(v) for k, v in d["params"].items()})
            assert core.positivity_class(cf, 30) is core.PositivityClass.GUARANTEED_CONVERGENT


def test_independent_oracles_match_known_values():
    import math

    assert W.oracle_value("F1", {"m": F(2), "n": F(1)}) == pytest.approx(math.pi / 4, abs=1e-15)
    assert W.oracle_value("F1-frac", {"m": F(1), "n": F(1)}) == pytest.approx(math.log(2), abs=1e-15)
    assert W.oracle_value("F3", {"s": F(3)}) == pytest.approx(math.pi, rel=1e-14)


def _verify_op(family, params, tol, max_terms):
    return W.prepare("verify", {"family": family, "params": params, "tolerance": tol,
                                "max_terms": max_terms})


def test_check_accepts_correct_and_flags_tampered_verify_reports():
    op = _verify_op("F3", {"s": "3"}, 1e-7, 100_000)
    rep = op.run()
    assert W.check(op, rep) is None
    outside = dataclasses.replace(rep, lower=rep.references[0] + 1e-9,
                                  upper=rep.references[0] + 2e-9)
    assert "outside" in W.check(op, outside)
    assert "verdict" in W.check(op, dataclasses.replace(rep, status=catalog.VerifyStatus.FAIL))
    wrong_ref = dataclasses.replace(rep, references=(3.2,), lower=3.1, upper=3.2 + 1e-8)
    assert W.check(op, wrong_ref) is not None


def test_check_counts_a_budget_exhausted_pass_as_a_failure():
    op = _verify_op("brouncker", {}, 1e-8, 10)
    rep = op.run()
    assert rep.eval_status is core.EvalStatus.BUDGET_EXHAUSTED
    assert "above tolerance" in W.check(op, rep)


def test_check_flags_a_signed_value_off_by_more_than_tolerance():
    op = _verify_op("pi-half-b", {}, 1e-4, 400_000)
    rep = op.run()
    assert rep.lower is None and W.check(op, rep) is None
    assert "above tolerance" in W.check(op, dataclasses.replace(rep, value=rep.value + 2e-4))


def test_check_flags_tampered_oracle_and_exact_outputs():
    ref = W.prepare("reference", {"family": "F9", "params": {"c": "1", "g": "3/2", "r": "1/2",
                                                              "s": "3"}})
    good = ref.run()
    assert W.check(ref, good) is None
    assert W.check(ref, (good[0] * (1 + 1e-8),)) is not None
    perm = W.prepare("permutation", {"args": [3.0, 2.5, 2.0, 1.0, 1.0, 0.5]})
    assert W.check(perm, perm.run()) is None and W.check(perm, 1e-6) is not None
    ric = W.prepare("riccati", {"a": "1", "b": "0", "c": "1", "m": "0", "depth": 80, "tol": 1e-8})
    rep = ric.run()
    assert W.check(ric, rep) is None
    assert W.check(ric, dataclasses.replace(rep, cf_value=rep.cf_value + 1e-6)) is not None

    conv = W.prepare("convergents", {"family": "F3", "params": {"s": "7/3"}, "depth": 30})
    out = conv.run()
    bad = list(out)
    bad[5] = core.Convergent(6, out[5].p + 1, out[5].q)
    assert W.check(conv, bad) is not None            # first full check fails
    assert W.check(conv, out) is None                # full check, digest stored
    assert W.check(conv, bad) is not None            # digest comparison
    s2c = W.prepare("series_to_cf", {"numerators": ["1", "1", "1", "1"],
                                     "denominators": ["1", "3", "5", "7"]})
    terms = s2c.run()
    tampered = terms[:-1] + [core.PartialTerm(terms[-1].numerator + 1, terms[-1].denominator)]
    assert W.check(s2c, tampered) is not None
    ctr = W.prepare("contraction", {"family": "F10", "params": {"s": "5/3"}, "k": 10})
    terms = ctr.run()
    assert W.check(ctr, terms) is None
    sev = W.prepare("series_eval", {"numerator": "1", "denominator": ["1", "1", "1"],
                                    "tol": 1e-4, "max_terms": 10_000})
    rep = sev.run()
    assert W.check(sev, rep) is None
    sev.digest = None
    assert W.check(sev, dataclasses.replace(rep, lower=rep.lower - 1e-7)) is not None


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload,trace", [("suite", 0), ("oracles", 0), ("exact", 0),
                                            ("exact", 1)])
def test_tiny_smoke_run_prints_every_named_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in declared} == set(result["metrics"])
    text = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in text
    assert "fail_frac" in text
    assert ("op_p90_ms" in text) == (workload != "suite" and not trace)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
