"""Command-line front end.

Subcommands:

* ``eval``     evaluate a catalog family at a parameter point
* ``convert``  series-to-cf / cf-to-series exact conversions
* ``verify``   run a manifest (or the built-in suite) and emit JSON lines
* ``riccati``  compare a Riccati fraction against the integrated equation

Exit codes: 0 ok / all passed, 1 verification failure, 2 budget exhausted,
partial output, or verify cases that are at worst inconclusive, 3 divergence
flagged, 64 usage error or a parameter point that cannot be evaluated, 66
unreadable manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import (
    IdentityCase,
    UnknownFamilyError,
    VerificationReport,
    VerifyStatus,
    builtin_suite,
    family_ids,
    make_cf,
    normalize_params,
    reference_value,
    verify,
)
from .core import (
    ContinuedFractionError,
    EvalStatus,
    ZeroContinuantError,
    check_tolerance,
    convergent_sequence,
    euler_series_expansion,
    eval_float,
)
from .quadrature import QuadratureError
from .riccati import PoleEncounteredError, RiccatiProblem, verify_riccati
from .series import SeriesSpec, ZeroPivotError, series_to_cf

EX_OK = 0
EX_FAIL = 1
EX_BUDGET = 2
EX_DIVERGENT = 3
EX_USAGE = 64
EX_NOINPUT = 66


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 64
        raise _UsageError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse rational {text!r}: {exc}") from None


def _parse_params(pairs: Sequence[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        name = name.strip()
        if name in params:
            raise _UsageError(f"--param {name} given more than once")
        params[name] = _parse_rational(value)
    return params


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rat_json(v: Fraction):
    return int(v) if v.denominator == 1 else str(v)


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.15g}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="contfrac", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a catalog family")
    p_eval.add_argument("--family", required=True,
                        help="family id; `--family list` prints the catalog")
    p_eval.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                        help="family parameter; rationals like 3/4 are exact")
    p_eval.add_argument("--terms", type=_positive_int, default=None,
                        help="term budget (default 1000000; 30 with --exact)")
    p_eval.add_argument("--tol", type=_tolerance, default=1e-10)
    p_eval.add_argument("--exact", action="store_true",
                        help="also print the exact convergents up to the term budget")
    p_eval.add_argument("--json", action="store_true")

    p_conv = sub.add_parser("convert", help="series <-> continued fraction")
    conv_sub = p_conv.add_subparsers(dest="direction", required=True)
    p_s2c = conv_sub.add_parser("series-to-cf")
    p_s2c.add_argument("--numerators", required=True, help="comma-separated rationals")
    p_s2c.add_argument("--denominators", required=True, help="comma-separated rationals")
    p_s2c.add_argument("--depth", type=_positive_int, default=None)
    p_s2c.add_argument("--json", action="store_true")
    p_c2s = conv_sub.add_parser("cf-to-series")
    p_c2s.add_argument("--family", required=True)
    p_c2s.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p_c2s.add_argument("--depth", type=_positive_int, default=10)
    p_c2s.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="verify identity cases (JSON lines)")
    p_ver.add_argument("--manifest", default=None,
                       help="JSON manifest; defaults to the built-in catalog suite")
    p_ver.add_argument("--family", default=None, help="run only this family's cases")
    p_ver.add_argument("--jobs", type=_positive_int, default=1)

    p_ric = sub.add_parser("riccati", help="fraction vs. integrated Riccati equation")
    p_ric.add_argument("--a", required=True)
    p_ric.add_argument("--b", required=True)
    p_ric.add_argument("--c", required=True)
    p_ric.add_argument("--m", required=True)
    p_ric.add_argument("--depth", type=_positive_int, default=80)
    p_ric.add_argument("--tol", type=_tolerance, default=1e-8)
    p_ric.add_argument("--json", action="store_true")

    return parser


# ---------------------------------------------------------------- eval

@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int-to-str digit limit (4300 digits by default,
    where there is one) while exact convergents are printed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _cmd_eval(args) -> int:
    if args.family == "list":
        from .catalog import FAMILIES

        for fam in FAMILIES.values():
            names = ", ".join(fam.param_names) if fam.param_names else "(no parameters)"
            print(f"{fam.id:20s} {names:28s} {fam.describe}")
        return EX_OK
    params = _parse_params(args.param)
    terms = args.terms if args.terms is not None else (30 if args.exact else 1_000_000)
    cf = make_cf(args.family, params)
    refs = reference_value(args.family, params)
    rep = eval_float(cf, args.tol, terms)
    exact = None
    if args.exact:
        exact = [c for c in convergent_sequence(cf, terms) if c.defined]
    if args.json:
        payload = {
            "family": args.family,
            "params": {k: _rat_json(v) for k, v in params.items()},
            "value": rep.value,
            "lower": rep.lower,
            "upper": rep.upper,
            "terms": rep.terms_used,
            "status": rep.status.value,
            "reference": refs[0] if len(refs) == 1 else list(refs),
        }
        if exact is not None:
            with _unlimited_int_digits():
                payload["exact"] = ["{0.numerator}/{0.denominator}".format(c.value)
                                    for c in exact]
        print(json.dumps(payload))
    else:
        print(f"family   {args.family}"
              + (f"  params {dict((k, str(v)) for k, v in params.items())}" if params else ""))
        print(f"value    {_fmt(rep.value)}")
        if rep.lower is not None:
            print(f"bracket  [{_fmt(rep.lower)}, {_fmt(rep.upper)}]")
        print(f"reference {'  '.join(_fmt(r) for r in refs)}")
        print(f"terms    {rep.terms_used}")
        print(f"status   {rep.status.value}")
        if exact is not None:
            with _unlimited_int_digits():
                for c in exact:
                    print(f"  v_{c.index} = {c.value}")
    if rep.status in (EvalStatus.CONVERGED, EvalStatus.TERMINATED_FINITE):
        return EX_OK
    if rep.status is EvalStatus.BUDGET_EXHAUSTED:
        return EX_BUDGET
    return EX_DIVERGENT


# ---------------------------------------------------------------- convert

def _parse_rat_list(text: str, what: str) -> list[Fraction]:
    items = [chunk for chunk in text.split(",") if chunk.strip()]
    if not items:
        raise _UsageError(f"empty {what} list")
    return [_parse_rational(chunk) for chunk in items]


def _cmd_convert_s2c(args) -> int:
    nums = _parse_rat_list(args.numerators, "numerator")
    dens = _parse_rat_list(args.denominators, "denominator")
    cf = series_to_cf(SeriesSpec.from_lists(nums, dens))
    depth = args.depth if args.depth is not None else len(nums)
    collected = []
    partial = False
    warning = ""
    it = cf.terms()
    try:
        for _ in range(depth):
            t = next(it, None)
            if t is None:
                break
            collected.append(t)
    except ZeroPivotError as exc:
        partial = True
        warning = str(exc)
    if args.json:
        print(json.dumps([{"numerator": _rat_json(Fraction(t.numerator)),
                           "denominator": _rat_json(Fraction(t.denominator))}
                          for t in collected]))
    else:
        for t in collected:
            print(f"{t.numerator}\t{t.denominator}")
    if partial:
        print(f"warning: {warning}", file=sys.stderr)
        return EX_BUDGET
    return EX_OK


def _cmd_convert_c2s(args) -> int:
    cf = make_cf(args.family, _parse_params(args.param))
    partial = False
    warning = ""
    try:
        terms = euler_series_expansion(cf, args.depth)
    except ZeroContinuantError as exc:
        terms = exc.partial
        partial = True
        warning = str(exc)
    if args.json:
        print(json.dumps([_rat_json(t) for t in terms]))
    else:
        for t in terms:
            print(t)
    if partial:
        print(f"warning: {warning}", file=sys.stderr)
        return EX_BUDGET
    return EX_OK


# ---------------------------------------------------------------- verify

class ManifestError(Exception):
    """An unreadable or malformed manifest, or (exit 64) a bad tolerance in one."""

    def __init__(self, message: str, exit_code: int = EX_NOINPUT):
        self.exit_code = exit_code
        super().__init__(message)


def load_manifest(path: str) -> list[IdentityCase]:
    """Parse a JSON manifest; unknown families or parameter names are
    rejected with the entry position."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ManifestError("manifest must be a JSON array of case objects")
    cases = []
    for i, entry in enumerate(data):
        where = f"manifest entry {i}"
        if not isinstance(entry, dict):
            raise ManifestError(f"{where}: expected an object")
        family = entry.get("family")
        if not isinstance(family, str):
            raise ManifestError(f"{where}: missing family id")
        raw_params = entry.get("params", {})
        if not isinstance(raw_params, dict):
            raise ManifestError(f"{where}: params must be an object")
        try:
            params = {k: Fraction(str(v)) for k, v in raw_params.items()}
            params = normalize_params(family, params)
        except UnknownFamilyError as exc:
            raise ManifestError(f"{where}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise ManifestError(f"{where}: {exc}") from None
        tolerance = entry.get("tolerance", 1e-4)
        try:
            if isinstance(tolerance, bool):  # float(true) would be a tolerance of 1.0
                raise ValueError(f"tolerance must be a number, got {tolerance!r}")
            tolerance = check_tolerance(float(tolerance), "tolerance")
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{where}: {exc}", EX_USAGE) from None
        max_terms = entry.get("max_terms", 400_000)
        try:
            # int() would run 2.7 as 2 and true as 1; integral floats such as 4e5 are fine
            if isinstance(max_terms, bool) or (isinstance(max_terms, float)
                                               and not max_terms.is_integer()):
                raise ValueError(f"max_terms must be an integer, got {max_terms!r}")
            case = IdentityCase(family, params, tolerance, int(max_terms))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ManifestError(f"{where}: {exc}") from None
        cases.append(case)
    return cases


def report_line(rep: VerificationReport) -> dict:
    refs = rep.references
    return {
        "family": rep.case.family,
        "params": {k: _rat_json(v) for k, v in rep.case.params.items()},
        "value": rep.value,
        "lower": rep.lower,
        "upper": rep.upper,
        "reference": (None if not refs else refs[0] if len(refs) == 1 else list(refs)),
        "abs_error": rep.abs_error,
        "terms": rep.terms_used,
        "status": rep.status.value,
        "eval_status": rep.eval_status.value if rep.eval_status is not None else None,
        "detail": rep.detail,
    }


def _cmd_verify(args) -> int:
    if args.manifest is not None:
        try:
            cases = load_manifest(args.manifest)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
    else:
        cases = builtin_suite()
    if args.family is not None:
        if args.family not in family_ids():
            raise _UsageError(f"unknown identity family {args.family!r}")
        cases = [c for c in cases if c.family == args.family]
    if args.jobs > 1 and len(cases) > 1:
        # the pool starts all its workers at once: no more than cases or cores
        workers = min(args.jobs, len(cases), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(verify, cases))
    else:
        reports = [verify(c) for c in cases]
    for rep in reports:  # buffered: deterministic manifest order regardless of jobs
        print(json.dumps(report_line(rep)))
    verdicts = {rep.status for rep in reports} - {VerifyStatus.PASS}
    if not verdicts:
        return EX_OK
    return EX_BUDGET if verdicts == {VerifyStatus.INCONCLUSIVE} else EX_FAIL


# ---------------------------------------------------------------- riccati

def _cmd_riccati(args) -> int:
    problem = RiccatiProblem(_parse_rational(args.a), _parse_rational(args.b),
                             _parse_rational(args.c), _parse_rational(args.m))
    rep = verify_riccati(problem, args.depth, args.tol)
    verdict = "pass" if rep.passed else "fail"
    if args.json:
        print(json.dumps({
            "cf_value": rep.cf_value,
            "ode_value": rep.ode_value,
            "abs_error": rep.abs_error,
            "terms": rep.terms_used,
            "ode_steps": rep.ode_steps,
            "ode_est_error": rep.ode_est_error,
            "terminated_depth": rep.terminated_depth,
            "verdict": verdict,
        }))
    else:
        print(f"cf value   {_fmt(rep.cf_value)}")
        print(f"ode value  {_fmt(rep.ode_value)}")
        print(f"abs error  {_fmt(rep.abs_error)}")
        if rep.terminated_depth is not None:
            print(f"terminates at depth {rep.terminated_depth}")
        print(f"verdict    {verdict}")
    return EX_OK if rep.passed else EX_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "convert":
            if args.direction == "series-to-cf":
                return _cmd_convert_s2c(args)
            return _cmd_convert_c2s(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_riccati(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    # a parameter point the command cannot evaluate: an unknown family or
    # parameter, a violated constraint (a ValueError), an undefined term, a
    # float overflow or zero division, unconverged quadrature, or an ODE pole
    except (UnknownFamilyError, ValueError, ArithmeticError, ContinuedFractionError,
            QuadratureError, PoleEncounteredError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
