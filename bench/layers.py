"""The traced run: spans around calls into each layer, and the per-layer metrics.

Wrappers are installed only here, at module attributes of contfrac, and
removed afterwards; the timed runs install none.  A span records its name,
its parent span, its start and duration, and counts taken at that boundary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Optional

from contfrac import catalog, cli, core, quadrature, riccati


@dataclasses.dataclass
class Span:
    name: str
    parent: Optional[int]
    start_ns: int
    dur_ns: int = 0
    attrs: dict = dataclasses.field(default_factory=dict)
    child_ns: int = 0


class Tracer:
    """In-memory spans; ``wrap`` times every call made through a module attribute."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, Any, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, time.perf_counter_ns())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.dur_ns = time.perf_counter_ns() - s.start_ns
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_ns += s.dur_ns

    def wrap(self, owner, attr: str, name: str,
             record: Optional[Callable[[Span, Any], None]] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, name, record))

    def install(self) -> None:
        """Wrap the layer boundaries that one workload's calls cross."""
        self.wrap(catalog, "eval_float", "core.eval",
                  lambda s, rep: s.attrs.update(terms=rep.terms_used))
        for owner in (catalog, quadrature):
            self._wrap_de_integral(owner)
        self.wrap(riccati, "eval_float", "riccati.cf")
        self.wrap(riccati, "solve_riccati", "riccati.ode",
                  lambda s, res: s.attrs.update(steps=res.steps))
        # the family table is the module attribute verify and reference_value
        # read, so swapping its entries times the build and reference calls
        for fid, fam in list(catalog.FAMILIES.items()):
            self._patches.append((catalog.FAMILIES, fid, fam))
            catalog.FAMILIES[fid] = dataclasses.replace(
                fam, build=self._timed(fam.build, "catalog.build"),
                refs=self._timed(fam.refs, "catalog.ref"))

    def _timed(self, fn, name, record=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(s, result)
            return result
        return traced

    def _wrap_de_integral(self, owner) -> None:
        original = owner.de_integral
        self._patches.append((owner, "de_integral", original))
        tracer = self

        def traced(f, *args, **kwargs):
            with tracer.span("quadrature.de") as s:
                s.attrs["nodes"] = 0

                def counted(x, *rest):
                    s.attrs["nodes"] += len(x)
                    return f(x, *rest)

                res = original(counted, *args, **kwargs)
                s.attrs.update(levels=res.levels_used, converged=res.converged)
            return res

        owner.de_integral = traced

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.dur_ns for s in self.named(name)) / 1e9

    def dump(self) -> list:
        return [[s.name, s.parent, s.start_ns, s.dur_ns, s.attrs] for s in self.spans]


def span_cost_ns(calls: int = 2000) -> float:
    """Added cost of one traced call: a wrapped no-op against the bare one,
    each the least of five batches."""
    def least(fn) -> int:
        best = None
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            elapsed = time.perf_counter_ns() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best

    bare = lambda: None  # noqa: E731
    return max(0, least(Tracer()._timed(bare, "noop")) - least(bare)) / calls


def layer_metrics(tracers: dict) -> dict:
    """Per-layer numbers, each from the workload the layer is meant to move."""
    out = {}
    t = tracers["suite"]
    evals = t.named("core.eval")
    out["core.eval_s"] = sum(s.dur_ns for s in evals) / 1e9
    out["core.terms"] = sum(s.attrs["terms"] for s in evals)
    out["core.ns_per_term"] = out["core.eval_s"] * 1e9 / max(1, out["core.terms"])

    t = tracers["exact"]
    out["core.exact_s"] = t.total_s("op.convergents") + t.total_s("op.contraction")
    out["core.exact_bits"] = sum(s.attrs.get("bits", 0) for s in t.named("op.convergents"))
    out["series.transform_s"] = t.total_s("op.series_to_cf")
    out["series.terms"] = sum(s.attrs.get("terms", 0) for s in t.spans
                              if s.name in ("op.series_to_cf", "op.series_eval"))

    t = tracers["oracles"]
    verify_ix = {i for i, s in enumerate(t.spans) if s.name == "op.verify"}
    under_verify = [s for s in t.spans if s.parent in verify_ix]
    out["catalog.verify_s"] = sum(t.spans[i].dur_ns for i in verify_ix) / 1e9
    out["catalog.ref_s"] = sum(s.dur_ns for s in under_verify if s.name == "catalog.ref") / 1e9
    out["catalog.build_s"] = sum(s.dur_ns for s in under_verify if s.name == "catalog.build") / 1e9
    out["catalog.self_s"] = sum(t.spans[i].dur_ns - t.spans[i].child_ns for i in verify_ix) / 1e9
    de = t.named("quadrature.de")
    out["quadrature.de_calls"] = len(de)
    out["quadrature.de_s"] = sum(s.dur_ns for s in de) / 1e9
    out["quadrature.levels_mean"] = statistics.fmean(s.attrs["levels"] for s in de) if de else 0.0
    out["quadrature.nodes"] = sum(s.attrs["nodes"] for s in de)
    out["quadrature.unconverged"] = sum(1 for s in de if not s.attrs["converged"])
    out["riccati.ode_s"] = t.total_s("riccati.ode")
    out["riccati.ode_steps"] = sum(s.attrs["steps"] for s in t.named("riccati.ode"))
    out["riccati.cf_s"] = t.total_s("riccati.cf")
    return out


def core_split(cases_and_terms: list) -> dict:
    """Split one evaluation's per-term cost into its three parts, on the
    suite's fractions at the term counts their evaluations used."""
    stream_ns = conv_ns = rec_ns = 0
    total = rec_terms = 0
    for case, k in cases_and_terms:
        cf = catalog.make_cf(case.family, case.params)
        t0 = time.perf_counter_ns()
        for _ in itertools.islice(cf.terms(), k):
            pass
        stream_ns += time.perf_counter_ns() - t0
        ready = cf.take(k)
        t0 = time.perf_counter_ns()
        for b, a in ready:
            float(b)
            float(a)
        conv_ns += time.perf_counter_ns() - t0
        floats = tuple(core.PartialTerm(float(b), float(a)) for b, a in ready)
        del ready
        fcf = core.ContinuedFraction(cf.leading, lambda floats=floats: iter(floats))
        t0 = time.perf_counter_ns()
        rep = core.eval_float(fcf, case.tolerance, k)
        rec_ns += time.perf_counter_ns() - t0
        total += k
        rec_terms += rep.terms_used
    return {"core.term_stream_ns_per_term": stream_ns / max(1, total),
            "core.float_conv_ns_per_term": conv_ns / max(1, total),
            "core.recurrence_ns_per_term": rec_ns / max(1, rec_terms)}


def _fresh_seconds(argv: list, cwd: str) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=False, timeout=120)
    return time.perf_counter() - t0


def cli_metrics(src: str, manifest: str, repeats: int = 3) -> dict:
    """CLI start-up, per-case CLI overhead, and the verify pool's speed-up."""
    cli_cmd = [sys.executable, "-I", "-c",
               f"import sys; sys.path.insert(0, {src!r}); from contfrac.cli import main; "
               "sys.exit(main(sys.argv[1:]))"]
    small = ["verify", "--family", "e-euler"]
    fresh = statistics.median(_fresh_seconds(cli_cmd + small, src) for _ in range(repeats))
    in_proc = []
    for _ in range(repeats):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            cli.main(small)
            in_proc.append(time.perf_counter() - t0)
    out = {"cli.startup_s": fresh - statistics.median(in_proc)}

    # in-process CLI run on the suite manifest, minus the verify calls it makes
    tracer = Tracer()
    tracer.wrap(cli, "verify", "cli.verify")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            cli.main(["verify", "--manifest", manifest])
            whole = time.perf_counter_ns() - t0
    finally:
        tracer.restore()
    calls = tracer.named("cli.verify")
    inside = sum(s.dur_ns for s in calls)
    out["cli.overhead_ms_per_case"] = (whole - inside) / 1e6 / max(1, len(calls))

    serial = _fresh_seconds(cli_cmd + ["verify", "--manifest", manifest, "--jobs", "1"], src)
    pooled = _fresh_seconds(cli_cmd + ["verify", "--manifest", manifest, "--jobs", "2"], src)
    out["cli.pool_speedup"] = serial / pooled
    return out

