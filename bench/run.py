"""contfrac benchmark: seeded workloads through the public API, checked and timed.

    python3 bench/run.py --workload suite|oracles|exact|all --seed N --seconds S --trace 0|1

``--trace 0`` times passes over the workload's generated inputs for S
seconds and reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass of every workload and reports the per-layer metrics
(see bench/README.md).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Inputs, results and spans are written under
bench/out/.  Run it from any directory: the package is imported from the
``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: set-up samples per run (each a fresh interpreter); the median is reported
SETUP_REPEATS = 5
#: failures listed in result.json; all of them are counted
FAILURES_KEPT = 50
#: printed by name but not declared in BENCHMARK.json, so they carry no bound
UNDECLARED_UNITS = {"op_p90_ms": "ms"}
#: suite has 41 ops and about 14 passes in a run: too few timings for the
#: best time of its 2-5 ms cases to repeat between runs, so after the first
#: pass its ops under 10 ms are timed three times in a row in every pass
SHORT_OP_REPEATS = {"suite": 3}
SHORT_OP_NS = 10_000_000


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "platform": platform.platform()}


def setup_seconds(workload: str, repeats: int) -> list[float]:
    """Spawn-to-ready seconds of fresh interpreters that import contfrac and
    run one op of each kind; a first, untimed probe writes the byte code."""
    cmd = [sys.executable, "-I", str(BENCH / "probe.py"), workload, str(SRC)]
    samples = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        if i:
            samples.append(elapsed)
    return samples


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


class Passes:
    """Times every op of every pass and checks every output."""

    def __init__(self, workloads_mod, ops: list, tally: Tally, short_repeats: int = 1) -> None:
        self.W = workloads_mod
        self.ops = ops
        self.tally = tally
        self.short_repeats = short_repeats
        self.per_op: list[list[int]] = [[] for _ in ops]
        self.pass_ns: list[int] = []

    def run(self, tracer=None, keep: bool = False) -> list:
        outputs = []
        total = 0
        for i, op in enumerate(self.ops):
            short = self.per_op[i] and min(self.per_op[i]) < SHORT_OP_NS
            for rep in range(self.short_repeats if short else 1):
                span = tracer.span("op." + op.kind) if tracer else contextlib.nullcontext()
                err = out = None
                t0 = time.perf_counter_ns()
                try:
                    with span as s:
                        out = op.run()
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    err = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter_ns() - t0
                if rep == 0:
                    total += dt
                self.per_op[i].append(dt)
                self.tally.attempted += 1
                reason = err or self.W.check(op, out)
                if reason:
                    self.tally.failed += 1
                    if len(self.tally.failures) < FAILURES_KEPT:
                        self.tally.failures.append({"op": op.label, "reason": reason})
                elif tracer:
                    s.attrs.update(self.W.span_counts(op, out))
                if keep:
                    outputs.append(out)
        self.pass_ns.append(total)
        return outputs


def end_to_end(passes: Passes, setup: list[float], tail: bool) -> dict:
    # Each op's latency is its best time over the run's passes: on a shared
    # host a run's median pass swings by 20-40% from run to run, the per-op
    # minimum by about a third of that (see bench/README.md, Noise).
    best = [min(v) for v in passes.per_op]
    out = {"wall_s": sum(best) / 1e9,
           "op_p50_ms": statistics.median(best) / 1e6,
           "setup_s": statistics.median(setup),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tail and len(best) > 1:
        out["op_p90_ms"] = statistics.quantiles(best, n=10)[8] / 1e6
    return out


def materialise(W, workload: str, seed: int, scale: float, outdir: Path):
    data = W.generate(workload, seed, scale)
    path = outdir / f"{workload}-inputs.json"
    W.write_inputs(data, path)
    return W.load_ops(workload, path), path, (data.get("replaced", {}) if isinstance(data, dict) else {})


def timed_run(args, W, outdir: Path) -> tuple[dict, Tally, dict]:
    setup = setup_seconds(args.workload, SETUP_REPEATS if args.scale >= 1 else 1)
    ops, _, replaced = materialise(W, args.workload, args.seed, args.scale, outdir)
    import probe

    probe.warm_up(args.workload)
    passes = Passes(W, ops, Tally(), SHORT_OP_REPEATS.get(args.workload, 1))
    while True:
        passes.run()
        if sum(passes.pass_ns) >= args.seconds * 1e9:
            break
    extra = {"setup_samples_s": setup, "replaced": replaced,
             "pass_s": [t / 1e9 for t in passes.pass_ns],
             "per_op_best_ms": {f"{i}:{op.label}": min(v) / 1e6
                                for i, (op, v) in enumerate(zip(ops, passes.per_op))}}
    # suite's 41 cases have a gap in cost right at p90, so it reports no tail
    return end_to_end(passes, setup, tail=args.workload != "suite"), passes.tally, extra


def traced_run(args, W, outdir: Path) -> tuple[dict, Tally, dict]:
    import probe
    import layers

    tracers, untraced_ns, traced_ns = {}, 0, 0
    tally, replaced = Tally(), {}
    for workload in W.WORKLOADS:
        ops, path, replaced[workload] = materialise(W, workload, args.seed, args.scale, outdir)
        if workload == "suite":
            manifest = path
        probe.warm_up(workload)
        passes = Passes(W, ops, tally)
        passes.run()
        tracer = layers.Tracer()
        tracer.install()
        try:
            outputs = passes.run(tracer, keep=workload == "suite")
        finally:
            tracer.restore()
        if workload == "suite":
            suite_terms = [(op.data["case"], rep.terms_used) for op, rep in zip(ops, outputs)]
        tracers[workload] = tracer
        untraced_ns += passes.pass_ns[0]
        traced_ns += passes.pass_ns[1]
    metrics = layers.layer_metrics(tracers)
    metrics.update(layers.core_split(suite_terms))
    metrics.update(layers.cli_metrics(str(SRC), str(manifest)))
    # one untraced and one traced pass differ by more than host noise allows
    # to see, so the overhead is the spans recorded times the cost of one
    spans = sum(len(t.spans) for t in tracers.values())
    metrics["trace.overhead_frac"] = spans * layers.span_cost_ns() / untraced_ns
    with open(outdir / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({w: t.dump() for w, t in tracers.items()}, fh)
    return metrics, tally, {"replaced": replaced, "untraced_s": untraced_ns / 1e9,
                            "traced_s": traced_ns / 1e9}


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("suite", "oracles", "exact"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("suite", "oracles", "exact", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed passes continue until their total reaches this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of each workload's ops (smoke tests); below 1 "
                             "also takes one set-up sample instead of five")
    args = parser.parse_args(argv)

    if not (SRC / "contfrac" / "__init__.py").is_file():
        print(f"error: no contfrac sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import contfrac

    if Path(contfrac.__file__).resolve().parent != (SRC / "contfrac").resolve():
        print(f"error: contfrac imported from {contfrac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads as W

    units = declared_metrics(args.trace)
    outdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = traced_run if args.trace else timed_run
    metrics, tally, extra = runner(args, W, outdir)
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1

    record = machine_record()
    fail_frac = tally.failed / max(1, tally.attempted)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    undeclared = {name: metrics[name] for name in UNDECLARED_UNITS if name in metrics}
    for name, value in undeclared.items():
        print(f"{name:34s} {value:14.6g} {UNDECLARED_UNITS[name]}")
    print(f"{'fail_frac':34s} {fail_frac:14.6g} ratio   ({tally.failed} of {tally.attempted} ops)")
    print("# machine " + json.dumps(record))
    for f in tally.failures[:5]:
        print(f"FAILED {f['op']}: {f['reason']}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    with open(outdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "fail_frac": fail_frac, "machine": record, "args": vars(args),
                   "undeclared_metrics": undeclared, "failures": tally.failures, **extra},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
