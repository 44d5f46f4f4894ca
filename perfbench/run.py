"""pdflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pdflow is imported from its `src/`.  The
workload's operations run one after another from this one process (a closed
loop with a single client), pass after pass, until S seconds have gone by
(at least one pass).  Every operation's output is gated after its pass; see
workloads.py.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (at least one of each) and reports the per-layer metrics from
the traced passes' spans, plus the tracing overhead.  A human-readable
report goes to stdout, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time but set-up is reported at reference speed: scaled by a fixed
reference kernel timed between the passes and, in untraced passes, around
every operation (see REF_KERNEL_S and _kernel_seconds).

`attempted` is the number of distinct operations in a pass and `failed` the
number of them that failed a gate in any pass, so both depend on the seed
alone, not on how many passes fit in S seconds; a failed operation does not
stop the pass.  `correct` is false when an operation raised, when a gate
failed without pdflow reporting the failure itself, when a deterministic
count changed between passes, or when the spans do not account for the
traced wall time.  The full record, with the machine description and the
sha256 of every CSV, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
# Every time but set-up is reported at reference speed: measured seconds *
# REF_KERNEL_S / k, where k is the time of KERNEL_ITERS iterations of the
# reference kernel and REF_KERNEL_S that time on the 2-vCPU VM this benchmark
# was built on, in that machine's fast state.  An operation of an untraced
# pass is scaled by the mean of the short kernels (OP_KERNEL_ITERS) timed
# just before and just after it; every other time by the mean of the kernels
# timed between the passes.  Set-up time, imports in a fresh interpreter, does
# not follow the kernel: scaled by it, or by the time of a fresh interpreter
# importing numpy, it spread more from run to run than it does raw, so it is
# reported raw.  See _kernel_seconds and README.md.
REF_KERNEL_S = 0.020
KERNEL_ITERS = 3000
OP_KERNEL_ITERS = 300
SETUP_GAP_S = 1.0
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "run_s_p50": "s", "run_s_tail": "s",
             "solve_to_tol_s": "s", "pass_rate": "ratio", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "flow.integrate_s": "s", "flow.rhs_evals": "count", "flow.rhs_eval_us": "us",
    "flow.accepted_steps": "count",
    "diagnostics.trace_s": "s", "diagnostics.trace_records": "count",
    "diagnostics.certify_rates_s": "s",
    "cli.write_trace_csv_s": "s", "cli.csv_bytes": "bytes", "cli.main_self_s": "s",
    "proxlib.metric_prox_calls": "count", "proxlib.metric_prox_s": "s",
    "proxlib.metric_prox_iters": "count",
    "linops.operator_norm_calls": "count", "linops.operator_norm_s": "s",
    "metric.x_update_metric_s": "s", "metric.certify_s": "s",
    "discrete.run_s": "s", "discrete.iterations": "count", "discrete.iter_us": "us",
    "problems.kkt_residual_calls": "count", "problems.kkt_residual_s": "s",
    "config.load_problem_s": "s", "config.resolve_tau_s": "s",
    "checks.run_checks_s": "s", "checks.failed": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.bench_self_s": "s",
}

# Counts that must repeat exactly between passes of one run.
DETERMINISTIC = ("flow.rhs_evals", "discrete.iterations", "diagnostics.trace_records",
                 "cli.csv_bytes", "linops.operator_norm_calls",
                 "proxlib.metric_prox_iters")


def _import_program():
    """Import pdflow from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "pdflow", "__init__.py")):
        sys.exit(f"perfbench: no pdflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import pdflow
    if not os.path.abspath(pdflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: pdflow imported from {pdflow.__file__}, not {SRC}")


def _trace_targets():
    from pdflow import (checks, cli, config, diagnostics, discrete, flow, linops,
                        metric, problems, proxlib)

    def records(result, args, kwargs):
        return {"records": len(result)}

    return [
        (cli, "main", "cli.main", None, None),
        (cli, "write_trace_csv", "cli.write_trace_csv",
         lambda r, a, k: {"csv_bytes": os.path.getsize(a[0] if a else k["path"])},
         None),
        # Every workload records every step, so recorded states - 1 = steps.
        (flow, "integrate", "flow.integrate",
         lambda r, a, k: {"rhs_evals": r.rhs_evals,
                          "accepted_steps": len(r.states) - 1}, None),
        (diagnostics, "trace_flow", "diagnostics.trace", records, None),
        (diagnostics, "trace_discrete", "diagnostics.trace", records, None),
        (diagnostics, "certify_rates", "diagnostics.certify_rates", None, None),
        (proxlib, "metric_prox", "proxlib.metric_prox", None,
         (proxlib.ProxFunction, "prox", "prox_calls")),
        (linops, "operator_norm", "linops.operator_norm", None, None),
        (metric, "x_update_metric", "metric.x_update_metric", None, None),
        (metric, "certify", "metric.certify", None, None),
        (discrete, "run", "discrete.run",
         lambda r, a, k: {"iterations": r.iterations}, None),
        (problems, "kkt_residual", "problems.kkt_residual", None, None),
        (config, "load_problem", "config.load_problem", None, None),
        (config, "resolve_tau", "config.resolve_tau", None, None),
        (checks, "run_checks", "checks.run_checks",
         lambda r, a, k: {"failed": sum(not x.ok for x in r)}, None),
    ]


def _layer_metrics(self_s, total_s, calls, counts):
    evals = counts["flow.integrate"]["rhs_evals"]
    iters = counts["discrete.run"]["iterations"]
    return {
        "flow.integrate_s": self_s["flow.integrate"],
        "flow.rhs_evals": evals,
        "flow.rhs_eval_us": 1e6 * total_s["flow.integrate"] / evals if evals else 0.0,
        "flow.accepted_steps": counts["flow.integrate"]["accepted_steps"],
        "diagnostics.trace_s": self_s["diagnostics.trace"],
        "diagnostics.trace_records": counts["diagnostics.trace"]["records"],
        "diagnostics.certify_rates_s": self_s["diagnostics.certify_rates"],
        "cli.write_trace_csv_s": self_s["cli.write_trace_csv"],
        "cli.csv_bytes": counts["cli.write_trace_csv"]["csv_bytes"],
        "cli.main_self_s": self_s["cli.main"],
        "proxlib.metric_prox_calls": calls["proxlib.metric_prox"],
        "proxlib.metric_prox_s": self_s["proxlib.metric_prox"],
        "proxlib.metric_prox_iters": counts["proxlib.metric_prox"]["prox_calls"],
        "linops.operator_norm_calls": calls["linops.operator_norm"],
        "linops.operator_norm_s": self_s["linops.operator_norm"],
        "metric.x_update_metric_s": self_s["metric.x_update_metric"],
        "metric.certify_s": self_s["metric.certify"],
        "discrete.run_s": self_s["discrete.run"],
        "discrete.iterations": iters,
        "discrete.iter_us": 1e6 * total_s["discrete.run"] / iters if iters else 0.0,
        "problems.kkt_residual_calls": calls["problems.kkt_residual"],
        "problems.kkt_residual_s": self_s["problems.kkt_residual"],
        "config.load_problem_s": self_s["config.load_problem"],
        "config.resolve_tau_s": self_s["config.resolve_tau"],
        "checks.run_checks_s": self_s["checks.run_checks"],
        "checks.failed": counts["checks.run_checks"]["failed"],
    }


# -- passes -------------------------------------------------------------------


def _kernel_seconds(iters=KERNEL_ITERS):
    """Time of KERNEL_ITERS iterations, extrapolated from `iters`, of a fixed
    reference kernel: small-array numpy calls in a Python
    loop, the kind of work pdflow does, but no pdflow code, so no change to
    the program moves it.  The machine's speed drifts by up to 2x over
    minutes; the ratio of pdflow's times to this kernel's stays within a few
    percent, so scaling by it takes the drift out of the reported times."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 96).reshape(12, 8)
    v = np.ones(8)
    t0 = time.perf_counter()
    for _ in range(iters):
        w = a @ v
        v = np.maximum(np.abs(a.T @ w) - 0.1, 0.0) / (1.0 + float(w @ w)) + 1.0
    return (time.perf_counter() - t0) * KERNEL_ITERS / iters


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0       # excludes the kernels timed between operations
        self.latencies = []
        self.kernels = []     # untraced passes: before each operation, after the last
        self.verdicts = []
        self.layers = None    # traced passes: per-layer metrics
        self.accounted = 0.0  # traced passes: sum of all spans' self times
        self.bench_self = 0.0


def _run_pass(ops, workdir, tracer):
    from pdflow import errors
    from tracer import aggregate
    from workloads import Verdict

    # pdflow's own exception types are failures the program reports.
    reported_errors = (errors.CertificationError, errors.ConfigError,
                       errors.IntegrationError, errors.MissingSolutionError,
                       errors.ToleranceNotMet)

    dirs = [os.path.join(workdir, "ops", str(i)) for i in range(len(ops))]
    for d in dirs:
        os.makedirs(d)
    p = Pass(tracer is not None)
    raws = []
    kernel_time = 0.0
    if tracer is None:
        p.kernels.append(_kernel_seconds(OP_KERNEL_ITERS))
    t0 = time.perf_counter()
    root = tracer.begin("bench.pass") if tracer else None
    for op, d in zip(ops, dirs):
        span = None
        if tracer:
            tracer.run_id += 1
            span = tracer.begin("bench.op")
        t = time.perf_counter()
        try:
            raws.append((op.call(d), None))
        except Exception as exc:  # an operation that raises is recorded, not fatal
            raws.append((None, (traceback.format_exc(),
                                isinstance(exc, reported_errors))))
        p.latencies.append(time.perf_counter() - t)
        if span:
            tracer.end(span)
        if tracer is None:
            t = time.perf_counter()
            p.kernels.append(_kernel_seconds(OP_KERNEL_ITERS))
            kernel_time += time.perf_counter() - t
    if root:
        tracer.end(root)
    p.wall = time.perf_counter() - t0 - kernel_time

    for op, d, (raw, error) in zip(ops, dirs, raws):
        v = Verdict()
        if error is None:
            try:
                op.gate(raw, d, v)
            except Exception:  # a malformed output is a failure pdflow missed
                error = (traceback.format_exc(), False)
        if error is not None:
            text, reported = error
            v.expect(False, "raised: " + text.strip().splitlines()[-1], reported)
        p.verdicts.append(v)
    shutil.rmtree(os.path.join(workdir, "ops"))

    if tracer:
        self_s, total_s, calls, counts = aggregate(tracer.spans)
        p.layers = _layer_metrics(self_s, total_s, calls, counts)
        p.accounted = sum(self_s.values())
        p.bench_self = self_s["bench.pass"] + self_s["bench.op"]
    return p


# -- statistics and machine ---------------------------------------------------


def _nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _tail(sorted_values):
    """Highest percentile with at least 10 samples beyond it; the max when
    that percentile would not lie above the median (20 samples or fewer)."""
    n = len(sorted_values)
    if n > 20:
        return sorted_values[n - 11], 100.0 * (n - 10) / n
    return sorted_values[-1], 100.0


class SetupProbes:
    """Fresh-interpreter set-up probes (see setup_probe.py), spread over the
    run: probe k falls due k * seconds / SETUP_REPEATS after the start and
    runs before the next pass, so it never overlaps a pass.  The machine's
    speed drifts over tens of seconds, and probes run back to back would all
    see the same stretch of it.  Probes still due after the last pass (one
    example1-sweep pass outlasts the run) run SETUP_GAP_S apart."""

    def __init__(self, name, indir, seconds):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), name, indir]
        self.every = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.times = []

    def _probe(self):
        done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=PROBE_TIMEOUT_S)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def run_due(self):
        while (len(self.times) < SETUP_REPEATS and
               time.perf_counter() - self.start >= len(self.times) * self.every):
            self._probe()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            time.sleep(SETUP_GAP_S)
            self._probe()
        return self.times


def _read(path, default=""):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def _machine(seed):
    import numpy

    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "note": ("the largest problem (lasso-small, 12 x 8) is under 1 KiB of "
                 "float64 data and fits in L1, so no layer is bandwidth-bound"),
    }


# -- main ---------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    machine = _machine(args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    indir = os.path.join(workdir, "inputs")
    os.makedirs(indir)
    try:
        workload.write_inputs(args.seed, indir)
        ops = workload.ops(indir)
        probes = None if args.trace else SetupProbes(workload.name, indir, args.seconds)
        passes, kernels = _run_passes(args, ops, workdir, probes)
        if probes:
            probes.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_end"] = os.getloadavg()
    return _report(args, workload, ops, passes, kernels, probes, machine)


def _run_passes(args, ops, workdir, probes):
    """Passes until args.seconds have gone by, with the reference kernel
    timed before each pass and after the last; a traced run alternates
    untraced and traced passes and makes at least one of each.  Returns the
    passes and the kernel times."""
    from tracer import Tracer

    passes = []
    start = time.perf_counter()
    _kernel_seconds()  # the first call pays numpy's one-time set-up
    kernels = [_kernel_seconds()]
    while True:
        if probes:
            probes.run_due()
        tracer = None
        if args.trace and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install(_trace_targets())
        try:
            passes.append(_run_pass(ops, workdir, tracer))
        finally:
            if tracer:
                tracer.uninstall()
        kernels.append(_kernel_seconds())
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            return passes, kernels


def _at_reference(p):
    """An untraced pass's operation latencies at reference speed, each scaled
    by the kernels timed just before and just after it."""
    return [lat * 2 * REF_KERNEL_S / (p.kernels[i] + p.kernels[i + 1])
            for i, lat in enumerate(p.latencies)]


def _report(args, workload, ops, passes, kernels, setup, machine):
    """`setup` is the run's SetupProbes (None in a traced run)."""
    scale = REF_KERNEL_S / statistics.fmean(kernels)
    problems_found = []   # reasons that make the result incorrect
    failure_reasons = {}
    # Each operation counts once, failed if it failed in any pass: the
    # number of passes depends on the machine's speed, the operations and
    # their outcomes only on the seed.
    attempted = len(ops)
    failed = sum(any(p.verdicts[i].failures for p in passes) for i in range(len(ops)))
    for p in passes:
        for op, v in zip(ops, p.verdicts):
            for reason, reported in v.failures:
                key = f"{op.label}: {reason}"
                failure_reasons[key] = failure_reasons.get(key, 0) + 1
                if not reported and f"unreported failure: {key}" not in problems_found:
                    problems_found.append(f"unreported failure: {key}")
    digest_changes = []
    for i, op in enumerate(ops):
        first = passes[0].verdicts[i]
        for p in passes[1:]:
            v = p.verdicts[i]
            if v.counts != first.counts:
                problems_found.append(f"{op.label}: counts changed between passes "
                                      f"{first.counts} -> {v.counts}")
            if v.digests != first.digests:
                digest_changes.append(op.label)
    traced = [p for p in passes if p.traced]
    for p in traced[1:]:
        for key in DETERMINISTIC:
            if p.layers[key] != traced[0].layers[key]:
                problems_found.append(f"{key} changed between traced passes")
    for p in traced:
        if abs(p.wall - p.accounted) > 0.01 * p.wall:
            problems_found.append(f"spans account for {p.accounted:.6f} s of a "
                                  f"{p.wall:.6f} s traced pass")

    median = statistics.median
    notes = {"failed_per_pass": [sum(bool(v.failures) for v in p.verdicts)
                                 for p in passes]}
    if args.trace:
        untraced = [p.wall * scale for p in passes if not p.traced]
        traced_wall = median(p.wall * scale for p in traced)
        # Counts repeat between passes (checked above), so the first stands.
        metrics = {key: traced[0].layers[key] if LAYER_UNITS[key] in ("count", "bytes")
                   else scale * median(p.layers[key] for p in traced)
                   for key in LAYER_UNITS if not key.startswith("trace.")}
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - median(untraced)
        metrics["trace.bench_self_s"] = scale * median(p.bench_self for p in traced)
        units = LAYER_UNITS
        notes["spans_unaccounted_s"] = [p.wall - p.accounted for p in traced]
        notes["untraced_wall_s"] = untraced
    else:
        at_ref = [_at_reference(p) for p in passes]
        # One sample per run: an operation's median latency over the passes,
        # so that a stretch of slow machine in one pass does not make a tail.
        samples = sorted(median(lat[i] for lat in at_ref) / op.runs
                         for i, op in enumerate(ops) for _ in range(op.runs))
        tail, pct = _tail(samples)
        # Pass times are means, not medians: the machine's speed flips
        # between a fast and a slow state for seconds at a time, and the
        # median of the passes follows whichever state held most of the run.
        mean = statistics.fmean
        metrics = {
            "wall_s": mean(sum(lat) for lat in at_ref),
            "setup_s": median(setup.times),
            "run_s_p50": _nearest_rank(samples, 0.5),
            "run_s_tail": tail,
            "solve_to_tol_s": mean(sum(t for op, t in zip(ops, lat) if op.solve)
                                   for lat in at_ref),
            "pass_rate": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        notes.update(run_samples=len(samples), run_tail_percentile=pct,
                     passes=len(passes), raw_pass_walls_s=[p.wall for p in passes],
                     raw_setup_s=setup.times, fail_rate=failed / attempted)
    notes["kernel_s"] = kernels

    correct = not problems_found
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": workload.name, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "result": result,
              "notes": notes, "failures": failure_reasons,
              "problems": problems_found, "digest_changes": digest_changes,
              "digests": [v.digests for v in passes[0].verdicts],
              "counts": [v.counts for v in passes[0].verdicts],
              "ops": [op.label for op in ops],
              "latencies_s": [p.latencies for p in passes],
              "op_kernels_s": [p.kernels for p in passes]}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(ops)} operations")
    print("machine: " + json.dumps(machine))
    for key in units:
        print(f"  {key:30s} {metrics[key]!r:>24} {units[key]}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  fail_rate = {failed}/{attempted} operations")
    for reason, count in failure_reasons.items():
        print(f"  failed x{count}: {reason}")
    for problem in problems_found:
        print(f"  INCORRECT: {problem}")
    for label in digest_changes:
        print(f"  CSV digest changed between passes: {label}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
