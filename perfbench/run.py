"""Benchmark of primalcount: end-to-end metrics and an outside-in layer trace.

Run one workload:

    python3 perfbench/run.py --workload count-skew --seed 7 --seconds 30 --trace 0

With --trace 0 the workload runs as a closed loop with one caller for
--seconds seconds and reports the end-to-end metrics; with --trace 1 it
runs a fixed set of operations once untraced and twice traced and reports
the per-layer metrics.  Either way every result is checked against an
independent reference outside the timed region, the report lines go to
stdout, and the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

Timings are reported at a reference host speed.  The host's speed drifts
by up to 2x within seconds, so a short stdlib calibration loop is timed
between operations, and each operation's latency is scaled by
CAL_REFERENCE_S / (the mean calibration time just before and after it).
The unscaled values are printed as report-only lines.

Without --workload, every workload runs in its own process, untraced and
traced, and a combined table follows.  --write-config regenerates
BENCHMARK.json from perfbench/spec.py.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "_out"
SETUP_REPEATS = 3  # at least this many setups; cheap ones repeat
SETUP_MIN_S = 1.0  # until this much time has passed
SETUP_MAX_REPEATS = 100
CAL_STEPS = 500  # one calibration loop, about 1 ms
CAL_REFERENCE_S = 1e-3  # its time at the reference host speed
DRIFT_STEPS = 20000  # the longer loop reported before and after each run
MIN_OPS = 100  # operations in a timed run, at least

sys.path.insert(0, str(ROOT / "perfbench"))
import spec  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_library():
    """Import primalcount from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import primalcount
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import primalcount from {ROOT / 'src'}: {exc}")
    where = Path(primalcount.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: primalcount imported from {where}, not from this checkout")


# ---------------------------------------------------------------------------
# host speed and provenance


def fraction_loop_s(steps):
    """Time of a fixed stdlib Fraction loop: the host-speed probe."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, steps + 1):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - start


def host_slowdown():
    """Current host slowness relative to the reference speed, from 5 probes."""
    return statistics.median(fraction_loop_s(CAL_STEPS) for _ in range(5)) / CAL_REFERENCE_S


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# running operations


def run_ops(workload, stop, tracer=None):
    """Operations 0, 1, ... until stop(n), each between two calibration loops.

    Returns the values, the raw latencies, and the latencies scaled to the
    reference host speed by the calibration loops around each operation.
    """
    values, raw, scaled = [], [], []
    before = fraction_loop_s(CAL_STEPS)
    while not stop(len(values)):
        start = perf_counter()
        values.append(_guarded(workload, len(values), tracer))
        elapsed = perf_counter() - start
        after = fraction_loop_s(CAL_STEPS)
        raw.append(elapsed)
        scaled.append(elapsed * 2 * CAL_REFERENCE_S / (before + after))
        before = after
    return values, raw, scaled


def closed_loop(workload, seconds):
    """One caller issuing operations until `seconds` have passed.

    The loop also runs to MIN_OPS operations, so that at least 10 samples
    lie beyond the 90th percentile, and ends on a round boundary, so that
    every run holds each kind of input in the same proportion.
    """
    deadline = perf_counter() + seconds
    return run_ops(workload, lambda n: perf_counter() >= deadline and n >= MIN_OPS
                   and n % workload.round_ops == 0)


def timed_setup(workload, tracer=None):
    """Run setup(); returns (raw seconds, seconds at the reference speed)."""
    before = host_slowdown()
    start = perf_counter()
    if tracer is None:
        workload.setup()
    else:
        tracer.run_op("setup", workload.setup)
    raw = perf_counter() - start
    return raw, raw * 2 / (before + host_slowdown())


def _guarded(workload, k, tracer):
    try:
        if tracer is None:
            return workload.op(k)
        return tracer.run_op(k, lambda: workload.op(k))
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return exc


def count_failures(workload, values):
    """Operations whose value is an exception or differs from the reference."""
    failed = 0
    for k, value in enumerate(values):
        if isinstance(value, Exception):
            failed += 1
            continue
        try:
            want = workload.expected(k)
        except Exception:  # a reference that cannot be computed fails the op
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if value != want:
            failed += 1
            print(f"perfbench: {workload.name} op {k}: got {value}, want {want}",
                  file=sys.stderr)
    return failed


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(cls, seed, seconds):
    """End-to-end metrics: repeated setup, then a timed closed loop."""
    raw_setups, setups = [], []
    workload = None
    try:
        while len(setups) < SETUP_REPEATS or (sum(raw_setups) < SETUP_MIN_S
                                              and len(setups) < SETUP_MAX_REPEATS):
            if workload is not None:
                workload.close()
            workload = cls(seed, OUT_DIR)
            raw_setup, setup = timed_setup(workload)
            raw_setups.append(raw_setup)
            setups.append(setup)
        workload.write_inputs()
        values, raw, scaled = closed_loop(workload, seconds)
        rss = peak_rss_mb()  # before the references, which use memory of their own
        failed = count_failures(workload, values)
    finally:
        if workload is not None:
            workload.close()
    n = len(values)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "ops_per_s": metric(n / sum(scaled), "1/s", n),
        "op_ms.p50": metric(statistics.median(scaled) * 1e3, "ms", n),
        "op_ms.p90": metric(_p90(scaled) * 1e3, "ms", n),
        "peak_rss_mb": metric(rss, "MB", 1),
    }
    extra = {
        "fail_ratio": metric(failed / n, "ratio", n),
        "unscaled.setup_s": metric(statistics.median(raw_setups), "s", len(setups)),
        "unscaled.ops_per_s": metric(n / sum(raw), "1/s", n),
        "unscaled.op_ms.p50": metric(statistics.median(raw) * 1e3, "ms", n),
        "unscaled.op_ms.p90": metric(_p90(raw) * 1e3, "ms", n),
        "host_slowdown.mean": metric(sum(raw) / sum(scaled), "ratio", n),
    }
    return metrics, extra, n, failed, []


def _p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def fixed_pass(workload, tracer=None):
    """The traced unit of work: optional setup, then trace_ops operations.

    Returns the values, the pass's time at the reference speed, and the
    scale factor of each operation id (and of "setup") for its spans.
    """
    factors, total = {}, 0.0
    if workload.setup_in_trace:
        raw, scaled = timed_setup(workload, tracer)
        factors["setup"], total = scaled / raw, scaled
    values, raw, scaled = run_ops(workload, lambda n: n >= workload.trace_ops, tracer)
    factors.update((k, s / r) for k, (r, s) in enumerate(zip(raw, scaled)))
    return values, total + sum(scaled), factors


def repeat_signature(tracer):
    """Every count a traced pass produces; identical passes must agree."""
    calls = {name: n for name, (n, _) in tracer.calls_and_self_time().items()}
    return {"calls": calls, "counts": {str(k): v for k, v in tracer.counts.items()}}


def traced_run(cls, seed):
    """Per-layer metrics: one untraced and two traced passes of fixed work."""
    workload = cls(seed, OUT_DIR)
    problems = []
    try:
        if not cls.setup_in_trace:
            workload.setup()
        workload.write_inputs()
        values, untraced_s, _ = fixed_pass(workload)
        failed = count_failures(workload, values)
        tracers = []
        for _ in range(2):
            tracer = Tracer(spec.TRACED, spec.SPLIT_BUCKETS)
            with tracer:
                values, traced_s, factors = fixed_pass(workload, tracer)
            failed += count_failures(workload, values)
            tracers.append((tracer, traced_s, factors))
    finally:
        workload.close()

    (tracer, traced_s, factors), (second, _, _) = tracers
    if repeat_signature(tracer) != repeat_signature(second):
        problems.append("per-layer counts differ between two identical traced passes")
    counts = tracer.counts
    if counts["halfopen.leaves"] != counts["halfopen.reported_cones"]:
        problems.append(f"halfopen.leaves {counts['halfopen.leaves']} != num_cones "
                        f"reported by signed_decompose {counts['halfopen.reported_cones']}")
    tracer.write_spans(OUT_DIR / f"spans-{cls.name}.jsonl")

    layers = tracer.calls_and_self_time(factors)
    metrics, extra = {}, {}
    for name, _, _, everywhere in spec.TRACED:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = metric(calls, "count", 1)
        if everywhere:
            metrics[f"{name}.self_s"] = metric(self_s, "s", calls)
    for name in [t[0] for t in spec.TRACED if not t[3]] + ["op", "setup"]:
        if name in layers:  # self time of a layer this workload reaches
            calls, self_s = layers[name]
            extra[f"{name}.self_s"] = metric(self_s, "s", calls)
    for name in spec.WORK_COUNTS:
        metrics[name] = metric(counts[name], "count", 1)
    ip_calls = layers.get("lp.interior_point", (0, 0.0))[0]
    metrics["lp.interior_point.none_ratio"] = metric(
        counts["lp.interior_point.none"] / ip_calls if ip_calls else 0.0, "ratio", ip_calls)
    for low, high in spec.SPLIT_BUCKETS:
        metrics[spec.bucket_name(low, high)] = metric(counts[("split", low, high)],
                                                      "count", 1)
    metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio", 1)
    extra["trace.untraced_s"] = metric(untraced_s, "s", 1)
    extra["trace.traced_s"] = metric(traced_s, "s", 1)
    extra["trace.spans"] = metric(len(tracer.spans), "count", 1)
    return metrics, extra, 3 * len(values), failed, problems


# ---------------------------------------------------------------------------
# entry points


def run_one(name, seed, seconds, trace):
    import_library()
    import workloads

    cls = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    drift_before = fraction_loop_s(DRIFT_STEPS) * 1e3
    if trace:
        metrics, extra, attempted, failed, problems = traced_run(cls, seed)
    else:
        metrics, extra, attempted, failed, problems = timed_run(cls, seed, seconds)
    drift_after = fraction_loop_s(DRIFT_STEPS) * 1e3
    for problem in problems:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    record = {
        "workload": name, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed),
        "micro_loop_ms": {"before": drift_before, "after": drift_after},
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "report_only": extra,
    }
    (OUT_DIR / f"result-{name}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"# {name}  seed={seed}  trace={trace}  operations={attempted}  "
          f"failed={failed}")
    for key, value in record["provenance"].items():
        print(f"#   {key}: {value}")
    print(f"#   micro_loop_ms: before {drift_before:.1f}, after {drift_after:.1f} "
          f"(host drift, not a metric)")
    for key, m in list(metrics.items()) + list(extra.items()):
        mark = "" if key in metrics else "  (report only)"
        print(f"{key:44s} {m['value']!r:>24} {m['unit']:6s} n={m['samples']}{mark}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a process of its own."""
    rows = {}
    status = 0
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   w["name"], "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status = status or proc.returncode
            result_file = OUT_DIR / f"result-{w['name']}-trace{trace}.json"
            if proc.returncode == 0 and result_file.is_file():
                record = json.loads(result_file.read_text())
                for key, m in list(record["metrics"].items()) + list(
                        record["report_only"].items()):
                    rows.setdefault(key, {})[w["name"]] = m
    names = [w["name"] for w in spec.WORKLOADS]
    print("\n" + f"{'metric':44s}" + "".join(f"{n:>26s}" for n in names))
    for key, cells in rows.items():
        line = f"{key:44s}"
        for n in names:
            m = cells.get(n)
            text = "-" if m is None else f"{m['value']:.6g} {m['unit']} n={m['samples']}"
            line += f"{text:>26s}"
        print(line)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-config", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json_text())
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
