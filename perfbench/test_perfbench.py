"""Tests of the benchmark itself: config, tracer coverage, references, runs.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import primalcount  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from primalcount import genfun, oracle  # noqa: E402
from primalcount.parametric import ParametricAnalysis  # noqa: E402
from tracing import Tracer  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "primalcount" or n.startswith("primalcount.")]


def _bindings(fn):
    return sorted(f"{m.__name__}.{k}" for m in _modules()
                  for k, v in vars(m).items() if v is fn)


def _originals():
    out = {}
    for metric, modname, attr, _ in spec.TRACED:
        owner = getattr(primalcount, modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[metric] = owner
    return out


def _traced_pass(workload, ops):
    tracer = Tracer(spec.TRACED, spec.SPLIT_BUCKETS)
    with tracer:
        values = [tracer.run_op(k, lambda k=k: workload.op(k)) for k in range(ops)]
    return tracer, values


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json_text()


def test_benchmark_json_keeps_its_format_limits():
    config = spec.benchmark_json()
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert 2 <= len(config["workloads"]) <= 8
    assert 1 <= config["run_seconds"] <= 60
    names = [w["name"] for w in config["workloads"]]
    names += [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in config["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in config["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.fullmatch(m["unit"])
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])
    for m in config["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    assert 1 <= len(config["per_layer"]) <= 128


def test_tracer_patches_every_binding_and_restores_them():
    originals = _originals()
    before = {metric: _bindings(fn) for metric, fn in originals.items()}
    tracer = Tracer(spec.TRACED, spec.SPLIT_BUCKETS)
    with tracer:
        labels = tracer.bound_labels()
        for name in ("primalcount.genfun.signed_decompose",
                     "primalcount.parametric.signed_decompose",
                     "primalcount.cli.signed_decompose",
                     "primalcount.signed_decompose",
                     "primalcount.parametric.interior_point",
                     "primalcount.halfopen.lll_reduce",
                     "primalcount.genfun.smith_normal_form",
                     "parametric.ParametricAnalysis.count_at"):
            assert name in labels
        for metric, fn in originals.items():
            assert _bindings(fn) == []
        assert ParametricAnalysis.count_at is not originals["parametric.count_at"]
    assert sorted(sum((b for b in before.values()), [])) == sorted(
        label for label in tracer.bound_labels() if label.startswith("primalcount."))
    for metric, fn in originals.items():
        assert _bindings(fn) == before[metric]
    assert ParametricAnalysis.count_at is originals["parametric.count_at"]
    for module in _modules():
        assert not any(hasattr(v, "__wrapped__") for v in vars(module).values()
                       if callable(v))


def test_untraced_calls_after_a_trace_record_nothing():
    workload = workloads.CountRandom(3, None)
    workload.setup()
    tracer, _ = _traced_pass(workload, 2)
    spans = len(tracer.spans)
    assert spans > 0
    workload.op(2)
    assert len(tracer.spans) == spans


def test_leaves_equal_the_num_cones_signed_decompose_reports():
    workload = workloads.CountRandom(5, None)
    workload.setup()
    tracer, values = _traced_pass(workload, 6)
    direct = 0
    for k in range(6):
        stats = {}
        assert genfun.count_polytope(workload.pool[k], stats=stats) == values[k]
        direct += stats.get("num_cones", 0)
    assert tracer.counts["halfopen.leaves"] == tracer.counts["halfopen.reported_cones"]
    assert tracer.counts["halfopen.leaves"] == direct > 0


def test_traced_counts_repeat_exactly():
    workload = workloads.CountSkew(11, ROOT / "perfbench" / "_out")
    (ROOT / "perfbench" / "_out").mkdir(exist_ok=True)
    try:
        workload.setup()
        workload.write_inputs()
        first, _ = _traced_pass(workload, 3)
        second, _ = _traced_pass(workload, 3)
    finally:
        workload.close()
    calls = [{n: c for n, (c, _) in t.calls_and_self_time().items()}
             for t in (first, second)]
    assert calls[0] == calls[1] and calls[0]["cli.parse_polytope"] == 3
    assert first.counts == second.counts


def test_skew_reference_matches_enumeration():
    for a, b in (((3, 5, 7), 60), ((5, 7, 9, 11), 40), ((31, 37, 41), 1000)):
        P = workloads.skew_polytope(a, b)
        assert workloads.skew_reference(a, b) == oracle.brute_count(P)


def test_sweep_points_cover_small_large_and_rational():
    import random
    rng = random.Random(1)
    points = [workloads.sweep_point(rng, k) for k in range(40)]
    assert all(min(q) >= 0 for q in points)
    assert any(max(q) <= workloads.SMALL_Q for q in points)
    assert any(max(q) > 10 ** 4 for q in points)
    assert any(x.denominator > 1 for q in points for x in q)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_a_run_prints_the_result_line():
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "pcount-sweep",
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "count-random", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
