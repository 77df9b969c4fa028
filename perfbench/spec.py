"""What the benchmark measures: workloads, metrics and BENCHMARK.json.

BENCHMARK.json at the repository root is generated from this module with
`python3 perfbench/run.py --write-config`; a test keeps the two equal.
"""

import json

RUN_SECONDS = 30

WORKLOADS = (
    {"name": "count-random",
     "why": "count_polytope on random 3-d boxes with 0-3 cuts: many vertices "
            "and LPs, small indices. Layers: polytope, lp, halfopen, linalg, "
            "genfun; the only real load on vertices, lp, triangulation"},
    {"name": "count-skew",
     "why": "CLI count --json on 3-d/4-d simplices a.x<=b, coprime a, b<=1e6: "
            "few cones of large index, deep decomposition. Layers: cli (only "
            "here), halfopen find_w, linalg LLL, genfun"},
    {"name": "pcount-sweep",
     "why": "evaluate_count on one 3-d 2-parameter family at seeded q, cached "
            "decompositions. Layers: genfun parallelepiped and specialize, "
            "linalg SNF; parametric, lp, halfopen in setup"},
)

# Traced public functions: (metric prefix, module under primalcount,
# attribute, whether every workload calls it).  A dotted attribute names a
# method on a class.  Self time goes to BENCHMARK.json only for functions
# every workload calls, so no reported time is a constant zero; the others
# are printed in the run's report.
TRACED = (
    ("polytope.enumerate_vertices", "polytope", "enumerate_vertices", False),
    ("polytope.vertex_cone", "polytope", "vertex_cone", False),
    ("lp.lp_maximize", "lp", "lp_maximize", True),
    ("lp.interior_point", "lp", "interior_point", True),
    ("halfopen.halfopen_triangulate", "halfopen", "halfopen_triangulate", True),
    ("halfopen.signed_decompose", "halfopen", "signed_decompose", True),
    ("halfopen.find_w", "halfopen", "find_w", True),
    ("linalg.lll_reduce", "linalg", "lll_reduce", True),
    ("linalg.smith_normal_form", "linalg", "smith_normal_form", True),
    ("genfun.parallelepiped_points", "genfun", "parallelepiped_points", True),
    ("genfun.specialize_at_one", "genfun", "specialize_at_one", True),
    ("parametric.enumerate_parametric_vertices", "parametric",
     "enumerate_parametric_vertices", False),
    ("parametric.chambers_max_dim", "parametric", "chambers_max_dim", False),
    ("parametric.count_at", "parametric", "ParametricAnalysis.count_at", False),
    ("cli.parse_polytope", "cli", "parse_polytope", False),
)

WORK_COUNTS = ("polytope.vertices", "halfopen.pieces", "halfopen.leaves",
               "halfopen.max_depth", "genfun.pp_points", "parametric.chambers")

# Buckets of split parent indices: (low, high) inclusive, None = no limit.
SPLIT_BUCKETS = ((2, 9), (10, 99), (100, 999), (1000, 9999), (10000, None))


def bucket_name(low, high):
    return f"halfopen.splits.idx_{low}-{'up' if high is None else high}"


END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_ms.p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
)


def per_layer():
    out = []
    for name, _, _, everywhere in TRACED:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        if everywhere:
            out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name in WORK_COUNTS:
        out.append({"name": name, "unit": "count", "better": "lower"})
    out.append({"name": "lp.interior_point.none_ratio", "unit": "ratio",
                "better": "lower"})
    for low, high in SPLIT_BUCKETS:
        out.append({"name": bucket_name(low, high), "unit": "count",
                    "better": "lower"})
    out.append({"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"})
    return out


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": per_layer(),
    }


def benchmark_json_text():
    return json.dumps(benchmark_json(), indent=2) + "\n"
