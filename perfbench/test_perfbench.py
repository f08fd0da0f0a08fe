"""Tests of the benchmark itself: span arithmetic, patching, names, inputs, checks."""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import boxtopo  # noqa: E402
from boxtopo import cli, homology, simplicial  # noqa: E402

import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer, covered_time, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        ("cli.main", 0, 100, -1, 0),
        ("bounds.lovasz_bound", 10, 40, 0, 0),
        ("homology.smith_normal_form", 20, 30, 1, 0),
        ("bounds.sarkaria_bound", 50, 90, 0, 0),
        ("cli.main", 200, 260, -1, 1),
    ]
    assert self_times(spans) == [30, 20, 10, 40, 60]
    assert sum(self_times(spans)[:4]) == 100
    # overlapping children are merged, not subtracted twice
    overlap = [("a", 0, 10, -1, 0), ("b", 2, 6, 0, 0), ("c", 4, 8, 0, 0)]
    assert self_times(overlap)[0] == 4
    # a name nested under the same set is counted once
    nested = [("x", 0, 10, -1, 0), ("y", 1, 9, 0, 0), ("x", 2, 3, 1, 0)]
    assert covered_time(nested, {"x"}) == 10
    assert covered_time(nested, {"y"}) == 8


def _bindings() -> dict:
    mods = [m for n, m in sys.modules.items() if n == "boxtopo" or n.startswith("boxtopo.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (simplicial.SimplicialComplex, homology.ChainComplex):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_traced_request_records_spans_and_restores_every_attribute(tmp_path):
    before = _bindings()
    graph = tmp_path / "c5.json"
    graph.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}))
    tracer = Tracer()
    tracer.install()
    try:
        from boxtopo import bounds, builders

        # every binding of a traced function is the wrapper, not the original
        assert bounds.reduced_homology is homology.reduced_homology
        assert bounds.reduced_homology is not before[("boxtopo.homology", "reduced_homology")]
        assert builders.from_facets is simplicial.from_facets is boxtopo.from_facets
        assert simplicial.SimplicialComplex.facets is not before[("SimplicialComplex", "facets")]
        tracer.begin_request(0)
        assert cli.main(["bounds", str(graph), "--exact", "-o", str(tmp_path / "out.json")]) == 0
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert tracer.check_self_times() == 0
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "bounds.lovasz_bound", "homology.smith_normal_form",
            "simplicial.from_facets", "builders.box_complex"} <= names
    m = tracer.metrics(0.5)
    assert list(m) == list(PER_LAYER_UNITS)
    # C5: lovasz and sarkaria each compute the homology of one complex twice
    assert m["homology.calls_per_complex"] == 2
    assert m["homology.reduced_calls"] == 4
    assert m["bounds.caveat_frac"] == 0
    assert 0 < m["homology.matrix_density"] < 1
    assert m["graphs.corpus_calls"] == 0 and m["graphs.corpus_s"] == 0
    assert m["trace_overhead_frac"] == 0.5


def test_matrix_counters_match_the_dense_matrices():
    K = boxtopo.box_complex(boxtopo.cycle_graph(5)).complex
    cc = homology.boundary_matrices(K)
    tracer = Tracer()
    from tracer import _hook_assemble

    _hook_assemble(tracer, (K,), cc)
    cells = sum(len(M) * len(M[0]) for M in cc.matrices)
    nnz = sum(1 for M in cc.matrices for row in M for x in row if x)
    assert tracer.counters["homology.matrix_cells"] == cells
    assert tracer.counters["homology.matrix_nnz"] == nnz


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name in list(PER_LAYER_UNITS) + list(END_TO_END_UNITS):
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_deterministic_per_seed(tmp_path):
    digests = {}
    for run, seed in ((0, 1), (1, 1), (2, 2)):
        for name in ("bounds", "file-pipeline"):
            work = tmp_path / f"{name}-{run}"
            work.mkdir()
            plan = workloads.make_plan(name, seed, work)
            digests[name, run] = plan.input_digest
    for name in ("bounds", "file-pipeline"):
        assert digests[name, 0] == digests[name, 1]
        assert digests[name, 0] != digests[name, 2]


def test_pipeline_graphs_are_every_class_with_4_to_7_edges_once():
    pairs = list(itertools.combinations(range(5), 2))
    perms = list(itertools.permutations(range(5)))

    def canonical(edges):
        return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)) for p in perms)

    classes = {canonical(E) for m in range(4, 8) for E in itertools.combinations(pairs, m)}
    listed = [canonical(E) for E in workloads.PIPELINE_GRAPHS]
    assert len(set(listed)) == len(listed) == len(classes)
    assert set(listed) == classes
    relabeled = [canonical(E) for _, E in workloads.pipeline_graphs(5)]
    assert relabeled == listed


def test_reference_chromatic_number_agrees_with_boxtopo():
    for G in (boxtopo.cycle_graph(5), boxtopo.complete_graph(4), boxtopo.kneser_graph(5, 2)):
        assert workloads.chromatic_number(G.n, G.edges) == boxtopo.chromatic_number(G)


def test_bounds_check_rejects_a_corrupted_output(tmp_path):
    plan = workloads.make_plan("bounds", 3, tmp_path)
    assert cli.main(plan.requests[0]) == 0  # KG(5,2)
    real = plan.outputs[0].read_bytes()
    fake = [
        json.dumps({"lovasz": {"value": v or 2}, "sarkaria": {"value": v or 2}, "exact_chi": chi}).encode()
        for _, _, _, chi, v in workloads.bounds_graphs(3)
    ]
    assert plan.check([real] + fake[1:]) == [""] * len(fake)
    obj = json.loads(real)
    obj["sarkaria"]["value"] = 4  # above chi(KG(5,2)) = 3
    assert plan.check([json.dumps(obj).encode()] + fake[1:])[0]
    assert plan.check([b"not json"] + fake[1:])[0]
    wrong_chi = json.dumps({"lovasz": {"value": 2}, "sarkaria": {"value": 2}, "exact_chi": 9})
    assert plan.check([real, wrong_chi.encode()] + fake[2:])[1]


def test_verify_and_pipeline_checks_reject_corrupted_outputs(tmp_path):
    verify = workloads.make_plan("verify-sweep", 1, tmp_path)
    good = [{"passed": True}] * workloads.VERIFY_OUTCOMES
    assert verify.check([json.dumps(good).encode()]) == [""]
    bad = good[:-1] + [{"passed": False}]
    assert verify.check([json.dumps(bad).encode()])[0]
    assert verify.check([json.dumps(good[:-1]).encode()])[0]

    pipe = workloads.make_plan("file-pipeline", 1, tmp_path)
    steps = len(workloads.PIPELINE_STEPS)
    for argv in pipe.requests[:steps]:
        assert cli.main(argv) == 0
    datas = [out.read_bytes() for out in pipe.outputs[:steps]]
    assert pipe.check(datas) == [""] * steps
    susp = json.loads(datas[7])
    susp["dims"] = susp["dims"][1:]  # drop the degree shift
    assert pipe.check(datas[:7] + [json.dumps(susp).encode()])[7]
    assert pipe.check(datas[:1] + [b"{}"] + datas[2:])[1]
