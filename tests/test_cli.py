"""CLI contract: exit codes, file round-trips, byte-identical output."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from boxtopo import bounds as bd
from boxtopo import cli, graphs, simplicial
from boxtopo.cli import main
from boxtopo.graphs import connected_graph_corpus, graph_from_obj, kneser_graph
from boxtopo.simplicial import complex_from_obj, from_facets


def run(tmp_path, *argv) -> int:
    return main(list(argv))


def test_gen_kneser(tmp_path):
    out = tmp_path / "pet.json"
    assert run(tmp_path, "gen", "kneser", "5", "2", "-o", str(out)) == 0
    G = graph_from_obj(json.loads(out.read_text()))
    assert G == kneser_graph(5, 2)


def test_gen_complete_and_cone(tmp_path):
    base = tmp_path / "k3.json"
    assert run(tmp_path, "gen", "complete", "3", "-o", str(base)) == 0
    coned = tmp_path / "k5.json"
    assert run(tmp_path, "gen", "cone", "--base", str(base), "--k", "2", "-o", str(coned)) == 0
    assert json.loads(coned.read_text())["n"] == 5


def test_gen_bad_params_exit_2(tmp_path):
    assert run(tmp_path, "gen", "kneser", "3", "2") == 2
    assert run(tmp_path, "gen", "complete") == 2


def test_complex_box_on_k2(tmp_path):
    g = tmp_path / "k2.json"
    run(tmp_path, "gen", "complete", "2", "-o", str(g))
    c = tmp_path / "box.json"
    assert run(tmp_path, "complex", "box", str(g), "-o", str(c)) == 0
    obj = json.loads(c.read_text())
    K, action = complex_from_obj(obj)
    assert K.f_vector() == (4, 2)
    assert action is not None
    assert {rec["shore"] for rec in obj["shore_vertices"]} == {0, 1}


def test_complex_n_on_c5(tmp_path):
    g = tmp_path / "c5.json"
    run(tmp_path, "gen", "cycle", "5", "-o", str(g))
    c = tmp_path / "n.json"
    assert run(tmp_path, "complex", "n", str(g), "-o", str(c)) == 0
    K, _ = complex_from_obj(json.loads(c.read_text()))
    assert K.f_vector() == (5, 5)


def test_complex_sd_on_triangle(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"vertices": [0, 1, 2], "facets": [[0, 1, 2]]}))
    out = tmp_path / "sd.json"
    assert run(tmp_path, "complex", "sd", str(tri), "-o", str(out)) == 0
    K, _ = complex_from_obj(json.loads(out.read_text()))
    assert K.f_vector() == (7, 12, 6)


RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def test_homology_of_rp2(tmp_path):
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(json.dumps({"facets": RP2_FACETS}))
    out = tmp_path / "h.json"
    assert run(tmp_path, "homology", str(rp2), "-o", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["dims"][1] == {"k": 1, "betti": 0, "torsion": [2]}


def test_bounds_c5(tmp_path):
    g = tmp_path / "c5.json"
    run(tmp_path, "gen", "cycle", "5", "-o", str(g))
    out = tmp_path / "b.json"
    assert run(tmp_path, "bounds", str(g), "--exact", "-o", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["lovasz"]["value"] == 3
    assert obj["sarkaria"]["value"] == 3
    assert obj["exact_chi"] == 3


def test_bounds_guard_exit_2(tmp_path, capsys, monkeypatch):
    g = tmp_path / "kg52.json"
    run(tmp_path, "gen", "kneser", "5", "2", "-o", str(g))
    monkeypatch.setattr(simplicial, "SEARCH_BUDGET", 10)
    assert run(tmp_path, "bounds", str(g), "--exact") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "search budget (10 steps)" in err


def test_exact_coloring_guard_names_the_cli_flag(tmp_path):
    # the search budget counts steps, not vertices, and has no override flag
    g = tmp_path / "p21.json"
    g.write_text(json.dumps({"n": 21, "edges": [[i, i + 1] for i in range(20)]}))
    out = tmp_path / "b.json"
    assert run(tmp_path, "bounds", str(g), "--exact", "-o", str(out)) == 0
    assert json.loads(out.read_text())["exact_chi"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["bounds", str(g), "--exact", "--force"])
    assert exc.value.code == 2


def test_exact_coloring_of_a_long_cycle_needs_no_recursion(tmp_path):
    # the coloring search used to recurse once per vertex: RecursionError, exit 1
    g = tmp_path / "c1201.json"
    assert run(tmp_path, "gen", "cycle", "1201", "-o", str(g)) == 0
    out = tmp_path / "b.json"
    assert run(tmp_path, "bounds", str(g), "--exact", "-o", str(out)) == 0
    assert json.loads(out.read_text())["exact_chi"] == 3


def test_bounds_of_m5_are_tight(tmp_path):
    # M5 = M(M(C5)), the Mycielski graph of the Grötzsch graph: 23 vertices,
    # chi 5, and Lovász's bound is tight on it
    n, edges = 5, [(i, (i + 1) % 5) for i in range(5)]
    for _ in range(2):
        edges += [(u, n + v) for a, b in edges for u, v in ((a, b), (b, a))]
        edges += [(n + i, 2 * n) for i in range(n)]
        n = 2 * n + 1
    g = tmp_path / "m5.json"
    g.write_text(json.dumps({"n": n, "edges": edges}))
    out = tmp_path / "b.json"
    assert run(tmp_path, "bounds", str(g), "--exact", "-o", str(out)) == 0
    obj = json.loads(out.read_text())
    assert (n, obj["lovasz"]["value"], obj["exact_chi"]) == (23, 5, 5)


def test_bounds_refuses_an_oversized_graph_before_lovasz(tmp_path, capsys, monkeypatch):
    # under this budget N(K8) (254 faces) would pass and B(K8) (6558) does not
    g = tmp_path / "k8.json"
    run(tmp_path, "gen", "complete", "8", "-o", str(g))
    monkeypatch.setattr(simplicial, "FACE_BUDGET", 1000)
    lovasz_calls = []
    monkeypatch.setattr(bd, "lovasz_bound", lovasz_calls.append)
    assert run(tmp_path, "bounds", str(g)) == 2
    assert lovasz_calls == []
    assert "face budget" in capsys.readouterr().err


def test_bounds_on_a_long_path_needs_no_force(tmp_path):
    g = tmp_path / "p25.json"
    g.write_text(json.dumps({"n": 25, "edges": [[i, i + 1] for i in range(24)]}))
    out = tmp_path / "b.json"
    assert run(tmp_path, "bounds", str(g), "-o", str(out)) == 0
    assert json.loads(out.read_text())["lovasz"]["value"] == 2


# Each input builds a complex past the face budget: B(K14) has 4,782,966
# faces, the closures of a 24- and a 40-vertex facet over 2^24, Hom(K2, K12)
# has 523,250 vertices and far more edges, sd(B(K8)) has millions of chains,
# KG(40, 20) has C(40, 20) vertices, and a graph of a million and one
# vertices, refused before its adjacency (about half a gigabyte) is allocated,
# has more vertices than the budget.  sd(B(K8)) runs under a smaller budget
# to stay fast; the others are refused at the default one.
@pytest.mark.parametrize(
    "command, budget",
    [
        ("bounds k14", None),
        ("complex box k25", None),
        ("homology facet40", None),
        ("complex hom k12", None),
        ("complex sd boxk8", 100_000),
        ("gen kneser 40 20", None),
        ("bounds n1000001", None),
        ("gen cycle 1000001", None),
    ],
)
def test_oversized_inputs_exit_2(tmp_path, capsys, monkeypatch, command, budget):
    for n in (8, 12, 14, 25):
        run(tmp_path, "gen", "complete", str(n), "-o", str(tmp_path / f"k{n}"))
    run(tmp_path, "complex", "box", str(tmp_path / "k8"), "-o", str(tmp_path / "boxk8"))
    (tmp_path / "facet40").write_text(json.dumps({"facets": [list(range(40))]}))
    (tmp_path / "n1000001").write_text('{"n": 1000001, "edges": []}')
    capsys.readouterr()
    if budget is not None:
        monkeypatch.setattr(simplicial, "FACE_BUDGET", budget)
    *argv, name = command.split()
    path = tmp_path / name
    assert run(tmp_path, *argv, str(path) if path.exists() else name) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "face budget" in err and "Traceback" not in err


def test_verify_suspension_small(tmp_path):
    out = tmp_path / "r.json"
    assert run(tmp_path, "verify", "suspension", "--max-n", "3", "-o", str(out)) == 0
    outcomes = json.loads(out.read_text())
    assert outcomes and all(o["passed"] for o in outcomes)


def test_verify_nbhd_search_four_cycle(tmp_path):
    target = tmp_path / "c4complex.json"
    target.write_text(json.dumps({"facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    out = tmp_path / "s.json"
    assert (
        run(tmp_path, "verify", "nbhd-search", "--n", "4", "--target", str(target), "-o", str(out))
        == 0
    )
    assert json.loads(out.read_text())["found"] is None


def test_verify_unknown_suite_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(tmp_path, "gen", "kneser", "5", "2", "-o", str(a))
    run(tmp_path, "gen", "kneser", "5", "2", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    ca, cb = tmp_path / "ca.json", tmp_path / "cb.json"
    run(tmp_path, "complex", "box0", str(a), "-o", str(ca))
    run(tmp_path, "complex", "box0", str(b), "-o", str(cb))
    assert ca.read_bytes() == cb.read_bytes()


def test_emitted_complex_reparses_to_equal_object(tmp_path):
    g = tmp_path / "c5.json"
    run(tmp_path, "gen", "cycle", "5", "-o", str(g))
    c = tmp_path / "box.json"
    run(tmp_path, "complex", "box", str(g), "-o", str(c))
    K, action = complex_from_obj(json.loads(c.read_text()))
    from boxtopo.builders import box_complex
    from boxtopo.graphs import cycle_graph
    from boxtopo.simplicial import Z2Complex

    assert Z2Complex(K, action) == box_complex(cycle_graph(5))


def test_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for command, text in [
        ("homology", "{not json"),
        ("bounds", '{"n": 3, "edges": [1, 2]}'),
        ("homology", '{"facets": [0, 1]}'),
        ("complex sd", '{"facets": [[0], [1]], "involution": [0, 1]}'),
        # JSON booleans are not integers
        ("bounds", '{"n": 2, "edges": [[false, true]]}'),
        ("bounds", '{"n": true, "edges": []}'),
        ("homology", '{"facets": [[true, 2]]}'),
        ("complex sd", '{"facets": [[0], [1]], "involution": {"map": {"0": true, "1": false}}}'),
        # nesting deeper than the JSON decoder recurses
        ("homology", "[" * 200_000),
        ("complex sd", "[" * 200_000),
        ("bounds", '{"n": ' + "[" * 200_000 + "]" * 200_000 + "}"),
    ]:
        bad.write_text(text)
        assert run(tmp_path, *command.split(), str(bad)) == 2
        assert capsys.readouterr().err.count("\n") == 1
    # a negative vertex cap is refused, not read as "Petersen graph only"
    assert run(tmp_path, "verify", "suspension", "--max-n", "-5") == 2
    assert "--max-n" in capsys.readouterr().err


def test_verify_guard_exit_2(tmp_path, capsys):
    assert run(tmp_path, "verify", "all", "--max-n", "8") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "verify guard" in err
    # the guard reads the corpus a suite builds: roundtrip needs none
    out = str(tmp_path / "r.json")
    assert run(tmp_path, "verify", "roundtrip", "--max-n", "100", "-o", out) == 0


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "v.json"
    assert run(tmp_path, "verify", "all", "--max-n", "5", "-o", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DIGESTS["verify"]
    assert_no_worker_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_check_exits_2_with_one_line(tmp_path, capsys, monkeypatch, workers):
    def broken(x, builds=None):
        raise ValueError("broken check")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(bd, "verify_shore_retract", broken)
    assert run(tmp_path, "verify", "all", "--max-n", "5", "-o", str(tmp_path / "v.json")) == 2
    err = capsys.readouterr().err
    assert err == "error: broken check\n"
    assert_no_worker_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_with_no_outcomes_writes_an_empty_list(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "v.json"
    assert run(tmp_path, "verify", "cone", "--max-n", "0", "-o", str(out)) == 0
    assert out.read_bytes() == b"[]\n"


# sha256 of `verify all --max-n 5 --format table`, recorded while the
# workers still sent VerificationOutcome objects back
TABLE_DIGEST = "c7aa6da630254a9b67ed17ae0d2f4ca0fd62518c46c9c0a9d09fa9ce5d53f21a"


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_table_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "v.txt"
    argv = ["verify", "all", "--max-n", "5", "--format", "table", "-o", str(out)]
    assert run(tmp_path, *argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE_DIGEST
    assert_no_worker_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_joined_fragments_are_the_canonical_json_of_the_outcomes(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    out = tmp_path / "v.json"
    assert run(tmp_path, "verify", "all", "--max-n", "5", "-o", str(out)) == 0
    text = out.read_text()
    outcomes = json.loads(text)
    assert len(outcomes) > 1
    assert simplicial.dumps_canonical(outcomes) == text
    assert_no_worker_left()


def test_a_fragment_keeps_the_newlines_inside_strings_escaped():
    obj = {"input": "a\nb", "details": {"faces": [[0, 1], []], "empty": {}}}
    joined = "[\n  " + ",\n  ".join([cli._fragment(obj)] * 2) + "\n]\n"
    assert joined == simplicial.dumps_canonical([obj, obj])


def test_a_free_worker_takes_the_jobs_a_busy_one_has_not_reached(tmp_path, monkeypatch):
    # job 0 waits until every other job has run; with jobs split up front
    # its worker would still hold some of them, and job 0 would time out
    n = 12

    def check(x, builds=None):
        if x == 0:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < n - 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        else:
            (tmp_path / str(x)).touch()
        details = {"pid": os.getpid(), "seen": len(list(tmp_path.iterdir()))}
        return bd.VerificationOutcome("ordered", str(x), True, details)

    monkeypatch.setattr(bd, "ordered_check", check, raising=False)
    with tempfile.TemporaryFile() as a, tempfile.TemporaryFile() as b:
        results = cli._run_checks_forked([(x, ["ordered_check"]) for x in range(n)], [a, b])
        assert [job[0][1] for _, job in results] == [str(x) for x in range(n)]
        # each record locates its outcome's JSON in the spill of its worker
        fragments = [os.pread(spill.fileno(), job[0][4], job[0][3]) for spill, job in results]
    first, *rest = (json.loads(f)["details"] for f in fragments)
    assert first["seen"] == n - 1
    assert first["pid"] not in {d["pid"] for d in rest}
    assert_no_worker_left()


def test_the_parent_holds_the_records_not_the_output(tmp_path, monkeypatch):
    # from --max-n 5 to 6 the output grows from 0.19 to 1.19 MB; the
    # fragments stay in the workers' spill files, so the parent's traced
    # peak grows by the records alone.  The corpus is the input, and
    # building it grows the peak by about 0.5 MB on its own, so it is built
    # before the trace starts, as is the parser
    corpora = {n: connected_graph_corpus(n) for n in (0, 5, 6)}
    monkeypatch.setattr(graphs, "connected_graph_corpus", corpora.__getitem__)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert run(tmp_path, "verify", "cone", "--max-n", "0", "-o", str(tmp_path / "warm.json")) == 0
    peaks, sizes = [], []
    for n in (5, 6):
        out = tmp_path / f"v{n}.json"
        tracemalloc.start()
        try:
            assert run(tmp_path, "verify", "all", "--max-n", str(n), "-o", str(out)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(out.stat().st_size)
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 2, (peaks, sizes)
    assert_no_worker_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_check_leaves_no_spill_file(tmp_path, capsys, monkeypatch, workers):
    def broken(x, builds=None):
        raise ValueError("broken check")

    spills = tmp_path / "spills"
    spills.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(bd, "verify_shore_retract", broken)
    assert run(tmp_path, "verify", "all", "--max-n", "5", "-o", str(tmp_path / "v.json")) == 2
    assert capsys.readouterr().err == "error: broken check\n"
    assert list(spills.iterdir()) == []
    assert not (tmp_path / "v.json").exists()
    assert_no_worker_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_streams_the_pinned_bytes_to_stdout(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    assert run(tmp_path, "verify", "all", "--max-n", "5") == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_DIGESTS["verify"]
    assert_no_worker_left()


@pytest.mark.parametrize("kind", ["sd", "susp"])
def test_a_loaded_involution_is_checked_on_the_files_facets(tmp_path, capsys, kind):
    op = simplicial.subdivide_involution if kind == "sd" else simplicial.z2_suspension
    swap = {0: 2, 2: 0, 1: 3, 3: 1}
    Z = op(simplicial.Z2Complex(from_facets([[0, 1], [2, 3]]), simplicial.Involution(swap)))
    expected = simplicial.dumps_canonical(simplicial.complex_to_obj(Z.complex, Z.action))
    f, out = tmp_path / "z.json", tmp_path / "out.json"
    # a non-maximal facet and a repeated vertex leave the complex as it was
    for facets in ([[0, 1], [0], [2, 3]], [[0, 1, 1], [3, 2, 2]]):
        f.write_text(json.dumps({"facets": facets, "involution": {"map": swap}}))
        assert run(tmp_path, "complex", kind, str(f), "-o", str(out)) == 0
        assert out.read_text() == expected
    f.write_text(json.dumps({"facets": [[0, 1], [2]], "involution": {"map": {0: 1, 1: 0, 2: 2}}}))
    assert run(tmp_path, "complex", kind, str(f)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: action is not free")


def test_importing_boxtopo_leaves_multiprocessing_out():
    code = "import sys, boxtopo.cli; assert 'multiprocessing' not in sys.modules"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_the_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_importing_the_cli_builds_no_parser():
    code = "import boxtopo.cli as c; assert c._parser.cache_info().currsize == 0"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_a_wrapper_patched_after_the_first_call_sees_the_next(tmp_path, monkeypatch):
    g = tmp_path / "c5.json"
    assert run(tmp_path, "gen", "cycle", "5", "-o", str(g)) == 0
    original, seen = cli.cmd_bounds, []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.input) or original(args))
    assert run(tmp_path, "bounds", str(g), "-o", str(tmp_path / "b.json")) == 0
    assert seen == [str(g)]


def test_bad_arguments_exit_2_on_every_call(capsys):
    for _ in range(3):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--format", "xml", "g.json"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_null_graph_bounds_exit_2(tmp_path, capsys):
    g = tmp_path / "null.json"
    g.write_text('{"n": 0, "edges": []}')
    assert run(tmp_path, "bounds", str(g)) == 2
    assert "at least one vertex" in capsys.readouterr().err


# Output bytes are part of the CLI contract.  These sha256 digests were
# recorded before the bounds, the verify suites and the order-complex builders
# were each reduced to one code path, and before every complex was collapsed
# ahead of its homology, and must not move.  "bounds_c5" has connectivity > 0,
# so its pi1 check ran when it was recorded; the hom and sd files (40 and 200
# faces) were small enough that their homology used to be computed without
# collapsing them.
# "rp2_homology" was recorded before the sparse unit-pivot elimination: RP^2
# has no free face and its torsion Z/2 comes from the leftover dense block.
# "bounds_k4", "bounds_k6" and "bounds_kg62" (conn > 0 for both bounds, so
# the parent ran its pi1 check on B(G) and on B0(G)) were recorded while the
# bounds were still computed on B(G) and B0(G), before N(G) and susp B(G).
# "verify6" was recorded while verify still ran suite by suite, before the
# checks on one input shared one Builds scope.  The "nbhd", "box0" and "bc"
# entries (C5 and KG(5,2)) were recorded before B(G), B0(G) and the
# cones-over-shores complex shared one shore-swap constructor.  The "hom_kg",
# "sd_kg", "susp_kg", "sd_rp2" and "susp_rp2" entries were recorded while
# order complexes were still built chain by chain and suspensions face by face,
# before both were closed from their facets.
PINNED_DIGESTS = {
    "verify": "111aa2e8a8cafa5e79dc756f347f8719000d8d451298a7a6a7c9404b2a60dada",
    "verify6": "27f5093c32d313c684a09859dc56ba347c4d3073221f84d07ec7f8e3094cd067",
    "box": "aadf15b1298d7fa0400a8087931609694b5ff22f8229fa221e5355f2b38ea4e3",
    "sd": "7a3bb551e5cad8cf273820786749d22ce94aeb5e1609b49b8258f0c7ec892990",
    "hom": "acccf187b16bd34acf94d4dcd0e95dece47871660cef5d87c64962ca980ce6f5",
    "susp": "d28872320174beed93480df479ec3a039a48b2f53624f5beec5553d005e80eae",
    "bounds": "4ad03afe267b614b7d758d3446e1f5e387a6031991f22d88f3ad8f39138138e8",
    "bounds_c5": "2b7917b1c79e4a433eab2edfd793c49bd38aee7aa99807e17cc9c62ba91288dc",
    "hom_homology": "a1599b5db083b8f1900267341b0654db16c4196301c683f152f2e289d3cf063a",
    "sd_homology": "a1599b5db083b8f1900267341b0654db16c4196301c683f152f2e289d3cf063a",
    "rp2_homology": "c53d4a88fa745a77072fe7d10ec2ec0af1ad1900eb8349908e027e9486482d95",
    "bounds_k4": "7aa4cf5f9b85993f0d7f6eb1c6defcc01bdcee64a8ff0549208212e798e02f65",
    "bounds_k6": "1c365522958cc413e4c012a6ee10586a8c437eccdd65f2c00b3716de10f888d4",
    "bounds_kg62": "102818554cacd197efea1d79fd2543a5fd900cf8fc389f868cedc867ec8c3030",
    "bounds_k9": "3bec3989bd3ff38fc7808b35fe31618826aadd60f4744082f43c82e5211a1b5b",
    "bounds_kg72": "6c5dd6e013fa491582b1e804c67d68f3b47e35cfa5d10ab710c830d11c9ae0fd",
    "nbhd_c5": "2246a9228fd32733bb2be541a264bf499ad54d709089c36c44296b6b017620b4",
    "nbhd_kg": "2a49558588d8c184f3a7488a189002c53b4fb8e9367f98e4070e46337d173113",
    "box0_c5": "f5ca884bdbabe8e708fa1d9fa0e851208b25ee025df0b9f84846c0d1b9702d5b",
    "box0_kg": "86d6577fa6d5358bc9b3a999293e79e6fa42cbaf9b609620988fcd5a7ec61498",
    "bc_c5": "357bfa6fbdcbf38bd6b38320621c49f32830db1b295e96fbf0db2e648ae4e3c3",
    "bc_kg": "ea31b10808c5bf730585e04242bb68105bb95f3e73995b8be0493d56e537cd0c",
    "hom_kg": "5363f247f8a543ab29266059d114bd6b91f041b75059353054ee8b8bba25421e",
    "sd_kg": "d141b146aa8fc2b69e5bea7b6f64c15e30428484d71f01f0f8a5dbee3e9b1bd9",
    "susp_kg": "2ff9f4cc6641612eaad7ffdaf28453e6aa6c5fc1d1174851ef02439f14279a3f",
    "sd_rp2": "836b59346f038d8d2ee8bf72201a479b71e3ca298da688c9312d20bdfe315ded",
    "susp_rp2": "7f6eb8f47f860c3a1f03487a8b24257eea3d7cd374e2628754c272df691f007b",
}


def test_output_bytes_match_pinned_digests(tmp_path):
    def out(name, *argv):
        path = tmp_path / f"{name}.json"
        assert run(tmp_path, *argv, "-o", str(path)) == 0
        return str(path)

    g, kg = out("g", "gen", "cycle", "5"), out("kg", "gen", "kneser", "5", "2")
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(json.dumps({"facets": RP2_FACETS}))
    paths = {
        "verify": out("verify", "verify", "all", "--max-n", "5"),
        "verify6": out("verify6", "verify", "all", "--max-n", "6"),
        "box": out("box", "complex", "box", g),
        "hom": out("hom", "complex", "hom", g),
        "bounds": out("bounds", "bounds", kg, "--exact"),
        "bounds_c5": out("bounds_c5", "bounds", g, "--exact"),
    }
    paths["sd"] = out("sd", "complex", "sd", paths["box"])
    paths["susp"] = out("susp", "complex", "susp", paths["hom"])
    paths["hom_homology"] = out("hom_homology", "homology", paths["hom"])
    paths["sd_homology"] = out("sd_homology", "homology", paths["sd"])
    paths["rp2_homology"] = out("rp2_homology", "homology", str(rp2))
    for name, *gen in (
        ("k4", "complete", "4"), ("k6", "complete", "6"), ("k9", "complete", "9"),
        ("kg62", "kneser", "6", "2"),
    ):
        paths[f"bounds_{name}"] = out(f"bounds_{name}", "bounds", out(name, "gen", *gen), "--exact")
    # KG(7, 2) has 21 vertices and chi 5
    kg72 = out("kg72", "gen", "kneser", "7", "2")
    paths["bounds_kg72"] = out("bounds_kg72", "bounds", kg72, "--exact")
    for kind, name in (("n", "nbhd"), ("box0", "box0"), ("bc", "bc")):
        for graph, path in (("c5", g), ("kg", kg)):
            paths[f"{name}_{graph}"] = out(f"{name}_{graph}", "complex", kind, path)
    # order complexes and suspensions, with an involution (KG(5,2)) and without (RP^2)
    paths["hom_kg"] = out("hom_kg", "complex", "hom", kg)
    box_kg = out("box_kg", "complex", "box", kg)
    for kind, name, path in (
        ("sd", "sd_kg", box_kg), ("susp", "susp_kg", paths["hom_kg"]),
        ("sd", "sd_rp2", str(rp2)), ("susp", "susp_rp2", str(rp2)),
    ):
        paths[name] = out(name, "complex", kind, path)
    digests = {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in paths.items()}
    assert digests == PINNED_DIGESTS
