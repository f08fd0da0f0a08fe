"""Command-line surface.

Subcommands: gen, complex, homology, bounds, verify.  All configuration
is via flags; identical inputs produce byte-identical JSON outputs.

Exit codes are a stable contract: 0 success (all checks verified),
1 verification failure, 2 input or guard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import bounds as bd
from . import builders, graphs, homology, simplicial
from .simplicial import dumps_canonical


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_json(text: str):
    """json.loads, with nesting too deep for the decoder as a one-line ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _load_graph(path: str) -> graphs.Graph:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return graphs.graph_from_obj(_parse_json(text))
    return graphs.graph_from_edge_list(text)


def _load_complex(path: str):
    """(K, action, gens): given an action, gens canonicalizes the file's
    facets, which generate K, as they are read, once; else it is empty."""
    given = _parse_json(Path(path).read_text())
    K, action = simplicial.complex_from_obj(given)
    return K, action, map(simplicial._canon_face, given.get("facets", []) if action else ())


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family == "kneser":
        if len(args.params) != 2:
            raise ValueError("gen kneser needs exactly two parameters: n k")
        G = graphs.kneser_graph(int(args.params[0]), int(args.params[1]))
    elif family == "complete":
        if len(args.params) != 1:
            raise ValueError("gen complete needs one parameter: n")
        G = graphs.complete_graph(int(args.params[0]))
    elif family == "cycle":
        if len(args.params) != 1:
            raise ValueError("gen cycle needs one parameter: n")
        G = graphs.cycle_graph(int(args.params[0]))
    elif family == "cone":
        if args.base is None:
            raise ValueError("gen cone needs --base FILE")
        G = graphs.cone_k(_load_graph(args.base), args.k)
    else:
        raise ValueError(f"unknown family {family!r}")
    _emit(dumps_canonical(graphs.graph_to_obj(G)), args.output)
    return 0


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------

def cmd_complex(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in ("n", "box", "box0", "bc", "hom"):
        G = _load_graph(args.input)
        if kind == "n":
            K = builders.neighborhood_complex(G)
            obj = simplicial.complex_to_obj(K)
        elif kind == "hom":
            Z = builders.hom_k2_order_complex(G)
            obj = simplicial.complex_to_obj(Z.complex, Z.action)
        else:
            Z = {
                "box": builders.box_complex,
                "box0": builders.box0_complex,
                "bc": builders.cones_over_shores_complex,
            }[kind](G)
            obj = simplicial.complex_to_obj(
                Z.complex, Z.action, builders.shore_vertex_records(Z, G.n)
            )
    elif kind in ("sd", "susp"):
        K, action, gens = _load_complex(args.input)
        if action is not None:
            op = simplicial.subdivide_involution if kind == "sd" else simplicial.z2_suspension
            out = op(simplicial.Z2Complex._generated(K, action, gens))
            obj = simplicial.complex_to_obj(out.complex, out.action)
        else:
            op = simplicial.barycentric_subdivision if kind == "sd" else simplicial.suspension
            obj = simplicial.complex_to_obj(op(K))
    else:
        raise ValueError(f"unknown complex kind {kind!r}")
    _emit(dumps_canonical(obj), args.output)
    return 0


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def cmd_homology(args: argparse.Namespace) -> int:
    K = _load_complex(args.input)[0]
    profile = homology.reduced_homology(K)
    if args.format == "table":
        _emit(str(profile) + "\n", args.output)
    else:
        _emit(dumps_canonical(homology.profile_to_obj(profile)), args.output)
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# complexes are bounded where they are built (simplicial.FACE_BUDGET) and
# the coloring and isomorphism searches where they run (SEARCH_BUDGET)
VERIFY_GUARD = 7  # `verify all --max-n 8` takes 76-89 s and peaks at 110 MB on a 2-vCPU VM


def cmd_bounds(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    # Sarkaria builds B(G), the larger complex: an oversized graph passes
    # the face budget there before any Lovász work is done
    sar = bd.sarkaria_bound(G)
    lov = bd.lovasz_bound(G)
    exact = None
    if args.exact:
        exact = graphs.chromatic_number(G)
        lov = dataclasses.replace(lov, exact_chi=exact)
        sar = dataclasses.replace(sar, exact_chi=exact)
    if args.format == "table":
        lines = [
            f"graph      {G.descriptor()}",
            f"lovasz     {lov.value}",
            f"sarkaria   {sar.value}",
        ]
        if exact is not None:
            lines.append(f"exact chi  {exact}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        obj: dict = {"lovasz": lov.to_obj(), "sarkaria": sar.to_obj()}
        if exact is not None:
            obj["exact_chi"] = exact
        _emit(dumps_canonical(obj), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _named_z2_inputs() -> list[simplicial.Z2Complex]:
    return [
        simplicial.two_points_z2(),
        simplicial.antipodal_cycle_z2(4),
        simplicial.antipodal_cycle_z2(6),
    ]


def _with_petersen(corpus: list[graphs.Graph]) -> list[graphs.Graph]:
    return corpus + [graphs.kneser_graph(5, 2)]


# suite -> (check in the bounds module, vertex cap of its graphs, its inputs
# given the connected-graph corpus).  A check is looked up by name when it
# runs, so wrappers patched onto the bounds module see every call.  Cap 0
# marks the suites over the named Z2 complexes.  hom stops at 4 vertices:
# the sparse elimination no longer needs the cap (Hom(K2, K5), 4200 faces
# that no collapse reduces, takes well under a second), but lifting it
# changes the outcomes `verify all` reports (734 at --max-n 6).
ALL_SUITES = {
    "suspension": ("verify_suspension_relation", math.inf, _with_petersen),
    "shore": ("verify_shore_retract", math.inf, _with_petersen),
    "shore-identity": ("verify_shore_identity", math.inf, list),
    "euler": (
        "verify_even_euler",
        math.inf,
        lambda corpus: [G for G in _with_petersen(corpus) if G.edges],
    ),
    "roundtrip": ("verify_construction_roundtrip", 0, lambda corpus: _named_z2_inputs()),
    "nerve": (
        "verify_nerve_identity",
        0,
        lambda corpus: _named_z2_inputs() + [simplicial.octahedron_z2()],
    ),
    "cone": ("verify_cone_graph", math.inf, list),
    "hom": ("verify_hom_equivalence", 4, list),
}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fragment(obj) -> str:
    """dumps_canonical(obj) as an element one level into a JSON list.

    The final newline is dropped and every other one gains two spaces of
    indent; JSON escapes newlines inside strings, so every newline here is
    a line break of the layout.
    """
    return dumps_canonical(obj)[:-1].replace("\n", "\n  ")


def _outcome_records(jobs: list, spill) -> list[list[tuple[str, str, bool, int, int]]]:
    """Each (input, checks) job's outcomes as (check, input, passed, offset,
    length) records: the outcome's JSON, one level into a list, appended to
    the binary file `spill` at offset, or no JSON (both 0) with no spill.

    One Builds scope serves each input and is dropped before the next: its
    N(G), box facets, B(G), B0(G), Hom and H~(B(G)) are each built once,
    and memory stays that of one input's complexes.
    """
    results = []
    for x, checks in jobs:
        builds = builders.Builds()
        records = []
        for check in checks:
            o = getattr(bd, check)(x, builds=builds)
            at = spill.tell() if spill else 0
            size = spill.write(_fragment(o.to_obj()).encode()) if spill else 0
            records.append((o.check, o.input, o.passed, at, size))
        results.append(records)
    if spill:
        spill.flush()
    return results


def _run_checks_forked(jobs: list, spills: list) -> list[tuple]:
    """_outcome_records in one forked worker per spill, as (spill, records) per job.

    Each worker takes the next job number from a shared pipe whenever it
    has finished one, so a worker slowed by other load on its CPU, or given
    the larger inputs, does not leave the rest waiting for it.  The inputs
    are inherited, never pickled (graphs and complexes refuse setattr, so
    they would not unpickle); only (job number, records) pairs, or the
    exception a worker raised, come back: the JSON stays in its spill.
    Every worker is reaped before this returns; on any error the rest die.
    """
    import pickle
    import signal

    running: dict = {}  # pid -> read end of its pipe, until reaped
    todo_r, todo_w = os.pipe()  # job numbers, 4 bytes each
    try:
        for spill in spills:
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's stack
                code = 1
                try:
                    os.close(r)
                    os.close(todo_w)
                    done = []
                    try:
                        # each number is written and read whole (4 bytes, an
                        # atomic pipe transfer), so it goes to one worker only
                        while number := os.read(todo_r, 4):
                            i = int.from_bytes(number, "little")
                            done.append((i, _outcome_records([jobs[i]], spill)[0]))
                        reply = (None, done)
                    except BaseException as exc:  # re-raised in the parent
                        reply = (exc, None)
                    with os.fdopen(wr, "wb") as pipe:
                        pipe.write(pickle.dumps(reply))
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            running[pid] = os.fdopen(r, "rb")
        os.close(todo_r)
        todo_r = -1
        try:
            for i in range(len(jobs)):
                os.write(todo_w, i.to_bytes(4, "little"))
        except BrokenPipeError:  # every worker has stopped; its reply says why
            pass
        os.close(todo_w)
        todo_w = -1
        results: list = [None] * len(jobs)
        for pid, spill in zip(list(running), spills):  # forked in spill order
            with running[pid] as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del running[pid]
            if not data:
                raise ChildProcessError(
                    f"a verify worker sent no outcomes "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            exc, done = pickle.loads(data)
            if exc is not None:
                raise exc
            for i, records in done:
                results[i] = (spill, records)
        return results
    finally:
        for fd in (todo_r, todo_w):
            if fd >= 0:
                os.close(fd)
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_verify(args: argparse.Namespace) -> int:
    """Run a suite (or all of them) over the corpus and write its outcomes.

    Each job's records come from _outcome_records, run in forked workers
    when more than one CPU is usable and in this process otherwise, with
    the JSON spilled to unlinked temporary files.  The records are sorted
    stably by (check, input) and each fragment copied from its spill to
    the output between the separators of dumps_canonical's list layout.
    """
    if args.suite == "nbhd-search":
        if args.target is None or args.n is None:
            raise ValueError("verify nbhd-search needs --n and --target FILE")
        K = _load_complex(args.target)[0]
        found = bd.neighborhood_realizability_search(K, args.n)
        obj = {
            "check": "nbhd-search",
            "n": args.n,
            "found": graphs.graph_to_obj(found) if found else None,
        }
        if args.format == "table":
            msg = found.descriptor() if found else "none found"
            _emit(f"nbhd-search n={args.n}: {msg}\n", args.output)
        else:
            _emit(dumps_canonical(obj), args.output)
        return 0

    import contextlib
    import tempfile

    if args.max_n < 0:
        raise ValueError(f"--max-n must be at least 0, not {args.max_n}")
    suites = list(ALL_SUITES) if args.suite == "all" else [args.suite]
    caps = {suite: min(args.max_n, ALL_SUITES[suite][1]) for suite in suites}
    corpus_n = max(caps.values())
    if corpus_n > VERIFY_GUARD:
        raise ValueError(
            f"a corpus of graphs on up to {corpus_n} vertices exceeds "
            f"the verify guard ({VERIFY_GUARD})"
        )
    corpus = graphs.connected_graph_corpus(corpus_n)
    checks_by_input: dict = {}
    for suite in suites:
        check, _, inputs = ALL_SUITES[suite]
        for x in inputs([G for G in corpus if G.n <= caps[suite]]):
            checks_by_input.setdefault(x, []).append(check)
    # inputs share no state, so their checks are shared out among forked
    # workers, one per usable CPU; the merge keeps the serial order, so tied
    # sort keys come out as they would in one process
    jobs = list(checks_by_input.items())
    workers = max(1, min(_usable_cpus(), len(jobs))) if hasattr(os, "fork") else 1
    with contextlib.ExitStack() as stack:
        spills = [None] * workers
        if args.format == "json":
            spills = [stack.enter_context(tempfile.TemporaryFile()) for _ in spills]
        if workers > 1:
            per_job = _run_checks_forked(jobs, spills)
        else:
            per_job = [(spills[0], job) for job in _outcome_records(jobs, spills[0])]
        records = sorted(((*r, s) for s, job in per_job for r in job), key=lambda r: r[:2])
        if args.format == "table":
            lines = [f"{'PASS' if r[2] else 'FAIL'}  {r[0]:24s} {r[1]}" for r in records]
            _emit("\n".join(lines) + "\n", args.output)
        else:
            out = stack.enter_context(open(args.output, "w")) if args.output else sys.stdout
            for k, (*_, at, size, spill) in enumerate(records):
                spill.seek(at)
                out.write((",\n  " if k else "[\n  ") + spill.read(size).decode())
            out.write("\n]\n" if records else "[]\n")
    return 0 if all(r[2] for r in records) else 1


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    Each subcommand stores the name of its cmd_* function, which main looks
    up in this module when it runs, so wrappers patched onto it see every
    call.
    """
    p = argparse.ArgumentParser(
        prog="boxtopo",
        description="Box complexes, exact homology, and chromatic lower bounds",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph file")
    g.add_argument("family", choices=["kneser", "complete", "cycle", "cone"])
    g.add_argument("params", nargs="*", help="family parameters")
    g.add_argument("--base", help="base graph file (cone)")
    g.add_argument("--k", type=int, default=1, help="cone iterations (default 1)")
    g.add_argument("-o", "--output")
    g.set_defaults(func="cmd_gen")

    c = sub.add_parser("complex", help="build a complex from a graph or complex file")
    c.add_argument("kind", choices=["n", "box", "box0", "bc", "hom", "sd", "susp"])
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.set_defaults(func="cmd_complex")

    h = sub.add_parser("homology", help="reduced homology of a complex file")
    h.add_argument("input")
    h.add_argument("--format", choices=["json", "table"], default="json")
    h.add_argument("-o", "--output")
    h.set_defaults(func="cmd_homology")

    b = sub.add_parser("bounds", help="chromatic lower bounds for a graph file")
    b.add_argument("input")
    b.add_argument("--exact", action="store_true", help="also compute exact chi")
    b.add_argument("--format", choices=["json", "table"], default="json")
    b.add_argument("-o", "--output")
    b.set_defaults(func="cmd_bounds")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=list(ALL_SUITES) + ["all", "nbhd-search"])
    v.add_argument("--max-n", type=int, default=5, help="corpus vertex cap (default 5)")
    v.add_argument("--n", type=int, help="vertex count for nbhd-search")
    v.add_argument("--target", help="target complex file for nbhd-search")
    v.add_argument("--format", choices=["json", "table"], default="json")
    v.add_argument("-o", "--output")
    v.set_defaults(func="cmd_verify")

    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
