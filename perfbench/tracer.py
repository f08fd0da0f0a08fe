"""Span tracing of boxtopo's layers, installed from outside the package.

The tracer replaces each public function of the layer modules (and a few
methods) with a wrapper that records a span: name, start, end, parent span
and request id.  Every module attribute that binds the same function object
is patched, because the package binds functions by name across modules
(``bounds`` imports ``reduced_homology``, ``builders`` imports
``from_facets``).  ``uninstall`` puts every original back.

Spans live in memory and are reduced to per-layer metrics at the end of the
traced pass.  Counter hooks run inside their own ``trace.hook`` span so that
their cost is not charged to the layer they observe.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "graphs", "builders", "simplicial", "homology", "bounds")

# Methods traced besides the module-level public functions.
METHODS = {
    "simplicial": ("SimplicialComplex.facets",),
    "homology": ("ChainComplex.boundary",),
}

HOOK_SPAN = "trace.hook"

# Graph-to-complex builders, keyed by the kind they build.
BUILDERS = {
    "builders.neighborhood_complex": "nbhd",
    "builders.box_complex": "box",
    "builders.box0_complex": "box0",
    "builders.cones_over_shores_complex": "bc",
    "builders.hom_k2_order_complex": "hom",
}

# Time metrics: total time covered by spans of these names (nested calls
# counted once).
TIME_METRICS = {
    "graphs.corpus_s": ("graphs.connected_graph_corpus", "graphs.connected_graphs"),
    "graphs.chromatic_s": ("graphs.chromatic_number",),
    "builders.box_s": ("builders.box_complex",),
    "builders.box0_s": ("builders.box0_complex",),
    "builders.hom_s": ("builders.hom_k2_order_complex",),
    "builders.nbhd_s": ("builders.neighborhood_complex",),
    "simplicial.closure_s": ("simplicial.from_facets",),
    "simplicial.subdivide_s": (
        "simplicial.subdivide_involution",
        "simplicial.barycentric_subdivision",
    ),
    "simplicial.facets_s": ("simplicial.SimplicialComplex.facets",),
    "simplicial.to_obj_s": ("simplicial.complex_to_obj",),
    "simplicial.dumps_s": ("simplicial.dumps_canonical",),
    "simplicial.from_obj_s": ("simplicial.complex_from_obj",),
    "homology.collapse_s": ("homology.collapse_reduce",),
    "homology.assemble_s": ("homology.boundary_matrices", "homology.ChainComplex.boundary"),
    "homology.snf_s": ("homology.smith_normal_form",),
    "homology.pi1_s": ("homology.pi1_trivial_heuristic",),
    "bounds.lovasz_s": ("bounds.lovasz_bound",),
    "bounds.sarkaria_s": ("bounds.sarkaria_bound",),
}

# Per-layer metrics the traced run reports, with their units.  The order is
# the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "graphs.self_s": "s",
    "graphs.corpus_s": "s",
    "graphs.corpus_calls": "count",
    "graphs.labeled_scanned": "count",
    "graphs.corpus_yield": "ratio",
    "graphs.chromatic_s": "s",
    "builders.self_s": "s",
    "builders.box_s": "s",
    "builders.box0_s": "s",
    "builders.hom_s": "s",
    "builders.nbhd_s": "s",
    "builders.builds": "count",
    "builders.rebuild_ratio": "ratio",
    "simplicial.self_s": "s",
    "simplicial.closure_s": "s",
    "simplicial.closure_faces": "count",
    "simplicial.subdivide_s": "s",
    "simplicial.facets_s": "s",
    "simplicial.to_obj_s": "s",
    "simplicial.dumps_s": "s",
    "simplicial.from_obj_s": "s",
    "homology.self_s": "s",
    "homology.reduced_calls": "count",
    "homology.calls_per_complex": "ratio",
    "homology.collapse_s": "s",
    "homology.collapse_calls": "count",
    "homology.collapse_faces_in": "count",
    "homology.collapse_removed_frac": "ratio",
    "homology.assemble_s": "s",
    "homology.matrix_cells": "count",
    "homology.matrix_nnz": "count",
    "homology.matrix_density": "ratio",
    "homology.snf_s": "s",
    "homology.snf_calls": "count",
    "homology.snf_max_cells": "count",
    "homology.pi1_s": "s",
    "homology.pi1_calls": "count",
    "homology.pi1_proved_frac": "ratio",
    "bounds.self_s": "s",
    "bounds.lovasz_s": "s",
    "bounds.sarkaria_s": "s",
    "bounds.caveat_frac": "ratio",
    "bounds.verify_s": "s",
    "bounds.checks": "count",
    "bounds.checks_failed": "count",
    "trace_overhead_frac": "ratio",
}


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` is a sequence of ``(name, start, end, parent, request)`` with
    ``parent`` an index into ``spans`` or -1.  Overlapping children are
    merged, so a child interval is never subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(end - start - covered)
    return out


def covered_time(spans, names) -> int:
    """Time covered by spans named in ``names``; a span nested inside another
    span of the set is not counted again."""
    names = set(names)
    total = 0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


class Tracer:
    """Records spans and counters while installed on the ``boxtopo`` modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counters: dict[str, int] = defaultdict(int)
        # per request: distinct (kind, graph) builds and distinct complexes
        self.builds_seen: set = set()
        self.complexes_seen: set = set()
        self.distinct_builds = 0
        self.distinct_complexes = 0
        self.patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request
        self.builds_seen = set()
        self.complexes_seen = set()

    def end_request(self) -> None:
        self.distinct_builds += len(self.builds_seen)
        self.distinct_complexes += len(self.complexes_seen)
        self.request = -1

    def _wrap(self, name: str, fn, hook):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator's body runs in its consumer's span; count yields
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tracer.counters[name + ".yields"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hrec = [HOOK_SPAN, 0, 0, stack[-1] if stack else -1, tracer.request]
                spans.append(hrec)
                hrec[1] = perf_counter_ns()
                hook(tracer, args, result)
                hrec[2] = perf_counter_ns()
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every ``boxtopo`` attribute binding it."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        import boxtopo  # noqa: F401  (the layer modules must be loaded)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "boxtopo" or name.startswith("boxtopo."))
        }
        wrappers: dict[object, object] = {}
        for layer in LAYERS:
            mod = modules["boxtopo." + layer]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, _hook_for(name))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                name = f"{layer}.{qual}"
                self._set(cls, meth, self._wrap(name, fn, _hook_for(name)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])

    def _set(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def check_self_times(self) -> int:
        """Largest |sum of self times - request duration| over requests, in ns."""
        selfs = self_times(self.spans)
        per_request: dict[int, int] = defaultdict(int)
        roots: dict[int, int] = defaultdict(int)
        for (name, start, end, parent, req), st in zip(self.spans, selfs):
            per_request[req] += st
            if parent < 0:
                roots[req] += end - start
        return max((abs(per_request[r] - roots[r]) for r in roots), default=0)

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Reduce spans and counters to the per-layer metrics, in PER_LAYER_UNITS order."""
        spans = self.spans
        c = self.counters
        layer_self: dict[str, int] = defaultdict(int)
        for (name, *_), st in zip(spans, self_times(spans)):
            layer_self[name.split(".", 1)[0]] += st
        ns = 1e-9
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] * ns
        for metric, names in TIME_METRICS.items():
            out[metric] = covered_time(spans, names) * ns
        count = defaultdict(int)
        for name, *_ in spans:
            count[name] += 1
        verify_names = {n for n in count if n.startswith("bounds.verify_")}
        out["bounds.verify_s"] = covered_time(spans, verify_names) * ns

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out["cli.bytes_in"] = c["cli.bytes_in"]
        out["cli.bytes_out"] = c["cli.bytes_out"]
        out["graphs.corpus_calls"] = count["graphs.connected_graph_corpus"]
        out["graphs.labeled_scanned"] = c["graphs.all_labeled_graphs.yields"]
        out["graphs.corpus_yield"] = ratio(c["graphs.corpus_graphs"], c["graphs.all_labeled_graphs.yields"])
        out["builders.builds"] = c["builders.builds"]
        out["builders.rebuild_ratio"] = ratio(c["builders.builds"], self.distinct_builds)
        out["simplicial.closure_faces"] = c["simplicial.closure_faces"]
        reduced = count["homology.reduced_homology"]
        out["homology.reduced_calls"] = reduced
        out["homology.calls_per_complex"] = ratio(reduced, self.distinct_complexes)
        out["homology.collapse_calls"] = count["homology.collapse_reduce"]
        out["homology.collapse_faces_in"] = c["homology.collapse_faces_in"]
        out["homology.collapse_removed_frac"] = ratio(
            c["homology.collapse_faces_in"] - c["homology.collapse_faces_out"],
            c["homology.collapse_faces_in"],
        )
        out["homology.matrix_cells"] = c["homology.matrix_cells"]
        out["homology.matrix_nnz"] = c["homology.matrix_nnz"]
        out["homology.matrix_density"] = ratio(c["homology.matrix_nnz"], c["homology.matrix_cells"])
        out["homology.snf_calls"] = count["homology.smith_normal_form"]
        out["homology.snf_max_cells"] = c["homology.snf_max_cells"]
        pi1 = count["homology.pi1_trivial_heuristic"]
        out["homology.pi1_calls"] = pi1
        out["homology.pi1_proved_frac"] = ratio(c["homology.pi1_proved"], pi1)
        out["bounds.caveat_frac"] = ratio(c["bounds.caveats"], c["bounds.reports"])
        out["bounds.checks"] = c["bounds.checks"]
        out["bounds.checks_failed"] = c["bounds.checks_failed"]
        out["trace_overhead_frac"] = overhead_frac
        return {name: out[name] for name in PER_LAYER_UNITS}


# -- counter hooks: (tracer, call args, result) -> None ----------------------

def _hook_build(tracer: Tracer, args, result, kind: str) -> None:
    tracer.counters["builders.builds"] += 1
    tracer.builds_seen.add((kind, args[0]))


def _hook_closure(tracer: Tracer, args, result) -> None:
    tracer.counters["simplicial.closure_faces"] += len(result)


def _hook_reduced(tracer: Tracer, args, result) -> None:
    tracer.complexes_seen.add(hash(args[0]))


def _hook_collapse(tracer: Tracer, args, result) -> None:
    tracer.counters["homology.collapse_faces_in"] += len(args[0])
    tracer.counters["homology.collapse_faces_out"] += len(result)


def _hook_assemble(tracer: Tracer, args, result) -> None:
    # computed from the face bases: D_k is |C_{k-1}| x |C_k| and each k-face
    # contributes k+1 nonzero entries
    bases = result.bases
    for k in range(1, len(bases)):
        tracer.counters["homology.matrix_cells"] += len(bases[k - 1]) * len(bases[k])
        tracer.counters["homology.matrix_nnz"] += (k + 1) * len(bases[k])


def _hook_snf(tracer: Tracer, args, result) -> None:
    M = args[0]
    cells = len(M) * (len(M[0]) if M else 0)
    c = tracer.counters
    c["homology.snf_max_cells"] = max(c["homology.snf_max_cells"], cells)


def _hook_pi1(tracer: Tracer, args, result) -> None:
    tracer.counters["homology.pi1_proved"] += bool(result)


def _hook_bound(tracer: Tracer, args, result) -> None:
    tracer.counters["bounds.reports"] += 1
    tracer.counters["bounds.caveats"] += bool(result.caveat)


def _hook_verify(tracer: Tracer, args, result) -> None:
    tracer.counters["bounds.checks"] += 1
    tracer.counters["bounds.checks_failed"] += not result.passed


def _hook_corpus(tracer: Tracer, args, result) -> None:
    tracer.counters["graphs.corpus_graphs"] += len(result)


HOOKS = {
    **{name: functools.partial(_hook_build, kind=kind) for name, kind in BUILDERS.items()},
    "simplicial.from_facets": _hook_closure,
    "homology.reduced_homology": _hook_reduced,
    "homology.collapse_reduce": _hook_collapse,
    "homology.boundary_matrices": _hook_assemble,
    "homology.smith_normal_form": _hook_snf,
    "homology.pi1_trivial_heuristic": _hook_pi1,
    "bounds.lovasz_bound": _hook_bound,
    "bounds.sarkaria_bound": _hook_bound,
    "graphs.connected_graph_corpus": _hook_corpus,
}


def _hook_for(name: str):
    if name.startswith("bounds.verify_"):
        return _hook_verify
    return HOOKS.get(name)
