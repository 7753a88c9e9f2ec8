"""Span tracing from outside the program.

The tracer replaces every public function of the eight isocap modules (the
layers) with a timing wrapper, in every isocap namespace that bound it, plus
the two constructors of graph_core and numpy's batched `linalg.solve` and
`einsum`.  Each call opens a span (name, layer, start, end, parent, op id);
spans stay in memory and are reduced to per-layer metrics at the end.  A
layer's self time is the span's duration minus the durations of the spans
it directly caused, which never overlap because the program runs on one
thread.
"""

import functools
import importlib
import sys
import time
import types

LAYERS = ("cli_io", "graph_core", "linear_core", "capacity", "spectra",
          "constants", "infinite_families", "verify")

# Private helpers worth a span of their own: the argument parser build that
# dominates one CLI call.
_EXTRA = {"cli_io": ("_parser",)}

PARSE = {"cli_io.parse_graph", "cli_io._parser", "cli_io.parse_family_spec"}
SERIALIZE = {"cli_io.to_json", "cli_io.project", "cli_io.document"}
BUILD = {"graph_core.WeightedGraph", "graph_core.SteklovDomain",
         "graph_core.make_domain", "graph_core.vertex_boundary"}
ASSEMBLE = {"linear_core.stiffness_matrix", "linear_core.mass_vector"}
FACTOR = {"linear_core.solve_spd", "linear_core.schur_complement"}
EIG = {"linear_core.sym_eig_generalized"}


class Span:
    __slots__ = ("name", "layer", "parent", "op", "start", "end", "info", "child")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.info = None
        self.child = 0.0


def _probe_arg(name, args, result):
    """The count a span records beside its timing, or None."""
    if name == "linear_core.stiffness_matrix":
        return id(args[0])
    if name == "linear_core.solve_spd":
        return len(args[1])
    if name == "linear_core.schur_complement":
        return len(set(args[1]))
    if name == "linear_core.sym_eig_generalized":
        return len(args[1])
    if name == "graph_core.WeightedGraph":
        return len(args[0].vertices)
    if name == "cli_io.to_json":
        return len(result)
    if name == "infinite_families.generate":
        return len(result.graph.vertices)
    if name == "numpy.linalg.solve":
        shape = args[0].shape
        count = 1
        for s in shape[:-2]:
            count *= s
        return count
    if name.startswith("spectra.") and hasattr(result, "eigenvalues"):
        return len(result.eigenvalues)
    if name.startswith("constants."):
        return _constant_results(result)
    return None


def _constant_results(result):
    """(evaluations, heuristic results) of a constants return value."""
    values = result.values() if isinstance(result, dict) else (result,)
    evals = heur = 0
    found = False
    for r in values:
        if hasattr(r, "evaluations"):
            found = True
            evals += r.evaluations
            heur += bool(r.heuristic)
        elif hasattr(r, "heuristic") and hasattr(r, "limit_estimate"):
            found = True
            heur += bool(r.heuristic)
    return (evals, heur) if found else None


class Tracer:
    """Installs span wrappers; `op` is the id stamped on new spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = False
        self._undo = []

    # -- installation -----------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (stack and stack[-1].name == name):
                return fn(*args, **kwargs)  # off, or a recursive call
            span = Span(name, layer, stack[-1] if stack else None, tracer.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                tracer.spans.append(span)
            span.info = _probe_arg(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the layers, wherever it is bound."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "isocap" or n.startswith("isocap.")]
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module("isocap." + layer)
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in _EXTRA.get(layer, ())
                if (public and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    replace[obj] = self._wrap(layer + "." + attr, layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replace:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])
        graph_core = importlib.import_module("isocap.graph_core")
        for cls in (graph_core.WeightedGraph, graph_core.SteklovDomain):
            self._install_init(cls)
        import numpy
        for owner, attr, name in ((numpy.linalg, "solve", "numpy.linalg.solve"),
                                  (numpy, "einsum", "numpy.einsum")):
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(name, None, getattr(owner, attr)))

    def _install_init(self, cls):
        init = cls.__init__
        self._undo.append((cls, "__init__", init))
        cls.__init__ = self._wrap("graph_core." + cls.__name__, "graph_core", init)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []


def _layer(span):
    # numpy calls belong to the layer that made them
    while span.layer is None and span.parent is not None:
        span = span.parent
    return span.layer


def layer_metrics(spans, op_wall_s, rounds):
    """Per-layer metrics from the spans of `rounds` passes over an op list.

    Times and counts are per pass.  op_wall_s is the summed wall time of the
    traced ops, the base of trace.coverage.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name_self = {}
    by_name_calls = {}
    by_name_dur = {}
    info = {}
    graphs_per_op = {}
    outer_const_s = 0.0
    pairs_used = 0
    for span in spans:
        layer = _layer(span)
        dur = span.end - span.start
        own = dur - span.child
        parent_layer = _layer(span.parent) if span.parent is not None else None
        if layer in self_s:
            self_s[layer] += own
            if span.layer is not None:
                calls[layer] += 1
        key = span.name if span.layer is not None else layer + "." + span.name
        by_name_self[key] = by_name_self.get(key, 0.0) + own
        by_name_calls[key] = by_name_calls.get(key, 0) + 1
        by_name_dur[key] = by_name_dur.get(key, 0.0) + dur
        if span.info is None:
            continue
        if span.name == "linear_core.stiffness_matrix":
            graphs_per_op.setdefault(span.op, set()).add(span.info)
        elif span.name.startswith("spectra.") and parent_layer != "spectra":
            pairs_used += span.info
        elif span.name.startswith("constants.") and parent_layer != "constants":
            outer_const_s += dur
            evals, heur = span.info
            info["candidates"] = info.get("candidates", 0) + evals
            info["heuristic"] = info.get("heuristic", 0) + heur
        else:
            info[key] = info.get(key, 0) + span.info

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    assemble_calls = total(by_name_calls, ASSEMBLE)
    distinct_graphs = sum(len(g) for g in graphs_per_op.values())
    eig_dims = total(info, EIG)
    candidates = info.get("candidates", 0)
    per_pass = {
        "cli_io.self_s": self_s["cli_io"],
        "cli_io.parse_s": total(by_name_self, PARSE),
        "cli_io.serialize_s": total(by_name_self, SERIALIZE),
        "cli_io.calls": calls["cli_io"],
        "cli_io.report_bytes": info.get("cli_io.to_json", 0),
        "graph_core.self_s": self_s["graph_core"],
        "graph_core.build_s": total(by_name_self, BUILD),
        "graph_core.build_calls": total(by_name_calls, ("graph_core.WeightedGraph",
                                                        "graph_core.SteklovDomain")),
        "graph_core.vertices_built": info.get("graph_core.WeightedGraph", 0),
        "linear_core.self_s": self_s["linear_core"],
        "linear_core.assemble_s": total(by_name_self, ASSEMBLE),
        "linear_core.assemble_calls": assemble_calls,
        "linear_core.factor_s": total(by_name_self, FACTOR),
        "linear_core.factor_calls": total(by_name_calls, FACTOR),
        "linear_core.factor_dim_sum": total(info, FACTOR),
        "linear_core.eig_s": total(by_name_self, EIG),
        "linear_core.eig_calls": total(by_name_calls, EIG),
        "linear_core.eig_dim_sum": eig_dims,
        "capacity.self_s": self_s["capacity"],
        "capacity.calls": calls["capacity"],
        "spectra.self_s": self_s["spectra"],
        "spectra.calls": calls["spectra"],
        "constants.self_s": self_s["constants"],
        "constants.calls": calls["constants"],
        "constants.heuristic_results": info.get("heuristic", 0),
        "constants.solve_s": by_name_dur.get("constants.numpy.linalg.solve", 0.0),
        "constants.solve_calls": by_name_calls.get("constants.numpy.linalg.solve", 0),
        "constants.systems_solved": info.get("constants.numpy.linalg.solve", 0),
        "constants.einsum_s": by_name_dur.get("constants.numpy.einsum", 0.0),
        "constants.candidates": candidates,
        "infinite_families.generate_s": self_s["infinite_families"],
        "infinite_families.calls": calls["infinite_families"],
        "infinite_families.vertices_generated": info.get("infinite_families.generate", 0),
        "verify.self_s": self_s["verify"],
        "verify.calls": calls["verify"],
    }
    metrics = {k: v / rounds for k, v in per_pass.items()}
    # ratios need no per-pass scaling
    metrics["linear_core.assemble_per_graph"] = (
        assemble_calls / distinct_graphs if distinct_graphs else 0.0)
    metrics["linear_core.eig_pairs_used_ratio"] = pairs_used / eig_dims if eig_dims else 0.0
    metrics["constants.candidates_per_s"] = (
        candidates / outer_const_s if outer_const_s else 0.0)
    metrics["trace.coverage"] = sum(self_s.values()) / op_wall_s
    return metrics
