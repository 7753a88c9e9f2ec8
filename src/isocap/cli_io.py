"""Graph file format, JSON report emission, and the command-line surface.

Graph files are line oriented: `# comment`, `v <id> <mass>`,
`e <id> <id> <weight>`, and one optional `omega <id> ...` marking the
interior.  Ids are opaque tokens and stay strings through parse and emit, so
a parse/emit round trip reproduces the graph exactly.

Reports are JSON with a fixed key order, every float printed with up to 17
significant digits (exact double round trip), and the distinguished infinite
value spelled as the string "infinite".  Identical inputs produce
byte-identical output apart from tool_version.

Exit codes: 0 success, 2 bad input or a numerical failure, 3 enumeration
budget exceeded, 4 a verified inequality failed.  An error report carries
{"kind", "message"}: kind "input" for an InputError (usage errors and a
non-finite number anywhere in a report included), "numerical" for a
SingularMatrixError or a numpy LinAlgError, "budget" for a BudgetError.

The argument parser is built once per process; argparse keeps no state
between parse_args calls, so every call of run_command parses afresh.  Each
subcommand declares only those of the budget and heuristic flags that the
constants it computes read (spectrum, cap and coarea none, verify all five);
any other is a usage error.
"""

import argparse
import functools
import json as _json
import math
import re
import sys

import numpy as np

from . import __version__
from .capacity import (CapacityResult, cap, cap_exhaustion, cap_to_boundary,
                       coarea_value)
from .constants import (Budget, ConstantResult, LimitReport, alpha_dirichlet,
                        alpha_dirichlet_limit, alpha_ds, alpha_neumann,
                        alpha_steklov, alpha_steklov_limit, gamma_k_dirichlet,
                        gamma_k_steklov, gamma_tilde_dirichlet, kappa_steklov)
from .errors import BudgetError, InputError, SingularMatrixError
from .graph_core import WeightedGraph, energy, make_domain
from .infinite_families import DIMENSIONED, FamilySpec, default_source, generate_steps
from .infinity import is_infinite
from .linear_core import SpectralResult
from .spectra import DOMAIN_SPECTRA
from .verify import K_THEOREMS, REGISTRY, THEOREMS, BoundReport, EqualityReport, check

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_FAILED = 4


# ---------------------------------------------------------------------------
# graph files

def _positive(token, lineno, what):
    try:
        value = float(token)
    except ValueError:
        raise InputError("line %d: %s %r is not a number" % (lineno, what, token))
    if not math.isfinite(value) or value <= 0.0:
        raise InputError("line %d: %s must be a positive finite number" % (lineno, what))
    return value


def parse_graph(text):
    """Parse a graph file; returns (graph, interior or None).

    All validation failures name the offending line.
    """
    order = []
    masses = {}
    edges = []
    seen_edges = set()
    omega = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 3:
                raise InputError("line %d: expected 'v <id> <mass>'" % lineno)
            vid = parts[1]
            if vid in masses:
                raise InputError("line %d: duplicate vertex %r" % (lineno, vid))
            masses[vid] = _positive(parts[2], lineno, "mass")
            order.append(vid)
        elif kind == "e":
            if len(parts) != 4:
                raise InputError("line %d: expected 'e <id> <id> <weight>'" % lineno)
            u, v = parts[1], parts[2]
            for end in (u, v):
                if end not in masses:
                    raise InputError("line %d: undeclared endpoint %r" % (lineno, end))
            if u == v:
                raise InputError("line %d: self-loop at %r" % (lineno, u))
            key = (u, v) if u < v else (v, u)
            if key in seen_edges:
                raise InputError("line %d: duplicate edge %r-%r" % (lineno, u, v))
            seen_edges.add(key)
            edges.append((u, v, _positive(parts[3], lineno, "weight")))
        elif kind == "omega":
            if omega is not None:
                raise InputError("line %d: second omega line" % lineno)
            if len(parts) == 1:
                raise InputError("line %d: empty omega line" % lineno)
            ids = parts[1:]
            if len(set(ids)) != len(ids):
                raise InputError("line %d: repeated id in omega" % lineno)
            for vid in ids:
                if vid not in masses:
                    raise InputError("line %d: omega id %r not declared" % (lineno, vid))
            omega = tuple(ids)
        else:
            raise InputError("line %d: unknown record %r" % (lineno, kind))
    if not order:
        raise InputError("no vertices declared")
    return WeightedGraph(order, masses, edges), omega


def _token(vid):
    s = str(vid)
    if not s or any(c.isspace() for c in s) or s.startswith("#"):
        raise InputError("vertex id %r is not writable as a file token" % (vid,))
    return s


def emit_graph(graph, interior=None):
    """Graph file text that parses back to an identical graph."""
    lines = []
    for v in graph.vertices:
        lines.append("v %s %s" % (_token(v), _num(graph.mass[v])))
    for u, v, w in graph.edges:
        lines.append("e %s %s %s" % (_token(u), _token(v), _num(w)))
    if interior is not None:
        lines.append("omega " + " ".join(_token(v) for v in interior))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON emission

def _num(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if not math.isfinite(x):
        raise InputError("non-finite number %r in report" % x)
    return "%.17g" % x


def to_json(obj):
    """Serialize with insertion order, 17-significant-digit floats, and the
    "infinite" sentinel; strings escape through the stdlib."""
    if is_infinite(obj):
        return '"infinite"'
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _json.dumps(obj)
    if isinstance(obj, bool) or isinstance(obj, (int, float)):
        return _num(obj)
    if isinstance(obj, dict):
        items = ("%s: %s" % (_json.dumps(str(k)), to_json(v)) for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    raise InputError("unserializable object %r" % (obj,))


def _plain(value):
    """A report value as JSON-ready data: a tuple of vertex ids as a list of
    strings (a tuple of such tuples, a partition witness, as a list of
    them), a vertex-keyed dict with string keys, an array as a list; any
    other value as it is."""
    if isinstance(value, tuple):
        if value and all(isinstance(p, tuple) for p in value):
            return [[str(v) for v in p] for p in value]
        return [str(v) for v in value]
    if isinstance(value, dict):
        return {str(v): x for v, x in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


# result type -> (report type, whether the report carries the caller's name,
# the attributes reported, in report order)
_REPORTS = {
    BoundReport: ("bound", False, (
        "theorem_id", "eigenvalue", "constant", "lower_bound", "upper_bound",
        "lower_ok", "upper_ok", "ratio", "witness", "empirical_c", "sequences")),
    ConstantResult: ("constant", True, ("value", "witness", "evaluations", "heuristic")),
    SpectralResult: ("spectrum", True, ("eigenvalues", "residual_norm", "vertex_order")),
    CapacityResult: ("capacity", False, ("value", "source", "sink", "potential")),
    LimitReport: ("limit", True, (
        "indices", "values", "limit_estimate", "error_bar", "monotone", "heuristic")),
    EqualityReport: ("equality", False, (
        "sigma1", "alpha_s", "equal", "status", "gap", "multiplicity", "witness")),
}
# attributes left out of a report while they are None
_OMITTED_IF_NONE = ("empirical_c", "sequences")


def project(result, name=None):
    """Flatten a result object into a JSON-ready dict (_REPORTS); a plain
    dict reports as a named sequence."""
    if type(result) is dict:
        return {"type": "sequence", "name": name, **result}
    if type(result) not in _REPORTS:
        raise InputError("unreportable result %r" % (result,))
    kind, named, attrs = _REPORTS[type(result)]
    out = {"type": kind, "name": name} if named else {"type": kind}
    for attr in attrs:
        value = getattr(result, attr)
        if value is None and attr in _OMITTED_IF_NONE:
            continue
        out["theorem" if attr == "theorem_id" else attr] = _plain(value)
    return out


def document(source, results, domain=None, diagnostics=None):
    inst = {"source": source}
    if domain is not None:
        inst["vertices"] = len(domain.graph.vertices)
        inst["interior_size"] = len(domain.interior)
        inst["boundary_size"] = len(domain.boundary)
    return {
        "tool_version": __version__,
        "instance": inst,
        "results": results,
        "diagnostics": diagnostics or {},
    }


# ---------------------------------------------------------------------------
# family specs

_U_KINDS = ("binary_tree", "half_space")


def parse_family_spec(text):
    """Family grammar: kind[:N][:quotient|:full][:summable],
    e.g. lattice_box:3:quotient:summable.  Each option is given at most once,
    and N only to a kind with a dimension (DIMENSIONED)."""
    kind, *options = text.split(":")
    fields = {}
    for opt in options:
        if opt.isdigit():
            field, value = "dim", int(opt)
        elif opt in ("quotient", "full"):
            field, value = "quotient", opt == "quotient"
        elif opt == "summable":
            if kind != "lattice_box":
                raise InputError("summable masses are a lattice_box option")
            field, value = "mass_rule", lambda x: 2.0 ** -max(abs(c) for c in x)
        else:
            raise InputError("unknown family option %r" % opt)
        if field in fields:
            raise InputError("family spec %r sets its %s twice" % (text, field))
        fields[field] = value
    spec = FamilySpec(kind, **fields)
    if "dim" in fields and kind not in DIMENSIONED:
        raise InputError("family spec %r gives a dimension to %r, which has none"
                         % (text, kind))
    return spec


def _parse_steps(text):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if b < a:
            raise InputError("empty step range %r" % text)
        return list(range(a, b + 1))
    try:
        steps = [int(t) for t in text.split(",")]
    except ValueError:
        raise InputError("steps must be 'a..b' or comma-separated integers")
    return steps


# ---------------------------------------------------------------------------
# commands

# Budget field -> the argparse dest of its flag
_BUDGET_FLAGS = {"single": "budget_single", "pair": "budget_pair",
                 "tuples": "budget_tuple", "part_cap": "part_cap"}


def _budget(args):
    """The budgets of the --budget-* and --part-cap flags that the subcommand
    declares (_parser); a flag it does not declare or is not given leaves
    Budget()'s default.  A budget of 0 leaves the exact enumerators nothing,
    so only --heuristic answers."""
    given = {field: getattr(args, dest, None) for field, dest in _BUDGET_FLAGS.items()}
    budget = Budget(**{field: value for field, value in given.items() if value is not None})
    for name in ("single", "pair", "tuples"):
        if getattr(budget, name) < 0:
            raise InputError("the %s budget must be nonnegative" % name)
    return budget


def _load(path):
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise InputError("cannot read %r: %s" % (path, exc))


def _need_domain(graph, omega, path):
    if omega is None:
        raise InputError("%s has no omega line" % path)
    return make_domain(graph, omega)


def _load_domain(path):
    graph, omega = _load(path)
    return _need_domain(graph, omega, path)


def _split_ids(text):
    ids = tuple(t for t in text.split(",") if t)
    if not ids:
        raise InputError("empty id list %r" % text)
    return ids


def _cmd_spectrum(args):
    domain = _load_domain(args.file)
    spec = DOMAIN_SPECTRA[args.mode](domain, domain.interior, args.k)
    doc = document(args.file, [project(spec, name=args.mode)], domain,
                   {"residuals": [spec.residual_norm]})
    return doc, EXIT_OK


def _cmd_cap(args):
    graph, omega = _load(args.file)
    A = _split_ids(args.A)
    if args.B is None:
        domain = _need_domain(graph, omega, args.file)
        result = cap_to_boundary(domain, A)
    else:
        B = _split_ids(args.B)
        if omega is not None:
            domain = make_domain(graph, omega)
            result = cap(domain, A, B)
        else:
            # free complement: ground exactly the named sink
            sink = set(B)
            interior = [v for v in graph.vertices if v not in sink]
            domain = make_domain(graph, interior)
            result = cap(domain, A, domain.boundary)
    doc = document(args.file, [project(result)], domain)
    return doc, EXIT_OK


# alpha variant -> (report name, evaluation on (domain, args, budget))
_ALPHAS = {
    "d": ("alpha_dirichlet", lambda domain, args, budget: alpha_dirichlet(
        domain, budget=budget, heuristic=args.heuristic)),
    "n": ("alpha_neumann", lambda domain, args, budget: alpha_neumann(
        domain, budget=budget, heuristic=args.heuristic)),
    "s": ("alpha_steklov", lambda domain, args, budget: alpha_steklov(
        domain, budget=budget, heuristic=args.heuristic)),
    "ds": ("alpha_ds", lambda domain, args, budget: alpha_ds(
        domain, _split_ids(args.window) if args.window else domain.closure,
        budget=budget)),
}


def _cmd_alpha(args):
    domain = _load_domain(args.file)
    budget = _budget(args)
    name, evaluate = _ALPHAS[args.which]
    res = evaluate(domain, args, budget)
    diag = {"enumeration_counts": [res.evaluations],
            "budgets": {"single": budget.single, "pair": budget.pair},
            "heuristic_flags": [res.heuristic]}
    doc = document(args.file, [project(res, name=name)], domain, diag)
    return doc, EXIT_OK


def _cmd_gamma(args):
    domain = _load_domain(args.file)
    budget = _budget(args)
    if args.which == "d":
        window = _split_ids(args.window) if args.window else domain.interior
        a = gamma_tilde_dirichlet(domain.graph, window, args.k, budget=budget)
        b = gamma_k_dirichlet(domain.graph, window, args.k, budget=budget)
        results = [project(a, "gamma_tilde_dirichlet"), project(b, "gamma_k_dirichlet")]
        counts = [a.evaluations, b.evaluations]
    else:
        window = _split_ids(args.window) if args.window else domain.closure
        a = gamma_k_steklov(domain, window, args.k, budget=budget)
        results = [project(a, "gamma_k_steklov")]
        counts = [a.evaluations]
    diag = {"enumeration_counts": counts,
            "budgets": {"tuples": budget.tuples, "part_cap": budget.part_cap}}
    doc = document(args.file, results, domain, diag)
    return doc, EXIT_OK


def _cmd_kappa(args):
    domain = _load_domain(args.file)
    budget = _budget(args)
    res = kappa_steklov(domain, args.k, budget=budget)
    diag = {"enumeration_counts": [res.evaluations],
            "budgets": {"tuples": budget.tuples, "part_cap": budget.part_cap}}
    doc = document(args.file, [project(res, "kappa_steklov")], domain, diag)
    return doc, EXIT_OK


_THEOREM_RE = re.compile(r"([a-z_0-9]+)\((\d+)\)$")


def _cmd_verify(args):
    name = args.theorem
    k = args.k
    m = _THEOREM_RE.fullmatch(name)
    if m:
        name = m.group(1)
        if k is not None and k != int(m.group(2)):
            raise InputError("-k disagrees with %r" % args.theorem)
        k = int(m.group(2))
    budget = _budget(args)
    if args.family is not None:
        if args.file is not None:
            raise InputError("verify takes a graph file or --family, not both")
        if not args.steps:
            raise InputError("--family needs --steps")
        spec = parse_family_spec(args.family)
        steps = generate_steps(spec, _parse_steps(args.steps))
        report = check(name, steps, k=k, budget=budget, heuristic=args.heuristic)
        doc = document("family:" + args.family, [project(report)],
                       diagnostics={"steps": [s.index for s in steps]})
    else:
        if args.steps is not None:
            raise InputError("--steps needs --family")
        if not args.file:
            raise InputError("verify needs a graph file or --family")
        domain = _load_domain(args.file)
        report = check(name, domain, k=k, budget=budget, heuristic=args.heuristic)
        doc = document(args.file, [project(report)], domain)
    return doc, EXIT_OK if report.passed() else EXIT_FAILED


def _cmd_family(args):
    spec = parse_family_spec(args.family)
    steps = generate_steps(spec, _parse_steps(args.steps))
    budget = _budget(args)
    grounded = spec.kind in _U_KINDS
    if args.emit == "cap":
        res = cap_exhaustion(steps, default_source(spec))
        results = [project(res, "cap_exhaustion")]
    elif args.emit == "alpha":
        if grounded:
            res = alpha_steklov_limit(steps, budget=budget)
            results = [project(res, "alpha_ds_limit")]
        else:
            res = alpha_dirichlet_limit(steps, budget=budget, heuristic=args.heuristic)
            results = [project(res, "alpha_dirichlet_limit")]
    else:
        # the eigenvalue side of the matching bottom-of-spectrum theorem
        bottom = REGISTRY["dtn_bottom" if grounded else "bottom"].eigenvalue
        seq = {"indices": [s.index for s in steps],
               "values": [bottom(s, None) for s in steps]}
        results = [project(seq, "sigma_bottom" if grounded else "lambda_bottom")]
    doc = document("family:" + args.family, results,
                   diagnostics={"steps": [s.index for s in steps]})
    return doc, EXIT_OK


def _cmd_coarea(args):
    domain = _load_domain(args.file)
    field = {}
    for item in args.field.split(","):
        if "=" not in item:
            raise InputError("field entries look like id=value, got %r" % item)
        vid, _, val = item.partition("=")
        if vid not in domain.closure_index:
            raise InputError("field id %r is not a vertex of the closure" % vid)
        if vid in field:
            raise InputError("field id %r is given twice" % vid)
        try:
            field[vid] = float(val)
        except ValueError:
            raise InputError("bad field value %r" % val)
    value = coarea_value(domain, field)
    quad = energy(domain, field, field)
    holds = value <= 2.0 * quad + 1e-12 * max(1.0, abs(quad))
    results = [{"type": "coarea", "value": value, "energy": quad,
                "bound": 2.0 * quad, "holds": holds}]
    return document(args.file, results, domain), EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser (its subparsers too) whose usage errors raise
    InputError, so they end in the JSON error report like other bad input.

    A parser with an optional positional (verify's file) parses its
    arguments intermixed, so its options may stand before, between or after
    the positionals: plain parsing fills the optional positional, empty,
    together with the one before it, and then rejects a positional that
    follows an option.  On older Pythons parse_known_intermixed_args calls
    parse_known_args in turn; _intermixing sends those calls to the plain
    parse.
    """

    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._intermixing or all(a.nargs != argparse.OPTIONAL
                                    for a in self._get_positional_actions()):
            return super().parse_known_args(args, namespace)
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


def _command(sub, name, *flags):
    """The parser of one subcommand, with those of the budget and heuristic
    flags that the constants it computes read."""
    p = sub.add_parser(name)
    for flag in flags:
        if flag == "--heuristic":
            p.add_argument(flag, action="store_true",
                           help="certified upper bounds from guided candidates "
                                "instead of exact enumeration")
        else:
            p.add_argument(flag, type=int, default=None)
    return p


@functools.cache
def _parser():
    top = _Parser(prog="isocap",
                  description="capacities, boundary spectra, and two-sided "
                              "eigenvalue bounds on weighted graphs")
    sub = top.add_subparsers(dest="command", required=True)

    p = _command(sub, "spectrum")
    p.add_argument("mode", choices=tuple(DOMAIN_SPECTRA))
    p.add_argument("-k", type=int, default=None, help="number of eigenvalues")
    p.add_argument("file")
    p.set_defaults(run=_cmd_spectrum)

    p = _command(sub, "cap")
    p.add_argument("-A", required=True, help="comma-separated source ids")
    p.add_argument("-B", default=None, help="comma-separated sink ids")
    p.add_argument("file")
    p.set_defaults(run=_cmd_cap)

    p = _command(sub, "alpha", "--budget-single", "--budget-pair", "--heuristic")
    p.add_argument("which", choices=tuple(_ALPHAS))
    p.add_argument("-Y", dest="window", default=None,
                   help="window for the ds variant (default: closure)")
    p.add_argument("file")
    p.set_defaults(run=_cmd_alpha)

    p = _command(sub, "gamma", "--budget-tuple", "--part-cap")
    p.add_argument("which", choices=("d", "s"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-W", dest="window", default=None,
                   help="window (default: omega for d, closure for s)")
    p.add_argument("file")
    p.set_defaults(run=_cmd_gamma)

    p = _command(sub, "kappa", "--budget-tuple", "--part-cap")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("file")
    p.set_defaults(run=_cmd_kappa)

    p = _command(sub, "verify",
                 "--budget-single", "--budget-pair", "--budget-tuple", "--part-cap",
                 "--heuristic")
    p.add_argument("theorem", help="one of %s; the k-indexed %s take -k or the form id(k)"
                   % (", ".join(THEOREMS), ", ".join(K_THEOREMS)))
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--steps", default=None)
    p.add_argument("-k", type=int, default=None)
    p.set_defaults(run=_cmd_verify)
    # the usage that parse_known_intermixed_args would format on every call
    p.usage = p.format_usage()[len("usage: "):].rstrip("\n")

    p = _command(sub, "family", "--budget-single", "--heuristic")
    p.add_argument("family")
    p.add_argument("--steps", required=True)
    p.add_argument("--emit", choices=("alpha", "cap", "sigma"), required=True)
    p.set_defaults(run=_cmd_family)

    p = _command(sub, "coarea")
    p.add_argument("file")
    p.add_argument("--field", required=True, help="comma-separated id=value pairs")
    p.set_defaults(run=_cmd_coarea)
    return top


def run_command(argv):
    """Run one subcommand; prints the report JSON and returns the exit code."""
    try:
        args = _parser().parse_args(argv)
        # floating-point warnings would print on stderr; an inf or nan that
        # reaches the report raises InputError in to_json instead
        with np.errstate(all="ignore"):
            doc, code = args.run(args)
        text = to_json(doc)  # a non-finite value raises InputError here
    except SystemExit:  # --help; a usage error raises InputError (_Parser)
        return EXIT_OK
    except BudgetError as exc:
        return _error("budget", exc, EXIT_BUDGET)
    except InputError as exc:
        return _error("input", exc, EXIT_INPUT)
    except (SingularMatrixError, np.linalg.LinAlgError) as exc:
        return _error("numerical", exc, EXIT_INPUT)
    print(text)
    return code


def _error(kind, exc, code):
    print(to_json({"tool_version": __version__,
                   "error": {"kind": kind, "message": str(exc)}}))
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
