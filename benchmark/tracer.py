"""Spans around picardlab's layers, recorded from outside the package.

`Tracer.install` wraps each traced function or method and patches every
place its callers look it up: the attribute on a class, or each module
attribute bound to the same function object (the runner imports names such
as `trace_feasibility` directly).  A span is (id, parent id, run id, name,
start, end); spans of one CLI call share the run id.  `layer_metrics` turns
the spans into each layer's busy time and call counts.
"""

import functools
import importlib
import sys
import time

# (module, attribute path, span name); a callable name receives the call's
# arguments.  The runner's per-entry spans are named after the entry.
TARGETS = [
    ("picardlab.catalog", "builtin_catalog", "catalog.load"),
    ("picardlab.runner", "run_entry", lambda a, kw: "runner.entry." + a[0].id),
    ("picardlab.morphisms", "CurveMap.verify", "morphisms.verify"),
    ("picardlab.morphisms", "verify_image_relations", "morphisms.verify"),
    ("picardlab.morphisms", "pullback", "morphisms.pullback"),
    ("picardlab.morphisms", "classify_in_basis", "morphisms.classify"),
    ("picardlab.actions", "GroupAction.__init__", "actions.closure"),
    ("picardlab.actions", "GroupAction.verify_decomposition",
     "actions.decomposition"),
    ("picardlab.actions", "GroupAction.span_certificate", "actions.certificate"),
    ("picardlab.linalg", "matrix_rank", "linalg.rank"),
    ("picardlab.linalg", "quadratic_form_rank", "linalg.rank"),
    ("picardlab.curves", "PlaneModel._count_diagonal",
     "curves.count.plane-diagonal"),
    ("picardlab.curves", "PlaneModel._count_scan", "curves.count.plane-scan"),
    ("picardlab.curves", "HyperellipticModel.count_points",
     "curves.count.hyperelliptic"),
    ("picardlab.curves", "SuperellipticModel.count_points",
     "curves.count.superelliptic"),
    ("picardlab.curves", "SpaceModel._count_sqrt_product",
     "curves.count.sqrt_product"),
    ("picardlab.curves", "SpaceModel._count_pencil_form",
     "curves.count.pencil_form"),
    ("picardlab.curves", "SpaceModel._count_shift_orbit",
     "curves.count.cyclic_shift_orbit_sextic"),
    ("picardlab.curves", "PlaneModel.count_points_ext", "curves.ext"),
    ("picardlab.curves", "HyperellipticModel.count_points_ext", "curves.ext"),
    ("picardlab.curves", "SuperellipticModel.count_points_ext", "curves.ext"),
    ("picardlab.curves", "SpaceModel.count_points_ext", "curves.ext"),
    ("picardlab.gf", "ExtField.__init__", "gf.extfield"),
    ("picardlab.gf", "ExtField.multiplicative_generator", "gf.generator"),
    ("picardlab.elliptic", "trace_feasibility", "elliptic.feasibility"),
    ("picardlab.elliptic", "cm_trace_candidates", "elliptic.candidates"),
    ("picardlab.elliptic", "cm_consistency", "elliptic.aux"),
    ("picardlab.elliptic", "BinaryQuartic.j_invariant", "elliptic.aux"),
    ("picardlab.elliptic", "j_from_legendre", "elliptic.aux"),
    ("picardlab.report", "hodge_grid", "hodge.grid"),
    ("picardlab.report", "render", "report.render"),
]

ROUTES = ["plane-diagonal", "plane-scan", "hyperelliptic", "superelliptic",
          "sqrt_product", "pencil_form", "cyclic_shift_orbit_sextic"]

# metric -> span names whose busy time it reports
TIMES = {
    "catalog.load_s": ["catalog.load"],
    "morphisms.verify_s": ["morphisms.verify"],
    "morphisms.pullback_s": ["morphisms.pullback", "morphisms.classify"],
    "actions.closure_s": ["actions.closure"],
    "actions.decomposition_s": ["actions.decomposition"],
    "actions.certificate_s": ["actions.certificate"],
    "linalg.rank_s": ["linalg.rank"],
    "curves.ext_s": ["curves.ext"],
    "gf.extfield_s": ["gf.extfield", "gf.generator"],
    "elliptic.feasibility_s": ["elliptic.feasibility"],
    "elliptic.candidates_s": ["elliptic.candidates"],
    "elliptic.aux_s": ["elliptic.aux"],
    "hodge.grid_s": ["hodge.grid"],
    "report.render_s": ["report.render"],
}
TIMES.update({"curves.count_s." + r: ["curves.count." + r] for r in ROUTES})

# metric -> span name whose calls it counts
CALLS = {
    "catalog.loads": "catalog.load",
    "morphisms.verify_calls": "morphisms.verify",
    "morphisms.pullback_calls": "morphisms.pullback",
    "linalg.rank_calls": "linalg.rank",
    "curves.ext_counts": "curves.ext",
    "gf.extfield_builds": "gf.extfield",
    "elliptic.feasibility_calls": "elliptic.feasibility",
}
CALLS.update({"curves.counts." + r: "curves.count." + r for r in ROUTES})


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = None
        self.counters = {"actions.elements": 0, "report.bytes": 0}
        self.missing = []
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`; returns its result."""
        span_id = len(self.spans) + len(self.stack)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((span_id, parent, self.run_id, name, start, end))

    def _wrap(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = tracer.span(label, original, *args, **kwargs)
            if label == "actions.closure":
                tracer.counters["actions.elements"] += len(args[0].elements)
            elif label == "report.render":
                tracer.counters["report.bytes"] += len(result.encode())
            return result
        return wrapper

    def install(self):
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *heads, attr = path.split(".")
            for head in heads:
                owner = getattr(owner, head, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(module_name + "." + path)
                continue
            wrapper = self._wrap(original, name)
            if heads:
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("picardlab") \
                        and vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def busy_time(spans, names):
    """Length of the union of the intervals of spans with these names."""
    intervals = sorted((s[4], s[5]) for s in spans if s[3] in names)
    total, reach = 0.0, None
    for start, end in intervals:
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def span_table(spans):
    """{span name: (calls, busy seconds, self seconds)}.

    Self time is a span's duration less the union of its direct children."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    table = {}
    for s in spans:
        calls, busy, own = table.get(s[3], (0, 0.0, 0.0))
        kids = busy_time(children.get(s[0], []),
                         {k[3] for k in children.get(s[0], [])})
        table[s[3]] = (calls + 1, busy, own + (s[5] - s[4]) - kids)
    for name in table:
        calls, _, own = table[name]
        table[name] = (calls, busy_time(spans, {name}), own)
    return table


def layer_metrics(tracer, entry_ids, rounds):
    """Per-round values of every per-layer metric."""
    spans = tracer.spans
    out = {}
    for metric, names in TIMES.items():
        out[metric] = busy_time(spans, set(names)) / rounds
    for entry in entry_ids:
        out["runner.entry_s." + entry] = \
            busy_time(spans, {"runner.entry." + entry}) / rounds
    counts = {}
    for s in spans:
        counts[s[3]] = counts.get(s[3], 0) + 1
    for metric, name in CALLS.items():
        out[metric] = counts.get(name, 0) / rounds
    for metric, value in tracer.counters.items():
        out[metric] = value / rounds
    return out
