"""Per-layer tracing of one queerlab job, installed from outside the program.

`Tracer.install()` replaces the public functions and the hot methods of each
layer module with wrappers. A module-level function is rebound in every
`queerlab.*` namespace that imported it by name (for example `p_mul` in
`amodule` and `jets`, `induct_mult` in `heckeclifford` and `dimcheck`); a
method is replaced on its class.

A wrapper opens a span (name, layer, start, end, parent) when it is called
from another layer, or when its own time is a metric (`TIMED`). A call from
inside the same layer only counts, because its time is that layer's self time
either way; this keeps the span list short on hot inner calls. Scalar
arithmetic is counted and never timed: a `hecke` job makes millions of those
calls, so timing them would measure the wrapper. Their cost sits in the self
time of the calling layer.

Spans stay in memory while the job runs. `summary()` derives, when the job
has returned, each layer's self time (a span's duration minus the part its
child spans cover) and the inclusive time of each timed function, counting
only the outermost call of a recursive one.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter

# Modules whose functions are wrapped, one layer each. `scalars` is counted
# only (`COUNTED`); `partitions` and `superalg` are not layers here: the first
# is a leaf whose cost belongs to its caller, the second runs on no
# production path.
LAYERS = ("symfunc", "heckeclifford", "linalg", "amodule", "spoly", "queer", "dimcheck", "jets")

# Functions that always get a span, because their inclusive time is a metric.
TIMED = {
    "cli.load_qpoly_cache",
    "cli.write_qpoly_cache",
    "cli.emit",
    "symfunc.Q_poly",
    "symfunc.expand_in_Q",
    "symfunc.cauchy_check",
    "heckeclifford.decompose_regular",
    "heckeclifford.two_sided_closure",
    "heckeclifford._split_center",
    "linalg.kernel_basis",
    "amodule.singular_vectors",
    "amodule.summand",
    "amodule.EquivariantIdeal.component",
}

# Arithmetic dunders wrapped besides the public methods of each layer class.
DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__")

# Leaf helpers called once per term pair or per vector from inside their own
# layer. They are left unwrapped: their time is the same layer's self time
# whether wrapped or not, and a wrapper on each call would dominate the trace.
LEAVES = {
    "spoly.mono_mul",
    "spoly.merge_odd",
    "spoly.insert_odd",
    "spoly.mono_degree",
    "heckeclifford.word_mult",
    "heckeclifford.perm_compose",
    "amodule.mono_biweight",
}

# Scalar operations that are counted, as metric name -> method names.
COUNTED = {
    "scalars.mul_calls": ("__mul__", "__rmul__"),
    "scalars.add_calls": ("__add__", "__radd__"),
    "scalars.inverse_calls": ("inverse",),
}


# Counters fed from a call's arguments or result: name -> (metric, function).
CALL_COUNTERS = {
    "symfunc.NVarPoly.__mul__": ("symfunc.polymul_term_pairs", lambda a, r: len(a[0].terms) * len(a[1].terms)),
    "heckeclifford.HCElement.__mul__": ("heckeclifford.mul_word_pairs", lambda a, r: len(a[0].terms) * len(a[1].terms)),
    "spoly.p_mul": ("spoly.p_mul_term_pairs", lambda a, r: len(a[0]) * len(a[1])),
    "linalg.Echelon.insert": ("linalg.insert_useful", lambda a, r: 1 if r else 0),
    "cli.load_qpoly_cache": ("cli.cache_load_entries", lambda a, r: r),
}


class Tracer:
    """The spans, call counts and counters of one job."""

    def __init__(self):
        self.spans: list = []  # [name, layer, start, end, parent index, outermost]
        self.stack: list = []  # indices of the open spans
        self.active: Counter = Counter()  # open spans per name
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, layer, name):
        spans, stack, active, calls = self.spans, self.stack, self.active, self.calls
        always = name in TIMED
        extra = CALL_COUNTERS.get(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if not always and stack and spans[stack[-1]][1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                span = [name, layer, perf_counter(), 0.0, stack[-1] if stack else -1, not active[name]]
                spans.append(span)
                stack.append(idx)
                active[name] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[3] = perf_counter()
                    active[name] -= 1
                    stack.pop()
            if extra is not None:
                counters[extra[0]] += extra[1](args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _count(self, fn, metric):
        counters = self.counters

        def wrapper(*args):
            counters[metric] += 1
            return fn(*args)

        return functools.wraps(fn)(wrapper)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer of the imported `queerlab` package."""
        namespaces = [m for k, m in sys.modules.items() if k == "queerlab" or k.startswith("queerlab.")]
        cli = sys.modules["queerlab.cli"]
        for fname in ("load_qpoly_cache", "write_qpoly_cache", "emit"):
            self._rebind(namespaces, getattr(cli, fname), self._wrap(getattr(cli, fname), "cli", "cli." + fname))
        for layer in LAYERS:
            mod = sys.modules["queerlab." + layer]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, name)
                elif isinstance(obj, types.FunctionType) and name not in LEAVES and (
                    not attr.startswith("_") or name in TIMED
                ):
                    self._rebind(namespaces, obj, self._wrap(obj, layer, name))
        scalar = sys.modules["queerlab.scalars"].Cyclo8Scalar
        for metric, methods in COUNTED.items():
            for meth in methods:
                setattr(scalar, meth, self._count(vars(scalar)[meth], metric))

    def _wrap_class(self, cls, layer, cname):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = "%s.%s" % (cname, attr)
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, layer, name)))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, layer, name))

    @staticmethod
    def _rebind(namespaces, original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)

    # -- running and summing ---------------------------------------------

    def run(self, fn, *args):
        """Call fn inside a root span of the `cli` layer."""
        root = ["cli.main", "cli", perf_counter(), 0.0, -1, True]
        self.spans.append(root)
        self.stack.append(0)
        try:
            return fn(*args)
        finally:
            root[3] = perf_counter()
            self.stack.pop()

    def summary(self, scale: float = 1.0) -> dict:
        """Layer self times, inclusive times of `TIMED`, calls and counters.

        Times are multiplied by `scale`, the job's CPU-speed rescaling, so
        they add up to the job's rescaled `verdict_s`.
        """
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        for i, (name, layer, start, end, parent, outer) in enumerate(self.spans):
            self_s[layer] += (end - start - child[i]) * scale
            if outer and name in TIMED:
                inclusive[name] += (end - start) * scale
        return {
            "spans": len(self.spans),
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def merge(summaries) -> dict:
    """Sum the summaries of the jobs of one pass, field by field."""
    out = {"spans": 0, "self_s": Counter(), "inclusive_s": Counter(), "calls": Counter(), "counters": Counter()}
    for s in summaries:
        out["spans"] += s["spans"]
        for key in ("self_s", "inclusive_s", "calls", "counters"):
            out[key].update(s[key])
    return out


def _self(layer):
    return "s", lambda s: s["self_s"][layer]


def _incl(name):
    return "s", lambda s: s["inclusive_s"][name]


def _calls(name):
    return "count", lambda s: s["calls"][name]


def _counter(name):
    return "count", lambda s: s["counters"][name]


def _useful_ratio(s):
    inserts = s["calls"]["linalg.Echelon.insert"]
    return s["counters"]["linalg.insert_useful"] / inserts if inserts else 0.0


# Per-layer metric -> (unit, value from a merged summary). Inclusive times
# ("_s" on a function) contain the time of the callees, self times
# ("self_s") do not.
LAYER_METRICS = {
    "cli.cache_load_s": _incl("cli.load_qpoly_cache"),
    "cli.cache_load_entries": _counter("cli.cache_load_entries"),
    "cli.cache_write_s": _incl("cli.write_qpoly_cache"),
    "cli.emit_s": _incl("cli.emit"),
    "cli.self_s": _self("cli"),
    "symfunc.self_s": _self("symfunc"),
    "symfunc.q_poly_s": _incl("symfunc.Q_poly"),
    "symfunc.q_poly_calls": _calls("symfunc.Q_poly"),
    "symfunc.polymul_calls": _calls("symfunc.NVarPoly.__mul__"),
    "symfunc.polymul_term_pairs": _counter("symfunc.polymul_term_pairs"),
    "symfunc.expand_s": _incl("symfunc.expand_in_Q"),
    "symfunc.cauchy_s": _incl("symfunc.cauchy_check"),
    "heckeclifford.self_s": _self("heckeclifford"),
    "heckeclifford.decompose_s": _incl("heckeclifford.decompose_regular"),
    "heckeclifford.closure_s": _incl("heckeclifford.two_sided_closure"),
    "heckeclifford.split_s": _incl("heckeclifford._split_center"),
    "heckeclifford.sigma_steps": _calls("heckeclifford.sigma_step"),
    "heckeclifford.mul_calls": _calls("heckeclifford.HCElement.__mul__"),
    "heckeclifford.mul_word_pairs": _counter("heckeclifford.mul_word_pairs"),
    "linalg.self_s": _self("linalg"),
    "linalg.insert_calls": _calls("linalg.Echelon.insert"),
    "linalg.insert_useful_ratio": ("ratio", _useful_ratio),
    "linalg.reduce_calls": _calls("linalg.Echelon.reduce"),
    "linalg.kernel_s": _incl("linalg.kernel_basis"),
    "scalars.mul_calls": _counter("scalars.mul_calls"),
    "scalars.add_calls": _counter("scalars.add_calls"),
    "scalars.inverse_calls": _counter("scalars.inverse_calls"),
    "amodule.self_s": _self("amodule"),
    "amodule.act_calls": _calls("amodule.act_terms"),
    "amodule.singular_s": _incl("amodule.singular_vectors"),
    "amodule.summand_s": _incl("amodule.summand"),
    "amodule.ideal_component_s": _incl("amodule.EquivariantIdeal.component"),
    "spoly.self_s": _self("spoly"),
    "spoly.p_mul_calls": _calls("spoly.p_mul"),
    "spoly.p_mul_term_pairs": _counter("spoly.p_mul_term_pairs"),
    "queer.self_s": _self("queer"),
    "queer.act_calls": _calls("queer.act_on_V"),
    "dimcheck.self_s": _self("dimcheck"),
    "jets.self_s": _self("jets"),
}
