"""Span tracing around the calls the benchmark makes into ``blends``.

The program is left as it is: the tracer replaces each public function of
each ``blends`` module, in every namespace that holds it, with a wrapper
that opens a span, and puts the originals back on ``uninstall``.  Modules
import names directly (``odesolve`` holds its own ``blend_eval_derivs_bounded``),
so a name is patched wherever it is bound, not only where it is defined.
Untraced runs never construct a tracer and patch nothing.

A span has a name (the layer metric it feeds, such as ``blend.bounded_jet``),
start, end, parent span and op id.  Self time is the span's duration minus
the time its child spans cover.  Aggregates (calls and self time per name)
are updated as spans close; the raw spans are kept in memory up to a cap
and written when the run ends.  Counts (points, rows, solver steps) are
taken in hooks at the same boundaries; hook time is booked to
``bench.trace`` so it never lands in a layer's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("series", "blend", "blendstring", "odesolve", "mathieu", "special", "functions", "cli")

# function (module.qualname) -> span name; anything public and unlisted
# goes to "<module>.other"
SPAN_NAMES = {
    "blend.blend_eval": "blend.eval",
    "blend.blend_eval_derivs": "blend.jet",
    "blend.blend_eval_derivs_bounded": "blend.bounded_jet",
    "blend.blend_integrate": "blend.integrate",
    "blend.Blend.from_taylor": "blend.from_taylor",
    "blendstring.Blendstring.eval": "blendstring.eval",
    "blendstring.Blendstring.deval": "blendstring.deval",
    "blendstring.Blendstring.from_oracle": "blendstring.build",
    "blendstring.Blendstring.map": "blendstring.build",
    "blendstring.Blendstring.truncate": "blendstring.build",
    "blendstring.zip_with": "blendstring.build",
    "blendstring.Blendstring.indefinite_integral": "blendstring.integral",
    "blendstring.Blendstring.definite_integral": "blendstring.integral",
    "blendstring.Blendstring.to_document": "blendstring.document",
    "blendstring.Blendstring.from_document": "blendstring.document",
    "blendstring.Blendstring.save": "blendstring.document",
    "blendstring.Blendstring.load": "blendstring.document",
    "series.combine": "series.algebra",
    "series.mul": "series.algebra",
    "series.div": "series.algebra",
    "series.compose": "series.algebra",
    "series.ode_taylor": "series.ode_taylor",
    "odesolve.solve_ivp": "odesolve.solve",
    "odesolve.solve_on_mesh": "odesolve.solve",
    "odesolve.sho_step_matrix": "odesolve.step_matrix",
    "mathieu.double_point": "mathieu.double_point",
    "mathieu.mathieu_pair": "mathieu.pair",
    "mathieu.generalized_eigenfunction": "mathieu.eigenfunction",
    "mathieu.modified_endpoint": "mathieu.modified_endpoint",
    "mathieu.even_characteristic_values": "mathieu.characteristic_values",
    "special.recip_gamma_series": "special.recip_gamma",
    "functions.exp_oracle": "functions.oracle",
    "functions.sin_oracle": "functions.oracle",
    "functions.cos_oracle": "functions.oracle",
    "functions.identity_oracle": "functions.oracle",
    "functions.zero_oracle": "functions.oracle",
    "special.recip_gamma_oracle": "functions.oracle",
    "functions.constant_oracle": "functions.registry",
    "functions.poly_oracle": "functions.registry",
    "functions.recip_poly_oracle": "functions.registry",
    "functions.blendstring_oracle": "functions.registry",
    "functions.get_oracle": "functions.registry",
}
# Blendstring methods that get spans; other methods run inside their caller's span
TRACED_METHODS = {
    "Blend": ("from_taylor",),
    "Blendstring": (
        "eval", "deval", "from_oracle", "map", "truncate", "indefinite_integral",
        "definite_integral", "to_document", "from_document", "save", "load",
    ),
}
# factories whose results are series oracles handed on to the program
ORACLE_FACTORIES = {
    "functions.constant_oracle", "functions.poly_oracle", "functions.recip_poly_oracle",
    "functions.blendstring_oracle", "functions.get_oracle", "mathieu.mathieu_operator",
}
CLI_COMMANDS = ("build", "deval", "integrate", "solve")
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.active = False
        self.op_id = -1
        self.stack = []  # [name, start, child_time, span_id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self.nspans = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        self.nspans += 1
        self.stack.append([name, self.clock(), 0.0, self.nspans])

    def _close(self):
        end = self.clock()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.spans) < SPAN_CAP:
            parent = self.stack[-1][3] if self.stack else 0
            self.spans.append((sid, parent, self.op_id, name, start, end))

    def _hook(self, fn, *args):
        """Run a counting hook outside every layer's self time."""
        t0 = self.clock()
        out = fn(self, *args)
        dt = self.clock() - t0
        self.self_s["bench.trace"] += dt
        if self.stack:
            self.stack[-1][2] += dt
        return out

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; used for the benchmark's own op spans."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def wrap(self, fn, name, post=None, pre=None):
        """Wrap fn in a span; ``pre``/``post`` count, and ``post`` may replace the result."""
        if getattr(fn, "__bench_traced__", False):
            return fn
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if pre is not None:
                tracer._hook(pre, args)
            tracer._open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if post is not None:
                replaced = tracer._hook(post, args, kwargs, out)
                if replaced is not None:
                    out = replaced
            return out

        traced.__bench_traced__ = True
        return traced

    def oracle(self, fn):
        """Wrap a series oracle the benchmark hands to the program."""
        return self.wrap(fn, "functions.oracle")

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Patch every public function of every blends module, in every namespace."""
        submods = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        targets = {}
        for short, mod in zip(MODULES, submods):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{short}.{attr}"
                targets[id(obj)] = (obj, self._wrapper_for(key, obj))
            for cls_name, methods in TRACED_METHODS.items():
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod.__name__:
                    continue
                for meth in methods:
                    raw = cls.__dict__[meth]
                    key = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrapper_for(key, raw.__func__))
                    else:
                        new = self._wrapper_for(key, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
        for mod in [package] + submods:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _wrapper_for(self, key, fn):
        module = key.split(".", 1)[0]
        name = SPAN_NAMES.get(key, f"{module}.other")
        post = pre = None
        if key == "cli.main":
            name = _cli_name
        elif key in ORACLE_FACTORIES:
            post = _wrap_oracles
        elif name == "blend.jet":
            post = _count_points
        elif name == "blendstring.deval":
            post = _count_rows
        elif name == "blendstring.eval":
            pre = _count_segments
        elif name == "odesolve.solve":
            post = _count_steps
        return self.wrap(fn, name, post=post, pre=pre)

    # -- results -------------------------------------------------------------

    def metrics(self, npass: int, wall: float, overhead: float) -> dict:
        """Per-pass layer metrics from the aggregates.

        ``wall`` is the runner's own sum of traced op latencies.  Every
        layer's self time plus the benchmark's (``bench.self_s``: code inside
        the op span, and the counting hooks) adds up to it, up to the few
        clock reads outside the op span that ``trace.unaccounted_s`` shows.
        """
        module_self = defaultdict(float)
        for span, t in self.self_s.items():
            module_self[span.split(".")[0]] += t
        out = {}
        for name in LAYER_UNITS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                v = self.calls.get(layer, 0)
            elif field == "self_s":
                v = self.self_s.get(layer, 0.0) if "." in layer else module_self.get(layer, 0.0)
            else:
                v = self.counts.get(name, 0.0)
            out[name] = v / npass
        att = self.counts.get("odesolve.attempts", 0.0)
        out["odesolve.accept_ratio"] = (att - self.counts.get("odesolve.rejects", 0.0)) / att if att else 0.0
        calls = self.calls.get("blend.jet", 0)
        out["blend.jet.points_per_call"] = self.counts.get("blend.jet.points", 0.0) / calls if calls else 0.0
        out["trace.wall_s"] = wall / npass
        out["trace.unaccounted_s"] = (wall - sum(self.self_s.values())) / npass
        out["trace.spans"] = self.nspans / npass
        out["trace.overhead_ratio"] = overhead
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, op, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                    "start": start, "end": end}) + "\n")


def _cli_name(args):
    argv = args[0] if args else None
    cmd = argv[0] if argv else "none"
    return f"cli.{cmd}" if cmd in CLI_COMMANDS else "cli.other"


def _wrap_oracles(tracer, args, kwargs, out):
    """Hand back the factory's oracle (or tuple of oracles) wrapped in spans."""
    if isinstance(out, tuple):
        return tuple(tracer.oracle(f) for f in out)
    return tracer.oracle(out)


def _count_points(tracer, args, kwargs, out):
    s = args[1] if len(args) > 1 else kwargs["s"]
    tracer.counts["blend.jet.points"] += np.size(s)


def _count_rows(tracer, args, kwargs, out):
    tracer.counts["blendstring.deval.rows"] += len(out)


def _count_segments(tracer, args):
    """Segments the first-match dispatch of ``eval`` tests, computed from its inputs."""
    bs, z = args[0], args[1]
    rtol = args[2] if len(args) > 2 else 1e-10  # eval's documented default
    knots = [r.knot for r in bs.records]
    tested = 0
    for k in range(len(knots) - 1):
        tested += 1
        s = (z - knots[k]) / (knots[k + 1] - knots[k])
        if abs(s.imag) <= rtol and -rtol <= s.real <= 1.0 + rtol:
            break
    tracer.counts["blendstring.eval.segments_tested"] += tested


def _count_steps(tracer, args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    for st in out.steps:
        tracer.counts["odesolve.attempts"] += 1
        if not st.accepted:
            tracer.counts["odesolve.rejects"] += 1
        elif st.residual > problem.tol:
            tracer.counts["odesolve.floor_accepts"] += 1


def _layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}

    def add(name, *fields):
        for f in fields:
            units[f"{name}.{f}"] = (
                "s/pass" if f == "self_s" else "ratio" if f in ("accept_ratio", "points_per_call")
                else "computed/pass" if f == "segments_tested" else "count/pass"
            )

    add("blend.bounded_jet", "calls", "self_s")
    add("blend.jet", "calls", "points", "points_per_call", "self_s")
    add("blend.eval", "calls", "self_s")
    add("blend.from_taylor", "calls", "self_s")
    add("blend.integrate", "calls", "self_s")
    add("blendstring.eval", "calls", "self_s", "segments_tested")
    add("blendstring.deval", "calls", "rows", "self_s")
    for part in ("build", "integral", "document"):
        add(f"blendstring.{part}", "calls", "self_s")
    add("series.ode_taylor", "calls", "self_s")
    add("series.algebra", "calls", "self_s")
    add("odesolve.solve", "calls", "self_s")
    add("odesolve", "attempts", "rejects", "accept_ratio", "floor_accepts")
    add("odesolve.step_matrix", "calls", "self_s")
    for part in ("double_point", "characteristic_values", "pair", "eigenfunction", "modified_endpoint"):
        add(f"mathieu.{part}", "calls", "self_s")
    add("special.recip_gamma", "calls", "self_s")
    add("functions.oracle", "calls", "self_s")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}", "calls", "self_s")
    for mod in MODULES + ("bench",):
        add(mod, "self_s")
    units["trace.wall_s"] = "s/pass"
    units["trace.unaccounted_s"] = "s/pass"
    units["trace.spans"] = "count/pass"
    units["trace.overhead_ratio"] = "ratio"
    return units


LAYER_UNITS = _layer_units()
