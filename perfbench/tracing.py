"""Outside-in tracing of loopalg's layers for the benchmark's traced run.

The tracer replaces the public functions of each loopalg module, the
arithmetic, rendering and public methods of its classes, and every alias a
module imported by name (``localized.div_exact``, ``projector.compose``,
...) with a wrapper that records a span. Nothing under ``src/`` changes and
the originals are restored afterwards.

Spans are aggregated in memory per (span, parent) as count, total time and
self time; self time is the span's time minus that of its child spans.
Every layer runs on the single main thread and hands its work straight to
the next, so no work waits on a queue and no wait time is reported.
"""

import inspect
import time

MODULES = (
    "exactpoly",
    "laurent",
    "loopspace",
    "localized",
    "projector",
    "seminorm",
    "sampling",
    "cli",
)

# Special methods worth a span: arithmetic, comparison and rendering.
# __init__ is traced only where construction is the layer's real work.
DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__eq__", "__str__",
}
TRACED_INITS = {"LocalizedCoef", "LocalizedElem"}


class Tracer:
    """Span and counter collector; install() patches, remove() restores."""

    def __init__(self, package):
        self.package = package
        self.stack = []
        self.spans = {}
        self.counts = {}
        self.maxima = {}
        self.patches = []
        self.hooks = {
            "exactpoly.div_exact": self._on_div_exact,
            "exactpoly.Poly.__mul__": self._on_poly_mul,
            "laurent.divide_exact": self._on_divide_exact,
            "loopspace.invert_series": self._on_invert_series,
            "localized.LocalizedCoef.__init__": self._on_den_pow,
            "localized.LocalizedElem.__init__": self._on_den_pow,
        }

    # -- counters --------------------------------------------------------------

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def maximum(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _on_div_exact(self, parent, args, result):
        hit = result is not None
        self.count("div_exact.multiterm", len(args[1].terms) > 1)
        self.count("div_exact.hits", hit)
        if parent == "localized.LocalizedCoef.__init__":
            self.count("coef.div_attempts")
            self.count("coef.div_hits", hit)

    def _on_poly_mul(self, parent, args, result):
        if result is NotImplemented:
            return
        other = args[1]
        other_terms = len(other.terms) if hasattr(other, "terms") else 1  # scalar
        self.count("mul.term_pairs", len(args[0].terms) * other_terms)
        self.maximum("mul.max_terms", len(result.terms))

    def _on_divide_exact(self, parent, args, result):
        hit = result is not None
        self.count("divide_exact.hits", hit)
        if parent == "localized.LocalizedElem.reduced":
            self.count("elem.attempts")
            self.count("elem.hits", hit)

    def _on_invert_series(self, parent, args, result):
        self.count("invert.out_terms", sum(len(c.num.terms) for c in result.coeffs.values()))

    def _on_den_pow(self, parent, args, result):
        self.maximum("localized.max_den_pow", args[0].pow)

    # -- spans -----------------------------------------------------------------

    def reset_stack(self):
        """Forget open spans, e.g. after an op was cut off by its budget."""
        del self.stack[:]

    def _wrap(self, name, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((name, parent))
                if record is None:
                    record = spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if hook is not None:
                hook(parent, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [getattr(self.package, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        # Module functions and every alias imported by name elsewhere.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def _install_class(self, short, cls):
        done = {}
        for attr, obj in list(vars(cls).items()):
            traced = attr in DUNDERS or not attr.startswith("_") or (
                attr == "__init__" and cls.__name__ in TRACED_INITS
            )
            fn = obj.__func__ if isinstance(obj, classmethod) else obj
            if not traced or not inspect.isfunction(fn):
                continue
            if fn not in done:
                done[fn] = self._wrap(f"{short}.{cls.__name__}.{attr}", fn)
            wrapped = done[fn]
            self._patch(cls, attr, classmethod(wrapped) if isinstance(obj, classmethod) else wrapped)

    def remove(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- reading ---------------------------------------------------------------

    def calls(self, *names):
        return sum(r[0] for (name, _), r in self.spans.items() if name in names)

    def self_time(self, *names):
        return sum(r[2] for (name, _), r in self.spans.items() if name in names)

    def prefix_self_time(self, *prefixes):
        return sum(
            r[2] for (name, _), r in self.spans.items() if name.startswith(prefixes)
        )

    def span_table(self):
        """Rows (span, parent, count, total_s, self_s), largest self time first."""
        rows = [
            (name, parent, r[0], r[1], r[2]) for (name, parent), r in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row[4])


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, output_bytes, overhead_ratio, error_rate):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    t, c, m = tracer, tracer.counts.get, tracer.maxima.get
    div_calls = t.calls("exactpoly.div_exact")
    divide_calls = t.calls("laurent.divide_exact")
    return {
        "exactpoly.div_exact.calls": (div_calls, "count"),
        "exactpoly.div_exact.multiterm_calls": (c("div_exact.multiterm", 0), "count"),
        "exactpoly.div_exact.hit_ratio": (_ratio(c("div_exact.hits", 0), div_calls), "ratio"),
        "exactpoly.div_exact.self_s": (t.self_time("exactpoly.div_exact"), "s"),
        "exactpoly.mul.calls": (t.calls("exactpoly.Poly.__mul__"), "count"),
        "exactpoly.mul.self_s": (t.self_time("exactpoly.Poly.__mul__"), "s"),
        "exactpoly.mul.term_pairs": (c("mul.term_pairs", 0), "count"),
        "exactpoly.mul.max_terms": (m("mul.max_terms", 0), "count"),
        "exactpoly.str.self_s": (
            t.self_time("exactpoly.Poly.__str__", "exactpoly.VarRef.render"), "s"
        ),
        "cli.self_s": (t.prefix_self_time("cli."), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "laurent.mul.calls": (t.calls("laurent.TruncSeries.__mul__"), "count"),
        "laurent.mul.self_s": (t.self_time("laurent.TruncSeries.__mul__"), "s"),
        "laurent.pow.calls": (t.calls("laurent.TruncSeries.__pow__"), "count"),
        "laurent.pow.self_s": (t.self_time("laurent.TruncSeries.__pow__"), "s"),
        "laurent.divide_exact.calls": (divide_calls, "count"),
        "laurent.divide_exact.hit_ratio": (
            _ratio(c("divide_exact.hits", 0), divide_calls), "ratio"
        ),
        "laurent.divide_exact.self_s": (t.self_time("laurent.divide_exact"), "s"),
        "loopspace.compose.self_s": (t.self_time("loopspace.compose"), "s"),
        "loopspace.invert_series.calls": (t.calls("loopspace.invert_series"), "count"),
        "loopspace.invert_series.self_s": (t.self_time("loopspace.invert_series"), "s"),
        "loopspace.invert_series.out_terms": (c("invert.out_terms", 0), "count"),
        "loopspace.relations.self_s": (t.self_time("loopspace.relations"), "s"),
        "loopspace.complement_relations.self_s": (
            t.self_time("loopspace.complement_relations"), "s"
        ),
        "localized.coef.calls": (t.calls("localized.LocalizedCoef.__init__"), "count"),
        "localized.coef.div_attempts": (c("coef.div_attempts", 0), "count"),
        "localized.coef.hit_ratio": (
            _ratio(c("coef.div_hits", 0), c("coef.div_attempts", 0)), "ratio"
        ),
        "localized.coef.self_s": (t.prefix_self_time("localized.LocalizedCoef."), "s"),
        "localized.elem.reduce_calls": (t.calls("localized.LocalizedElem.reduced"), "count"),
        "localized.elem.hit_ratio": (
            _ratio(c("elem.hits", 0), c("elem.attempts", 0)), "ratio"
        ),
        "localized.elem.self_s": (
            t.prefix_self_time("localized.LocalizedElem.", "localized.loc_"), "s"
        ),
        "localized.max_den_pow": (m("localized.max_den_pow", 0), "count"),
        "projector.apply.self_s": (t.self_time("projector.apply_nu_poly"), "s"),
        "projector.apply_localized.self_s": (
            t.self_time("projector.apply_nu_poly_localized"), "s"
        ),
        "projector.experiment.self_s": (
            t.self_time("projector.convergence_experiment", "projector.approximate_coefficient"),
            "s",
        ),
        "seminorm.order.calls": (t.calls("seminorm.seminorm_order"), "count"),
        "seminorm.order.self_s": (t.self_time("seminorm.seminorm_order"), "s"),
        "seminorm.check.self_s": (t.prefix_self_time("seminorm.check_"), "s"),
        "sampling.self_s": (t.prefix_self_time("sampling."), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "error_rate": (error_rate, "ratio"),
    }


# Zero and nonzero expectations per workload. A traced run that breaks one
# fails: either the workload no longer loads the layer it was built for, or
# a wrapper has stopped seeing its calls.
EXPECTATIONS = {
    "invert": {
        "nonzero": [
            "exactpoly.div_exact.calls", "exactpoly.div_exact.multiterm_calls",
            "exactpoly.mul.calls", "loopspace.invert_series.calls",
            "localized.coef.calls", "localized.max_den_pow",
        ],
        "zero": [
            "laurent.pow.calls", "localized.elem.reduce_calls",
            "projector.experiment.self_s", "seminorm.check.self_s", "sampling.self_s",
        ],
    },
    "localize": {
        "nonzero": [
            "exactpoly.div_exact.calls", "exactpoly.mul.calls", "laurent.pow.calls",
            "laurent.divide_exact.calls", "loopspace.invert_series.calls",
            "localized.coef.calls", "localized.elem.reduce_calls", "localized.max_den_pow",
            "projector.apply.self_s", "projector.apply_localized.self_s",
            "projector.experiment.self_s",
        ],
        "zero": [
            "exactpoly.div_exact.multiterm_calls", "seminorm.check.self_s", "sampling.self_s",
            "loopspace.relations.self_s",
        ],
    },
    "suites": {
        "nonzero": [
            "exactpoly.mul.calls", "laurent.pow.calls", "loopspace.relations.self_s",
            "seminorm.order.calls", "seminorm.check.self_s", "sampling.self_s",
        ],
        "zero": [
            "exactpoly.div_exact.calls", "laurent.divide_exact.calls",
            "loopspace.invert_series.calls", "localized.coef.calls",
            "localized.coef.div_attempts", "localized.elem.reduce_calls",
            "localized.max_den_pow", "projector.experiment.self_s",
        ],
    },
}


def expectation_failures(workload, metrics):
    rules = EXPECTATIONS[workload]
    bad = [f"{name} is 0, expected nonzero" for name in rules["nonzero"] if not metrics[name][0]]
    bad += [
        f"{name} is {metrics[name][0]}, expected 0" for name in rules["zero"] if metrics[name][0]
    ]
    return bad
