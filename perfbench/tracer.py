"""Spans and counters around the public functions of each fqtraces layer.

Used only by traced runs: an untraced run never imports this module, so it
installs no wrappers.  :func:`install` replaces each target function by a
wrapper in every fqtraces module namespace that holds it (and on the class,
for methods), so calls between modules are recorded too.  Nothing under
``src/`` changes.

A span records its name, start, end, parent and the op it belongs to.  The
tracer keeps per-name totals as spans close (calls, busy time of the
outermost span of that name, self time = duration minus child spans) and
keeps the first ``keep_spans`` raw spans for the side file.
"""

import importlib
from fractions import Fraction
from functools import wraps
from time import perf_counter

LAYERS = ("partitions", "symfunc", "specializations", "traces", "measures", "oracle", "cli")

# (module, attribute, mode): "span" times every call; "count" only counts it,
# for functions called so often that a span would swamp the measurement.
TARGETS = (
    ("partitions", "box_additions", "span"),
    ("partitions", "partitions_of", "count"),
    ("symfunc", "kostka", "span"),
    ("symfunc", "kostka_foulkes", "span"),
    ("symfunc", "hl_q_in_p", "span"),
    ("symfunc", "modified_hl_q", "span"),
    ("symfunc", "schur_expand", "span"),
    ("symfunc", "schur_in_p", "count"),
    ("specializations", "Specialization.apply", "span"),
    ("specializations", "Specialization.power_sum", "count"),
    ("traces", "green_dimension", "span"),
    ("traces", "unipotent_block_value", "span"),
    ("traces", "unipotent_trace_value", "span"),
    ("traces", "trace_coefficients", "span"),
    ("measures", "extension_count", "span"),
    ("measures", "hl_weight", "span"),
    ("measures", "cyl_prob", "span"),
    ("measures", "cyl_prob_from_trace", "span"),
    ("measures", "transition_distribution", "span"),
    ("measures", "sample_trajectory", "span"),
    ("oracle", "rank", "count"),
    ("oracle", "is_invariant", "count"),
    ("oracle", "unipotent_class_of", "span"),
    ("oracle", "conjugacy_family_of", "span"),
    ("oracle", "count_fixed_flags", "span"),
    ("oracle", "ext_enumerate", "span"),
    ("cli", "main", "span"),
)

# Memo tables read through cache_info(): hit ratio over the traced ops and
# entry count at the end.
CACHED = (
    ("partitions", "partitions_of"),
    ("symfunc", "sym_character"),
    ("symfunc", "schur_in_p"),
    ("symfunc", "kostka_foulkes"),
    ("measures", "hl_weight"),
)


def bits(x: Fraction) -> int:
    """Largest of numerator and denominator bit length."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# Counters read off a call's result: name suffix, how to combine, function.
RESULT_COUNTERS = {
    "measures.transition_distribution": ("max_bits", max, lambda row: max(bits(p) for _, p in row)),
    "specializations.apply": ("max_bits", max, bits),
    "oracle.ext_enumerate": ("matrices", int.__add__, len),
    "oracle.is_invariant": ("invariant", int.__add__, int),
}


def _module(name: str):
    return importlib.import_module(f"fqtraces.{name}")


class Tracer:
    def __init__(self, keep_spans: int = 20000):
        self.on = False
        self.op = None
        self.keep_spans = keep_spans
        self.spans = []
        self.dropped = 0
        self.stats = {}  # name -> [calls, busy_s, self_s]
        self.counters = {}  # "name.suffix" -> value
        # "module.function" -> [hits, misses, entries]; only ops count, so
        # entries are the table size at install plus what the ops added.
        self.cache_hits = {}
        self._stack = []  # frames [name, start, child_s, span_id, parent_id]
        self._next_id = 0
        self._t0 = perf_counter()

    def begin(self, name: str):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        self._stack.append([name, perf_counter(), 0.0, self._next_id, parent])

    def end(self):
        name, start, child, sid, parent = self._stack.pop()
        now = perf_counter()
        dur = now - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dur - child
        if all(frame[0] != name for frame in self._stack):
            st[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < self.keep_spans:
            self.spans.append((sid, parent, self.op, name, start - self._t0, now - self._t0))
        else:
            self.dropped += 1

    def busy(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def count(self, name: str):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1

    def record(self, name: str, out):
        suffix, combine, fn = RESULT_COUNTERS[name]
        key = f"{name}.{suffix}"
        value = fn(out)
        self.counters[key] = combine(self.counters[key], value) if key in self.counters else value

    def _wrap(self, name: str, fn, mode: str):
        tracer = self
        counted = name in RESULT_COUNTERS

        if mode == "count":

            @wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if tracer.on:
                    tracer.count(name)
                    if counted:
                        tracer.record(name, out)
                return out

            return wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if counted:
                tracer.record(name, out)
            return out

        return wrapper

    def install(self):
        """Replace every target by its wrapper; returns self."""
        modules = [importlib.import_module("fqtraces")] + [_module(m) for m in LAYERS]
        modules.append(_module("verify"))
        for mod_name, attr, mode in TARGETS:
            owner = _module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", getattr(cls, meth), mode))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", orig, mode)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        self.cache_hits = {key: [0, 0, info.currsize] for key, info in self.cache_snapshot().items()}
        return self

    def cache_snapshot(self) -> dict:
        out = {}
        for mod_name, attr in CACHED:
            fn = getattr(_module(mod_name), attr)
            while not hasattr(fn, "cache_info"):
                fn = fn.__wrapped__
            out[f"{mod_name}.{attr}"] = fn.cache_info()
        return out

    def add_cache_delta(self, before: dict):
        for key, info in self.cache_snapshot().items():
            acc = self.cache_hits[key]
            acc[0] += info.hits - before[key].hits
            acc[1] += info.misses - before[key].misses
            acc[2] += info.currsize - before[key].currsize

    def run_op(self, op_index, fn, *args):
        """Call fn(*args) as one traced op under a root span named "op"."""
        before = self.cache_snapshot()
        self.op = op_index
        self.on = True
        self.begin("op")
        try:
            return fn(*args)
        finally:
            self.end()
            self.on = False
            self.add_cache_delta(before)

    def summary(self) -> dict:
        """Everything a report needs, as plain JSON data."""
        return {"stats": self.stats, "counters": self.counters, "cache": self.cache_hits}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (name -> number) from a tracer summary."""
    stats, counters, cache = summary["stats"], summary["counters"], summary["cache"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def us_per_call(name):
        n = calls(name)
        return busy(name) / n * 1e6 if n else 0.0

    def hit_ratio(key):
        hits, misses, _ = cache.get(key, [0, 0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    def entries(key):
        return cache.get(key, [0, 0, 0])[2]

    invariant_calls = calls("oracle.is_invariant")
    out = {
        "measures.transition_distribution.calls": calls("measures.transition_distribution"),
        "measures.transition_distribution.us_per_call": us_per_call("measures.transition_distribution"),
        "measures.transition_distribution.max_bits": counters.get("measures.transition_distribution.max_bits", 0),
        "measures.transition_distribution.busy_s": busy("measures.transition_distribution"),
        "measures.sample_trajectory.busy_s": busy("measures.sample_trajectory"),
        "measures.sample_trajectory.self_s": self_s("measures.sample_trajectory"),
        "partitions.box_additions.calls": calls("partitions.box_additions"),
        "partitions.box_additions.us_per_call": us_per_call("partitions.box_additions"),
        "partitions.partitions_of.hit_ratio": hit_ratio("partitions.partitions_of"),
        "symfunc.kostka_foulkes.calls": calls("symfunc.kostka_foulkes"),
        "symfunc.kostka_foulkes.busy_s": busy("symfunc.kostka_foulkes"),
        "symfunc.kostka_foulkes.entries": entries("symfunc.kostka_foulkes"),
        "symfunc.hl_q_in_p.calls": calls("symfunc.hl_q_in_p"),
        "symfunc.hl_q_in_p.busy_s": busy("symfunc.hl_q_in_p"),
        "symfunc.modified_hl_q.busy_s": busy("symfunc.modified_hl_q"),
        "symfunc.schur_expand.busy_s": busy("symfunc.schur_expand"),
        "symfunc.schur_in_p.hit_ratio": hit_ratio("symfunc.schur_in_p"),
        "symfunc.schur_in_p.entries": entries("symfunc.schur_in_p"),
        "symfunc.sym_character.hit_ratio": hit_ratio("symfunc.sym_character"),
        "symfunc.sym_character.entries": entries("symfunc.sym_character"),
        "specializations.apply.calls": calls("specializations.apply"),
        "specializations.apply.us_per_call": us_per_call("specializations.apply"),
        "specializations.apply.max_bits": counters.get("specializations.apply.max_bits", 0),
        "specializations.power_sum.calls": calls("specializations.power_sum"),
        "traces.trace_coefficients.us_per_call": us_per_call("traces.trace_coefficients"),
        "traces.unipotent_trace_value.us_per_call": us_per_call("traces.unipotent_trace_value"),
        "traces.green_dimension.us_per_call": us_per_call("traces.green_dimension"),
        "measures.cyl_prob.us_per_call": us_per_call("measures.cyl_prob"),
        "measures.hl_weight.hit_ratio": hit_ratio("measures.hl_weight"),
        "measures.hl_weight.entries": entries("measures.hl_weight"),
        "oracle.ext_enumerate.busy_s": busy("oracle.ext_enumerate"),
        "oracle.ext_enumerate.matrices": counters.get("oracle.ext_enumerate.matrices", 0),
        "oracle.unipotent_class_of.calls": calls("oracle.unipotent_class_of"),
        "oracle.unipotent_class_of.us_per_call": us_per_call("oracle.unipotent_class_of"),
        "oracle.count_fixed_flags.us_per_call": us_per_call("oracle.count_fixed_flags"),
        "oracle.conjugacy_family_of.us_per_call": us_per_call("oracle.conjugacy_family_of"),
        "oracle.rank.calls": calls("oracle.rank"),
        "oracle.is_invariant.hit_ratio": (
            counters.get("oracle.is_invariant.invariant", 0) / invariant_calls if invariant_calls else 0.0
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            st[2] for name, st in stats.items() if name.split(".")[0] == layer
        )
    out["bench.op_s"] = busy("op")
    out["bench.unattributed_s"] = self_s("op")
    return out
