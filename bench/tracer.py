"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of the quatstar layers from outside
the package: nothing under src/ knows it exists.  A function is patched
under every name any quatstar module binds it to (the package re-exports,
`expr._engine_star`, `cli._engine_star`, `verify.lower`, ...), found by
identity rather than from a hand-kept list, so a new import alias cannot
escape the trace.  Methods are patched on their class.  Everything is
restored on exit.

Each wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory.  Counts are taken at the same boundaries; the time spent
taking them after a timed call returns is itself recorded as a
`trace.bookkeeping` span so that it is subtracted from the enclosing layer's
self time instead of inflating it.

`Quaternion.__mul__`/`__add__` are counted but not timed: a ~1 us call
timed from outside would measure the wrapper, so quaternion time stays
inside the self time of the poly, star or oracle span that made the call.
So does the cost of counting those calls (an increment and two
`_is_integral()` calls per product); it is not split out as bookkeeping.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

# Span name -> (module, attribute) of the function it times.
FUNCTIONS = {
    "star.star": ("quatstar.star", "star"),
    "star.bracket": ("quatstar.star", "poisson_bracket"),
    "oracle.star": ("quatstar.oracle", "star_oracle"),
    "oracle.bracket": ("quatstar.oracle", "poisson_bracket_oracle"),
    "expr.parse": ("quatstar.expr", "parse_expression"),
    "expr.lower": ("quatstar.expr", "lower"),
    "verify.record": ("quatstar.verify", "run_identity"),
    "verify.render": ("quatstar.verify", "render_report"),
}

# Span name -> method of QPolynomial it times.
POLY_METHODS = {
    "poly.mul": "__mul__",
    "poly.pow": "__pow__",
    "poly.partial": "partial",
    "poly.add": "__add__",
}

LAYERS = ("quat", "poly", "star", "oracle", "expr", "verify")

# Layers each workload must reach; a traced run in which one of them records
# no calls has lost a patch (for example to a renamed import) and fails.
EXPECTED_LAYERS = {
    "catalogue": ("quat", "poly", "star", "oracle", "expr", "verify"),
    "highdeg": ("quat", "poly", "star"),
    "fuzz": ("quat", "poly", "star", "oracle"),
}

BOOKKEEPING = "trace.bookkeeping"
SPAN_NAMES = tuple(FUNCTIONS) + tuple(POLY_METHODS) + (BOOKKEEPING,)

# The per-layer metrics of a traced run, with their units.  `trace.overhead_ratio`
# (traced / untraced wall time) is computed by the caller, which times both.
METRICS = {
    "quat.mul.calls": "count", "quat.add.calls": "count", "quat.mul.integral_ratio": "ratio",
    "poly.mul.calls": "count", "poly.mul.s": "s", "poly.mul.self_s": "s",
    "poly.mul.term_pairs": "count", "poly.mul.out_ratio": "ratio",
    "poly.pow.calls": "count", "poly.pow.s": "s",
    "poly.partial.calls": "count", "poly.partial.s": "s",
    "poly.add.calls": "count", "poly.add.s": "s", "poly.self_s": "s",
    "star.star.calls": "count", "star.star.s": "s", "star.star.self_s": "s",
    "star.star.distinct_ratio": "ratio", "star.star.order_sum": "count",
    "star.bracket.calls": "count", "star.bracket.s": "s", "star.self_s": "s",
    "oracle.star.calls": "count", "oracle.star.s": "s", "oracle.star.self_s": "s",
    "oracle.bracket.calls": "count", "oracle.bracket.s": "s", "oracle.self_s": "s",
    "expr.parse.calls": "count", "expr.parse.s": "s",
    "expr.lower.calls": "count", "expr.lower.s": "s", "expr.lower.self_s": "s",
    "expr.lower.distinct_ratio": "ratio", "expr.self_s": "s",
    "verify.record.calls": "count", "verify.record.s": "s", "verify.record.max_s": "s",
    "verify.render.s": "s", "verify.self_s": "s",
    "trace.wall_s": "s", "trace.bookkeeping_s": "s", "trace.overhead_ratio": "ratio",
}


def rebind(original, replacement) -> list:
    """Point every quatstar module attribute bound to `original` at
    `replacement`; returns the (module, name, original) triples to restore."""
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "quatstar" or mod_name.startswith("quatstar.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


def restore(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def _percall_key(fn):
    """A hashable key for one call's arguments, defaults applied, with
    polynomials replaced by their canonical text."""
    signature = inspect.signature(fn)
    poly_type = importlib.import_module("quatstar.poly").QPolynomial

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(value.canonical_text() if isinstance(value, poly_type) else value
                     for value in bound.arguments.values())
    return key


class Tracer:
    """Collects spans and counts while installed (use as a context manager).

    One tracer records one traced pass.
    """

    def __init__(self):
        self._patched = []
        self.names = array("b")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.record_ids = {}          # span index -> record id, for verify.record
        self.counts = dict.fromkeys((
            "quat.mul.calls", "quat.mul.products", "quat.mul.integral",
            "quat.add.calls", "poly.mul.term_pairs", "poly.mul.out_terms",
            "star.star.order_sum"), 0)
        self.distinct = {"star.star": set(), "expr.lower": set()}
        self._keys = {}               # span name -> per-call argument key
        self._stack = [-1]

    # --- span recording -----------------------------------------------------

    def _open(self, name_id):
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = perf_counter()
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count=None):
        name_id = SPAN_NAMES.index(name)
        book_id = SPAN_NAMES.index(BOOKKEEPING)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                book = self._open(book_id)
                count(idx, args, kwargs, result)
                self._close(book)
            return result
        traced.__wrapped__ = fn
        return traced

    # --- counters taken at the span boundaries ------------------------------

    def _count_poly_mul(self, idx, args, kwargs, result):
        left, right = args
        right_terms = len(right) if isinstance(right, type(left)) else 1
        self.counts["poly.mul.term_pairs"] += len(left) * right_terms
        self.counts["poly.mul.out_terms"] += len(result)

    def _count_star(self, idx, args, kwargs, result):
        self.distinct["star.star"].add(self._keys["star.star"](args, kwargs))
        order = min(args[0].position_degree(), args[1].position_degree())
        self.counts["star.star.order_sum"] += max(order, 0)

    def _count_lower(self, idx, args, kwargs, result):
        self.distinct["expr.lower"].add(self._keys["expr.lower"](args, kwargs))

    def _count_record(self, idx, args, kwargs, result):
        self.record_ids[idx] = args[0] if args else kwargs["rid"]

    # --- install / uninstall ------------------------------------------------

    def __enter__(self):
        counters = {"poly.mul": self._count_poly_mul, "star.star": self._count_star,
                    "expr.lower": self._count_lower, "verify.record": self._count_record}
        try:
            for name, (mod_name, attr) in FUNCTIONS.items():
                original = getattr(importlib.import_module(mod_name), attr)
                if name in self.distinct:
                    self._keys[name] = _percall_key(original)
                self._patched += rebind(original, self._wrap(name, original, counters.get(name)))
            poly_cls = importlib.import_module("quatstar.poly").QPolynomial
            for name, method in POLY_METHODS.items():
                original = poly_cls.__dict__[method]
                setattr(poly_cls, method, self._wrap(name, original, counters.get(name)))
                self._patched.append((poly_cls, method, original))
            self._install_quat_counters()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install_quat_counters(self):
        quat_cls = importlib.import_module("quatstar.quat").Quaternion
        mul, add = quat_cls.__dict__["__mul__"], quat_cls.__dict__["__add__"]
        counts = self.counts

        def counted_mul(left, right):
            counts["quat.mul.calls"] += 1
            if isinstance(right, quat_cls):
                counts["quat.mul.products"] += 1
                if left._is_integral() and right._is_integral():
                    counts["quat.mul.integral"] += 1
            return mul(left, right)

        def counted_add(left, right):
            counts["quat.add.calls"] += 1
            return add(left, right)

        setattr(quat_cls, "__mul__", counted_mul)
        setattr(quat_cls, "__add__", counted_add)
        self._patched += [(quat_cls, "__mul__", mul), (quat_cls, "__add__", add)]

    def __exit__(self, *exc):
        restore(self._patched)
        self._patched = []
        return False

    # --- results --------------------------------------------------------------

    def write_spans(self, handle) -> None:
        """Write the spans as tab-separated lines: name, parent span index
        (-1 for none), start and end in microseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        handle.write("name\tparent\tstart_us\tend_us\n")
        for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends):
            handle.write(f"{SPAN_NAMES[n]}\t{p}\t{(s - origin) * 1e6:.1f}\t{(e - origin) * 1e6:.1f}\n")

    def _span_totals(self):
        """name -> [calls, inclusive s, self s], plus (max record s, its id).

        Inclusive time is counted on the outermost span of each name, so a
        nested span of the same name is not counted twice; self time is the
        span's duration minus the durations of its direct child spans.
        """
        n = len(self.names)
        child = [0.0] * n
        outer_mask = [0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
                outer_mask[i] = outer_mask[parent] | (1 << self.names[parent])
        totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        max_record = (0.0, None)
        for i in range(n):
            name_id = self.names[i]
            total = totals[SPAN_NAMES[name_id]]
            duration = self.ends[i] - self.starts[i]
            total[0] += 1
            if not (outer_mask[i] >> name_id) & 1:
                total[1] += duration
            total[2] += duration - child[i]
            if i in self.record_ids and duration > max_record[0]:
                max_record = (duration, self.record_ids[i])
        return totals, max_record

    def metrics(self, wall_s: float):
        """(per-layer metrics named as in METRICS, id of the slowest record);
        `wall_s` is the traced pass's wall time."""
        totals, (max_s, max_id) = self._span_totals()
        values = {}
        for name, (calls, incl, self_s) in totals.items():
            values.update({f"{name}.calls": calls, f"{name}.s": incl, f"{name}.self_s": self_s})
        for layer in LAYERS[1:]:
            values[f"{layer}.self_s"] = sum(self_s for name, (_, _, self_s) in totals.items()
                                            if name.startswith(layer + "."))
        c = self.counts
        values.update({
            "quat.mul.calls": c["quat.mul.calls"],
            "quat.add.calls": c["quat.add.calls"],
            "quat.mul.integral_ratio": _ratio(c["quat.mul.integral"], c["quat.mul.products"]),
            "poly.mul.term_pairs": c["poly.mul.term_pairs"],
            "poly.mul.out_ratio": _ratio(c["poly.mul.out_terms"], c["poly.mul.term_pairs"]),
            "star.star.distinct_ratio": _ratio(len(self.distinct["star.star"]),
                                               values["star.star.calls"]),
            "star.star.order_sum": c["star.star.order_sum"],
            "expr.lower.distinct_ratio": _ratio(len(self.distinct["expr.lower"]),
                                                values["expr.lower.calls"]),
            "verify.record.max_s": max_s,
            "trace.wall_s": wall_s,
            "trace.bookkeeping_s": totals[BOOKKEEPING][1],
        })
        return {name: values[name] for name in METRICS if name in values}, max_id

    def self_sum_ratio(self, wall_s: float) -> float:
        """(sum of all spans' self time, bookkeeping included) / `wall_s`:
        1 when the layers account for the whole traced pass, above 1 when
        time is counted twice, below 1 when some is not attributed."""
        totals, _ = self._span_totals()
        return _ratio(sum(self_s for _, _, self_s in totals.values()), wall_s)

    def layer_calls(self) -> dict:
        """Calls recorded per layer."""
        calls = dict.fromkeys(LAYERS, 0)
        calls["quat"] = self.counts["quat.mul.calls"] + self.counts["quat.add.calls"]
        for name_id in self.names:
            layer = SPAN_NAMES[name_id].split(".")[0]
            if layer in calls:
                calls[layer] += 1
        return calls


def _ratio(num, den) -> float:
    return num / den if den else 0.0
