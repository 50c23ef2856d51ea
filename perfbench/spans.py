"""Span tracing of the library's layers, installed from outside the package.

Every public function of the layer modules (``__all__`` of rings, lattices,
reduction, svp, cf and experiments) is wrapped, and the wrapper is bound in
every ``alglat`` module namespace that holds the function, which covers the
``from .rings import quantize`` style of import.  A few methods are wrapped
on their classes.  Spans live in flat in-memory arrays (id = index, parent,
operation id, start, end) and are written out once at the end.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("rings", "lattices", "reduction", "svp", "cf", "experiments")
ROOT = "bench.call"
RANKS = (8, 16, 32)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._op = -1
        self._undo: list = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark call and start recording."""
        self._op = op_id
        self.active = True
        return self._open(ROOT)

    def end_op(self, sid: int) -> None:
        self._close(sid)
        self.active = False

    def wrap(self, name, fn, label=None, observe=None):
        """Span around fn; label(*args) suffixes the span name, observe adds
        work counts read from the result."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            full = name if label is None else f"{name}/{label(*args, **kwargs)}"
            sid = self._open(full)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(self.counts, full, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Count calls of a hot method without a span."""
        counts = self.counts

        def counted(*args):
            if self.active:
                counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"alglat.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self.wrap(name, fn, **_SPECIAL.get(name, {}))
        for modname, mod in list(sys.modules.items()):
            if modname != "alglat" and not modname.startswith("alglat."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        from alglat.lattices import ComplexBasis, RingMatrix
        from alglat.rings import RingElem

        self._set(ComplexBasis, "__init__", self.wrap("lattices.ComplexBasis", ComplexBasis.__init__))
        self._set(ComplexBasis, "exact_entries",
                  self.wrap("lattices.exact_entries", ComplexBasis.exact_entries))
        self._set(RingMatrix, "det", self.wrap("lattices.RingMatrix.det", RingMatrix.det))
        for attr in ("__mul__", "__rmul__"):
            self._set(RingElem, attr, self.counter("rings.RingElem.mul.calls", getattr(RingElem, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def table(self):
        """Per-span name index, duration and self time (duration minus the
        time covered by child spans), as numpy arrays."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return np.frombuffer(self.name, dtype=np.int32), dur, dur - child

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# work counts read from results


def _alll_label(basis, *args, **kwargs):
    return f"n{basis.n}"


def _strategy_label(ch, ring, strategy="alll", *args, **kwargs):
    return strategy


def _observe_alll(counts, name, rep):
    rank = name.rsplit("/", 1)[1]
    counts["reduction.alll_reduce.swaps"] += rep.swaps
    counts[f"reduction.alll_reduce.{rank}.swaps"] += rep.swaps
    counts["reduction.alll_reduce.size_reductions"] += rep.size_reductions
    counts["reduction.alll_reduce.log_potential_drop"] -= sum(math.log(r) for r in rep.potential_ratios)
    counts["reduction.alll_reduce.stalled"] += int(rep.stalled)
    for c in rep.bound_checks.values():
        counts["reduction.bound_checks.skipped"] += int(c.skipped)
        counts["reduction.bound_checks.failed"] += int(not (c.passed or c.skipped))


def _observe_gauss(counts, name, rep):
    counts["reduction.gauss_reduce.swaps"] += rep.swaps
    counts["reduction.gauss_reduce.size_reductions"] += rep.size_reductions


def _observe_real_lll(counts, name, out):
    counts["reduction.real_lll.swaps"] += out[2]


def _observe_svp(counts, name, res):
    counts["svp.shortest_vector.nodes"] += res.enumerated_nodes


_SPECIAL = {
    "reduction.alll_reduce": {"label": _alll_label, "observe": _observe_alll},
    "reduction.gauss_reduce": {"observe": _observe_gauss},
    "reduction.real_lll": {"observe": _observe_real_lll},
    "svp.shortest_vector": {"observe": _observe_svp},
    "cf.design_relay": {"label": _strategy_label},
}


# ---------------------------------------------------------------------------
# per-layer metrics

#: spans whose call count per work unit is reported as <name>.calls
CALLS = (
    "rings.quantize", "rings.units", "lattices.ComplexBasis", "reduction.gauss_reduce",
    "reduction.alll_reduce", "reduction.real_lll", "svp.shortest_vector", "cf.rank_mod_p",
)
#: spans whose self time per work unit is reported as <name>.self_us
SELF_US = (
    "rings.quantize", "rings.units", "lattices.ComplexBasis", "lattices.exact_entries",
    "lattices.orthogonality_defect", "lattices.RingMatrix.det", "reduction.gauss_reduce",
    "reduction.alll_reduce", "reduction.real_lll", "svp.shortest_vector", "cf.cf_basis",
    "cf.transmission_rate", "cf.rank_mod_p", "experiments.hermite_cdf",
    "experiments.cf_experiment",
)
#: work counts per work unit
COUNTS = (
    "rings.RingElem.mul.calls", "reduction.gauss_reduce.swaps",
    "reduction.gauss_reduce.size_reductions", "reduction.alll_reduce.swaps",
    "reduction.alll_reduce.size_reductions", "reduction.alll_reduce.log_potential_drop",
    "reduction.alll_reduce.stalled", "reduction.real_lll.swaps",
    "reduction.bound_checks.failed", "reduction.bound_checks.skipped",
    "svp.shortest_vector.nodes",
)
STRATEGIES = ("alll", "rlll", "svp", "best_single")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for s in CALLS:
        units[f"{s}.calls"] = "count/item"
    for s in SELF_US:
        units[f"{s}.self_us"] = "us/item"
    for c in COUNTS:
        units[c] = "count/item"
    for n in RANKS:
        units[f"reduction.alll_reduce.n{n}.self_us"] = "us/call"
        units[f"reduction.alll_reduce.n{n}.swaps"] = "count/call"
    units["svp.shortest_vector.ns_per_node"] = "ns/node"
    for s in STRATEGIES:
        units[f"cf.design_relay.{s}.calls"] = "count/item"
        units[f"cf.design_relay.{s}.self_us"] = "us/item"
        units[f"cf.full_rank_ratio.{s}"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def layer_metrics(tracer, first_pass_spans, first_pass_counts, first_pass_items,
                  items, overhead_ratio, extras) -> dict:
    """Per-layer metrics.  Call and work counts come from the first traced
    pass, so they repeat exactly for a seed; times use every traced pass."""
    name_idx, _, self_t = tracer.table()
    k = len(tracer.names)
    n_first = np.bincount(name_idx[:first_pass_spans], minlength=k)
    n_all = np.bincount(name_idx, minlength=k)
    self_s = np.bincount(name_idx, weights=self_t, minlength=k)
    agg = defaultdict(lambda: np.zeros(3))
    for i, full in enumerate(tracer.names):
        row = np.array([n_first[i], n_all[i], self_s[i]])
        agg[full] += row
        if "/" in full:
            agg[full.split("/", 1)[0]] += row

    def per_call(num, den):
        return num / den if den else 0.0

    values = {}
    for s in CALLS:
        values[f"{s}.calls"] = agg[s][0] / first_pass_items
    for s in SELF_US:
        values[f"{s}.self_us"] = 1e6 * agg[s][2] / items
    for c in COUNTS:
        values[c] = first_pass_counts.get(c, 0.0) / first_pass_items
    for n in RANKS:
        first, total, self_sum = agg[f"reduction.alll_reduce/n{n}"]
        values[f"reduction.alll_reduce.n{n}.self_us"] = per_call(1e6 * self_sum, total)
        values[f"reduction.alll_reduce.n{n}.swaps"] = per_call(
            first_pass_counts.get(f"reduction.alll_reduce.n{n}.swaps", 0.0), first
        )
    values["svp.shortest_vector.ns_per_node"] = per_call(
        1e9 * agg["svp.shortest_vector"][2], tracer.counts.get("svp.shortest_vector.nodes", 0.0)
    )
    for s in STRATEGIES:
        values[f"cf.design_relay.{s}.calls"] = agg[f"cf.design_relay/{s}"][0] / first_pass_items
        values[f"cf.design_relay.{s}.self_us"] = 1e6 * agg[f"cf.design_relay/{s}"][2] / items
        values[f"cf.full_rank_ratio.{s}"] = extras.get(f"cf.full_rank_ratio.{s}", 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    units = metric_units()
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}
