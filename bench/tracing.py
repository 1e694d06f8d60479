"""Spans around parteq's layers, added at run time from outside src/.

Tracer.install() replaces each traced function with a wrapper in every
module namespace that holds it (the is_in_A that bijection imported from
classes, the phi that cli imported from bijection, the re-exports in
parteq/__init__) and on the class for methods; uninstall() puts the
originals back. A wrapper records one span per call, or per resumption
for a generator, as (name, start, end, parent) in flat arrays kept in
memory until write(). A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

from parteq.errors import BudgetExceeded

# (module, attribute, group, kind). A group is the prefix of the
# per-layer metrics its spans feed; kind "gen" spans each resumption of
# a generator, "factor" counts series factor products without a span so
# that their time stays in the qseries.build span that made them.
TARGETS = [
    ("parteq.partition", "Partition.__init__", "partition.construct", "call"),
    ("parteq.partition", "Partition.from_pairs", "partition.construct", "call"),
    ("parteq.partition", "Partition.from_parts", "partition.construct", "call"),
    ("parteq.partition", "Partition.parse", "partition.text", "call"),
    ("parteq.partition", "Partition.render", "partition.text", "call"),
    ("parteq.partition", "Partition.conjugate", "partition.conjugate", "call"),
    ("parteq.classes", "enumerate_partitions", "classes.enumerate", "gen"),
    ("parteq.classes", "enumerate_A", "classes.filter", "gen"),
    ("parteq.classes", "enumerate_B", "classes.filter", "gen"),
    ("parteq.classes", "is_in_A", "classes.filter", "call"),
    ("parteq.classes", "is_in_B", "classes.filter", "call"),
    ("parteq.bijection", "phi", "bijection.phi", "call"),
    ("parteq.bijection", "phi_inverse", "bijection.phi_inverse", "call"),
    ("parteq.bijection", "finite_glaisher_forward", "bijection.glaisher", "call"),
    ("parteq.bijection", "finite_glaisher_inverse", "bijection.glaisher", "call"),
    ("parteq.bijection", "BijectionTrace.to_json", "bijection.trace", "call"),
    ("parteq.qseries", "lhs_series", "qseries.build", "call"),
    ("parteq.qseries", "rhs_series", "qseries.build", "call"),
    ("parteq.qseries", "solutionI_sides", "qseries.build", "call"),
    ("parteq.qseries", "first_difference", "qseries.compare", "call"),
    ("parteq.qseries", "TruncatedSeries.times_factor", "qseries.factor", "factor"),
    ("parteq.qseries", "TruncatedSeries.times_inverse_factor", "qseries.factor", "factor"),
    ("parteq.cli", "main", "cli.main", "call"),
    ("parteq.cli", "verify_point", "cli.verify_point", "call"),
    ("parteq.cli", "VerifyReport.to_record", "cli.emit", "call"),
    ("parteq.cli", "_emit", "cli.emit", "call"),
]
LAYERS = ("partition", "classes", "bijection", "qseries", "cli")

# Per-layer metrics the traced run reports, with their units.
METRICS = {
    "classes.enumerate.calls": "count",
    "classes.enumerate.partitions": "count",
    "classes.enumerate.self_s": "s",
    "classes.enumerate.partitions_per_s": "1/s",
    "classes.filter.tests": "count",
    "classes.filter.self_s": "s",
    "classes.member_ratio": "ratio",
    "classes.budget_exceeded": "count",
    "partition.construct.calls": "count",
    "partition.construct.self_s": "s",
    "partition.text.self_s": "s",
    "partition.conjugate.self_s": "s",
    "bijection.phi.calls": "count",
    "bijection.phi.self_s": "s",
    "bijection.phi_inverse.calls": "count",
    "bijection.phi_inverse.self_s": "s",
    "bijection.glaisher.self_s": "s",
    "qseries.build.calls": "count",
    "qseries.build.self_s": "s",
    "qseries.factor_ops": "count",
    "qseries.coeff_updates": "count",
    "qseries.cache_hit_ratio": "ratio",
    "cli.verify_point.calls": "count",
    "cli.verify_point.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.stdout_bytes": "bytes",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names = [f"{module.split('.')[-1]}.{attr}" for module, attr, _, _ in TARGETS]
        self.groups = [group for _, _, group, _ in TARGETS]
        self.reset()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; keeps the wrappers installed."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(TARGETS)
        self.items = [0] * len(TARGETS)
        self.coeff_updates = 0
        self.budget_exceeded = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, nid: int, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            names, ends = self.span_name, self.span_end
            idx = len(names)
            names.append(nid)
            self.span_parent.append(self.stack[-1])
            self.span_start.append(clock())
            ends.append(0.0)
            self.stack.append(idx)
            self.calls[nid] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.stack.pop()

        return wrapper

    def _wrap_gen(self, nid: int, fn):
        clock = time.perf_counter

        def spans(gen):
            while True:
                names, ends = self.span_name, self.span_end
                idx = len(names)
                names.append(nid)
                self.span_parent.append(self.stack[-1])
                self.span_start.append(clock())
                ends.append(0.0)
                self.stack.append(idx)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BudgetExceeded:
                    self.budget_exceeded += 1
                    raise
                finally:
                    ends[idx] = clock()
                    self.stack.pop()
                self.items[nid] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            return spans(fn(*args, **kwargs))

        return wrapper

    def _wrap_factor(self, nid: int, fn):
        @functools.wraps(fn)
        def wrapper(series, e):
            self.calls[nid] += 1
            self.coeff_updates += max(0, series.truncation_degree - e + 1)
            return fn(series, e)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        wrap = {"call": self._wrap_call, "gen": self._wrap_gen, "factor": self._wrap_factor}
        for nid, (module, attr, _, kind) in enumerate(TARGETS):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(wrap[kind](nid, raw.__func__))
                else:
                    new = wrap[kind](nid, raw)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            new = wrap[kind](nid, original)
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", {})
                for name, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, name, new)
                        self._undo.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every exact count recorded; these must repeat from round to round."""
        out = {f"{name}.calls": c for name, c in zip(self.names, self.calls)}
        out.update({f"{name}.items": c for name, c in zip(self.names, self.items) if c})
        out["coeff_updates"] = self.coeff_updates
        out["budget_exceeded"] = self.budget_exceeded
        return out

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive seconds per group, summed over all spans."""
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        child = array("d", bytes(8 * len(names)))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_by = [0.0] * len(TARGETS)
        incl_by = [0.0] * len(TARGETS)
        for i, nid in enumerate(names):
            dur = ends[i] - starts[i]
            self_by[nid] += dur - child[i]
            incl_by[nid] += dur
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        for nid, group in enumerate(self.groups):
            self_s[group] = self_s.get(group, 0.0) + self_by[nid]
            incl_s[group] = incl_s.get(group, 0.0) + incl_by[nid]
        return self_s, incl_s

    def metrics(self, busy_s: float, overhead_ratio: float, stdout_bytes: int) -> dict[str, float]:
        """The per-layer metrics of METRICS for the spans recorded since reset().

        busy_s is the measured time the traced round spent in parteq, the
        base of each layer's share.
        """
        self_s, incl_s = self.times()
        calls = dict(zip(self.names, self.calls))
        items = dict(zip(self.names, self.items))
        partitions = items["classes.enumerate_partitions"]
        points = calls["cli.verify_point"]
        builds = calls["qseries.lhs_series"] + calls["qseries.rhs_series"]
        out = {
            "classes.enumerate.calls": calls["classes.enumerate_partitions"],
            "classes.enumerate.partitions": partitions,
            "classes.enumerate.self_s": self_s["classes.enumerate"],
            "classes.enumerate.partitions_per_s": _ratio(partitions, incl_s["classes.enumerate"]),
            "classes.filter.tests": calls["classes.is_in_A"] + calls["classes.is_in_B"],
            "classes.filter.self_s": self_s["classes.filter"],
            "classes.member_ratio": _ratio(items["classes.enumerate_A"] + items["classes.enumerate_B"], partitions),
            "classes.budget_exceeded": self.budget_exceeded,
            "partition.construct.calls": calls["partition.Partition.__init__"],
            "partition.construct.self_s": self_s["partition.construct"],
            "partition.text.self_s": self_s["partition.text"],
            "partition.conjugate.self_s": self_s["partition.conjugate"],
            "bijection.phi.calls": calls["bijection.phi"],
            "bijection.phi.self_s": self_s["bijection.phi"],
            "bijection.phi_inverse.calls": calls["bijection.phi_inverse"],
            "bijection.phi_inverse.self_s": self_s["bijection.phi_inverse"],
            "bijection.glaisher.self_s": self_s["bijection.glaisher"],
            "qseries.build.calls": builds + calls["qseries.solutionI_sides"],
            "qseries.build.self_s": self_s["qseries.build"],
            "qseries.factor_ops": calls["qseries.TruncatedSeries.times_factor"]
            + calls["qseries.TruncatedSeries.times_inverse_factor"],
            "qseries.coeff_updates": self.coeff_updates,
            "qseries.cache_hit_ratio": 1 - builds / (2 * points) if points else 0.0,
            "cli.verify_point.calls": points,
            "cli.verify_point.self_s": self_s["cli.verify_point"],
            "cli.emit.self_s": self_s["cli.emit"],
            "cli.stdout_bytes": stdout_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in LAYERS:
            layer_s = sum(s for group, s in self_s.items() if group.startswith(layer + "."))
            out[f"{layer}.share"] = _ratio(layer_s, busy_s)
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the spans: `path` holds a JSON header, the same name with .bin the arrays.

        The .bin file is the name, parent, start and end arrays one after
        another, each header["spans"] long (int32, int32, float64, float64,
        native byte order); a parent of -1 marks a root span.
        """
        header = {**header, "spans": len(self.span_name), "names": self.names, "groups": self.groups}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(header, indent=1) + "\n")
        with open(path.with_suffix(".bin"), "wb") as out:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(out)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
