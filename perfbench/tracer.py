"""Span recorder for the traced benchmark run.

``install`` wraps the package's public functions from outside: every
module-global binding of a wrapped function is replaced across the
package (modules import names directly, e.g. ``measures.window_codes``),
and methods are replaced on their class.  Each call records a span
``[name, start, end, parent]`` in memory; self time is a span's
duration minus the time its child spans cover.  Counters record the
size of what was enumerated at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _size(key, label):
    """Counter adding ``len(result.<key>)`` to ``<span>.<label>``."""
    def count(counts, name, args, result):
        counts[f"{name}.{label}"] += len(getattr(result, key))
    return count


def _nullspace(counts, name, args, result):
    rows = args[0]
    cols = len(rows[0]) if len(rows) else 0
    counts[name + ".max_cols"] = max(counts[name + ".max_cols"], cols)


def _entropy(counts, name, args, result):
    d = args[0]
    counts[name + ".entries"] += len(d.probs)
    counts[name + ".float_fallbacks"] += d.exact and isinstance(result, float)


def _grid(counts, name, args, result):
    counts[name + ".cells"] += len(result.L_grid) * len(result.g_grid)
    counts[name + ".cells_refused"] += len(result.missing)


def _symbols(counts, name, args, result):
    counts[name + ".symbols"] += len(result)


# (module, attribute, span name when it differs, counter, counter names)
# IidProcess overrides two MarkovProcess methods; its spans count under
# the MarkovProcess name so the stats cover every chain.
TARGETS = (
    ("_ratlinalg", "rational_nullspace", None, _nullspace, ("max_cols",)),
    ("substitution", "factor_frequencies", None,
     _size("factors", "factors"), ("factors",)),
    ("substitution", "primitivity", None, None, ()),
    ("substitution", "induced_substitution", None, None, ()),
    ("substitution", "factors_of_length", None, None, ()),
    ("substitution", "fixed_point_prefix", None, None, ()),
    ("processes", "MarkovProcess.block_distribution", None,
     _size("probs", "words"), ("words",)),
    ("processes", "MarkovProcess.joint_gap_distribution", None,
     _size("probs", "pairs"), ("pairs",)),
    ("processes", "IidProcess.joint_gap_distribution",
     "MarkovProcess.joint_gap_distribution", _size("probs", "pairs"), ()),
    ("processes", "MarkovProcess.sample", None, _symbols, ("symbols",)),
    ("processes", "IidProcess.sample", "MarkovProcess.sample", _symbols, ()),
    ("processes", "MarkovProcess.closed_forms", None, None, ()),
    ("processes", "SubstitutionProcess.block_distribution", None, None, ()),
    ("processes", "SubstitutionProcess.joint_gap_distribution", None, None, ()),
    ("processes", "IsingChainProcess.as_markov", None, None, ()),
    ("processes", "reversed_model", None, None, ()),
    ("infocore", "shannon_entropy", None, _entropy,
     ("entries", "float_fallbacks")),
    ("infocore", "mutual_information", None, None, ()),
    ("infocore", "marginalize_gap", None, None, ()),
    ("infocore", "entropy_of_probs", None, None, ()),
    ("infocore", "empirical_block_distribution", None,
     _size("probs", "words"), ("words",)),
    ("infocore", "window_codes", None, None, ()),
    ("measures", "entropy_curve", None, None, ()),
    ("measures", "excess_entropy_finite", None, None, ()),
    ("measures", "gap_mi_grid", None, _grid, ("cells", "cells_refused")),
    ("measures", "pmi_verdict", None, None, ()),
    ("measures", "EmpiricalSource.joint_gap_distribution", None, None, ()),
    ("emachine", "reconstruct", None, _size("states", "states"), ("states",)),
    ("emachine", "machine_excess_entropy", None, None, ()),
    ("emachine", "complexity_decomposition", None, None, ()),
    ("cli", "main", None, None, ()),
)

MODULES = ("_ratlinalg", "substitution", "processes", "infocore", "measures",
           "emachine", "cli")


def metric_name(span: str) -> str:
    """Metric names start with a letter: ``_ratlinalg`` reads ``ratlinalg``."""
    return span.lstrip("_")


def span_name(module: str, attr: str, alias) -> str:
    return f"{module}.{alias or attr}"


def stat_units() -> dict:
    """Every per-function stat the traced run reports, with its unit."""
    units = {}
    for module, attr, alias, _count, counters in TARGETS:
        base = metric_name(span_name(module, attr, alias))
        units.setdefault(base + ".calls", "count")
        units.setdefault(base + ".self_s", "s")
        for c in counters:
            units[f"{base}.{c}"] = "count"
    for module in MODULES:
        units[metric_name(module) + ".self_s"] = "s"
    units["cli.output_bytes"] = "bytes"
    return units


class Tracer:
    """In-memory spans and counters of one op; records only while
    ``active``, so set-up and checks stay out of the trace."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)
        self.active = False

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, name, args, result)
            return result

        return traced

    def install(self, package: str = "persistinfo") -> None:
        modules = {n[len(package) + 1:]: m for n, m in list(sys.modules.items())
                   if n.startswith(package + ".") and m is not None}
        for module, attr, alias, count, _counters in TARGETS:
            name = span_name(module, attr, alias)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[module], cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], count))
                continue
            orig = getattr(modules[module], attr)
            traced = self.wrap(name, orig, count)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def stats(self) -> dict:
        """Calls and self time per span name, per module, and counters."""
        n = len(self.spans)
        child = [0.0] * n
        for start, end, parent in ((s[1], s[2], s[3]) for s in self.spans):
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(int)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            own = end - start - child[i]
            base = metric_name(name)
            out[base + ".calls"] += 1
            out[base + ".self_s"] += own
            module = name.split(".")[0]
            if module in MODULES:
                out[metric_name(module) + ".self_s"] += own
        for key, value in self.counts.items():
            out[metric_name(key)] += value
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
