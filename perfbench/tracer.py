"""Span tracing of rvq's public functions, installed from outside the library.

Every wrapped call records one span: the function's name, its start and end
(``perf_counter_ns``), the span that was open when it was called, and a small
tag (1 when the call raised, or a category a hook sets, such as a cache hit).
Spans are kept in flat in-memory arrays and reduced to per-(name, tag) totals
when the process ends; a span's self time is its duration minus the time its
child spans cover.

A wrapper replaces the function in every loaded ``rvq`` module namespace that
binds it, so names imported with ``from .gp import is_irreducible`` are
counted as well.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

RAISED = 1
HIT = 2
MISS = 3
REDUCIBLE = 4

MODULES = ("gp", "induction", "strata", "homology", "linalg", "extensions",
           "cover", "components", "groups", "cli")

CLI_COMMANDS = ("validate", "stratum", "class", "cocycle", "cover", "extend",
                "search", "identify", "group", "verify-table")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _find_reduction_after(args, kwargs, result, counters):
    return REDUCIBLE if result is not None else 0


def _kz_walk_after(args, kwargs, result, counters):
    counters["homology.kz_walk.steps"] += len(_arg(args, kwargs, 1, "walk"))
    return 0


def _enumerate_after(args, kwargs, result, counters):
    counters["induction.enumerate_class.vertices"] += len(result)
    return 0


def _plus_generators_after(args, kwargs, result, counters):
    counters["groups.plus_generators_modp.cycles"] += len(
        _arg(args, kwargs, 1, "cycles"))
    counters["groups.plus_generators_modp.kept"] += len(result[0])
    return 0


def _closure_after(args, kwargs, result, counters):
    counters["groups.modp_closure.order"] += result.order
    return 0


def _cache_before(args, kwargs):
    induction = sys.modules["rvq.induction"]
    path_of = getattr(induction, "_cache_path", None)
    if path_of is None:
        return None, False
    seed = _arg(args, kwargs, 0, "seed")
    path = path_of(seed, bool(kwargs.get("reduced_labels", False)))
    return path, os.path.exists(path)


def _cache_after(state, result, counters):
    path, existed = state
    if path is not None and os.path.exists(path):
        counters["induction.cache.bytes"] += os.path.getsize(path)
    counters["induction.cache.hits" if existed else
             "induction.cache.misses"] += 1
    return HIT if existed else MISS


# (module, attribute, span name, after-hook, before-hook).  A before-hook's
# state is handed to its after-hook in place of the call's arguments.
TARGETS = [
    ("gp", "parse_gp", "gp.parse_gp", None, None),
    ("gp", "is_irreducible", "gp.is_irreducible", None, None),
    ("gp", "find_reduction", "gp.find_reduction", _find_reduction_after, None),
    ("induction", "apply_arrow", "induction.apply_arrow", None, None),
    ("induction", "invert_arrow", "induction.invert_arrow", None, None),
    ("induction", "enumerate_class", "induction.enumerate_class",
     _enumerate_after, None),
    ("induction", "load_or_enumerate", "induction.load_or_enumerate",
     _cache_after, _cache_before),
    ("induction", "RauzyClass.to_jsonl", "induction.to_jsonl", None, None),
    ("induction", "RauzyClass.from_jsonl", "induction.from_jsonl", None, None),
    ("homology", "kz_walk", "homology.kz_walk", _kz_walk_after, None),
    ("homology", "intersection_form", "homology.intersection_form", None, None),
    ("homology", "quotient_data", "homology.quotient_data", None, None),
    ("homology", "quotient_action", "homology.quotient_action", None, None),
    ("linalg", "mul", "linalg.mul", None, None),
    ("linalg", "det", "linalg.det", None, None),
    ("groups", "random_directed_cycles", "groups.random_directed_cycles",
     None, None),
    ("groups", "arrow_cycles", "groups.arrow_cycles", None, None),
    ("groups", "plus_generators_modp", "groups.plus_generators_modp",
     _plus_generators_after, None),
    ("groups", "modp_closure", "groups.modp_closure", _closure_after, None),
    ("components", "identify_component", "components.identify_component",
     None, None),
    ("components", "verify_row", "components.verify_row", None, None),
    ("components", "hyperelliptic_test", "components.hyperelliptic_test",
     None, None),
    ("extensions", "search_extensions", "extensions.search_extensions",
     None, None),
    ("extensions", "is_simple_extension", "extensions.is_simple_extension",
     None, None),
    ("extensions", "insert_letter", "extensions.insert_letter", None, None),
    ("extensions", "split_singularity", "extensions.split_singularity",
     None, None),
    ("strata", "stratum_signature", "strata.stratum_signature", None, None),
    ("cover", "cover_stratum", "cover.cover_stratum", None, None),
] + [("cli", "cmd_" + c.replace("-", "_"), "cli." + c, None, None)
     for c in CLI_COMMANDS]


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.tags: array = array("b")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [-1]

    def _wrap(self, fn, name, after, before):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, tags = self.name_ids, self.parents, self.tags
        starts, ends, stack, counters = (self.starts, self.ends, self._stack,
                                         self.counters)

        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            tags.append(0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            state = before(args, kwargs) if before is not None else None
            starts[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = perf_counter_ns()
                tags[idx] = RAISED
                stack.pop()
                raise
            ends[idx] = perf_counter_ns()
            stack.pop()
            if before is not None:
                tags[idx] = after(state, result, counters)
            elif after is not None:
                tags[idx] = after(args, kwargs, result, counters)
            return result

        return wrapper

    def install(self):
        """Import every rvq module and wrap each target that exists."""
        for mod in MODULES:
            try:
                importlib.import_module("rvq." + mod)
            except ImportError:
                pass
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "rvq" or n.startswith("rvq.")]
        for mod, attr, name, after, before in TARGETS:
            home = sys.modules.get("rvq." + mod)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = owner.__dict__.get(fn_name) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, fn_name,
                        staticmethod(self._wrap(raw.__func__, name, after,
                                                before)))
                continue
            wrapper = self._wrap(raw, name, after, before)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is raw:
                        setattr(ns, key, wrapper)

    def summary(self) -> dict:
        """Per-(name, tag) [calls, inclusive ns, self ns], plus counters."""
        n = len(self.name_ids)
        child = [0] * n
        parents, starts, ends = self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals: dict[str, list[int]] = {}
        names, name_ids, tags = self.names, self.name_ids, self.tags
        for i in range(n):
            key = "%s|%d" % (names[name_ids[i]], tags[i])
            dur = ends[i] - starts[i]
            row = totals.get(key)
            if row is None:
                row = totals[key] = [0, 0, 0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {"spans": totals, "counters": dict(self.counters),
                "absent": list(self.absent), "span_count": n}


def merge(summaries) -> dict:
    """Add up the summaries of several traced processes."""
    spans: dict[str, list[int]] = {}
    counters: Counter = Counter()
    absent: set[str] = set()
    count = 0
    for s in summaries:
        for key, row in s["spans"].items():
            acc = spans.setdefault(key, [0, 0, 0])
            for k in range(3):
                acc[k] += row[k]
        counters.update(s["counters"])
        absent.update(s["absent"])
        count += s["span_count"]
    return {"spans": spans, "counters": dict(counters),
            "absent": sorted(absent), "span_count": count}
