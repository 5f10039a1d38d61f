"""Span tracing around the package's public functions, from outside.

``Tracer`` replaces each listed function with a wrapper that records a
span (name, start, end, parent) in memory.  A function is replaced under
every name any loaded module bound it to, because modules call what they
imported: ``univalence`` calls its own ``hoequiv``, so patching
``segal.hoequiv`` alone would miss those calls, and the benchmark's own
``workloads`` module is an importer too.  Generators are timed over
their consumption: each resumption is one span, so the consumer's work
between items stays outside it.  Self times are derived from the spans.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from importlib import import_module

# (module, attribute path, span name)
TRACED = [
    ("fincat", "fin_limit", "fincat.fin_limit"),
    ("topos", "ps_limit", "topos.ps_limit"),
    ("topos", "dependent_product", "topos.dependent_product"),
    ("topos", "enumerate_nat_trans", "topos.enumerate_nat_trans"),
    ("segal", "TruncatedSimplicialObject.validate", "segal.tso_validate"),
    ("segal", "validate_category_object", "segal.validate_category_object"),
    ("segal", "nerve_truncation", "segal.nerve_truncation"),
    ("segal", "segal_check", "segal.segal_check"),
    ("segal", "z3", "segal.z3"),
    ("segal", "hoequiv", "segal.hoequiv"),
    ("segal", "is_complete", "segal.is_complete"),
    ("univalence", "nerve_of_map", "univalence.nerve_of_map"),
    ("univalence", "is_univalent", "univalence.is_univalent"),
    ("univalence", "fiber_oracle_univalent", "univalence.fiber_oracle_univalent"),
    ("univalence", "arrows_isomorphic", "univalence.arrows_isomorphic"),
    ("univalence", "enumerate_univalent", "univalence.enumerate_univalent"),
    ("workspace", "decode_workspace", "workspace.decode_workspace"),
    ("cli", "main", "cli.main"),
]

OP = "op"


class Tracer:
    """Install with ``with Tracer() as tr:``; wrap each operation in
    ``tr.span(OP)``.  Spans and counters stay in memory until ``write``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counters = {
            "fincat.fin_limit.out_elems": 0,
            "fincat.bound_frac_max": 0.0,
            "segal.level3_elems": 0,
            "topos.enumerate_nat_trans.yielded": 0,
        }
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        observe = _OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        tracer.counters[name + ".yielded"] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.counters, bound.arguments, result)
            return result

        return wrapper

    def __enter__(self):
        import_module("segaltopos.cli")
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for mod_name, path, name in TRACED:
            owner = import_module(f"segaltopos.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            if cls_path:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
        return self

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total
        minus the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - child[i]
        return stats

    def op_times(self) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == OP]

    def top_cover_frac(self) -> float:
        """Share of operation wall time covered by the spans directly under
        each operation."""
        op_total = 0.0
        covered = 0.0
        for name, start, end, parent in self.spans:
            if name == OP:
                op_total += end - start
            elif parent >= 0 and self.spans[parent][0] == OP:
                covered += end - start
        return covered / op_total if op_total else 0.0

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _observe_fin_limit(counters, args, result):
    n = len(result.apex)
    counters["fincat.fin_limit.out_elems"] += n
    counters["fincat.bound_frac_max"] = max(counters["fincat.bound_frac_max"], n / args["bound"])


def _observe_nerve_truncation(counters, args, result):
    counters["segal.level3_elems"] += result.level[3].total_size()


_OBSERVERS = {
    "fincat.fin_limit": _observe_fin_limit,
    "segal.nerve_truncation": _observe_nerve_truncation,
}
