"""Spans around litmusdiff's layer boundaries, installed from outside.

The program has no tracing of its own.  ``Tracer.installed`` replaces each
public function of a layer at the name through which the calling layer
looks it up (``litmusdiff.cli.check_refinement``, not
``litmusdiff.difftest.check_refinement``), so spans nest along the real
call path without any program file being edited:

    cli.main -> difftest.check_refinement -> execution.allowed_outcomes
      -> execution.enumerate_candidates / model_c11.c11_consistent
        -> relations.transitive_closure

A model's relation helpers are wrapped in the model's own namespace for the
same reason.  ``enumerate_candidates`` is a generator: each ``next`` is one
span, and each yielded item counts as one candidate.

Spans are aggregated as they close, keyed by (parent span, span), instead
of being kept one by one: a ladder-asm pass closes about 2.5 x 10^5 of
them.  A span's self time is its duration minus the time of the spans it
caused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

ROOT_SPAN = "benchmark"

# (module, attribute, span name, kind).  Kinds: "call" times the call,
# "generator" times each step and counts items, "predicate" also counts
# true results, "outcomes" also keeps the returned OutcomeSet.
HOOKS = (
    ("litmusdiff.cli", "main", "cli.main", "call"),
    ("litmusdiff.cli", "build_parser", "cli.build_parser", "call"),
    ("litmusdiff", "parse_litmus", "syntax.parse_litmus", "call"),
    ("litmusdiff.cli", "parse_litmus", "syntax.parse_litmus", "call"),
    ("litmusdiff.cli", "render_litmus", "syntax.render_litmus", "call"),
    ("litmusdiff.syntax", "parse_source", "syntax.parse_source", "call"),
    ("litmusdiff.syntax", "parse_asm", "syntax.parse_asm", "call"),
    ("litmusdiff", "lower_test", "lowering.lower_test", "call"),
    ("litmusdiff.cli", "lower_test", "lowering.lower_test", "call"),
    ("litmusdiff.cli", "dead_register_pass", "lowering.dead_register_pass",
     "call"),
    ("litmusdiff", "check_refinement", "difftest.check_refinement", "call"),
    ("litmusdiff.cli", "check_refinement", "difftest.check_refinement",
     "call"),
    ("litmusdiff.difftest", "derive_mapping", "difftest.derive_mapping",
     "call"),
    ("litmusdiff.difftest", "translate_outcome", "difftest.translate_outcome",
     "call"),
    ("litmusdiff.cli", "allowed_outcomes", "execution.allowed_outcomes",
     "outcomes"),
    ("litmusdiff.difftest", "allowed_outcomes", "execution.allowed_outcomes",
     "outcomes"),
    ("litmusdiff.execution", "build_events", "execution.build_events", "call"),
    ("litmusdiff.execution", "enumerate_candidates",
     "execution.enumerate_candidates", "generator"),
    ("litmusdiff.execution", "final_state", "execution.final_state", "call"),
    ("litmusdiff.model_c11", "c11_consistent", "model_c11.c11_consistent",
     "predicate"),
    ("litmusdiff.model_aarch64", "aarch64_consistent",
     "model_aarch64.aarch64_consistent", "predicate"),
    ("litmusdiff.model_c11", "transitive_closure",
     "relations.transitive_closure", "call"),
    ("litmusdiff.model_c11", "is_acyclic", "relations.is_acyclic", "call"),
    ("litmusdiff.model_c11", "is_irreflexive", "relations.is_irreflexive",
     "call"),
    ("litmusdiff.model_c11", "restrict", "relations.restrict", "call"),
    ("litmusdiff.model_aarch64", "transitive_closure",
     "relations.transitive_closure", "call"),
    ("litmusdiff.model_aarch64", "is_acyclic", "relations.is_acyclic", "call"),
    ("litmusdiff.cli", "generate_mp_family", "testgen.generate_mp_family",
     "call"),
)

# Consistency predicate of each model layer: one call per candidate.
MODEL_CHECKS = {
    "model_c11": "model_c11.c11_consistent",
    "model_aarch64": "model_aarch64.aarch64_consistent",
}


class Tracer:
    def __init__(self):
        # (parent span, span) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        # "<span>" counts generator items, "<span>:true" true predicates,
        # "execution.outcomes" the sizes of the returned outcome sets.
        self.counts: Counter = Counter()
        self.outcome_sets: list = []
        self._stack = [[ROOT_SPAN, 0.0]]

    def wrap(self, name, fn, observe=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                record = spans.get((parent[0], name))
                if record is None:
                    record = spans[(parent[0], name)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if observe is not None:
                observe(result)
            return result

        return traced

    def _wrap_kind(self, name, fn, kind):
        counts = self.counts
        if kind == "call":
            return self.wrap(name, fn)
        if kind == "predicate":
            def observe(ok):
                if ok:
                    counts[name + ":true"] += 1
            return self.wrap(name, fn, observe)
        if kind == "outcomes":
            def observe(outcome_set):
                self.outcome_sets.append(outcome_set)
                counts["execution.outcomes"] += len(outcome_set.outcomes)
            return self.wrap(name, fn, observe)
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = step(items)
                except StopIteration:
                    return
                counts[name] += 1
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook that exists in the imported package; a hook whose
        module or attribute is gone is skipped and its metrics read 0."""
        saved = []
        try:
            for module_name, attribute, name, kind in HOOKS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attribute, None)
                if not callable(original):
                    continue
                saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap_kind(name, original, kind))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def by_name(self) -> dict[str, list]:
        """[calls, total seconds, self seconds] per span name."""
        out: dict[str, list] = {}
        for (_, name), (calls, total, own) in self.spans.items():
            record = out.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        return out

    def call_tree(self, passes: int) -> list[str]:
        """Indented lines of the aggregated span tree, per pass."""
        children: dict[str, list] = {}
        for (parent, name), record in sorted(self.spans.items()):
            children.setdefault(parent, []).append((name, record))
        lines = []

        def walk(parent, depth, path):
            for name, (calls, total, own) in children.get(parent, ()):
                lines.append(
                    f"{'  ' * depth}{name}  calls={calls / passes:g}"
                    f"  total_s={total / passes:.6f}  self_s={own / passes:.6f}")
                if name not in path:
                    walk(name, depth + 1, path | {name})

        walk(ROOT_SPAN, 1, {ROOT_SPAN})
        return lines


def _exact(count: int, passes: int) -> int:
    per_pass, rest = divmod(count, passes)
    if rest:
        raise ValueError(f"count {count} is not the same in each of {passes} passes")
    return per_pass


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced measurement of ``passes`` whole passes.

    ``*.self_s`` is a layer's self time per pass; ``*_us`` and ``*_ms`` are
    means per call; counts are per pass and exact.
    """
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(layer):
        return sum(record[2] for name, record in spans.items()
                   if name.startswith(layer + ".")) / passes

    def mean(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    candidates = counts["execution.enumerate_candidates"]
    checked = {model: calls(name) for model, name in MODEL_CHECKS.items()}
    relation_calls = sum(record[0] for name, record in spans.items()
                         if name.startswith("relations."))
    metrics = {
        "cli.self_s": (self_s("cli"), "s"),
        "cli.build_parser_us": (mean("cli.build_parser", 1e6), "us"),
        "syntax.self_s": (self_s("syntax"), "s"),
        "syntax.parse_us": (mean("syntax.parse_litmus", 1e6), "us"),
        "lowering.self_s": (self_s("lowering"), "s"),
        "lowering.lower_us": (mean("lowering.lower_test", 1e6), "us"),
        "lowering.dead_register_us": (
            mean("lowering.dead_register_pass", 1e6), "us"),
        "execution.self_s": (self_s("execution"), "s"),
        "execution.build_events_us": (mean("execution.build_events", 1e6), "us"),
        "execution.enumerate_us_per_candidate": (
            ratio(total("execution.enumerate_candidates") * 1e6, candidates),
            "us"),
        "execution.candidates": (_exact(candidates, passes), "count"),
        "execution.final_state_us": (mean("execution.final_state", 1e6), "us"),
        "execution.outcomes": (
            _exact(counts["execution.outcomes"], passes), "count"),
    }
    for model, name in MODEL_CHECKS.items():
        metrics[f"{model}.self_s"] = (self_s(model), "s")
        metrics[f"{model}.us_per_candidate"] = (mean(name, 1e6), "us")
        metrics[f"{model}.consistent_ratio"] = (
            ratio(counts[name + ":true"], checked[model]), "ratio")
    metrics.update({
        "relations.self_s": (self_s("relations"), "s"),
        "relations.calls_per_candidate": (
            ratio(relation_calls, sum(checked.values())), "calls/candidate"),
        "difftest.self_s": (self_s("difftest"), "s"),
        "difftest.translate_us": (
            mean("difftest.translate_outcome", 1e6), "us"),
        "testgen.generate_ms": (mean("testgen.generate_mp_family", 1e3), "ms"),
    })
    return metrics
