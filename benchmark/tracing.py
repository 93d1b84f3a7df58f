"""Spans and counters around calls into sgident, installed from outside.

Wrappers replace a function at the name its callers look up (for example
``sgident.checker.build_f_canonical``) and are removed again by
``Tracer.uninstall``.  A span records name, start, end, parent span and
operation id.  Calls too frequent to give a span each (``multiply``,
``evaluate``, ``scattered_multiplicity`` and the like) add to a call count
and busy time kept per parent span.  Everything stays in memory until
``dump``.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

from sgident import checker, matrices, monoids, polynomials, words

# (module, attribute, metric family, kind); kind is "span" or "counter"
HOOKS = (
    (checker, "run_check", "checker.run_check", "span"),
    (checker, "check_UT", "checker.check_UT", "span"),
    (checker, "check_Un", "checker.check_Un", "span"),
    (checker, "check_Rn", "checker.check_Rn", "span"),
    (checker, "check_Un_idempotent", "checker.check_Un_idempotent", "span"),
    (checker, "build_f_canonical", "polynomials.build", "counter"),
    (checker, "functionally_equivalent", "polynomials.equivalence", "counter"),
    (polynomials, "_exhaustive", "polynomials.exhaustive", "span"),
    (polynomials, "_sampled", "polynomials.sampled", "span"),
    (polynomials, "evaluate", "polynomials.evaluate", "counter"),
    (checker, "scattered_multiplicity", "words.multiplicity", "counter"),
    (checker, "subword_set", "words.subword_set", "counter"),
    (checker, "random_reflexive", "matrices.random_reflexive", "counter"),
    (matrices, "multiply", "matrices.multiply", "counter"),
    (monoids, "multiply", "matrices.multiply", "counter"),
    (monoids, "bfs_closure", "monoids.closure", "span"),
    (monoids.ClosureResult, "mult_table", "monoids.table", "span"),
    (monoids, "brute_force_identity", "monoids.bruteforce", "span"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, busy s]
        self.counts = defaultdict(int)  # work counted from arguments and results
        self._stack = []
        self._saved = []
        self._tabled = weakref.WeakSet()  # closures whose table was already built
        self._start_info = {}
        self.op_id = None

    # -- recording ------------------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrappers -------------------------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Counts taken from a call's arguments and result."""
        counts = self.counts
        if name == "checker.run_check":
            counts["checker.u_examined"] += len(result.u_words)
            if result.verdict.outcome == "undetermined":
                counts["checker.undetermined"] += 1
        elif name == "polynomials.exhaustive":
            counts["polynomials.exhaustive_calls"] += 1
            if result is not None:
                carrier = len(args[2].carrier.values)
                counts["polynomials.assignments"] += carrier ** len(args[3])
        elif name == "polynomials.equivalence":
            if getattr(result, "method", None) == "identical-form":
                counts["polynomials.identical_form_calls"] += 1
        elif name == "matrices.multiply":
            counts["matrices.entry_ops"] += args[0].n ** 3
        elif name == "monoids.closure":
            counts["monoids.closure_elements"] += len(result.elements)
        elif name == "monoids.bruteforce":
            counts["monoids.bruteforce_assignments"] += bruteforce_assignments(
                args[0], args[1], result
            )

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        perf = time.perf_counter
        counters = self.counters
        stack = self._stack

        if name == "polynomials.build":
            info = fn.cache_info

            @functools.wraps(fn)
            def build(*args, **kwargs):
                misses = info().misses
                start = perf()
                result = fn(*args, **kwargs)
                entry = counters[(stack[-1] if stack else -1, name)]
                entry[0] += 1
                entry[1] += perf() - start
                if info().misses != misses:
                    tracer.counts["polynomials.terms"] += len(result.terms)
                return result

            return build

        if name == "monoids.table":

            @functools.wraps(fn)
            def table(self_, *args, **kwargs):
                if self_ in tracer._tabled:
                    return fn(self_, *args, **kwargs)
                tracer._tabled.add(self_)
                with tracer.span(name):
                    result = fn(self_, *args, **kwargs)
                tracer.counts["monoids.table_entries"] += result.size
                return result

            return table

        observe = self._observe

        if kind == "counter":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = perf()
                result = fn(*args, **kwargs)
                entry = counters[(stack[-1] if stack else -1, name)]
                entry[0] += 1
                entry[1] += perf() - start
                observe(name, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            observe(name, args, result)
            return result

        return spanned

    def install(self) -> None:
        self._start_info = {
            "build": polynomials.build_f_canonical.cache_info(),
            "subword_set": words.subword_set.cache_info(),
        }
        for owner, attr, name, kind in HOOKS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        build = polynomials.build_f_canonical.cache_info()
        subs = words.subword_set.cache_info()
        before_build, before_subs = self._start_info["build"], self._start_info["subword_set"]
        self.counts["polynomials.build_calls"] = (
            build.hits + build.misses - before_build.hits - before_build.misses
        )
        self.counts["polynomials.build_cache_hits"] = build.hits - before_build.hits
        self.counts["words.subword_set_cache_hits"] = subs.hits - before_subs.hits

    # -- results --------------------------------------------------------------------------

    def inclusive(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _, _ in self.spans if span_name == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus what their child spans cover."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return sum(
            end - start - children[i]
            for i, (span_name, start, end, _, _) in enumerate(self.spans)
            if span_name == name
        )

    def busy(self, name: str) -> tuple:
        calls, seconds = 0, 0.0
        for (_, counter_name), (c, s) in self.counters.items():
            if counter_name == name:
                calls += c
                seconds += s
        return calls, seconds

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": [
                {"parent": parent, "name": name, "calls": c, "busy_s": s}
                for (parent, name), (c, s) in self.counters.items()
            ],
            "counts": dict(self.counts),
        }


def bruteforce_assignments(ident, M, result) -> int:
    """Assignments the oracle had to examine: all of them when the identity
    holds, else those up to the counterexample in canonical order."""
    if hasattr(result, "assignments_checked"):
        return result.assignments_checked
    rank = 0
    for letter in sorted(set(ident.lhs) | set(ident.rhs)):
        rank = rank * len(M.elements) + result.assignment[letter]
    return rank + 1


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, named as in BENCHMARK.json, with its unit."""
    counts = tracer.counts
    _, build_s = tracer.busy("polynomials.build")
    mult_calls, mult_s = tracer.busy("matrices.multiply")
    multiplicity_calls, multiplicity_s = tracer.busy("words.multiplicity")
    _, subword_s = tracer.busy("words.subword_set")
    evaluate_calls, _ = tracer.busy("polynomials.evaluate")
    _, reflexive_s = tracer.busy("matrices.random_reflexive")
    exhaustive_s = tracer.inclusive("polynomials.exhaustive")
    closure_s = tracer.inclusive("monoids.closure")
    bruteforce_s = tracer.inclusive("monoids.bruteforce")
    values = {
        "checker.u_examined": (counts["checker.u_examined"], "count"),
        "checker.spotcheck_s": (tracer.self_time("checker.check_Rn"), "s"),
        "checker.undetermined": (counts["checker.undetermined"], "count"),
        "checker.report_s": (tracer.inclusive("checker.report"), "s"),
        "polynomials.build_s": (build_s, "s"),
        "polynomials.build_calls": (counts["polynomials.build_calls"], "count"),
        "polynomials.build_cache_hits": (counts["polynomials.build_cache_hits"], "count"),
        "polynomials.terms": (counts["polynomials.terms"], "count"),
        "polynomials.exhaustive_s": (exhaustive_s, "s"),
        "polynomials.exhaustive_calls": (counts["polynomials.exhaustive_calls"], "count"),
        "polynomials.assignments": (counts["polynomials.assignments"], "count"),
        "polynomials.assignments_per_s": (
            _rate(counts["polynomials.assignments"], exhaustive_s), "1/s"),
        "polynomials.sampled_s": (tracer.inclusive("polynomials.sampled"), "s"),
        "polynomials.evaluate_calls": (evaluate_calls, "count"),
        "polynomials.identical_form_calls": (
            counts["polynomials.identical_form_calls"], "count"),
        "words.multiplicity_s": (multiplicity_s, "s"),
        "words.multiplicity_calls": (multiplicity_calls, "count"),
        "words.subword_set_s": (subword_s, "s"),
        "words.subword_set_cache_hits": (counts["words.subword_set_cache_hits"], "count"),
        "matrices.multiply_s": (mult_s, "s"),
        "matrices.multiply_calls": (mult_calls, "count"),
        "matrices.products_per_s": (_rate(mult_calls, mult_s), "1/s"),
        "matrices.entry_ops": (counts["matrices.entry_ops"], "count"),
        "matrices.random_reflexive_s": (reflexive_s, "s"),
        "monoids.closure_s": (closure_s, "s"),
        "monoids.closure_elements": (counts["monoids.closure_elements"], "count"),
        "monoids.closure_elements_per_s": (
            _rate(counts["monoids.closure_elements"], closure_s), "1/s"),
        "monoids.table_s": (tracer.inclusive("monoids.table"), "s"),
        "monoids.table_entries": (counts["monoids.table_entries"], "count"),
        "monoids.bruteforce_s": (bruteforce_s, "s"),
        "monoids.bruteforce_assignments": (counts["monoids.bruteforce_assignments"], "count"),
        "monoids.bruteforce_assignments_per_s": (
            _rate(counts["monoids.bruteforce_assignments"], bruteforce_s), "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
