"""Spans around homolink's module boundaries, installed from outside.

Nothing under src/ knows about tracing: `install` replaces each listed
function, wherever a homolink module or class holds a reference to it, by
a wrapper that records a span. Spans live in memory as
[name, start_ns, end_ns, parent_index, run_id] and are written once, when
the traced pass ends. Counts are taken at the same boundaries.
"""

import functools
import json
import sys
import time

# (module, attribute, span name). Several functions may share a span name;
# self time is summed per name.
BOUNDARIES = (
    ("homolink.enumeration", "symmetry_reduce", "enumeration.reduce"),
    ("homolink.enumeration", "link_signature", "enumeration.signature"),
    ("homolink.enumeration", "classify", "enumeration.classify"),
    ("homolink.jones", "jones_kauffman", "jones.kauffman"),
    ("homolink.polynomials", "det", "polynomials.det"),
    ("homolink.monodromy", "twist_sequence", "monodromy.twist"),
    ("homolink.monodromy", "homology_action", "monodromy.twist"),
    ("homolink.monodromy", "action_of_word", "monodromy.twist"),
    ("homolink.monodromy", "monodromy_from_seifert", "monodromy.solve"),
    ("homolink.monodromy", "char_poly", "monodromy.char_poly"),
    ("homolink.seifert", "build_surface", "seifert.surface"),
    ("homolink.seifert", "seifert_matrix", "seifert.surface"),
    ("homolink.seifert", "conway_from_seifert", "seifert.conway"),
    ("homolink.seifert", "alexander_from_seifert", "seifert.alexander"),
    ("homolink.burau", "alexander_via_burau", "burau.alexander"),
    ("homolink.skein", "conway_skein", "skein.conway"),
    ("homolink.reference", "load_reference_table", "reference.load"),
    ("homolink.reference", "entry_signature", "reference.signature"),
)
# The raw-word stream is lazy: each step of it is its own span, so
# generation is charged as the consumer pulls words, not when it is built.
STREAM = ("homolink.enumeration", "enumerate_words", "enumeration.generate")
METHOD = ("homolink.monodromy", "HomologyAction", "preserves_form",
          "monodromy.form")


def _count_jones(counts, args, result):
    counts["jones.calls"] += 1
    counts["jones.states"] += 1 << len(args[0].letters)


def _count_det(counts, args, result):
    counts["polynomials.det_calls"] += 1
    counts["polynomials.det_max_dim"] = max(counts["polynomials.det_max_dim"],
                                            len(args[0]))


def _count_reduce(counts, args, result):
    counts["enumeration.orbits"] += len(result)


def _count_classify(counts, args, result):
    counts["enumeration.classes"] += len(result.classes)


COUNTERS = {
    "jones.kauffman": _count_jones,
    "polynomials.det": _count_det,
    "enumeration.reduce": _count_reduce,
    "enumeration.classify": _count_classify,
}
COUNT_NAMES = ("enumeration.raw_words", "enumeration.orbits",
               "enumeration.classes", "jones.calls", "jones.states",
               "polynomials.det_calls", "polynomials.det_max_dim")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span named name."""
        return self._wrap(fn, name)(*args)

    def _wrap(self, fn, name):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        counts, counter = self.counts, COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _wrap_stream(self, fn, name):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        counts = self.counts
        clock = time.perf_counter_ns

        def pull(it):
            while True:
                rec = [name, clock(), 0, stack[-1] if stack else -1, run_id]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                counts["enumeration.raw_words"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return pull(fn(*args, **kwargs))

        return traced

    def install(self):
        """Wrap every boundary in every loaded homolink module."""
        targets = [(mod, attr, self._wrap, name)
                   for mod, attr, name in BOUNDARIES]
        targets.append((*STREAM[:2], self._wrap_stream, STREAM[2]))
        modules = [m for key, m in sys.modules.items()
                   if key == "homolink" or key.startswith("homolink.")]
        for mod, attr, make, name in targets:
            orig = getattr(sys.modules[mod], attr)
            wrapper = make(orig, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        mod, cls_name, attr, name = METHOD
        cls = getattr(sys.modules[mod], cls_name)
        setattr(cls, attr, self._wrap(getattr(cls, attr), name))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """{span name: total self time in seconds}.

    Spans are properly nested (one thread, synchronous calls), so a span's
    direct children are disjoint and self time is its duration minus
    theirs.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), c in zip(spans, child):
        out[name] = out.get(name, 0) + end - start - c
    return {name: ns / 1e9 for name, ns in out.items()}
