"""Per-layer tracing of rlw, installed from outside the program.

`Tracer.install()` wraps the public functions listed in LAYERS in every rlw
module that binds them: `from .structure import congruences` in amalgam is a
second binding of the same function, so each binding is replaced.  Every call
records a span (name, start, end, parent) kept in memory, and adds to the
function's call count and self time (its span's duration minus the duration
of the wrapped calls made inside it).  Generators are timed inside `next()`.
Work counts that are properties of results (maps found, chains kept, trace
steps) are recorded at the same boundaries.

Run as a script, it executes one traced CLI call and writes its layer stats:

    python3 perfbench/tracer.py STATS_OUT [rlw cli arguments ...]
"""
from __future__ import annotations

import functools
import json
import sys
import time

# module -> functions wrapped there; the layer of a function is its module
LAYERS = {
    "algebra": ("finite_algebra", "load_algebra"),
    "completion": ("enumerate_chains", "complete_partial"),
    "properties": ("satisfies_flags", "property_profile", "is_semilinear"),
    "structure": ("subuniverses", "congruences", "principal_congruence",
                  "subalgebra", "natural_projection", "has_cep"),
    "morphisms": ("homs", "is_hom", "are_isomorphic"),
    "amalgam": ("fsi_chains", "class_has_1ap", "_spans_of", "find_amalgam",
                "refute_chain_amalgam", "replay_refutation"),
    "nsum": ("nested_sum", "factor_nested_sum"),
    "catalog": ("catalog_all",),
}
GENERATORS = {"completion.enumerate_chains": "completion.enumerate_chains.members",
              "amalgam._spans_of": "amalgam.spans_examined",
              "amalgam.ClassSpec.members": "amalgam.find_amalgam.members_examined"}
CACHED = ("congruences", "subuniverses")

# which end-to-end metric each layer should move, on which workload
_STRUCTURE = ("wall_s and query_tail_s on ap-ladder and catalog-sweep; "
              "no change on bounded-search")
SHOULD_MOVE = {
    "algebra.finite_algebra": "wall_s on bounded-search and ap-ladder",
    "algebra.load_algebra": "validates outside input: flat on catalog-sweep, cli-calls",
    "completion.enumerate_chains": "wall_s on bounded-search only",
    "completion.complete_partial": "setup_s (builds the figure algebras)",
    "properties.satisfies_flags": "small share of wall_s on bounded-search",
    "properties.property_profile": "wall_s on catalog-sweep",
    "properties.is_semilinear": "small share of wall_s on ap-ladder",
    "morphisms.homs": "wall_s on ap-ladder; small share on bounded-search",
    "morphisms.is_hom": "wall_s on ap-ladder; small share on bounded-search",
    "morphisms.are_isomorphic": "wall_s on catalog-sweep (nested-sum checks)",
    "amalgam": "wall_s on ap-ladder (spans examined by class_has_1ap)",
    "amalgam.fsi_chains": "wall_s on ap-ladder",
    "amalgam.class_has_1ap": "wall_s on ap-ladder",
    "amalgam.find_amalgam": "wall_s on bounded-search",
    "amalgam.refute_chain_amalgam": "none (under 1 ms); trace_steps is a "
                                    "certificate shape to keep",
    "amalgam.replay_refutation": "none (under 1 ms)",
    "nsum.nested_sum": "wall_s on catalog-sweep",
    "nsum.factor_nested_sum": "wall_s on catalog-sweep",
    "catalog.catalog_all": "setup_s",
    "cli": "query_p50_s on cli-calls; setup_s on every workload",
    "trace": "tracing overhead: traced minus untraced wall_s",
}
SHOULD_MOVE.update({f"structure.{fn}": _STRUCTURE for fn in LAYERS["structure"]})


def _count_result(counts, name, result):
    """Work counts read off a call's result."""
    if name == "morphisms.homs":
        counts["morphisms.homs.maps"] += len(result)
        counts["morphisms.homs.hits"] += bool(result)
    elif name == "amalgam.fsi_chains":
        counts["amalgam.fsi_chains.chains"] += len(result)
    elif name == "amalgam.refute_chain_amalgam":
        counts["amalgam.refute_chain_amalgam.trace_steps"] += len(result.trace)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {key: 0 for key in GENERATORS.values()}
        self.counts.update({"morphisms.homs.maps": 0, "morphisms.homs.hits": 0,
                            "amalgam.fsi_chains.chains": 0,
                            "amalgam.refute_chain_amalgam.trace_steps": 0})
        self.spans = []     # (span id, parent id or -1, name, start, end)
        self._stack = []    # open frames: [span id, name, start, child seconds]

    def _enter(self, name):
        frame = [len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        self.self_s[name] += dur - child_s
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, parent, name, start, end))

    def exclude(self, seconds):
        """Take time spent outside the program (a speed sample taken from a
        signal handler) out of the open span's self time."""
        if self._stack:
            self._stack[-1][3] += seconds

    def _wrap(self, fn, name):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        if name in GENERATORS:
            counter = GENERATORS[name]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._iterate(fn(*args, **kwargs), name, counter)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                frame = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                _count_result(self.counts, name, result)
                return result
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _iterate(self, gen, name, counter):
        while True:
            frame = self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            self.counts[counter] += 1
            yield item

    def install(self):
        """Wrap every binding of the LAYERS functions in the loaded rlw modules."""
        import rlw.amalgam
        import rlw.cli  # noqa: F401  (loads every rlw module, repro included)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "rlw" or k.startswith("rlw.")]
        for short, names in LAYERS.items():
            home = sys.modules["rlw." + short]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{short}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        spec = rlw.amalgam.ClassSpec
        spec.members = self._wrap(spec.members, "amalgam.ClassSpec.members")

    def stats(self):
        """Calls, self seconds and work counts, with the structure caches."""
        from rlw import structure
        counts = dict(self.counts)
        for fname in CACHED:
            info = getattr(structure, fname).cache_info()
            counts[f"structure.{fname}.cache_hits"] = info.hits
            counts[f"structure.{fname}.cache_misses"] = info.misses
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": counts, "spans": len(self.spans)}

    def write_spans(self, path):
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge_stats(total, part):
    """Add one stats dict (as returned by Tracer.stats) into another."""
    for key in ("calls", "self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    total["spans"] = total.get("spans", 0) + part["spans"]


def main(argv):
    stats_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import rlw.cli
    try:
        return rlw.cli.main(cli_args)
    finally:
        with open(stats_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
