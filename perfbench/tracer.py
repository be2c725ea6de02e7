"""Per-layer spans recorded from wrappers around `wtc`'s public functions.

`install(tracer)` replaces each traced function with a wrapper in every
`wtc` module that binds it (the claim, CLI and construction modules import
functions by name, so patching the defining module alone would miss those
calls), and replaces traced methods on their classes.  Nothing inside
`src/wtc` changes.

Each call records a span: name id, parent span, start and end.  Spans stay
in memory in flat arrays and are written out by `dump`.  A span's self
time is its duration minus the durations of its child spans; a
generator's span is the sum of the time spent inside each of its `next`
calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> the functions it covers, as (module, attribute) or
# (module, class, attribute)
SPANS = {
    "constructions": [("wtc.constructions", f) for f in (
        "lebesgue_on", "power_weight", "gks_cascade", "cascade_half_mass_prefix",
        "cp_weight", "thm5_part1_pair", "thm5_part2_pair",
        "pivotal_example_pair", "remark2_weight")],
    "measure.init": [("wtc.measure", "Measure", "__init__")],
    "measure.mass": [("wtc.measure", "Measure", "mass")],
    "measure.restrict": [("wtc.measure", "Measure", "restrict"),
                         ("wtc.measure", "Measure", "complement_restrict")],
    "measure.moments": [("wtc.measure", "Measure", "moments")],
    "measure.float_data": [("wtc.measure", "Measure", "float_data")],
    "functionals.poisson": [("wtc.functionals", "poisson")],
    "functionals.ap_local": [("wtc.functionals", "ap_local"),
                             ("wtc.functionals", "ap_local_squared")],
    "functionals.maximal": [("wtc.functionals", f) for f in (
        "maximal_indicator_integral", "dyadic_maximal_integral", "sawyer_ratio")],
    "functionals.pivotal": [("wtc.functionals", "pivotal_sum")],
    "functionals.doubling": [("wtc.functionals", "doubling_constant"),
                             ("wtc.functionals", "reverse_doubling_constant")],
    "functionals.riesz": [("wtc.functionals", "riesz_potential_sup")],
    "functionals.energy": [("wtc.functionals", "energy_e2")],
    "grid.scan": [("wtc.grid", "ScanFamily", "intervals")],
    "grid.partitions": [("wtc.grid", "partitions")],
    "grid.stopping": [("wtc.grid", "stopping_cubes")],
    "claims.run": [("wtc.claims", "run_claim"), ("wtc.claims", "sweep")],
    "claims.verdict": [("wtc.claims", "_stat_verdict"),
                       ("wtc.claims", "_point_verdict")],
    "fileformat.parse": [("wtc.fileformat", "parse_measure")],
    "fileformat.write": [("wtc.fileformat", "write_measure")],
    "report": [("wtc.report", f) for f in (
        "rows_to_csv", "write_csv", "parse_csv", "plot_svg", "plot_file")],
}

# spans over generators: the wrapper counts the items they yield
GENERATORS = {"grid.scan": "grid.scan.candidates",
              "grid.partitions": "grid.partitions.count"}


class Tracer:
    """Span recorder.  One per process; not thread-safe (wtc is single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []     # [span index, child seconds]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _run(self, nid, fn, args, kwargs, count_call=True):
        """Call fn inside a span; returns (result, duration)."""
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.self_s[nid] += dur - frame[1]
            if count_call:
                self.calls[nid] += 1
            if stack:
                stack[-1][1] += dur
        return result, dur

    def wrap(self, name, fn, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, dur = self._run(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result, dur)
            return result
        return traced

    def wrap_generator(self, name, fn, counter):
        nid = self.name_id(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen, _ = self._run(nid, fn, args, kwargs)
            while True:
                try:
                    item, _ = self._run(nid, next, (gen,), {}, count_call=False)
                except StopIteration:
                    return
                counters[counter] += 1
                yield item
        return traced

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": dict(zip(self.names, self.calls)),
                "self_s": dict(zip(self.names, self.self_s)),
                "counters": dict(self.counters),
                "spans": len(self.span_start)}

    def dump(self, prefix: str, **extra) -> None:
        """Write <prefix>.json (names and totals) and <prefix>.spans: the span
        arrays back to back, in native byte order, name ids (uint16), parent
        indices (int64, -1 for a root), starts and ends (float64 seconds of
        `time.perf_counter`)."""
        with open(prefix + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
        doc = dict(self.summary(), **extra, names=self.names,
                   layout=["name:uint16", "parent:int64", "start:float64",
                           "end:float64"], byteorder=sys.byteorder)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def _replace_everywhere(modules, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS.  Import the wtc modules that should see
    the wrappers (for instance `wtc.cli`) before calling this."""
    for targets in SPANS.values():
        for target in targets:
            importlib.import_module(target[0])
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "wtc" or n.startswith("wtc.")]
    counters = tracer.counters

    def after_parse(args, kwargs, result, dur):
        text = args[0] if args else kwargs["text"]
        counters["fileformat.parse.bytes"] += len(text.encode("utf-8"))

    def after_write(args, kwargs, result, dur):
        counters["fileformat.write.bytes"] += len(result.encode("utf-8"))

    def after_claim(args, kwargs, result, dur):
        claim_id = args[0] if args else kwargs["claim_id"]
        counters[f"claims.{claim_id}.s"] += dur

    afters = {"fileformat.parse": after_parse, "fileformat.write": after_write,
              "claims.run": after_claim}

    for name, targets in SPANS.items():
        for target in targets:
            owner = importlib.import_module(target[0])
            if len(target) == 3:
                owner = getattr(owner, target[1])
            attr = target[-1]
            fn = getattr(owner, attr)
            if name in GENERATORS:
                new = tracer.wrap_generator(name, fn, GENERATORS[name])
            else:
                new = tracer.wrap(name, fn, afters.get(name))
            if name == "functionals.doubling":
                new = _count_useful(tracer, new)
            if len(target) == 3:
                setattr(owner, attr, new)
            else:
                _replace_everywhere(modules, fn, new)


def _count_useful(tracer: Tracer, traced):
    """Doubling scans skip zero-mass candidates; count enumerated and useful."""
    counters = tracer.counters

    @functools.wraps(traced)
    def counted(*args, **kwargs):
        before = counters["grid.scan.candidates"]
        result = traced(*args, **kwargs)
        enumerated = counters["grid.scan.candidates"] - before
        counters["grid.doubling.enumerated"] += enumerated
        counters["grid.doubling.useful"] += enumerated - len(result.skipped)
        return result
    return counted
