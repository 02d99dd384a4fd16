"""In-memory spans and counters around satcycles' layer boundaries.

Nothing in ``src/`` is edited.  Each public function of the layer modules is
replaced, for the length of one traced request, by a wrapper at every module
attribute that is bound to it: ``from .exactflow import advance`` makes
``satcycles.poincare.advance`` a second lookup site, so patching only the
defining module would miss the calls.  The originals are put back after each
request.

A span records name, start, end, parent span and request id.  Functions
called thousands of times per request are kept as one aggregate per
(request, parent span, name) with call count and total time; the hottest
ones only count calls, without timing.  Self time is a span's duration minus
the time its wrapped children took.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

LAYERS = ("cli", "poincare", "gridscan", "exactflow", "melnikov", "crossings")

# Called thousands of times per request: aggregated instead of one span each.
AGGREGATED = {
    "exactflow.advance", "poincare.poincare_P", "poincare.displacement_d",
    "poincare.half_Q", "poincare.dP", "melnikov.M_shift", "melnikov.M_orig",
    "melnikov.Mx", "melnikov.Mmu", "melnikov.phi", "melnikov.bif_values",
    "crossings.residual_direct", "crossings.residual_3z",
}
# Called hundreds of thousands of times: counted per lookup site, not timed.
# ``_residual_direct_raw`` is the residual the crossing Newton solve
# evaluates; counting it gives crossings.residual_evals.
COUNTED = {"exactflow.linear_zone_flow", "crossings._residual_direct_raw"}
# Leaf helpers called once per contact search or per interval.  No metric
# needs them, and even a counting wrapper costs a large share of their time.
SKIPPED = {"exactflow.zone_coeffs", "exactflow.zone_of", "melnikov.partition", "crossings.g_aux"}


class Tracer:
    def __init__(self, package):
        self.stats = {}           # name -> [calls, total_s, self_s]
        self.counts = Counter()   # counters the hooks keep
        self.tallies = {}         # "name@site" -> [calls] of COUNTED functions
        self.by_caller = Counter()  # (name, parent name) -> calls
        self.spans = []           # (id, parent, request, name, start, end)
        self.aggregates = {}      # (request, parent, name) -> [calls, total_s]
        self.stack = []           # frames: [child_s, span id, name]
        self.request_id = None
        self._next_id = 0
        self._sites = self._find_sites(package)

    # -- patching ---------------------------------------------------------

    def _find_sites(self, package):
        """(module, attribute, original, wrapper) for every binding of every target."""
        modules = [package] + [getattr(package, name) for name in LAYERS]
        sites, seen = [], set()
        for layer in LAYERS:
            module = getattr(package, layer)
            names = [n for n in module.__all__ if callable(getattr(module, n))
                     and not isinstance(getattr(module, n), type)]
            if layer == "crossings":
                names.append("_residual_direct_raw")
            for attr in names:
                name = f"{layer}.{attr}"
                original = getattr(module, attr)
                if name in SKIPPED or id(original) in seen:
                    continue
                seen.add(id(original))
                timed = None if name in COUNTED else self._timed(name, original)
                for site in modules:
                    for key, value in vars(site).items():
                        if value is original:
                            wrapper = timed or self._counted(f"{name}@{site.__name__}", original)
                            sites.append((site, key, original, wrapper))
        return sites

    def install(self):
        for module, key, _, wrapper in self._sites:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._sites:
            setattr(module, key, original)

    @contextlib.contextmanager
    def request(self, request_id):
        """Root span of one request; the package is patched only inside it."""
        self.request_id = request_id
        frame = [0.0, self._new_id(), "request"]
        self.stack.append(frame)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self.stack.pop()
            self._close("request", frame, None, start, end)

    # -- wrappers ---------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _close(self, name, frame, parent, start, end):
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        parent_id = None
        if parent is not None:
            parent[0] += duration
            parent_id = parent[1]
            self.by_caller[name, parent[2]] += 1
        self.spans.append((frame[1], parent_id, self.request_id, name, start, end))

    def _timed(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        stack = self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, tracer._new_id(), name]
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(name, frame, parent, start, end)
            if after is not None:
                after(tracer, result)
            return result

        if name not in AGGREGATED:
            wrapper.__wrapped__ = fn
            return wrapper

        # The hot path: everything inline, one aggregate per (request, parent span).
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        aggregates, by_caller, clock = self.aggregates, self.by_caller, time.perf_counter

        def aggregated(*args, **kwargs):
            parent = stack[-1]
            # Children of an aggregated call are attributed to its parent span.
            frame = [0.0, parent[1], name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                parent[0] += duration
                by_caller[name, parent[2]] += 1
                key = (tracer.request_id, parent[1], name)
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [1, duration]
                else:
                    agg[0] += 1
                    agg[1] += duration
            if after is not None:
                after(tracer, result)
            return result

        aggregated.__wrapped__ = fn
        return aggregated

    def _counted(self, key, fn):
        tally = self.tallies.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def site_count(self, name, site=None):
        """Calls of a COUNTED function through one lookup site, or through all."""
        return sum(v[0] for k, v in self.tallies.items()
                   if k == f"{name}@{site}" or (site is None and k.startswith(name + "@")))

    def dump(self, path, requests):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "requests": requests,
                "spans": [dict(zip(("id", "parent", "request", "name", "start", "end"), s))
                          for s in self.spans],
                "aggregates": [{"request": r, "parent": p, "name": n, "calls": c, "total_s": t}
                               for (r, p, n), (c, t) in self.aggregates.items()],
                "counts": dict(sorted(self.counts.items())),
                "tallies": {k: v[0] for k, v in sorted(self.tallies.items())},
                "calls_by_caller": {f"{n}<{p}": c for (n, p), c in sorted(self.by_caller.items())},
            }, fh)


def _count_fun(tracer, args, kwargs):
    """Route the ``fun`` argument of a gridscan call through a counter."""
    counts = tracer.counts
    if "fun" in kwargs:
        fun = kwargs.pop("fun")
    else:
        fun, args = args[0], args[1:]

    def counted(x):
        counts["gridscan.fun_evals"] += 1
        return fun(x)

    return (counted, *args), kwargs


def _zone_switches(tracer, traj):
    tracer.counts["exactflow.zone_switches"] += len(traj.segments) - 1


def _roots_found(tracer, result):
    exact, brackets = result
    tracer.counts["gridscan.roots_found"] += len(exact) + len(brackets)


_HOOKS = {
    "exactflow.advance": (None, _zone_switches),
    "gridscan.scan_roots": (_count_fun, _roots_found),
    "gridscan.bisect_root": (_count_fun, None),
}
