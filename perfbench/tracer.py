"""Outside-in tracing: wraps the package's public callables from outside.

Nothing in the package changes.  Each wrapper is installed where the caller
looks the name up (a module attribute, a class attribute or a registry
entry) and is removed again when the `patched()` block ends, so only the
traced part of a traced process pays for it.

A span stack gives every call its parent, which yields self time (duration
minus the time of traced children).  Hot per-call boundaries are only
aggregated: count, total and self time, how many calls returned a falsy
value, which boundary called them, and a bounded reservoir of latencies for
quantiles.  Coarse boundaries also keep one span record per call.
"""

from __future__ import annotations

import importlib
import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

RESERVOIR = 4096


class Agg:
    """Aggregate of one traced boundary."""

    def __init__(self, keep_samples: bool):
        self.keep_samples = keep_samples
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.falsy = 0
        self.parents: Counter = Counter()
        self.samples: list[float] = []
        # a private generator: the program's own random streams stay untouched
        self._rng = random.Random(0)

    def detach(self) -> "Agg":
        """A copy of what was recorded so far; this aggregate starts afresh."""
        done = Agg(self.keep_samples)
        done.__dict__.update(self.__dict__)
        self.reset()
        return done

    def add(self, dur: float, self_dur: float, parent: str) -> None:
        self.calls += 1
        self.total += dur
        self.self_time += self_dur
        self.parents[parent] += 1
        if self.keep_samples:
            s = self.samples
            if len(s) < RESERVOIR:
                s.append(dur)
            else:
                j = self._rng.randrange(self.calls)
                if j < RESERVOIR:
                    s[j] = dur

    def quantile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        s = sorted(self.samples)
        return s[min(len(s) - 1, int(q * len(s)))]


class Phase:
    """What a tracer recorded between two cuts."""

    def __init__(self, aggs: dict, spans: list, counts: Counter):
        self.aggs, self.spans, self.counts = aggs, spans, counts

    def agg(self, name: str) -> Agg:
        return self.aggs.get(name) or Agg(False)


class Tracer:
    def __init__(self):
        self.aggs: dict[str, Agg] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end) of coarse calls
        self.counts: Counter = Counter()
        # frames: [name, time of traced children, span id]
        self._stack: list[list] = [["<root>", 0.0, 0]]
        self._ids = itertools.count(1)
        self._undo: list = []

    def wrap(self, name: str, fn, coarse: bool = False, samples: bool = False):
        agg = self.aggs.setdefault(name, Agg(samples))
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                agg.add(dur, dur - frame[1], parent[0])
                if coarse:
                    spans.append((frame[2], parent[2], name, t0, t1))
            if not out:
                agg.falsy += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_item(self, mapping: dict, key, wrapper) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def unpatch(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def cut(self) -> Phase:
        """Hand over everything recorded so far and start afresh."""
        phase = Phase(
            {name: agg.detach() for name, agg in self.aggs.items()},
            list(self.spans),
            Counter(self.counts),
        )
        self.spans.clear()
        self.counts.clear()
        return phase


# (module, attribute, span name, coarse, keep latency samples)
_MODULE_TARGETS = (
    ("cli", "main", "cli.main", True, False),
    ("instances", "parse_gh", "instances.parse_gh", True, False),
    ("instances", "transform", "instances.transform", True, False),
    ("instances", "write_instance", "instances.write_instance", True, False),
    ("instances", "read_instance", "instances.read_instance", True, False),
    ("scenarios", "compare", "scenarios.compare", True, False),
    ("scenarios", "scenario_all_fct", "scenarios.all_fct", True, False),
    ("scenarios", "scenario_mixed", "scenarios.mixed", True, False),
    ("scenarios", "run", "engine.run", True, False),
    ("engine", "build_initial", "operators.build_initial", True, False),
    ("engine", "repair", "operators.repair", False, True),
    ("engine", "accept", "engine.accept", False, False),
    ("schedule", "simulate_trip", "schedule.simulate_trip", False, False),
    ("model", "validate_solution", "model.validate_solution", True, False),
    ("model", "solution_cost", "model.solution_cost", True, False),
    ("oracle", "brute_force", "oracle.brute_force", True, False),
    ("oracle", "build_arc_graph", "oracle.build_arc_graph", True, False),
    ("oracle", "check_lp_assignment", "oracle.check_lp_assignment", True, False),
)

# (module, class, attribute, span name, coarse, keep latency samples)
_CLASS_TARGETS = (
    ("schedule", "Simulator", "__init__", "schedule.simulator_init", True, False),
    ("schedule", "Simulator", "best_insertion", "schedule.best_insertion", False, True),
    ("schedule", "Simulator", "splice_trip", "schedule.splice_trip", False, False),
    ("schedule", "Simulator", "build_trip", "schedule.build_trip", False, False),
    ("operators", "InsertionEvaluator", "cell", "operators.cell", False, False),
    ("operators", "InsertionEvaluator", "best_greedy", "operators.best_greedy", False, False),
)


@contextmanager
def patched(tracer: Tracer):
    """Wrap every traced boundary of the `ftlopt` package for the block's duration."""

    def mod(name):
        return importlib.import_module(f"ftlopt.{name}")

    try:
        for m, attr, name, coarse, samples in _MODULE_TARGETS:
            owner = mod(m)
            tracer.patch_attr(owner, attr, tracer.wrap(name, getattr(owner, attr), coarse, samples))
        registry = mod("operators").REMOVAL_OPERATORS
        for op, fn in list(registry.items()):
            tracer.patch_item(registry, op, tracer.wrap(f"operators.remove.{op}", fn))
        for m, cls_name, attr, name, coarse, samples in _CLASS_TARGETS:
            cls = getattr(mod(m), cls_name)
            tracer.patch_attr(cls, attr, tracer.wrap(name, cls.__dict__[attr], coarse, samples))
        instance_cls = mod("model").Instance
        tracer.patch_attr(
            instance_cls, "request", tracer.counter("model.request", instance_cls.__dict__["request"])
        )
        yield tracer
    finally:
        tracer.unpatch()
