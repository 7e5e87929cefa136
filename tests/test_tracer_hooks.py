"""The benchmark's traced run (perfbench/tracer.py) wraps package callables
by name from outside the package.  Entering its patch block here makes a
rename fail in the test suite instead of in the benchmark, and leaving it
must put every original back."""

import importlib.util
import os

from ftlopt.schedule import Simulator

from helpers import micro_instance

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mod(name):
    return importlib.import_module(f"ftlopt.{name}")


def hooked(tracer):
    """(owner, key, current value) of every boundary the tracer wraps."""
    out = [(m, attr, getattr(mod(m), attr)) for m, attr, *_rest in tracer._MODULE_TARGETS]
    out += [("REMOVAL_OPERATORS", op, fn) for op, fn in mod("operators").REMOVAL_OPERATORS.items()]
    for m, cls, attr, *_rest in tracer._CLASS_TARGETS:
        out.append((cls, attr, getattr(mod(m), cls).__dict__[attr]))
    out.append(("Instance", "request", mod("model").Instance.__dict__["request"]))
    return out


def test_tracer_wraps_every_hook_and_restores_it():
    tracer = load_tracer()
    before = hooked(tracer)
    with tracer.patched(tracer.Tracer()) as t:
        during = hooked(tracer)
        Simulator(micro_instance(0)).build_trip((1,))
    assert [(o, k) for o, k, _ in during] == [(o, k) for o, k, _ in before]
    for (owner, key, original), (_o, _k, wrapped) in zip(before, during):
        assert wrapped is not original, (owner, key)
        assert wrapped.__wrapped__ is original, (owner, key)
    assert t.aggs["schedule.build_trip"].calls == 1
    assert t.aggs["schedule.simulator_init"].calls == 1
    assert hooked(tracer) == before
