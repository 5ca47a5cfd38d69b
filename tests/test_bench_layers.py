"""The benchmark's traced run (slidebench/layers.py) wraps slidenet
functions by module, class and attribute name.  A rename in the package
would make the tracer fail or record nothing; a call that bypasses the
patched name would leave its span silent.  These tests catch both."""

import importlib
import importlib.util
from pathlib import Path

from slidenet.engine import Scenario, run_scenario
from test_golden import SCENARIOS as GOLDEN

BENCH = Path(__file__).resolve().parents[1] / "slidebench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"slidebench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return _load("layers")


def _owner(target):
    module_name, _, cls_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls_name, object) if cls_name else owner


def test_every_span_target_resolves():
    layers = _layers()
    missing = []
    for target, attr, _span in layers.SPANS:
        owner = _owner(target)
        if target.partition(":")[2]:
            # the tracer patches the class's own __dict__ entry, so an
            # inherited attribute does not count
            found = attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{target}.{attr}")
    assert missing == []


def _traced_run(name):
    """The tracer over a whole run of golden scenario `name`, from the
    parsed scenario on; the patched attributes are restored after."""
    layers = _layers()
    saved = []
    for target, attr, _span in layers.SPANS:
        owner = _owner(target)
        saved.append((owner, attr, vars(owner)[attr]))
    tracer = layers.Tracer()
    try:
        tracer.install()
        run_scenario(Scenario.from_dict(GOLDEN[name]().to_dict()))
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    assert all(vars(owner)[attr] is original
               for owner, attr, original in saved)
    return tracer


def _silent(tracer, idle):
    return sorted(span for span in tracer.spans
                  if tracer.calls(span) == 0 and not span.startswith(idle))


def test_every_span_records_a_call_over_a_deleter_run():
    """Over deleter-n4, every span but the command line's records a call,
    and the run reaches one verdict."""
    tracer = _traced_run("deleter-n4")
    assert _silent(tracer, ("cli.",)) == []
    assert tracer.counts.get("verdicts") == 1


def test_every_slide_span_records_a_call_over_a_slide_run():
    """Over slide-n4-churn, every span records a call but the command
    line's and those the benchmark's slide workloads declare idle.  This
    covers slide-mode paths the deleter run never takes."""
    idle = _load("workloads").SLIDE_IDLE + ("cli.",)
    tracer = _traced_run("slide-n4-churn")
    assert _silent(tracer, idle) == []
