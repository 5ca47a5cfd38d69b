"""The benchmark's traced run (slidebench/layers.py) wraps slidenet
functions by module, class and attribute name.  A rename in the package
would make the tracer fail or record nothing; a call that bypasses the
patched name would leave its span silent.  These tests catch both."""

import importlib
import importlib.util
from pathlib import Path

from slidenet.engine import Scenario, run_scenario
from test_golden import SCENARIOS as GOLDEN

LAYERS = Path(__file__).resolve().parents[1] / "slidebench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("slidebench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


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


def test_every_span_records_a_call_over_a_deleter_run():
    """The tracer over a whole deleter-n4 run, from the parsed scenario
    on: every span but the command line's records a call, and the run
    reaches one verdict.  The patched attributes are restored after."""
    layers = _layers()
    saved = []
    for target, attr, _span in layers.SPANS:
        owner = _owner(target)
        saved.append((owner, attr, vars(owner)[attr]))
    tracer = layers.Tracer()
    try:
        tracer.install()
        run_scenario(Scenario.from_dict(GOLDEN["deleter-n4"]().to_dict()))
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    silent = sorted(span for span in tracer.spans
                    if tracer.calls(span) == 0 and not span.startswith("cli."))
    assert silent == []
    assert tracer.counts.get("verdicts") == 1
    assert all(vars(owner)[attr] is original
               for owner, attr, original in saved)
