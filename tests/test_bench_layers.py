"""The benchmark's traced run (slidebench/layers.py) wraps slidenet
functions by module, class and attribute name.  A rename in the package
would make the tracer fail or record nothing; this test catches it."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "slidebench" / "layers.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("slidebench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for target, attr, _span in layers.SPANS:
        module_name, _, cls_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if cls_name:
            # the tracer patches the class's own __dict__ entry, so an
            # inherited attribute does not count
            found = attr in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{target}.{attr}")
    assert missing == []
