"""The scenario catalogue pinned without running it: the `Scenario.digest()`
list of every family at n=4 and n=5, and of the acceptance suite's ghost
cases, each pinned as the `util.digest` of the list.  A change here
changes what the acceptance suite and `slidenet bounds` check.

Beside it, the scenario parser: mutated catalogue files either fail with
a ConfigError naming what was mutated or build an engine, and only the
parser raises ConfigError."""

import ast
import copy
import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import slidenet
from slidenet.adversary import ConfigError
from slidenet.engine import ConformingError, Engine, Scenario
from slidenet.scenarios import FAMILIES
from slidenet.util import digest
from test_acceptance import GHOST

PINNED = {
    ("honest", 4): "027a0b5a6c75ac2f", ("honest", 5): "165163dd75bc1dba",
    ("attack", 4): "da3060d51f4632a4", ("attack", 5): "68f4e4f6c4847e79",
    ("throughput", 4): "10330cfb0958d296",
    ("throughput", 5): "eace0feca1a8818e",
    ("ghost", 4): "62c47446cca2d576", ("ghost", 5): "f0deb3e488a2c741",
}


def test_catalogue_digests_pinned():
    families = {**FAMILIES, "ghost": lambda n: [GHOST[n]()]}
    lists = {(name, n): tuple(sc.digest() for sc in family(n))
             for name, family in families.items() for n in (4, 5)}
    assert {key: digest(value) for key, value in lists.items()} == PINNED, \
        lists


# -- mutated scenario files ---------------------------------------------------

CATALOGUE = [json.loads(json.dumps(sc.to_dict()))
             for family in FAMILIES.values() for sc in family(4)]
DELETE = object()

# small ints keep an unrepaired churn schedule, which is drawn to its last
# budgeted round before the conformance check, quick to build
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.5]),
    st.sampled_from(["", "x", "3/8", "1/4", "0.375", "slide", "auth",
                     "static", "churn", "scripted", "deleter", "ghost",
                     "oracle", "ed25519", "full", "off"]))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["node", "round", "behavior", "params", "kind", "p",
                         "backbone", "x"]), inner, max_size=3),
    max_leaves=8) | st.lists(st.lists(st.lists(st.integers(-2, 5),
                                           max_size=3), max_size=3),
                             max_size=2)      # scripts of edge lists


def _paths(data):
    """Every key path of a scenario file, a whole corruptions entry and
    one unknown key per object included."""
    paths = [(key,) for key in data] + [("x",)]
    paths += [("schedule", key) for key in [*data["schedule"], "x"]]
    for i, entry in enumerate(data["corruptions"]):
        paths += [("corruptions", i)]
        paths += [("corruptions", i, key) for key in [*entry, "x"]]
    return paths


def _names(value):
    """The keys of every object inside a value."""
    if isinstance(value, dict):
        yield from value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _names(item)


def _names_one(message, names):
    return any(re.search(rf"\b{re.escape(form)}\b", message)
               for name in names for form in (name, name.replace("_", " ")))


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mutated_file_fails_by_name_or_round_trips(data):
    """One or two fields of a catalogue file at n=4 set to another value
    or deleted: `Scenario.from_dict` and `Engine(...)` then either raise
    ConfigError naming a mutated key (or a key inside the value set), or
    build a scenario whose file parses back to the same file.  A
    ConformingError (exit 3) counts as built: an unrepaired schedule may
    break the constraint."""
    base = data.draw(st.sampled_from(CATALOGUE))
    paths = data.draw(st.lists(st.sampled_from(_paths(base)), min_size=1,
                               max_size=2, unique=True))
    mutated = copy.deepcopy(base)
    names = set()
    # deeper paths and later entries first, so that no mutation moves or
    # removes what a later one sets
    for path in sorted(paths, key=lambda path: (len(path), path),
                       reverse=True):
        value = data.draw(st.one_of(st.just(DELETE), SCALARS, VALUES))
        *head, key = path
        holder = mutated
        for part in head:
            holder = holder[part]
        if value is DELETE:
            if isinstance(holder, list) or key in holder:
                del holder[key]
        else:
            holder[key] = value
            names.update(_names(value))
        names.add(next(part for part in reversed(path)
                       if isinstance(part, str)))
    try:
        sc = Scenario.from_dict(mutated)
        Engine(sc)
    except ConfigError as exc:
        assert _names_one(str(exc), names), (str(exc), paths)
        return
    except ConformingError:
        pass
    assert Scenario.from_dict(sc.to_dict()).to_dict() == sc.to_dict()


# -- one place for the field checks -------------------------------------------

def _raise_sites(path, name):
    """The qualified name of the function or class around each `raise
    name(...)` in the module at `path`."""
    sites = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == name:
                    sites.append(".".join(scope) or "<module>")
            walk(child, scope)

    walk(ast.parse(path.read_text()), [])
    return sites


def test_config_errors_raised_only_by_the_parser():
    """A scenario's fields are checked once, by `Scenario.from_dict` (the
    file's shape) and `Scenario.check` (its values); the code after them
    trusts the scenario.  `EdgeSchedule` keeps its round-coverage checks.
    No other code in src/ raises ConfigError."""
    package = Path(slidenet.__file__).parent
    sites = {f"{path.name}:{scope}"
             for path in package.glob("*.py")
             for scope in _raise_sites(path, "ConfigError")}
    assert sites == {"engine.py:Scenario.from_dict", "engine.py:_reject_unknown",
                     "engine.py:Scenario.check",
                     "adversary.py:EdgeSchedule.__init__",
                     "adversary.py:EdgeSchedule.mask"}
