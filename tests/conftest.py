import pytest


@pytest.fixture(scope="session")
def run_cache():
    """Session-wide cache so tests can share expensive runs."""
    return {}


def cached_run(cache, scenario):
    """`run_scenario(scenario)`, untraced, once per session for each
    scenario: two equal scenarios have the same `digest()`."""
    key = scenario.digest()
    if key not in cache:
        from slidenet.engine import run_scenario
        cache[key] = run_scenario(scenario)
    return cache[key]


# attributes that point at shared or fixed objects (the key ring, keys,
# back-references, hooks), not at state a round changes; a ledger pairing's
# `out_sigp`/`in_sigp` are the two ledgers' own `sigp`, compared there
_SNAPSHOT_SKIP = frozenset({"ring", "key", "auth", "report_hook", "params",
                            "owner", "out_sigp", "in_sigp"})


def _keep(obj):
    return obj


def _plain_dict(obj):
    return {key: _plain(value) for key, value in obj.items()}


def _plain_list(obj):
    return [_plain(value) for value in obj]


def _converter(cls):
    """How `_plain` turns an instance of `cls` into plain values."""
    # tuples here hold only immutable values (stamps, labels, keys, signed
    # bodies); frozen dataclasses (packets, `Stored`, `Signed` evidence,
    # parcels) compare by value already
    params = getattr(cls, "__dataclass_params__", None)
    if issubclass(cls, (int, float, str, bytes, type(None), tuple,
                        frozenset)) or (params is not None and params.frozen):
        return _keep
    if issubclass(cls, dict):
        return _plain_dict
    if issubclass(cls, list):
        return _plain_list
    if issubclass(cls, set):
        return frozenset
    name = cls.__name__
    if "__slots__" in cls.__dict__:
        slots = [attr for attr in cls.__slots__
                 if attr not in _SNAPSHOT_SKIP]
        return lambda obj: (name, tuple(_plain(getattr(obj, attr))
                                        for attr in slots))
    return lambda obj: (name, {attr: _plain(value)
                               for attr, value in vars(obj).items()
                               if attr not in _SNAPSHOT_SKIP})


_CONVERTERS = {}


def _plain(obj):
    """`obj` as nested plain values that compare by value."""
    cls = type(obj)
    convert = _CONVERTERS.get(cls)
    if convert is None:
        convert = _CONVERTERS[cls] = _converter(cls)
    return convert(obj)


def engine_snapshot(engine):
    """The engine's whole simulated state by value: every node's buffers
    and slots, reservoir and storage, every AuthNode's ledgers (with their
    `Signed` evidence), broadcast buffer and data buffer, every corrupt
    behaviour's own state, and the current transmission's counters."""
    return {
        "round": (engine.T, engine.r_local, engine.g_round),
        "nodes": _plain(engine.nodes),
        "auth": _plain(engine.auth),
        "behaviors": _plain({node: beh for node, (_, beh)
                             in engine.corrupt_nodes.items()}),
        "tm": dict(engine.tm),
        "delivered": list(engine.delivered),
        "eliminations": _plain(engine.eliminations),
        "max_packets": dict(engine.max_packets),
        "trace_len": None if engine.trace is None else len(engine.trace),
    }
