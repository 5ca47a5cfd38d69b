"""Golden digests: the report and trace of eleven fixed scenarios, pinned
across versions, and the files `slidenet run --trace` writes for two of
them.  Each line the trace sink writes from every one of them must be
the record's `json.dumps`.  A refactor must leave every digest unchanged; only a change whose
point is a behaviour change may update them, and it says why in
CHANGES.md.

The scenarios are spelled out here rather than built by a helper, so the
lock also pins its own inputs.
"""

import hashlib
import json

import pytest

from slidenet.adversary import Corruption
from slidenet.cli import _TraceFile, main
from slidenet.crypto import KeyRing
from slidenet.engine import Scenario, run_scenario

# thin honest line 0-1-3 with node 2 attached to every other node
THIN_LINE_N4 = [[[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]]


def _attack(behavior):
    return Scenario(
        n=4, mode="auth", messages=1, max_transmissions=10, checks="full",
        schedule_kind="scripted", schedule_script=THIN_LINE_N4,
        backbone=[0, 1, 3],
        corruptions=[Corruption(node=2, round_index=1, behavior=behavior)],
        seed=0)


SCENARIOS = {
    "slide-n4-churn": lambda: Scenario(
        n=4, mode="slide", messages=2, schedule_kind="churn",
        schedule_p=0.3, schedule_seed=1, seed=1),
    "auth-n4-churn": lambda: Scenario(
        n=4, mode="auth", schedule_kind="churn", schedule_p=0.2,
        schedule_seed=3, seed=3),
    # 3+3-buffer re-shuffle and sender redistribution onto live edges
    "slide-n5-churn": lambda: Scenario(
        n=5, mode="slide", messages=2, schedule_kind="churn",
        schedule_p=0.3, schedule_seed=2, seed=2),
    # the benchmark's auth-n4-deleter workload: one localization and one
    # elimination
    "deleter-n4": lambda: _attack("deleter"),
    "duplicator-n4": lambda: _attack("duplicator"),
    # substituted sends and the after_forward path
    "replacer-n4": lambda: _attack("replacer"),
    "report-forger-n4": lambda: _attack("report-forger"),
    # honest run whose rounds after delivery change no state: one long
    # quiet stretch on an unchanging schedule
    "auth-n4-static": lambda: Scenario(
        n=4, mode="auth", messages=1, schedule_kind="static", seed=0),
    # behaviours whose stage1_reply_height / suppress_output hooks run
    # every round
    "liar-n4": lambda: _attack("liar"),
    "ghost-n4": lambda: _attack("ghost"),
    # a replacer that turns in round 306 replays codeword-1 packets in
    # transmission 2: ok, f4, node 2 eliminated by F4, 2/2 delivered
    "replayed-codeword-n4": lambda: Scenario(
        n=4, mode="auth", messages=2, max_transmissions=10, checks="full",
        schedule_kind="scripted", schedule_script=THIN_LINE_N4,
        backbone=[0, 1, 3],
        corruptions=[Corruption(node=2, round_index=306,
                                behavior="replacer")],
        seed=0),
}

# (report sha256, trace sha256) of json.dumps(..., sort_keys=True)
GOLDEN = {
    "slide-n4-churn": (
        "cb5870ca94b3098167aa007b8f5ac0c3f49850487195bbcdbb65db6620bcbe33",
        "0fd99dab2944f944463097d6354948db717d5b78ded3b1a3d317a48600db8735"),
    "auth-n4-churn": (
        "7adfaedd8bd461804af44d290b920fc19fe3fc84562084c7ac2a71c402cf193c",
        "7912c29fa84403a23ae152ca3b47c9fca1666f83dd7d3fd7147494cf78239663"),
    "slide-n5-churn": (
        "6c373cf68899f7b836aee5591c845c02030665a08b34bef7f02b2b64ff889dc1",
        "93b7e548689ad8e8b26bcfcdbdbcf73e1f52b12fbed6a9efb4cd4e23c328ea19"),
    "deleter-n4": (
        "22ccc5c4c74cd5971aab3dd27732260405a2c6309b323583d496c5cf585feba1",
        "e19e56240fab22eb4ad043450cdcda1c321136c6bb969bbb72eb40e2fb80b288"),
    "duplicator-n4": (
        "262bb436472600051fa0c6deec55d18684e21ac9c13b278a99acefa25e09b95c",
        "c7ec5d837f69671ce4c764a8ad9954ea07fc123cd59c7ba18ac15b4c240a59bc"),
    "replacer-n4": (
        "8962bdd82055f769fd1eca3fb26a219b288ec1adfc18ef4f8dec3e9018260fcb",
        "a87b34ec812dbc7863c66b75f5c8ddd2ec48c1a5474ec961f7233fac0577b7c8"),
    "report-forger-n4": (
        "8c0c09c0b0c11df0f2bca9e48dc37268ef3b4a0f84c69a846bbcd607484a8574",
        "3ea67a41d6daf8e55b9a1e41138dd3688592d1999c6a9d7b16ac617e4b6b408b"),
    "auth-n4-static": (
        "bef4093d24894ec0096a3fa30abcce3c94bc26edb3c299d8655a65cf7c41d062",
        "a8e3e2f8b4d259e1697d5acb327d0e9658338cfa8a640eb24e7edf34fe36f83f"),
    "liar-n4": (
        "babf15808a53e584c6cd3df2df1752418aa3a678924d478d450a5043006fab0b",
        "841b59c1bd01571414cfbf0092447a5655d9a74f5f9775351530b6057276c285"),
    "ghost-n4": (
        "3c3f82a37a4ee55dc3db82a064c2d2dacedaad35e9479d05333ecaa8889ef23a",
        "c9c86bf2ec57903013d14d6a13dfaf31a74455d584fc0c148c95d768378ce3bb"),
    "replayed-codeword-n4": (
        "0e6d31502534dddd6f75952b19046e33b6022cfa4179284507b0b5f104ddce63",
        "d319f0de99ecd0db9ce7bd03d593338b550ae2ff2da59958d3626dfb8d1e7a59"),
}


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def golden_run(request):
    """(name, report, engine) of one scenario run with its trace kept in
    memory, shared by the tests that take it."""
    report, engine = run_scenario(SCENARIOS[request.param](), trace=[])
    return request.param, report, engine


def test_golden_digests(golden_run):
    name, report, engine = golden_run
    assert (_sha256(report), _sha256(engine.trace)) == GOLDEN[name]


def test_trace_file_lines_are_json_dumps(golden_run, tmp_path):
    """Each line the trace sink writes from a run's records is exactly
    `json.dumps(rec, sort_keys=True)`: a state row's with `nid` in place
    of `nodes`, naming the `nodes` record written from that very object,
    and each `nodes` record's its own."""
    _, _, engine = golden_run
    path = tmp_path / "trace.jsonl"
    sink = _TraceFile(str(path))
    for rec in engine.trace:
        sink.append(rec)
    sink.commit()
    lines = iter(path.read_bytes().decode().split("\n"))
    written = {}                  # nodes record id -> the object written
    for rec in engine.trace:
        line = next(lines)
        if rec["k"] == "state":
            got = json.loads(line)
            if got["k"] == "nodes":
                assert line == json.dumps(
                    {"id": got["id"], "k": "nodes", "nodes": rec["nodes"]},
                    sort_keys=True)
                written[got["id"]] = rec["nodes"]
                line = next(lines)
                got = json.loads(line)
            assert written[got["nid"]] is rec["nodes"]
            rec = dict(rec, nid=got["nid"])
            del rec["nodes"]
        assert line == json.dumps(rec, sort_keys=True)
    assert list(lines) == [""]


@pytest.mark.parametrize("name", ["deleter-n4", "slide-n4-churn"])
def test_untraced_report_with_checks_off(name):
    """Untraced, the checked run still gives the golden report, and with
    its checks off the same report but for the scenario digest, which
    covers `checks`."""
    reports = {}
    for checks in ("full", "off"):
        sc = SCENARIOS[name]()
        sc.checks = checks
        reports[checks], engine = run_scenario(sc)
        assert engine.trace is None
    assert _sha256(reports["full"]) == GOLDEN[name][0]
    digest = reports["full"]["scenario_digest"]
    assert reports["off"]["scenario_digest"] != digest
    assert dict(reports["off"], scenario_digest=digest) == reports["full"]


# (report.json sha256, trace.jsonl sha256) of the files `slidenet run
# --trace` writes, header line included: the bytes a user gets, beside the
# in-memory digests above.
CLI_GOLDEN = {
    "deleter-n4": (
        "dbb217ad0bc409b8c33bec04e560a7364f6b91d5fda6a99e8403d358dcf16d6e",
        "93e1f00df4bc27530c8842b2485eeaf4b03cb1a8e4e7de95195f5173970d3e64"),
    "slide-n5-churn": (
        "ca07e2b992de5d85412f139e688a51b96500f59ab2fb278bcabad52f7c8eb1bd",
        "18963be0e8f9695c37baeb002c7d19c8f8784b2ae44926c6cec6944358c4a20b"),
}


def _file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_file_digests(name, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIOS[name]().to_dict()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--trace"]) == 0
    assert (_file_sha256(out / "report.json"),
            _file_sha256(out / "trace.jsonl")) == CLI_GOLDEN[name]


# sha256 over the packed bytes of every value signed in a run, in signing
# order: the signed statements, parcels and status reports themselves,
# which no report or trace digest above covers.
SIGNED_GOLDEN = {
    "deleter-n4":
        "516a71002cd1679b4281ddb507371f2aacc058548a3be4249fe64b691355e33d",
    "duplicator-n4":
        "ef775ac7a3e471241ca1e7ecf5f7b22111e3f96e9cad7014c28a92d14bf06188",
}


@pytest.mark.parametrize("name", sorted(SIGNED_GOLDEN))
def test_signed_bytes_digest(name, monkeypatch):
    digest = hashlib.sha256()
    sign = KeyRing.sign

    def recording_sign(ring, key, value):
        signed = sign(ring, key, value)
        digest.update(signed.body)
        return signed

    monkeypatch.setattr(KeyRing, "sign", recording_sign)
    run_scenario(SCENARIOS[name]())
    assert digest.hexdigest() == SIGNED_GOLDEN[name]


# sha256 over the signature bytes of every statement signed in a run, in
# signing order, read after the run has ended: the bytes a signer gives
# out, for each backend, beside the signed values above.
SIGNATURE_GOLDEN = {
    ("deleter-n4", "oracle"):
        "14c3718a14d77cc919b663f1991f453b30286bbc2046f0f2bfba0cdcfd090f6b",
    ("deleter-n4", "ed25519"):
        "a87b5b4bcf1344622a22752f27f2475cefc1d1c12ec2ac9f43866febd8ed8c86",
    ("duplicator-n4", "oracle"):
        "8ef3a7b7ff87d53ef7e7b732cd0d8ce6d75f6e26b5db1df8bbf31bfdb520da6e",
    ("duplicator-n4", "ed25519"):
        "4382c4bd4c7bd3ed10d8c5fce5234fee612bc974a2f7e9626f13d80f10de69ba",
}


@pytest.mark.parametrize("name,backend", sorted(SIGNATURE_GOLDEN))
def test_signature_bytes_digest(name, backend, monkeypatch):
    signed_log = []
    sign = KeyRing.sign

    def recording_sign(ring, key, value):
        signed = sign(ring, key, value)
        signed_log.append(signed)
        return signed

    monkeypatch.setattr(KeyRing, "sign", recording_sign)
    sc = SCENARIOS[name]()
    sc.crypto_backend = backend
    run_scenario(sc)
    digest = hashlib.sha256()
    for signed in signed_log:
        digest.update(signed.signature)
    assert digest.hexdigest() == SIGNATURE_GOLDEN[name, backend]
