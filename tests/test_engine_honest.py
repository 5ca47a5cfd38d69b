import json

import pytest

from slidenet.buffers import Stored
from slidenet.codec import Packet
from slidenet.engine import (ConformingError, Engine, InvariantError,
                             Scenario, run_scenario)


def fill_buffer(buf, h):
    for i in range(1, h + 1):
        buf.slots[i - 1] = Stored(Packet(1, i, b"\x00\x00"))
    buf.H = h


class TestPotentialSnapshot:
    def make_engine(self):
        return Engine(Scenario(n=4, mode="slide", messages=1, checks="off"))

    def test_empty_network_zero(self):
        eng = self.make_engine()
        assert eng._potential() == (0, 0)

    def test_single_buffer_height3(self):
        eng = self.make_engine()
        fill_buffer(eng.nodes[1].in_buffers[0], 3)
        assert eng._potential() == (6, 0)

    def test_full_internal_network(self):
        # every internal buffer full: 2n(2n+1)(n-2)^2 = 288 at n=4
        eng = self.make_engine()
        for i in (1, 2):
            for buf in eng.nodes[i].all_buffers():
                fill_buffer(buf, buf.capacity)
        assert eng._potential() == (288, 0)

    def test_accepted_flag_counts_as_duplication(self):
        eng = self.make_engine()
        ob = eng.nodes[1].out_buffers[2]
        fill_buffer(ob, 3)
        ob.p_tilde = ob.slots[2]
        ob.H_FP = 3
        ob.FR = 1
        ob.flag_accepted = True
        assert eng._potential() == (3, 3)


class TestHonestDelivery:
    def test_static_two_messages(self):
        sc = Scenario(n=4, mode="slide", messages=2, max_transmissions=2,
                      checks="full")
        report, eng = run_scenario(sc)
        assert [d["message"] for d in report["delivered"]] == [1, 2]
        for d in report["delivered"]:
            local = d["round"] - (d["T"] - 1) * eng.L
            assert 0 < local <= 3 * eng.D
            assert d["T"] == d["message"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_n4(self, seed):
        sc = Scenario(n=4, mode="slide", messages=1, schedule_kind="churn",
                      schedule_p=0.3, schedule_seed=seed, checks="full")
        report, eng = run_scenario(sc)
        assert len(report["delivered"]) == 1

    def test_churn_n5(self):
        sc = Scenario(n=5, mode="slide", messages=1, schedule_kind="churn",
                      schedule_p=0.4, schedule_seed=7, checks="full")
        report, eng = run_scenario(sc)
        assert len(report["delivered"]) == 1

    @pytest.mark.slow
    def test_churn_n10(self):
        # D = 16000: the codec's working set must not grow with D^2
        sc = Scenario(n=10, mode="slide", messages=1, schedule_kind="churn",
                      schedule_p=0.3, schedule_seed=10, checks="full")
        report, eng = run_scenario(sc)
        assert [d["message"] for d in report["delivered"]] == [1]

    def test_zero_messages(self):
        sc = Scenario(n=4, mode="slide", messages=0, checks="full")
        report, eng = run_scenario(sc)
        assert report["delivered"] == [] and report["transmissions"] == []

    def test_memory_bound(self):
        sc = Scenario(n=4, mode="slide", messages=2, max_transmissions=2,
                      checks="full")
        report, _ = run_scenario(sc)
        cap = 2 * (4 - 2) * 2 * 4          # 2(n-2) buffers of 2n slots
        for node in ("1", "2"):
            assert report["max_packets_per_node"][node] <= cap

    def test_blocked_rounds_drop_potential(self):
        # narrow pipe: only the backbone is ever active, so the sender
        # floods node 1 until it saturates and blocked rounds appear
        sc = Scenario(n=4, mode="slide", messages=1,
                      schedule_kind="scripted",
                      schedule_script=[[(0, 1), (1, 3)]],
                      backbone=[0, 1, 3], checks="full")
        report, eng = run_scenario(sc)
        tm = report["transmissions"][0]
        assert len(report["delivered"]) == 1
        assert tm["potential_drop"] >= 4 * tm["blocked"]


class TestDeterminism:
    def test_identical_reports(self):
        sc = Scenario(n=4, mode="slide", messages=1, schedule_kind="churn",
                      schedule_p=0.25, schedule_seed=3, checks="full")
        r1, e1 = run_scenario(sc, trace=[])
        r2, e2 = run_scenario(sc, trace=[])
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2,
                                                            sort_keys=True)
        assert e1.trace == e2.trace


class TestConfig:
    def test_conforming_violation_detected(self):
        sc = Scenario(n=4, mode="slide", messages=1,
                      schedule_kind="scripted",
                      schedule_script=[[(0, 1), (2, 3)]],
                      schedule_repair=False, checks="off")
        with pytest.raises(ConformingError) as err:
            Engine(sc)
        assert err.value.round_index == 1

    def test_corruption_requires_auth_mode(self):
        from slidenet.adversary import ConfigError, Corruption
        sc = Scenario(n=4, mode="slide", messages=1,
                      corruptions=[Corruption(1, 1, "deleter")])
        with pytest.raises(ConfigError):
            Engine(sc)

    def test_sender_receiver_incorruptible(self):
        from slidenet.adversary import ConfigError, Corruption
        sc = Scenario(n=4, mode="auth", messages=1,
                      corruptions=[Corruption(0, 1, "deleter")])
        with pytest.raises(ConfigError):
            Engine(sc)
