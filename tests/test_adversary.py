import pytest

from slidenet import engine
from slidenet.adversary import (BEHAVIORS, ConfigError, Corruption,
                                EdgeSchedule, default_backbone,
                                find_honest_path, full_mask,
                                generate_schedule, validate_conforming)
from slidenet.engine import ConformingError, Engine, Scenario


def _masks(sched):
    return [sched.mask(r) for r in range(1, sched.rounds + 1)]


class TestValidateConforming:
    def test_complete_graph_ok(self):
        sched = generate_schedule("static", 4, 20)
        assert validate_conforming(sched, set(), 0, 3) is None

    def test_isolated_sender_flagged(self):
        masks = _masks(generate_schedule("static", 4, 20))
        bits = EdgeSchedule(4, []).bit
        for b in (1, 2, 3):
            masks[9] &= ~(1 << bits[(0, b)])
        sched = EdgeSchedule(4, masks)
        assert validate_conforming(sched, set(), 0, 3) == 10

    def test_only_path_through_corrupt_node(self):
        # 5 nodes, active edges only 0-2-4: corrupting node 2 severs every
        # honest path from the start
        sched = generate_schedule("scripted", 5, 10, backbone=[0, 2, 4],
                                  script=[[(0, 2), (2, 4)]])
        assert validate_conforming(sched, set(), 0, 4) is None
        assert validate_conforming(sched, {2}, 0, 4) == 1

    def test_churn_zero_probability_is_static(self):
        sched = generate_schedule("churn", 4, 50, seed=1, p=0.0)
        assert _masks(sched) == [full_mask(4)] * 50

    def test_churn_seed42_conforms(self):
        sched = generate_schedule("churn", 5, 500, seed=42, p=0.3)
        assert validate_conforming(sched, set(), 0, 4) is None

    def test_churn_determinism(self):
        a = generate_schedule("churn", 5, 200, seed=9, p=0.4)
        b = generate_schedule("churn", 5, 200, seed=9, p=0.4)
        assert _masks(a) == _masks(b)

    def test_corrupted_backbone_refused(self):
        sc = Scenario(n=5, mode="auth", schedule_kind="churn",
                      schedule_p=0.2, backbone=[0, 2, 4],
                      corruptions=[Corruption(2, 1, "deleter")])
        with pytest.raises(ConfigError, match="backbone node 2 is corrupted"):
            Engine(sc)

    @pytest.mark.parametrize("budget", [1, 100, 10_000])
    def test_unrepaired_churn_drawn_only_to_first_bad_round(
            self, monkeypatch, budget):
        # the schedule covers budget * 3072 rounds; the search stops at
        # round 10, after the first block of masks
        made = []

        def keep(*args, **kwargs):
            made.append(generate_schedule(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(engine, "generate_schedule", keep)
        with pytest.raises(ConformingError, match="in round 10$"):
            Engine(Scenario(n=4, schedule_kind="churn", schedule_p=0.3,
                            schedule_repair=False, max_transmissions=budget))
        assert made[0].rounds == budget * 3072
        assert len(made[0]._masks) == 64

    def test_first_rounds_of_lazy_schedule_match_drawn_masks(self):
        def make():
            return generate_schedule("churn", 5, 3000, seed=4, p=0.3,
                                     repair=False)

        masks, lazy = _masks(make()), make()
        firsts = [r for r in range(1, 3001)
                  if masks[r - 1] not in masks[:r - 1]]
        assert list(lazy.first_rounds()) == firsts

    def test_default_backbone_avoids_corrupt(self):
        assert default_backbone(5, {1}) == [0, 2, 4]
        assert default_backbone(5, set()) == [0, 1, 4]
        assert default_backbone(4, {1, 2}) == [0, 3]


class TestHonestPath:
    def test_prefers_backbone(self):
        sched = generate_schedule("static", 5, 5, backbone=[0, 2, 4])
        assert find_honest_path(sched, 1, set(), 0, 4) == [0, 2, 4]

    def test_bfs_fallback_avoids_corrupt(self):
        sched = generate_schedule("scripted", 5, 5, backbone=[0, 3, 4],
                                  script=[[(0, 1), (1, 4), (0, 3), (3, 4)]])
        sched.backbone = [0, 1, 4]     # backbone node corrupted below
        path = find_honest_path(sched, 1, {1}, 0, 4)
        assert path == [0, 3, 4]

    def test_behavior_registry(self):
        for name in ("deleter", "duplicator", "replacer", "liar", "ghost",
                     "report-forger"):
            assert name in BEHAVIORS
