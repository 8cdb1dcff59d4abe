"""Adaptive portfolio seeding, slot parsing and the mixed-engine race.

Covers the ISSUE 5 additions around the engine-aware portfolio:

* ``parse_slot`` — the ``[engine:]policy[:seed]`` grammar;
* model-family fingerprints (net- and spec-side) and the hardness
  heuristic;
* :class:`AdaptiveStore` — recording, ordering, prediction,
  persistence, warm start from ``BENCH_parallel.json``;
* the race itself: mixed ``engine:policy`` slots, a state-class slot
  winning a wide-interval model, winner engine/policy recording, and
  the reference-replay contract on the winner.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.blocks import compose
from repro.errors import SchedulingError
from repro.scheduler import (
    AdaptiveStore,
    ParallelScheduler,
    SchedulerConfig,
    net_family,
    parse_slot,
    predict_states,
    search,
    spec_family,
    validate_with_reference,
)
from repro.spec import paper_examples
from repro.workloads import (
    random_task_set,
    wide_interval_race_net,
)


def _no_ezrt_children() -> bool:
    return not [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("ezrt-")
    ]


# ----------------------------------------------------------------------
# Slot grammar
# ----------------------------------------------------------------------
class TestParseSlot:
    def test_plain_policy_inherits_engine(self):
        assert parse_slot("latest") == (None, "latest")
        assert parse_slot("random:7") == (None, "random:7")

    def test_engine_prefix(self):
        assert parse_slot("stateclass:earliest") == (
            "stateclass",
            "earliest",
        )
        assert parse_slot("kernel:random:3") == (
            "kernel",
            "random:3",
        )
        assert parse_slot("reference:min-laxity") == (
            "reference",
            "min-laxity",
        )

    def test_engine_without_policy_rejected(self):
        with pytest.raises(SchedulingError):
            parse_slot("stateclass:")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            parse_slot("stateclass:bogus")
        with pytest.raises(SchedulingError):
            parse_slot("bogus")

    def test_config_accepts_engine_slots(self):
        config = SchedulerConfig(
            parallel=2,
            portfolio=("kernel:earliest", "stateclass:earliest"),
        )
        assert len(config.portfolio) == 2
        with pytest.raises(SchedulingError):
            SchedulerConfig(portfolio=("stateclass:nope",))


# ----------------------------------------------------------------------
# Fingerprints and the hardness heuristic
# ----------------------------------------------------------------------
class TestFamilies:
    def test_net_family_is_deterministic(self):
        net = compose(paper_examples()["fig3"]).compiled()
        assert net_family(net) == net_family(net)

    def test_different_shapes_differ(self):
        fig3 = compose(paper_examples()["fig3"]).compiled()
        wide = wide_interval_race_net().compile()
        assert net_family(fig3) != net_family(wide)

    def test_spec_family_groups_reseeded_sets(self):
        """Same shape, different seed → usually the same family (the
        fingerprint is deliberately lossy); a very different shape
        must always land elsewhere."""
        a = spec_family(random_task_set(4, 0.5, seed=1))
        big = spec_family(
            random_task_set(
                12, 0.95, seed=1, preemptive_fraction=1.0
            )
        )
        assert a != big

    def test_predict_states_is_monotone_in_pressure(self):
        easy = predict_states(random_task_set(2, 0.3, seed=0))
        hard = predict_states(
            random_task_set(
                6, 0.9, seed=0, preemptive_fraction=1.0
            )
        )
        assert hard > easy


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestAdaptiveStore:
    def test_record_and_order(self):
        store = AdaptiveStore()
        slots = ("earliest", "random:1", "min-laxity", "latest")
        assert store.order_slots("famX", slots) == slots
        store.record_win("famX", "min-laxity", 1000)
        store.record_win("famX", "min-laxity", 900)
        store.record_win("famX", "latest", 500)
        ordered = store.order_slots("famX", slots)
        assert ordered[0] == "min-laxity"
        assert ordered[1] == "latest"
        # unknown slots keep rotation order behind the winners
        assert ordered[2:] == ("earliest", "random:1")
        # a pure permutation: nothing added or dropped
        assert sorted(ordered) == sorted(slots)

    def test_other_families_unaffected(self):
        store = AdaptiveStore()
        store.record_win("famX", "latest")
        slots = ("earliest", "latest")
        assert store.order_slots("famY", slots) == slots

    def test_predicted_states(self):
        store = AdaptiveStore()
        assert store.predicted_states("famX", 42.0) == 42.0
        store.record_job("famX", 100)
        store.record_job("famX", 300)
        assert store.predicted_states("famX", 42.0) == 200.0

    def test_persistence_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "adaptive.json")
        store = AdaptiveStore(path)
        store.record_win("famX", "latest", 10)
        store.record_job("famX", 50)
        store.save()
        reloaded = AdaptiveStore(path)
        assert reloaded.wins("famX") == {"latest": 1}
        assert reloaded.predicted_states("famX", 0.0) == 50.0

    def test_near_win_keeps_diverse_slot_near_front(self):
        # ISSUE 6 refinement: a slot that keeps reaching definitive
        # verdicts but narrowly loses the race must not be starved
        # behind slots with no record at all
        store = AdaptiveStore()
        slots = ("earliest", "stateclass:earliest", "random:1")
        store.record_win("famX", "earliest", 100)
        store.record_slot_time("famX", "earliest", 0.10)
        store.record_slot_time(
            "famX", "stateclass:earliest", 0.12, near=True
        )
        store.record_slot_time("famX", "random:1", 0.50)
        ordered = store.order_slots("famX", slots)
        assert ordered[0] == "earliest"  # the actual winner
        assert ordered[1] == "stateclass:earliest"  # near win
        assert sorted(ordered) == sorted(slots)

    def test_faster_mean_wall_clock_breaks_ties(self):
        store = AdaptiveStore()
        slots = ("earliest", "latest", "min-laxity")
        store.record_slot_time("famX", "latest", 0.05)
        store.record_slot_time("famX", "latest", 0.15)  # mean 0.10
        store.record_slot_time("famX", "earliest", 0.40)
        ordered = store.order_slots("famX", slots)
        # no wins or near wins anywhere: fastest mean first, and the
        # never-recorded slot (mean 0) comes before both
        assert ordered == ("min-laxity", "latest", "earliest")

    def test_decay_fades_old_wins(self):
        store = AdaptiveStore()
        slots = ("earliest", "latest")
        store.record_win("famX", "earliest")
        # 20 races pass in which 'earliest' never wins again while
        # 'latest' takes one recent win
        for _ in range(20):
            store.decay_family("famX")
        store.record_win("famX", "latest")
        ordered = store.order_slots("famX", slots)
        assert ordered[0] == "latest"
        # decay of an unknown family is a safe no-op
        store.decay_family("famZ")

    def test_slot_time_persistence_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "adaptive.json")
        store = AdaptiveStore(path)
        store.record_win("famX", "latest")
        store.record_slot_time("famX", "latest", 0.25)
        store.record_slot_time("famX", "earliest", 0.75, near=True)
        store.save()
        reloaded = AdaptiveStore(path)
        assert reloaded.order_slots(
            "famX", ("earliest", "latest")
        ) == ("latest", "earliest")

    def test_race_records_slot_times(self, tmp_path):
        # an end-to-end race stores wall-clock for every slot, not
        # just the winner, so losing slots accumulate mean-seconds
        path = os.path.join(tmp_path, "adaptive.json")
        net = compose(paper_examples()["fig4"]).compiled()
        scheduler = ParallelScheduler(
            net,
            SchedulerConfig(parallel=2),
            adaptive=AdaptiveStore(path),
        )
        result = scheduler.search()
        assert result.feasible
        reloaded = AdaptiveStore(path)
        family = net_family(net)
        entries = reloaded._families[family]["slots"]
        timed = [e for e in entries.values() if e.get("runs")]
        assert timed, "no slot recorded wall-clock for the race"
        assert all(e["seconds"] > 0 for e in timed)
        assert _no_ezrt_children()

    def test_corrupt_file_is_ignored(self, tmp_path):
        path = os.path.join(tmp_path, "adaptive.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        store = AdaptiveStore(path)  # must not raise
        assert store.wins("famX") == {}

    def test_warm_start_from_bench_payload(self):
        payload = {
            "results": [
                {
                    "mode": "portfolio",
                    "model": "portfolio-hard-x2",
                    "curve": [
                        {
                            "winner_policy": "random:1",
                            "states_visited": 51290,
                        },
                        {
                            "winner_policy": "min-laxity",
                            "states_visited": 19191,
                        },
                    ],
                },
                {"mode": "worksteal", "model": "other", "curve": []},
                {
                    "mode": "portfolio",
                    "model": "unknown-model",
                    "curve": [{"winner_policy": "latest"}],
                },
            ]
        }
        store = AdaptiveStore()
        recorded = store.warm_start_from_bench(
            payload, {"portfolio-hard-x2": "famHard"}
        )
        assert recorded == 2
        assert store.wins("famHard") == {
            "random:1": 1,
            "min-laxity": 1,
        }

    def test_warm_start_from_real_bench_artifact(self):
        """The checked-in BENCH_parallel.json seeds the hard model's
        family through bench_model_families()."""
        path = os.path.join(
            os.path.dirname(__file__), "..", "BENCH_parallel.json"
        )
        if not os.path.exists(path):
            pytest.skip("no BENCH_parallel.json in this checkout")
        from repro.scheduler import bench_model_families

        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        store = AdaptiveStore()
        recorded = store.warm_start_from_bench(
            payload, bench_model_families()
        )
        assert recorded >= 2
        assert any(store.wins(f) for f in set(
            bench_model_families().values()
        ))


# ----------------------------------------------------------------------
# Adaptive seeding of a live race
# ----------------------------------------------------------------------
class TestAdaptiveRace:
    def test_rotation_is_reordered_by_recorded_wins(self):
        net = compose(paper_examples()["fig3"]).compiled()
        store = AdaptiveStore()
        store.record_win(net_family(net), "min-laxity", 10)
        scheduler = ParallelScheduler(
            net, SchedulerConfig(parallel=4), adaptive=store
        )
        policies = scheduler.portfolio_policies()
        assert policies[0] == "min-laxity"
        assert sorted(policies) == sorted(
            ParallelScheduler(
                net, SchedulerConfig(parallel=4)
            ).portfolio_policies()
        )

    def test_reorder_never_aliases_unseeded_random_slots(self):
        """Unseeded random slots are pinned to their rotation index
        *before* the adaptive permutation — reordering must not land
        two workers on one shuffle stream."""
        net = compose(paper_examples()["fig3"]).compiled()
        store = AdaptiveStore()
        store.record_win(net_family(net), "earliest", 5)
        scheduler = ParallelScheduler(
            net,
            SchedulerConfig(
                parallel=3, portfolio=("random", "earliest")
            ),
            adaptive=store,
        )
        policies = scheduler.portfolio_policies()
        assert policies[0] == "earliest"  # recorded winner first
        randoms = [p for p in policies if p.startswith("random")]
        assert len(randoms) == 2
        assert len(set(randoms)) == 2  # distinct pinned seeds

    def test_race_records_its_winner(self):
        net = compose(paper_examples()["fig4"]).compiled()
        store = AdaptiveStore()
        result = ParallelScheduler(
            net, SchedulerConfig(parallel=2), adaptive=store
        ).search()
        assert result.feasible
        wins = store.wins(net_family(net))
        assert sum(wins.values()) == 1
        assert _no_ezrt_children()


# ----------------------------------------------------------------------
# The mixed-engine portfolio race
# ----------------------------------------------------------------------
class TestMixedEngineRace:
    def test_stateclass_slot_wins_wide_interval_race(self):
        """The dense slot refutes the wide-interval model while the
        delay-enumerating discrete slot is still sweeping integer
        release times — and the verdict matches the serial search."""
        net = wide_interval_race_net().compile()
        serial = search(net, SchedulerConfig(delay_mode="full"))
        assert not serial.feasible and not serial.exhausted
        result = search(
            net,
            SchedulerConfig(
                delay_mode="full",
                parallel=2,
                portfolio=(
                    "kernel:earliest",
                    "stateclass:earliest",
                ),
            ),
        )
        assert result.feasible == serial.feasible
        assert not result.exhausted
        assert result.winner_engine == "stateclass"
        assert result.winner_policy == "earliest"
        assert "winning engine" in result.summary()
        assert _no_ezrt_children()

    def test_mixed_feasible_winner_is_reference_validated(self):
        """A feasible win from a mixed race replays through the
        checked reference engine whichever engine produced it."""
        from repro.workloads import wide_interval_job_net

        net = wide_interval_job_net(
            n_jobs=3, width=8, feasible=True
        ).compile()
        result = search(
            net,
            SchedulerConfig(
                parallel=2,
                portfolio=(
                    "stateclass:earliest",
                    "kernel:earliest",
                ),
            ),
        )
        assert result.feasible
        assert result.winner_engine in ("stateclass", "kernel")
        validate_with_reference(
            net, result.config, result.firing_schedule
        )
        if result.winner_engine == "stateclass":
            assert result.interval_schedule is not None
        assert _no_ezrt_children()

    @pytest.mark.parametrize("reset_policy", ("paper", "intermediate"))
    def test_mixed_race_verdict_parity_on_paper_models(
        self, reset_policy
    ):
        """Engine-aware slots keep the determinism contract on the
        punctual paper models too."""
        model = compose(paper_examples()["fig4"])
        serial = search(
            model.compiled(),
            SchedulerConfig(reset_policy=reset_policy),
        )
        mixed = search(
            model.compiled(),
            SchedulerConfig(
                reset_policy=reset_policy,
                parallel=2,
                portfolio=(
                    "kernel:earliest",
                    "stateclass:earliest",
                ),
            ),
        )
        assert mixed.feasible == serial.feasible
        assert mixed.winner_engine in (
            "kernel",
            "stateclass",
        )
        assert _no_ezrt_children()
