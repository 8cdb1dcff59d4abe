"""Tests for relation modelling (Figs. 3–4) and the spec→TPN composer."""

import pytest

from repro.blocks import (
    BlockStyle,
    ComposerOptions,
    compose,
    exclusion_place_name,
    precedence_place_name,
    task_ranks,
)
from repro.errors import NetConstructionError
from repro.spec import SpecBuilder, fig3_precedence, fig4_exclusion, mine_pump


class TestPrecedenceModel:
    def test_precedence_place_created(self, fig3_model):
        assert fig3_model.net.has_place("pprec_T1_T2")

    def test_finisher_feeds_precedence_place(self, fig3_model):
        net = fig3_model.net
        finisher = fig3_model.nodes["T1"].finisher
        assert net.output_weight(finisher, "pprec_T1_T2") == 1

    def test_gate_consumes_precedence_token(self, fig3_model):
        net = fig3_model.net
        assert net.has_transition("tl_T2")
        assert net.input_weight("pprec_T1_T2", "tl_T2") == 1

    def test_release_rerouted_through_gate(self, fig3_model):
        net = fig3_model.net
        # T2's release now feeds the lock place, not the grant pool
        assert net.output_weight("tr_T2", "pwl_T2") == 1
        assert net.output_weight("tr_T2", "pwg_T2") == 0
        assert net.output_weight("tl_T2", "pwg_T2") == 1

    def test_predecessor_keeps_plain_wiring(self, fig3_model):
        net = fig3_model.net
        assert not net.has_transition("tl_T1")
        assert net.output_weight("tr_T1", "pwg_T1") == 1

    def test_figure3_intervals(self, fig3_model):
        from repro.tpn import TimeInterval

        net = fig3_model.net
        assert net.transition("tr_T1").interval == TimeInterval(0, 85)
        assert net.transition("tc_T1").interval == TimeInterval(15, 15)
        assert net.transition("td_T1").interval == TimeInterval(
            100, 100
        )
        assert net.transition("tr_T2").interval == TimeInterval(0, 130)
        assert net.transition("tc_T2").interval == TimeInterval(20, 20)
        assert net.transition("td_T2").interval == TimeInterval(
            150, 150
        )
        assert net.transition("ta_T1").interval == TimeInterval(
            250, 250
        )

    def test_figure3_arrival_weight(self, fig3_model):
        """PS=500 with periods 250 gives N=2: the figure's weight 2
        corresponds to N−1=1 budget token... the figure draws a_i=2
        labels at the arrival arc of the 2-instance illustration."""
        net = fig3_model.net
        # two instances per task in PS=500
        assert fig3_model.instances["T1"] == 2
        assert net.output_weight("tph_T1", "pwa_T1") == 1


class TestExclusionModel:
    def test_shared_single_token_place(self, fig4_model):
        net = fig4_model.net
        place = net.place("pexcl_T0_T2")
        assert place.marking == 1
        assert place.role == "exclusion"

    def test_both_gates_consume(self, fig4_model):
        net = fig4_model.net
        assert net.input_weight("pexcl_T0_T2", "tl_T0") == 1
        assert net.input_weight("pexcl_T0_T2", "tl_T2") == 1

    def test_finishers_return_token(self, fig4_model):
        net = fig4_model.net
        for task in ("T0", "T2"):
            finisher = fig4_model.nodes[task].finisher
            assert net.output_weight(finisher, "pexcl_T0_T2") == 1

    def test_figure4_weight_c_arcs(self, fig4_model):
        net = fig4_model.net
        # preemptive: gate re-emits c unit tokens (figure's 10/20)
        assert net.output_weight("tl_T0", "pwg_T0") == 10
        assert net.output_weight("tl_T2", "pwg_T2") == 20
        assert net.input_weight("pwf_T0", "tf_T0") == 10
        assert net.input_weight("pwf_T2", "tf_T2") == 20

    def test_figure4_unit_computations(self, fig4_model):
        from repro.tpn import TimeInterval

        net = fig4_model.net
        assert net.transition("tc_T0").interval == TimeInterval(1, 1)
        assert net.transition("tc_T2").interval == TimeInterval(1, 1)

    def test_atomic_multi_lock(self):
        """A task excluding two others acquires all tokens in one gate
        firing (no lock-order deadlock possible)."""
        spec = (
            SpecBuilder("multi")
            .task("A", computation=1, deadline=10, period=10)
            .task("B", computation=1, deadline=10, period=10)
            .task("C", computation=1, deadline=10, period=10)
            .exclusion("A", "B")
            .exclusion("A", "C")
            .build()
        )
        model = compose(spec)
        net = model.net
        gate = "tl_A"
        assert net.input_weight(exclusion_place_name("A", "B"), gate)
        assert net.input_weight(exclusion_place_name("A", "C"), gate)
        preset = net.preset(gate)
        assert len(preset) == 3  # pwl + both exclusion places

    def test_names_are_canonical(self):
        assert exclusion_place_name("B", "A") == exclusion_place_name(
            "A", "B"
        )
        assert precedence_place_name("A", "B") != (
            precedence_place_name("B", "A")
        )


class TestMessages:
    def _spec(self):
        return (
            SpecBuilder("msg")
            .task("S", computation=1, deadline=10, period=10)
            .task("R", computation=2, deadline=10, period=10)
            .message("m", sender="S", receiver="R", communication=2,
                     bus="can0", grant_bus=1)
            .build()
        )

    def test_transfer_block_structure(self):
        model = compose(self._spec())
        net = model.net
        nodes = model.message_nodes["m"]
        assert net.place("pbus_can0").marking == 1
        assert net.input_weight("pbus_can0", nodes["grant"]) == 1
        assert net.output_weight(nodes["transfer"], "pbus_can0") == 1
        from repro.tpn import TimeInterval

        assert net.transition(nodes["grant"]).interval == TimeInterval(
            1, 1
        )
        assert net.transition(
            nodes["transfer"]
        ).interval == TimeInterval(2, 2)

    def test_receiver_gated_by_delivery(self):
        model = compose(self._spec())
        net = model.net
        delivered = model.message_nodes["m"]["delivered"]
        assert net.input_weight(delivered, "tl_R") == 1

    def test_receiverless_message_drains_at_join(self):
        spec = (
            SpecBuilder("sink")
            .task("S", computation=1, deadline=10, period=10)
            .build()
        )
        from repro.spec import Message

        spec.add_message(Message("m", sender="S", communication=1))
        spec.task("S").precedes_msgs.append("m")
        model = compose(spec)
        delivered = model.message_nodes["m"]["delivered"]
        assert model.net.input_weight(delivered, "tend") == 1


class TestComposer:
    def test_mine_pump_sizes(self, mine_pump_model):
        assert mine_pump_model.total_instances == 782
        assert mine_pump_model.schedule_period == 30000
        assert mine_pump_model.minimum_firings() == 3130

    def test_expanded_minimum_larger(self, expanded_options):
        model = compose(mine_pump(), expanded_options)
        assert model.minimum_firings() == 4694  # 6·782 + 2

    def test_final_marking_complete(self, mine_pump_model):
        net = mine_pump_model.net
        final = net.final_marking
        assert final["pend"] == 1
        assert final["pproc_proc0"] == 1
        # every place is pinned (exact final marking)
        assert len(final) == len(net.places)

    def test_exclusion_place_in_final_marking(self, fig4_model):
        assert fig4_model.net.final_marking["pexcl_T0_T2"] == 1

    def test_priorities_follow_dm_ranks(self, mine_pump_model):
        net = mine_pump_model.net
        # PMC has the tightest deadline: best (lowest) grant priority
        grants = {
            t.task: t.priority
            for t in net.transitions
            if t.role == "grant"
        }
        assert grants["PMC"] == min(grants.values())
        assert grants["RLWH"] == max(grants.values())

    def test_task_ranks_policies(self):
        spec = mine_pump()
        dm = task_ranks(spec, "dm")
        assert dm["PMC"] == 0
        rm = task_ranks(spec, "rm")
        assert rm["PMC"] == 0  # also the shortest period
        lex = task_ranks(spec, "lex")
        assert lex["PMC"] == 0 and lex["SDL"] == 9
        none = task_ranks(spec, "none")
        assert set(none.values()) == {0}

    def test_unknown_policy_rejected(self):
        with pytest.raises(NetConstructionError):
            ComposerOptions(priority_policy="chaotic")

    def test_style_accepts_string(self):
        options = ComposerOptions(style="expanded")
        assert options.style is BlockStyle.EXPANDED

    def test_multiprocessor_composition(self):
        spec = (
            SpecBuilder("mp")
            .processor("cpu0")
            .processor("cpu1")
            .task("A", computation=4, deadline=10, period=10,
                  processor="cpu0")
            .task("B", computation=4, deadline=10, period=10,
                  processor="cpu1")
            .build()
        )
        model = compose(spec)
        net = model.net
        assert net.has_place("pproc_cpu0")
        assert net.has_place("pproc_cpu1")
        assert net.input_weight("pproc_cpu0", "tg_A") == 1
        assert net.input_weight("pproc_cpu1", "tg_B") == 1

    def test_invalid_spec_rejected(self):
        spec = (
            SpecBuilder("bad")
            .task("A", computation=9, deadline=5, period=10)
            .build(validate=False)
        )
        with pytest.raises(Exception):
            compose(spec)

    def test_fig3_fig4_have_extra_task_for_ps500(self):
        assert compose(fig3_precedence()).schedule_period == 500
        assert compose(fig4_exclusion()).schedule_period == 500
