"""The paper's evaluation claims (Section 7, Figure 4 and the I_e
ablation), asserted over the Table 1 / Figure 4 / experiment-runner
harnesses of ``repro.reporting``."""

import pytest

from repro.labels import IntegLabel
from repro.reporting import PAPER_TABLE1, experiments, fig4, table1
from repro.runtime import Adversary, CostModel, RuntimeImage, Session
from repro.splitter import TermBranch, TermCall, split_source, validate_split
from repro.splitter import ir as sir
from repro.workloads import (
    medical,
    ot,
    run_ot_handcoded,
    run_tax_handcoded,
    tax,
    work,
)

#: The paper's LAN (310 µs ping over SSL ≈ 320 µs one-way)...
LAN = CostModel(one_way_latency=320e-6)
#: ...and a cross-country WAN (~40 ms one-way).
WAN = CostModel(one_way_latency=40e-3)

WORKLOADS = ("List", "OT", "Tax", "Work")


@pytest.fixture(scope="module")
def experiment_data():
    return experiments.run_all()


@pytest.fixture(scope="module")
def measured(experiment_data):
    return experiment_data["table1"]["measured"]


class TestTable1:
    def test_all_columns_measured(self, measured):
        assert set(measured) == {"List", "OT", "Tax", "Work", "OT-h", "Tax-h"}

    def test_paper_reference_complete(self):
        for column in WORKLOADS:
            row = PAPER_TABLE1[column]
            for key in ("lines", "elapsed", "total_messages", "forward",
                        "getField", "lgoto", "rgoto", "eliminated"):
                assert key in row, (column, key)

    def test_work_exact_match(self, measured):
        ours = measured["Work"]
        paper = PAPER_TABLE1["Work"]
        for key in ("total_messages", "forward", "getField", "lgoto",
                    "rgoto"):
            assert ours[key] == paper[key], key

    def test_ot_forward_exact_match(self, measured):
        assert measured["OT"]["forward"] == PAPER_TABLE1["OT"]["forward"]

    def test_message_profile_shapes(self, measured):
        """Each column's distinctive message profile."""
        # List: forwards carry the data (no remote reads by the
        # comparing host), control transfers are balanced.
        counts = measured["List"]
        assert counts["getField"] <= PAPER_TABLE1["List"]["getField"]
        assert counts["forward"] >= 100
        assert counts["lgoto"] >= 100 and counts["rgoto"] >= 100
        # OT: rgoto ≈ 4 per round.
        counts = measured["OT"]
        assert abs(counts["rgoto"] - PAPER_TABLE1["OT"]["rgoto"]) <= 10
        assert counts["lgoto"] >= 100
        # Tax: an rgoto pipeline with no capability returns.
        counts = measured["Tax"]
        assert counts["lgoto"] <= 1
        assert counts["rgoto"] >= 200
        assert counts["sync"] == 0

    def test_tax_crossover(self, measured):
        """Section 7.3's WAN argument: the partitioned program needs
        fewer messages for control transfers than RMI."""
        assert (
            measured["Tax"]["total_messages"]
            < measured["Tax-h"]["total_messages"]
        )

    def test_render_includes_both_rows(self, measured):
        text = table1.render(measured)
        assert "(ours)" in text and "(paper)" in text
        assert "Slowdown" in text

    def test_simulated_times_same_order_as_paper(self, measured):
        for column in WORKLOADS:
            ours = measured[column]["elapsed"]
            paper = PAPER_TABLE1[column]["elapsed"]
            assert 0.1 * paper <= ours <= 2.0 * paper, column

    def test_annotation_ratios_recorded(self, measured):
        # Section 7.1: annotations are 11-25% of the paper's source
        # text; our mini-Jif is denser than Java, so allow up to 45%.
        for column in WORKLOADS:
            assert 0.05 <= measured[column]["annotation_ratio"] <= 0.45, (
                column
            )

    def test_compute_heavy_work_below_ot_and_tax(self, measured):
        """The burden is high *because* the programs do little real
        computation: compute-heavy Work sits below OT and Tax."""
        ratio = {name: measured[name]["annotation_ratio"]
                 for name in WORKLOADS}
        assert ratio["Work"] < ratio["OT"]
        assert ratio["Work"] < ratio["Tax"]


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return split_source(ot.source(rounds=1), ot.config())

    def test_render_contains_hosts_and_fields(self, result):
        text = fig4.render(result)
        for host in ("Host A", "Host B", "Host T"):
            assert host in text
        assert "OTBench.m1" in text
        for entry in result.split.fragments:
            assert entry in text

    def test_render_shows_integrity_labels(self, result):
        text = fig4.render(result)
        assert "I_e" in text
        assert "invokers" in text

    def test_edge_summary_keys(self, result):
        summary = fig4.edge_summary(result)
        assert set(summary) == {
            "rgoto", "lgoto", "sync", "local", "call", "return",
        }
        assert summary["rgoto"] >= 2
        assert summary["lgoto"] >= 1
        assert summary["sync"] >= 1
        assert summary["call"] == 1
        assert summary["return"] >= 3

    def test_bobs_input_on_b(self, result):
        assert result.split.fields[("OTBench", "request")].host == "B"

    def test_b_returns_via_capability(self, result):
        """B's code hands control back with lgoto of a one-shot
        capability: Figure 4's t1."""
        kinds = {
            action.kind
            for fragment in result.split.fragments_on("B")
            for action in getattr(fragment.terminator, "plan", None) or ()
        }
        assert "lgoto" in kinds, "no B fragment returns control via lgoto"

    def test_b_cannot_invoke_any_privileged_entry(self, result):
        """The Figure 4 denial: B may not rgoto any entry on T or A."""
        split = result.split
        for entry, fragment in split.fragments.items():
            if fragment.host in ("A", "T") and fragment.remote_entry:
                assert "B" not in split.entry_invokers(entry), entry

    def test_transfer_entry_requires_alice_integrity(self, result):
        split = result.split
        entry = split.methods[("OTBench", "transfer")].entry
        assert split.entry_invokers(entry) <= {"A", "T"}

    def test_endorse_test_runs_on_t(self, result):
        """Only T may see Bob's n under Alice's pc, so the endorse test
        lands there, as in Figure 4's e3 block."""
        for fragment in result.split.fragments.values():
            terminator = fragment.terminator
            if isinstance(terminator, TermBranch) and any(
                isinstance(node, sir.DowngradeExpr)
                for node in sir.walk_expr(terminator.cond)
            ):
                assert fragment.host == "T"

    def test_calls_sync_their_continuations(self, result):
        """Every call entry is paired with a continuation on the caller's
        own host (the sync/lgoto pairing of Section 5.5)."""
        split = result.split
        for fragment in split.fragments.values():
            if isinstance(fragment.terminator, TermCall):
                cont = split.fragments[fragment.terminator.cont_entry]
                assert cont.host == fragment.host


class TestExperimentRunner:
    def test_run_all_sections(self, experiment_data):
        assert set(experiment_data) == {
            "table1", "overheads", "optimizations",
            "read_channel_scenarios", "attacks",
        }

    def test_scenarios_match_paper(self, experiment_data):
        data = experiment_data["read_channel_scenarios"]
        assert data["outcomes"] == data["paper"]

    def test_all_attacks_rejected(self, experiment_data):
        data = experiment_data["attacks"]
        assert data["all_rejected"]
        assert data["attempts"] >= 8

    def test_forward_reduction_above_half(self, experiment_data):
        """Section 7.4: piggybacking and combining eliminate more than
        50% of forward messages, where there are any."""
        data = experiment_data["optimizations"]
        for name in WORKLOADS:
            reduction = data[name]["forward_reduction"]
            if reduction is None:
                assert data[name][1]["forwards"] == 0, name
            else:
                assert reduction > 0.5, name

    def test_optimization_levels_never_send_more(self, experiment_data):
        data = experiment_data["optimizations"]
        for name in WORKLOADS:
            messages = [data[name][level]["total_messages"]
                        for level in (0, 1, 2)]
            assert messages[0] >= messages[1] >= messages[2], name

    def test_level2_async_forwards_cut_round_trips(self, experiment_data):
        """The paper's proposed optimization: dropping forward
        acknowledgments saves one message per non-piggybacked forward."""
        levels = experiment_data["optimizations"]["List"]
        saved = levels[1]["total_messages"] - levels[2]["total_messages"]
        assert saved >= levels[1]["forwards"] * 0.9


class TestOverheads:
    """Section 7.3: request checks cost "less than 6% of execution
    time", token hashing "approximately 15%", and "both of these
    numbers scale with the number of messages"."""

    def test_check_overhead_below_paper_bound(self, experiment_data):
        for name in WORKLOADS:
            fraction = experiment_data["overheads"][name]["check_fraction"]
            assert fraction < 0.06, f"{name}: checking cost {fraction:.1%}"

    def test_hash_overhead_in_paper_band(self, experiment_data):
        # Tax hashes nothing (its tokens never cross the network), so
        # bound only from above.
        for name in WORKLOADS:
            fraction = experiment_data["overheads"][name]["hash_fraction"]
            assert fraction <= 0.20, f"{name}: hashing cost {fraction:.1%}"

    def test_overheads_scale_with_messages(self):
        """Doubling the rounds roughly doubles check time."""
        small = ot.run(rounds=50).execution.network.check_time
        large = ot.run(rounds=100).execution.network.check_time
        assert 1.6 <= large / small <= 2.4

    def test_local_tokens_are_not_hashed(self):
        """Section 7.4: "Hashes are not computed for tokens used
        locally": Tax's capabilities never leave their hosts."""
        network = tax.run().execution.network
        assert network.hash_time <= 2 * network.cost.hash_cost


class TestScaling:
    def test_ot_messages_scale_linearly(self):
        small = ot.run(rounds=25).counts["total_messages"]
        large = ot.run(rounds=100).counts["total_messages"]
        assert 3.4 <= large / small <= 4.6

    def test_work_messages_exactly_linear(self):
        messages = [
            work.run(rounds=n, inner=2).counts["total_messages"]
            for n in (50, 100, 200)
        ]
        assert messages == [100, 200, 400]

    def test_elapsed_tracks_messages(self):
        small = tax.run(records=50).elapsed
        large = tax.run(records=100).elapsed
        assert 1.5 <= large / small <= 2.5

    def test_medical_messages_scale_with_patients(self):
        small = medical.run(patients=10).counts["total_messages"]
        large = medical.run(patients=20).counts["total_messages"]
        assert 1.5 <= large / small <= 2.5


class TestWanArgument:
    """Section 7.3: "In a WAN environment, the partitioned programs are
    likely to execute more quickly than the hand-coded program"."""

    def test_tax_wins_on_wan(self):
        assert (
            tax.run(cost_model=WAN).elapsed
            < run_tax_handcoded(cost_model=WAN).elapsed
        )

    def test_ot_slowdown_converges_to_message_ratio_on_wan(self):
        """On a WAN, hashing and checking vanish into the latency."""
        partitioned = ot.run(cost_model=WAN)
        handcoded = run_ot_handcoded(cost_model=WAN)
        slowdown = partitioned.elapsed / handcoded.elapsed
        message_ratio = (
            partitioned.counts["total_messages"]
            / handcoded.counts["total_messages"]
        )
        assert abs(slowdown - message_ratio) < 0.05

    def test_overhead_fractions_shrink_on_wan(self):
        lan = work.run(cost_model=LAN).execution.network
        wan = work.run(cost_model=WAN).execution.network
        assert wan.hash_time / wan.clock < lan.hash_time / lan.clock


def untrusted_entry_integrity(split):
    """Set every fragment's I_e to untrusted: the paper's literal text
    takes I_e from the entry's writes and I_P only, and OT's fragments
    write only untrusted variables."""
    for fragment in split.fragments.values():
        fragment.integ = IntegLabel.untrusted()
    return split


def rgoto_call_entry_as_b(split):
    """Run the OT split honestly, then have B rgoto the call entry of
    the transfer: a second oblivious transfer."""
    executor = Session(RuntimeImage.for_split(split))
    executor.run()
    call_entry = next(
        entry for entry, fragment in split.fragments.items()
        if isinstance(fragment.terminator, TermCall)
    )
    return Adversary(executor, "B").try_rgoto(call_entry)


class TestEntryIntegrityAblation:
    """DESIGN.md §4: our I_e = I(pc) ⊓ (⊓ writes) ⊓ I_P adds the pc
    component the paper's text omits but its Figure 4 narrative needs
    ("If instead B maliciously attempts to invoke any entry point on
    either T or A via rgoto, the access control checks deny the
    operation")."""

    @staticmethod
    def split():
        return split_source(ot.source(rounds=1), ot.config()).split

    def test_strengthened_ie_blocks_reentry(self):
        assert rgoto_call_entry_as_b(self.split()).rejected

    def test_paper_literal_ie_admits_reentry(self):
        """The static transfer insertion would refuse such a partition;
        the ablation bypasses it to show what the label stops."""
        split = untrusted_entry_integrity(self.split())
        assert not rgoto_call_entry_as_b(split).rejected, (
            "without the I(pc) component the re-entry attack goes through"
        )

    def test_validator_accepts_weakened_labels(self):
        """The validator re-derives the transfer constraints from the
        weakened labels, so the protection is the stronger label, not
        the validator."""
        validate_split(untrusted_entry_integrity(self.split()))
