"""Tests for the Section 7.1 benchmark workloads: correctness of each
computation and the qualitative shape of its Table 1 message profile."""

import pytest

from repro.workloads import (
    listcompare,
    ot,
    run_ot_handcoded,
    run_tax_handcoded,
    tax,
    work,
)


@pytest.fixture(scope="module")
def ot_result():
    return ot.run(rounds=20)


@pytest.fixture(scope="module")
def list_result():
    return listcompare.run(elements=20)


@pytest.fixture(scope="module")
def tax_result():
    return tax.run(records=20)


@pytest.fixture(scope="module")
def work_result():
    return work.run(rounds=20, inner=5)


class TestOT:
    def test_computes_correct_total(self, ot_result):
        assert (
            ot_result.execution.field_value("OTBench", "received")
            == 4242 * 20
        )

    def test_forwards_scale_with_rounds(self, ot_result):
        # ~1 forward per round plus startup.
        assert 15 <= ot_result.counts["forward"] <= 30

    def test_rgoto_dominates(self, ot_result):
        counts = ot_result.counts
        assert counts["rgoto"] > counts["lgoto"]
        assert counts["rgoto"] >= 4 * 20 * 0.8

    def test_uses_three_hosts(self, ot_result):
        assert set(ot_result.split_result.split.hosts_used()) == {"A", "B", "T"}

    def test_alice_fields_on_a(self, ot_result):
        split = ot_result.split_result.split
        assert split.fields[("OTBench", "m1")].host == "A"
        assert split.fields[("OTBench", "m2")].host == "A"
        assert split.fields[("OTBench", "isAccessed")].host == "A"

    def test_without_preference_fields_move_to_t(self):
        result = ot.run(rounds=5, prefer_alice_a=False)
        split = result.split_result.split
        # Section 6: "Without the preference declaration, the optimizer
        # determines that fewer network communications are needed if
        # these fields are located at T instead."
        assert split.fields[("OTBench", "m1")].host == "T"

    def test_piggybacking_eliminates_per_round_traffic(self, ot_result):
        assert ot_result.counts["eliminated"] >= 2 * 20

    def test_no_audit_entries(self, ot_result):
        assert ot_result.execution.audits == []


class TestList:
    def test_lists_compare_equal(self, list_result):
        for result in (list_result, listcompare.run()):
            assert (
                result.execution.field_value("ListCompare", "listsEqual")
                is True
            )

    def test_detects_unequal_lists(self):
        source = listcompare.source(10).replace(
            "nb.val = b * 7 % 13;", "nb.val = b * 7 % 13 + 1;"
        )
        from repro.workloads.base import run_workload

        result = run_workload("List", source, listcompare.config())
        assert (
            result.execution.field_value("ListCompare", "listsEqual")
            is False
        )

    def test_node_fields_stay_on_owner_hosts(self, list_result):
        split = list_result.split_result.split
        assert split.fields[("ANode", "val")].host == "A"
        assert split.fields[("BNode", "val")].host == "B"

    def test_comparison_never_getfields_across(self, list_result):
        # Values move by forwards, not by remote reads from T (the paper
        # measured only 2 getFields for List).
        assert list_result.counts["getField"] <= 2

    def test_balanced_control_transfers(self, list_result):
        counts = list_result.counts
        assert counts["lgoto"] > 0
        assert counts["rgoto"] > 0

    def test_result_field_on_t(self, list_result):
        split = list_result.split_result.split
        assert split.fields[("ListCompare", "listsEqual")].host == "T"


class TestTax:
    def test_totals(self, tax_result):
        trades = [3 + i * 5 % 97 for i in range(20)]
        assert (
            tax_result.execution.field_value("TaxService", "totalGains")
            == sum(trades)
        )
        assert (
            tax_result.execution.field_value("TaxService", "finalBalance")
            == 100000 - sum((t + 3) % 7 for t in trades)
        )

    def test_zero_lgoto_pipeline(self, tax_result):
        # The paper's distinctive Tax profile: a pure rgoto pipeline.
        assert tax_result.counts["lgoto"] <= 1

    def test_institutional_data_stays_home(self, tax_result):
        split = tax_result.split_result.split
        assert split.fields[("TaxService", "tradeSeed")].host == "Broker"
        assert split.fields[("TaxService", "account")].host == "Bank"

    def test_broker_cannot_hold_bank_slice(self, tax_result):
        placement = tax_result.split_result.split.fields[
            ("TaxService", "account")
        ]
        assert "Broker" not in placement.readers

    def test_rgoto_scales_with_records(self, tax_result):
        assert tax_result.counts["rgoto"] >= 2 * 20


class TestWork:
    def test_compute_result(self, work_result):
        assert (
            work_result.execution.field_value("Work", "aliceResult")
            == work.expected_result(20, 5)
        )

    def test_exact_paper_profile_shape(self, work_result):
        counts = work_result.counts
        # One rgoto + one lgoto per round, nothing else (Table 1's Work).
        assert counts["rgoto"] == 20
        assert counts["lgoto"] == 20
        assert counts["forward"] == 0
        assert counts["getField"] == 0
        assert counts["total_messages"] == 40


class TestHandcoded:
    def test_ot_h_message_count_matches_paper(self):
        result = run_ot_handcoded(rounds=100)
        assert result.counts["rmi_calls"] == 400
        assert result.counts["total_messages"] == 800

    def test_tax_h_message_count_matches_paper(self):
        result = run_tax_handcoded(records=100)
        assert result.counts["total_messages"] == 802

    def test_ot_h_correct(self):
        result = run_ot_handcoded(rounds=10)
        assert result.value == 4242 * 10

    def test_ot_slowdown_in_paper_band(self):
        partitioned = ot.run(rounds=100)
        handcoded = run_ot_handcoded(rounds=100)
        slowdown = partitioned.elapsed / handcoded.elapsed
        # Paper: 1.17x; ours should land in the same band.
        assert 0.9 <= slowdown <= 1.5


class TestSourceMetrics:
    def test_line_counts_positive(self):
        from repro.workloads.base import count_lines

        for module in (listcompare, ot, tax, work):
            assert count_lines(module.source()) >= 15


class TestMedical:
    """The larger medical-information-system workload (the paper's
    introductory motivation, built at program scale)."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.workloads import medical

        return medical.run(patients=10)

    def test_all_outputs_correct(self, result):
        from repro.workloads import medical

        want = medical.expected(10)
        for field, value in want.items():
            assert (
                result.execution.field_value("MedicalSystem", field) == value
            ), field

    def test_four_hosts_participate(self, result):
        assert set(result.split_result.split.hosts_used()) == {
            "LabHost", "ClinicHost", "PartnerHost", "InsurerHost",
        }

    def test_lab_data_pinned_to_lab(self, result):
        split = result.split_result.split
        assert split.fields[("MedicalSystem", "labSeed")].host == "LabHost"

    def test_insurer_never_sees_scores(self, result):
        """The insurer's host only ever receives the declassified billing
        value, never anything Clinic-readable-only."""
        config = result.split_result.split.config
        insurer = config.host("InsurerHost")
        for label, host in result.execution.network.flow_log:
            if host == "InsurerHost":
                assert label.conf.flows_to(insurer.conf)

    def test_matches_oracle(self, result):
        from repro.runtime import run_single_host
        from repro.workloads import medical

        oracle = run_single_host(medical.source(10))
        for field in ("totalScore", "flaggedCases", "referralSummary",
                      "billingUnits", "casesProcessed"):
            assert (
                oracle.fields[("MedicalSystem", field, None)]
                == result.execution.field_value("MedicalSystem", field)
            )

    def test_partner_and_insurer_cannot_probe(self, result):
        from repro.runtime import Adversary, RuntimeImage, Session
        from repro.workloads import medical

        split = result.split_result.split
        executor = Session(RuntimeImage.for_split(split))
        executor.run()
        partner = Adversary(executor, "PartnerHost")
        assert partner.try_get_field("MedicalSystem", "totalScore").rejected
        assert partner.try_get_field("MedicalSystem", "billingUnits").rejected
        insurer = Adversary(executor, "InsurerHost")
        assert insurer.try_get_field("MedicalSystem", "labSeed").rejected
