"""Tests for the simulated network: accounting, cost model, queueing."""

import pytest

from repro.runtime import CostModel, Message, SecurityAbort, SimNetwork
from repro.runtime.trace import record_messages


def echo_host(network, name):
    def handler(message):
        return ("echo", message.payload.get("x"))

    network.register(name, handler)
    return handler


class TestAccounting:
    def test_request_counts_two_messages(self):
        network = SimNetwork()
        echo_host(network, "A")
        echo_host(network, "B")
        network.request(Message("getField", "A", "B", {"x": 1}))
        assert network.counts["getField"] == 1
        assert network.counts["messages"] == 2

    def test_local_request_is_free(self):
        network = SimNetwork()
        echo_host(network, "A")
        network.request(Message("getField", "A", "A", {"x": 1}))
        assert network.counts["messages"] == 0
        assert network.clock == 0.0

    def test_one_way_counts_single_message(self):
        network = SimNetwork()
        echo_host(network, "A")
        echo_host(network, "B")
        network.one_way(Message("forward", "A", "B", {}))
        assert network.counts["messages"] == 1

    def test_control_messages_queue(self):
        network = SimNetwork()
        echo_host(network, "A")
        echo_host(network, "B")
        network.post(Message("rgoto", "A", "B", {}))
        assert network.pending_control == 1
        message = network.pop_control()
        assert message.kind == "rgoto"
        assert network.pop_control() is None

    def test_clock_advances_with_latency(self):
        model = CostModel(one_way_latency=1e-3)
        network = SimNetwork(model)
        echo_host(network, "A")
        echo_host(network, "B")
        network.request(Message("getField", "A", "B", {"x": 1}))
        assert network.clock == pytest.approx(2e-3)

    def test_charges_accumulate(self):
        network = SimNetwork()
        network.charge_check()
        network.charge_hash()
        network.charge_ops(10)
        assert network.check_time == pytest.approx(network.cost.check_cost)
        assert network.hash_time == pytest.approx(network.cost.hash_cost)
        assert network.clock > 0

    def test_unknown_host_raises(self):
        network = SimNetwork()
        with pytest.raises(KeyError):
            network.request(Message("getField", "A", "Z", {}))

    def test_eliminated_counter(self):
        network = SimNetwork()
        network.note_eliminated(3)
        network.note_eliminated(2)
        assert network.eliminated_roundtrips == 5

    def test_table_counts_shape(self):
        network = SimNetwork()
        table = network.table_counts()
        for key in ("forward", "getField", "lgoto", "rgoto",
                    "total_messages", "eliminated"):
            assert key in table

    def test_audit_and_flow_logs(self):
        from repro.labels import Label

        network = SimNetwork()
        network.audit("A", "something fishy")
        network.flow(Label.of("{Alice:}"), "T")
        assert network.audit_log == ["A: something fishy"]
        assert len(network.flow_log) == 1

    def test_recorder_records_transfers(self):
        network = SimNetwork()
        echo_host(network, "A")
        echo_host(network, "B")
        messages = record_messages(network)
        network.request(Message("getField", "A", "B", {"x": 1}))
        network.post(Message("rgoto", "A", "B", {}))
        kinds = [m.kind for m in messages]
        assert kinds == ["getField", "rgoto"]

    def test_network_keeps_no_message_log(self):
        """Messages reach only subscribers: with none attached there is
        no log to read, so no check can pass on an empty one."""
        network = SimNetwork()
        echo_host(network, "A")
        echo_host(network, "B")
        network.request(Message("getField", "A", "B", {"x": 1}))
        assert not hasattr(network, "message_log")

    def test_event_hook_carries_messages_and_faults_in_order(self):
        network = SimNetwork()
        echo_host(network, "A")
        echo_host(network, "B")
        events = []
        network.on_event(lambda *event: events.append(event))
        message = Message("getField", "A", "B", {"x": 1})
        network.request(message)
        network.quarantine_enabled = True
        with pytest.raises(SecurityAbort):
            network.quarantine("B", "A", "probe")
        assert events == [
            ("getField", "A", "B", message),
            ("quarantine", "B", "A", "probe"),
        ]
        network.reset()
        network.request(Message("getField", "A", "B", {"x": 1}))
        assert len(events) == 2, "a reset drops every subscriber"
