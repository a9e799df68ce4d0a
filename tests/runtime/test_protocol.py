"""Direct tests of the Figure 6 request handlers on a live host: each
row of the table — rgoto, lgoto, sync — with its exact check."""

import pytest

from repro.runtime import RuntimeImage, Session, FrameID
from repro.runtime.host import _REJECTED
from repro.runtime.network import Message, SecurityAbort
from repro.splitter import split_source

from tests.programs import OT_SOURCE, config_abt


@pytest.fixture
def setup():
    result = split_source(OT_SOURCE, config_abt())
    executor = Session(RuntimeImage.for_split(result.split))
    return result.split, executor


def payload(split, **kwargs):
    data = {"digest": split.digest}
    data.update(kwargs)
    return data


class TestSyncRow:
    """sync(h, f, e, t): if I_i ⊑ I_e, mint nt, push (nt, t), send nt."""

    def test_authorized_sync_returns_fresh_token(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        frame = FrameID(("OTExample", "main"))
        token = host_a.handle(
            Message("sync", "T", "A",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        assert token is not _REJECTED
        assert token.entry == entry
        assert host_a.stack.depth == 1
        assert host_a.stack.top()[0] == token

    def test_unauthorized_sync_ignored(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        frame = FrameID(("OTExample", "main"))
        result = host_a.handle(
            Message("sync", "B", "A",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        assert result is _REJECTED
        assert host_a.stack.depth == 0

    def test_sync_unknown_entry_ignored(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        result = host_a.handle(
            Message("sync", "T", "A",
                    payload(split, entry="no.such.entry@A",
                            frame=FrameID(("OTExample", "main")),
                            token=None))
        )
        assert result is _REJECTED


class TestLgotoRow:
    """lgoto(t): if top(s_h) == (t, t'), pop and run e(f, t'); else ignore."""

    def test_valid_capability_pops(self, setup):
        split, executor = setup
        host_t = executor.hosts["T"]
        # Mint a capability for T's return-like entry via a legal sync.
        entry = next(
            f.entry for f in split.fragments_on("T")
            if "A" in split.entry_invokers(f.entry) or True
        )
        frame = FrameID(("OTExample", "main"))
        token = host_t.handle(
            Message("sync", "T", "T",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        assert host_t.stack.depth == 1
        # Using it pops the stack (the fragment then runs; we only check
        # the stack effect by inspecting depth afterwards).
        try:
            host_t.handle(
                Message("lgoto", "A", "T", payload(split, token=token))
            )
        except Exception:
            pass  # the fragment may run off into the program; irrelevant
        assert host_t.stack.depth == 0

    def test_non_top_capability_ignored(self, setup):
        split, executor = setup
        host_t = executor.hosts["T"]
        entries = [f.entry for f in split.fragments_on("T")][:2]
        frame = FrameID(("OTExample", "main"))
        token1 = host_t.handle(
            Message("sync", "T", "T",
                    payload(split, entry=entries[0], frame=frame,
                            token=None))
        )
        host_t.handle(
            Message("sync", "T", "T",
                    payload(split, entry=entries[1], frame=frame,
                            token=token1))
        )
        # token1 is buried; presenting it must be ignored.
        result = host_t.handle(
            Message("lgoto", "A", "T", payload(split, token=token1))
        )
        assert result is _REJECTED
        assert host_t.stack.depth == 2

    def test_foreign_token_ignored(self, setup):
        split, executor = setup
        host_t = executor.hosts["T"]
        host_a = executor.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        frame = FrameID(("OTExample", "main"))
        token = host_a.handle(
            Message("sync", "T", "A",
                    payload(split, entry=entry, frame=frame, token=None))
        )
        result = host_t.handle(
            Message("lgoto", "A", "T", payload(split, token=token))
        )
        assert result is _REJECTED


class TestRgotoRow:
    """rgoto(h, f, e, t): if I_i ⊑ I_e, run e(f, t); else ignore."""

    def test_unauthorized_rgoto_ignored(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        result = host_a.handle(
            Message("rgoto", "B", "A",
                    payload(split, entry=entry,
                            frame=FrameID(("OTExample", "main")),
                            token=None, vars={}))
        )
        assert result is _REJECTED

    def test_rgoto_unknown_entry_ignored(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        result = host_a.handle(
            Message("rgoto", "T", "A",
                    payload(split, entry="bogus@A",
                            frame=FrameID(("OTExample", "main")),
                            token=None, vars={}))
        )
        assert result is _REJECTED


class TestDigestHandshake:
    def test_any_request_with_wrong_digest_ignored(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        for kind in ("getField", "setField", "sync", "rgoto", "lgoto",
                     "forward"):
            result = host_a.handle(
                Message(kind, "T", "A", {"digest": b"wrong"})
            )
            assert result is _REJECTED, kind

    def test_local_messages_skip_digest_check(self, setup):
        split, executor = setup
        host_a = executor.hosts["A"]
        entry = next(f.entry for f in split.fragments_on("A"))
        # A host trusts its own memory: src == dst bypasses the check.
        token = host_a.handle(
            Message("sync", "A", "A",
                    {"entry": entry,
                     "frame": FrameID(("OTExample", "main")),
                     "token": None})
        )
        assert token is not _REJECTED


class TestFrameIsolation:
    def test_forward_applies_to_named_frame_only(self, setup):
        split, executor = setup
        host_t = executor.hosts["T"]
        frame1 = FrameID(("OTExample", "main"))
        frame2 = FrameID(("OTExample", "main"))
        host_t.handle(
            Message("forward", "A", "T",
                    payload(split, vars={frame1: {"choice": 42}}))
        )
        assert host_t.var(frame1, "choice") == 42
        assert host_t.var(frame2, "choice") == 0  # default, untouched

    def test_default_values_by_base_type(self, setup):
        split, executor = setup
        host_t = executor.hosts["T"]
        frame = FrameID(("OTExample", "transfer"))
        assert host_t.var(frame, "tmp1") == 0
        main_frame = FrameID(("OTExample", "main"))
        assert host_t.var(main_frame, "choice") == 0


class TestUnknownSender:
    """A request from a host the configuration does not name is audited
    and rejected like any refused request (and quarantines its sender
    when quarantine is on); it never reaches a lattice check that would
    crash on the unknown name."""

    def requests(self, split, host):
        label = split.methods[("OTExample", "main")].var_labels["choice"]
        ref = host.alloc_array(3, label)
        frame = FrameID(("OTExample", "main"))
        return {
            "forward": ("forward", payload(split, vars={frame: {"choice": 7}})),
            "array read": ("getField", payload(split, array=ref, idx=0)),
            "array write": (
                "setField", payload(split, array=ref, idx=0, value=9)
            ),
            "recover": (
                "recover",
                payload(split, host="Z", epoch=1, seq=0, seal=b"x" * 32),
            ),
        }

    @pytest.mark.parametrize(
        "request_name", ["forward", "array read", "array write", "recover"]
    )
    def test_rejected_and_audited(self, setup, request_name):
        split, executor = setup
        host_t = executor.hosts["T"]
        kind, data = self.requests(split, host_t)[request_name]
        result = host_t.handle(Message(kind, "Z", "T", data))
        assert result is _REJECTED
        (audit,) = executor.network.audit_log
        assert "unknown host Z" in audit
        assert all("choice" not in frame for frame in host_t.frames.values())
        assert all(store == [0, 0, 0] for store in host_t.array_store.values())

    @pytest.mark.parametrize(
        "request_name", ["forward", "array read", "array write", "recover"]
    )
    def test_quarantines_the_sender(self, setup, request_name):
        split, executor = setup
        executor.network.quarantine_enabled = True
        host_t = executor.hosts["T"]
        kind, data = self.requests(split, host_t)[request_name]
        with pytest.raises(SecurityAbort) as info:
            host_t.handle(Message(kind, "Z", "T", data))
        assert info.value.offender == "Z"
        assert executor.network.quarantined == {"Z"}


class TestMalformedRequests:
    """A request with a valid digest whose payload lacks a field its
    kind needs, or holds the wrong type there, is audited and rejected
    (and quarantines its sender when quarantine is on); it never
    crashes the receiving host."""

    FRAME = FrameID(("OTExample", "main"))
    #: request -> (kind, payload, how the audit A records starts).
    REQUESTS = {
        "lgoto without token": (
            "lgoto", {"vars": {}}, "malformed lgoto from B: token"
        ),
        "lgoto with token=5": (
            "lgoto", {"token": 5, "vars": {}}, "malformed lgoto from B: token"
        ),
        "rgoto without entry": (
            "rgoto", {"frame": FRAME, "token": None, "vars": {}},
            "malformed rgoto from B: entry",
        ),
        "rgoto with entry=[x]": (
            "rgoto", {"entry": ["x"], "frame": FRAME, "vars": {}},
            "rgoto to unknown entry ['x']",
        ),
        "sync without entry": (
            "sync", {"frame": FRAME, "token": None},
            "malformed sync from B: entry",
        ),
        "sync with entry=[x]": (
            "sync", {"entry": ["x"], "frame": FRAME},
            "sync for unknown entry ['x']",
        ),
        "getField without cls": (
            "getField", {"field": "x", "oid": None},
            "malformed getField from B: cls",
        ),
        "getField with cls=[x]": (
            "getField", {"cls": ["x"], "field": "x"},
            "malformed getField from B: cls/field",
        ),
        "setField without field": (
            "setField", {"cls": "OTExample", "oid": None, "value": 1},
            "malformed setField from B: field",
        ),
        "forward without vars": (
            "forward", {}, "malformed forward from B: vars"
        ),
        "forward with vars=5": (
            "forward", {"vars": 5}, "malformed forward from B: vars"
        ),
        "forward with a frame's vars=5": (
            "forward", {"vars": {FRAME: 5}}, "malformed vars from B: FrameID("
        ),
        "forward keyed by 5": (
            "forward", {"vars": {5: {"choice": 1}}},
            "malformed vars from B: 5",
        ),
        "recover with epoch=True": (
            "recover", {"host": "B", "epoch": True, "seq": 0, "seal": b"x" * 32},
            "malformed recovery announcement from B",
        ),
    }

    @pytest.mark.parametrize("request_name", list(REQUESTS))
    def test_rejected_and_audited(self, setup, request_name):
        split, executor = setup
        host_a = executor.hosts["A"]
        kind, data, expected = self.REQUESTS[request_name]
        depth = len(host_a.stack._stack)
        result = host_a.handle(Message(kind, "B", "A", payload(split, **data)))
        assert result is _REJECTED
        (audit,) = executor.network.audit_log
        assert audit.startswith(f"A: {expected}")
        assert len(host_a.stack._stack) == depth
        assert host_a.frames == {}

    @pytest.mark.parametrize("request_name", list(REQUESTS))
    def test_quarantines_the_sender(self, setup, request_name):
        split, executor = setup
        executor.network.quarantine_enabled = True
        kind, data, _ = self.REQUESTS[request_name]
        with pytest.raises(SecurityAbort) as info:
            executor.hosts["A"].handle(
                Message(kind, "B", "A", payload(split, **data))
            )
        assert info.value.offender == "B"
        assert executor.network.quarantined == {"B"}

    def test_mistyped_oid_from_a_reader(self, setup):
        """T may read A's field ``m1``; an unhashable object id from it
        is refused before the field store is probed with it."""
        split, executor = setup
        message = Message(
            "getField", "T", "A",
            payload(split, cls="OTExample", field="m1", oid=[1]),
        )
        assert executor.hosts["A"].handle(message) is _REJECTED
        assert executor.network.audit_log == [
            "A: malformed getField from T: oid"
        ]
