"""A host participating in a partitioned computation (Section 5).

Each :class:`TrustedHost` holds the fields and code fragments the
splitter assigned to it, a local slice of the integrity control stack,
and its frame copies.  Every incoming request is validated exactly as
Figure 6 prescribes — invalid requests are ignored and logged, never
answered — so a bad host gains nothing by fabricating messages.

When the network runs its reliable-delivery protocol (fault injection
enabled), every remote message carries an idempotency key; the host
remembers the result of each processed key and answers retransmissions
and duplicates from that table without re-executing their effects.  A
re-delivered ``sync`` therefore returns the originally minted token (one
ICS push, not two), and a re-delivered ``lgoto``/``rgoto`` does not run
its fragment chain again.  Replays carrying a *fresh* key still fall
through to the Figure 6 checks, where the one-shot capability discipline
rejects them.

Under fault injection the host additionally keeps a
:class:`~repro.runtime.checkpoint.DurableStore`: every state mutation —
field and array writes, frame variables, ICS pushes/pops, the
idempotency table, deferred forwards — is written ahead to its WAL, and
a sealed checkpoint compacts the log every few processed messages.  In
the ``volatile`` crash mode a crash wipes all in-memory state
(:meth:`TrustedHost.crash_wipe`); the restart rebuilds it bit-identically
from checkpoint + WAL replay (:meth:`TrustedHost.recover`) and
broadcasts a sealed ``recover`` announcement so peers re-forward
pending data.  When the network's quarantine layer is enabled, any
rejected remote request escalates to
:class:`~repro.runtime.network.SecurityAbort` instead of being silently
ignored, blacklisting the offender.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..labels import Label
from ..splitter.fragments import Fragment, SplitProgram
from ..trust import KeyRegistry
from .compiler import BodyFn, compile_component, component
from .ics import LocalStack
from .network import Message, SecurityAbort, Transport
from .tokens import Token, TokenFactory
from .values import REJECTED, ArrayRef, FrameID

# The durable store (and the storage codec under it) loads on a host's
# first durable or recovery step: a fault-free run without a storage
# tier never imports it.
if TYPE_CHECKING:
    from .checkpoint import DurableStore

#: Re-export of :data:`repro.runtime.values.REJECTED` under its
#: historical name (tests and the attack harness import it from here).
_REJECTED = REJECTED
_UNSEEN = object()
#: :attr:`TrustedHost._dispatch_table`'s entry for the control
#: transfers, which :meth:`TrustedHost.handle` admits itself.
_TRANSFER = object()


class HaltSignal(Exception):
    """Raised internally when the root capability is consumed."""


class TrustedHost:
    """A well-behaved host executing its part of the split program."""

    def __init__(
        self,
        name: str,
        split: SplitProgram,
        network: Transport,
        registry: KeyRegistry,
        opt_level: int = 1,
        token_rng=None,
        *,
        image,
    ) -> None:
        self.name = name
        self.split = split
        self.network = network
        self.opt_level = opt_level
        #: this host's slice of a shared RuntimeImage (immutable per-split
        #: artifacts: entry tables, invoker ACLs, initial field values,
        #: precomputed forward integrity checks, compiled fragments).
        self._image = image
        self.factory = TokenFactory(name, registry, rng=token_rng)
        self.stack = LocalStack()
        #: idempotency table: processed msg_id -> result.  Under the
        #: volatile crash mode it is rebuilt from the durable store's
        #: WAL, so retransmissions stay suppressed across a crash.
        self._seen_requests: Dict[int, Any] = {}
        #: arrays allocated here: oid -> element list / element label.
        self.array_store: Dict[int, list] = {}
        self.array_meta: Dict[int, Label] = {}
        #: frame copies: FrameID -> variable slots ({name: value}).  The
        #: mapping is flat on purpose — one dict per frame, no wrapper —
        #: because the per-message hot path (forwarded variables, frame
        #: reads in fragment bodies) lives and dies on these lookups.
        self.frames: Dict[FrameID, Dict[str, Any]] = {}
        #: deferred data forwards: dst host -> {(fid, var): (value, label)}.
        self.pending: Dict[str, Dict[Tuple[int, str], Tuple[Any, Label, FrameID]]] = {}
        #: False only when no deferred forward is waiting, so a control
        #: transfer skips the flush.
        self.forwards_pending = False
        #: entries this host serves, with precomputed invoker ACLs
        #: (shared, never mutated — every session reads one copy).
        self.entries: Dict[str, Fragment] = image.entries
        self.entry_acl: Dict[str, frozenset] = image.entry_acl
        #: per-entry dispatch table: entry -> (fragment, invoker ACL)
        #: so sync/rgoto validation is one dict probe instead of two.
        self._entry_table: Dict[str, Tuple[Fragment, frozenset]] = (
            image.entry_table
        )
        #: fields stored here: (cls, field, oid) -> value.
        self.field_store: Dict[Tuple[str, str, Optional[int]], Any] = dict(
            image.field_defaults
        )
        #: cached program digest (checked on every remote request).
        self._digest = split.digest
        #: kind -> bound request handler; the control transfers map to
        #: :data:`_TRANSFER` and are admitted by :meth:`handle` itself.
        self._dispatch_table: Dict[str, Any] = {
            "getField": self._handle_get_field,
            "setField": self._handle_set_field,
            "forward": self._handle_forward,
            "sync": self._handle_sync,
            "rgoto": _TRANSFER,
            "lgoto": _TRANSFER,
            "recover": self._handle_recover,
        }
        #: latest recovery announcement (epoch, seq) seen per peer —
        #: lets stale re-deliveries of genuine announcements be no-ops.
        self.peer_epochs: Dict[str, Tuple[int, int]] = {}
        #: entry -> the function of its component, shared by every host
        #: and session of the image; filled on first entry.
        self._compiled: Dict[str, BodyFn] = image.compiled
        #: stable storage (WAL + sealed checkpoints).  Only materialized
        #: under fault injection, so fault-free runs stay bit-identical
        #: to the Section 3.1 model — no WAL writes, no seal hashing.
        self.durable: Optional[DurableStore] = None
        network.register(
            name, self.handle, on_crash=self.crash_wipe, on_restart=self.recover
        )
        if network.faults is not None:
            self.ensure_durable()

    def reset(self, opt_level: int = 1, token_rng=None) -> None:
        """Reset-in-place to a freshly constructed host.

        Clears every piece of per-run mutable state — ICS slice, dedup
        table, field/array stores, frames, deferred forwards, durable
        store — while keeping the shared immutable artifacts (entries,
        ACLs, compiled fragments, the host key).  The session pool calls
        this instead of rebuilding the host, so recycling costs a few
        dict clears rather than reconstruction.
        """
        self.opt_level = opt_level
        self.factory.reset(rng=token_rng)
        # crash_wipe may have replaced the stack object; clear whichever
        # one is installed (handler registrations reference the host,
        # not the stack, so identity does not matter).
        self.stack._stack.clear()
        self._seen_requests.clear()
        self.field_store = dict(self._image.field_defaults)
        self.array_store.clear()
        self.array_meta.clear()
        self.frames.clear()
        self.pending.clear()
        self.forwards_pending = False
        self.peer_epochs.clear()
        keep_durable = self.durable is not None and (
            self.network.faults is not None
            or self.durable.backend is not None
        )
        if keep_durable:
            # Recycle the stable-storage object in place (persistent
            # rows included): clear the WAL and counters, then seal a
            # fresh base checkpoint of the just-reset state.
            self.durable.reset()
            self.durable.take_checkpoint(self.snapshot_state())
        else:
            self.durable = None
            if self.network.faults is not None:
                self.ensure_durable()

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------

    def frame(self, fid: FrameID) -> Dict[str, Any]:
        """The variable slots of frame ``fid`` (created on first touch)."""
        frame = self.frames.get(fid)
        if frame is None:
            frame = self.frames[fid] = {}
        return frame

    def var(self, fid: FrameID, name: str) -> Any:
        frame = self.frames.get(fid)
        if frame is None:
            frame = self.frames[fid] = {}
        value = frame.get(name, _UNSEEN)
        if value is not _UNSEEN:
            return value
        plan = self.split.methods[fid.method_key]
        return plan.default_value(name)

    def set_var(self, fid: FrameID, name: str, value: Any) -> None:
        frame = self.frames.get(fid)
        if frame is None:
            frame = self.frames[fid] = {}
        frame[name] = value
        if self.durable is not None:
            self.durable.log("var", fid, name, value)

    # ------------------------------------------------------------------
    # Incoming requests (Figure 6)
    # ------------------------------------------------------------------

    def handle(self, message: Message) -> Any:
        """Receive one message: Figure 6's checks, then its effect.

        A remote message is charged one check and must carry the
        program's digest; a retransmission is answered from the
        idempotency table.  A request then goes to its handler in
        :attr:`_dispatch_table`.  A control transfer is admitted here:
        an ``rgoto`` by its entry's invoker ACL, an ``lgoto`` by a token
        this host minted, its MAC (remote presentations only) and the
        ICS pop.  Then each variable it carries passes its integrity
        check, and the entered component runs (:meth:`run_chain`).
        """
        network = self.network
        kind = message.kind
        src = message.src
        payload = message.payload
        remote = src != self.name
        if remote:
            cost = network.cost.check_cost
            network.clock += cost
            network.check_time += cost
            if payload.get("digest") != self._digest:
                network.audit(
                    self.name, f"{kind} with mismatched program hash"
                )
                return self._reject(message)
            if message.msg_id is not None:
                # Reliable-delivery idempotency: a retransmission or
                # duplicate re-presents a processed key; answer from the
                # table instead of re-executing the request's effects.
                cached = self._seen_requests.get(message.msg_id, _UNSEEN)
                if cached is not _UNSEEN:
                    return cached
        handler = self._dispatch_table.get(kind)
        if handler is None:
            network.audit(self.name, f"unknown request kind {kind!r}")
            result = _REJECTED
        elif handler is not _TRANSFER:
            result = handler(message)
        else:
            # The admitted (entry, frame, token) of a transfer, or
            # ``entry`` None when it is refused.
            entry = None
            vars_payload = payload.get("vars")
            if vars_payload is not None and type(vars_payload) is not dict:
                self._malformed(message, "vars")
            elif kind == "rgoto":
                try:
                    target = payload["entry"]
                    frame = payload["frame"]
                except KeyError as error:
                    self._malformed(message, error.args[0])
                else:
                    token = payload.get("token")
                    info = (
                        self._entry_table.get(target)
                        if type(target) is str else None
                    )
                    if info is None:
                        network.audit(
                            self.name, f"rgoto to unknown entry {target}"
                        )
                    elif remote and src not in info[1]:
                        network.audit(
                            self.name,
                            f"rgoto {target} denied to {src}: I_i ⋢ I_e "
                            f"(I_e = {{{info[0].integ}}})",
                        )
                    elif type(frame) is not FrameID:
                        self._malformed(message, "frame")
                    elif token is not None and type(token) is not Token:
                        self._malformed(message, "token")
                    else:
                        entry = target
            else:
                try:
                    token = payload["token"]
                except KeyError:
                    token = None
                if type(token) is not Token:
                    self._malformed(message, "token")
                elif token.host != self.name:
                    network.audit(
                        self.name, f"lgoto with foreign token for {token.entry}"
                    )
                elif remote and not self._authentic(token):
                    # Tokens used locally are never hashed (Section 7.4),
                    # so only remote presentations pay for verification.
                    network.audit(
                        self.name, f"lgoto with forged token for {token.entry}"
                    )
                else:
                    if remote:
                        cost = network.cost.hash_cost
                        network.clock += cost
                        network.hash_time += cost
                    popped = self.stack.pop_if_top(token)
                    if popped is None:
                        network.audit(
                            self.name,
                            f"lgoto with stale/replayed token for {token.entry}",
                        )
                    else:
                        if self.durable is not None:
                            self.durable.log("pop")
                        entry = token.entry
                        frame = token.frame
                        token = popped[0]
            if entry is None:
                result = _REJECTED
            else:
                if vars_payload:
                    self._apply_vars(src, vars_payload)
                if kind == "lgoto" and token is None:
                    # The root capability: the program is complete.
                    raise HaltSignal()
                self.run_chain(entry, frame, token)
                result = True
        if remote:
            if message.msg_id is not None:
                # Write-ahead: the dedup entry must be durable before
                # the reply is released, or a crash + retransmission
                # would re-execute the request's effects (e.g. re-mint
                # a sync token and diverge from the fault-free run).
                self._seen_requests[message.msg_id] = result
                if self.durable is not None:
                    self.durable.log("seen", message.msg_id, result)
            if result is _REJECTED:
                return self._reject(message)
            if self.durable is not None:
                self._maybe_checkpoint()
        return result

    def _authentic(self, token: Token) -> bool:
        """Whether a remote lgoto's ``token`` (this host's, by its
        ``host`` field) carries this host's MAC.

        The ICS holds only tokens this host minted itself (``mint`` in
        ``_do_sync``, ``_handle_sync`` and ``run_main``'s
        ``adopt_root``) or restored from sealed checkpoint and WAL
        rows, so a token that is, or equals, the top's issued token is
        authentic and its MAC is not recomputed; tokens are immutable,
        so the one shared object cannot have changed since it was
        pushed.  Every other token is recomputed by ``factory.verify``,
        which only tells a forgery (false) from a stale or replayed
        token (true, and then refused by the ICS pop).  Either way the
        presentation counts one hash.
        """
        top = self.stack.top()
        if top is not None and (top[0] is token or top[0] == token):
            self.factory.hash_count += 1
            return True
        return self.factory.verify(token)

    def _malformed(self, message: Message, what: str) -> Any:
        """Audit a request whose payload lacks ``what`` or holds the
        wrong type there; the caller refuses it."""
        self.network.audit(
            self.name, f"malformed {message.kind} from {message.src}: {what}"
        )
        return _REJECTED

    def _reject(self, message: Message) -> Any:
        """A validated-and-refused remote request: silently ignore it
        (Figure 6) — or, with the quarantine layer on, abort the run and
        blacklist the sender."""
        if self.network.quarantine_enabled:
            self.network.quarantine(
                message.src,
                self.name,
                f"{message.kind} from {message.src} rejected by {self.name}",
                message=message,
            )
        return _REJECTED

    def _handle_get_field(self, message: Message) -> Any:
        payload = message.payload
        if "array" in payload:
            return self._handle_get_element(message)
        try:
            key = (payload["cls"], payload["field"])
        except KeyError as error:
            return self._malformed(message, error.args[0])
        oid = payload.get("oid")
        if type(key[0]) is not str or type(key[1]) is not str:
            return self._malformed(message, "cls/field")
        if oid is not None and type(oid) is not int:
            return self._malformed(message, "oid")
        placement = self.split.fields.get(key)
        if placement is None or placement.host != self.name:
            self.network.audit(self.name, f"getField for absent field {key}")
            return _REJECTED
        if message.src != self.name and message.src not in placement.readers:
            self.network.audit(
                self.name,
                f"getField {key} denied to {message.src}: "
                f"C(L_f) ⋢ C_{message.src}",
            )
            return _REJECTED
        store_key = (key[0], key[1], oid)
        if store_key not in self.field_store:
            self.field_store[store_key] = placement.default_value()
            if self.durable is not None:
                self.durable.log("field", store_key, self.field_store[store_key])
        value = self.field_store[store_key]
        if message.src != self.name:
            self.network.flow(placement.label, message.src)
        return value

    def _handle_get_element(self, message: Message) -> Any:
        payload = message.payload
        ref = payload["array"]
        if type(ref) is not ArrayRef:
            return self._malformed(message, "array")
        if ref.oid not in self.array_store:
            self.network.audit(self.name, f"getField for absent array {ref}")
            return _REJECTED
        label = self.array_meta[ref.oid]
        requester = self._image.descriptors.get(message.src)
        if requester is None:
            self.network.audit(
                self.name, f"array read from unknown host {message.src}"
            )
            return _REJECTED
        if message.src != self.name and not label.conf.flows_to(
            requester.conf, self.split.config.hierarchy
        ):
            self.network.audit(
                self.name,
                f"array read denied to {message.src}: C(L) ⋢ C_h",
            )
            return _REJECTED
        store = self.array_store[ref.oid]
        try:
            index = payload["idx"]
        except KeyError:
            index = None
        if type(index) is not int:
            return self._malformed(message, "idx")
        if not 0 <= index < len(store):
            self.network.audit(
                self.name, f"array read out of bounds ({index})"
            )
            return _REJECTED
        if message.src != self.name:
            self.network.flow(label, message.src)
        return store[index]

    def _handle_set_element(self, message: Message) -> Any:
        payload = message.payload
        ref = payload["array"]
        if type(ref) is not ArrayRef:
            return self._malformed(message, "array")
        if ref.oid not in self.array_store:
            self.network.audit(self.name, f"setField for absent array {ref}")
            return _REJECTED
        label = self.array_meta[ref.oid]
        sender = self._image.descriptors.get(message.src)
        if sender is None:
            self.network.audit(
                self.name, f"array write from unknown host {message.src}"
            )
            return _REJECTED
        if message.src != self.name and not sender.integ.flows_to(
            label.integ, self.split.config.hierarchy
        ):
            self.network.audit(
                self.name,
                f"array write denied to {message.src}: I_h ⋢ I(L)",
            )
            return _REJECTED
        store = self.array_store[ref.oid]
        try:
            index = payload["idx"]
        except KeyError:
            index = None
        if type(index) is not int:
            return self._malformed(message, "idx")
        if not 0 <= index < len(store):
            self.network.audit(
                self.name, f"array write out of bounds ({index})"
            )
            return _REJECTED
        try:
            value = payload["value"]
        except KeyError:
            return self._malformed(message, "value")
        store[index] = value
        if self.durable is not None:
            self.durable.log("array_set", ref.oid, index, value)
        return True

    def _handle_set_field(self, message: Message) -> Any:
        payload = message.payload
        if "array" in payload:
            return self._handle_set_element(message)
        try:
            key = (payload["cls"], payload["field"])
        except KeyError as error:
            return self._malformed(message, error.args[0])
        oid = payload.get("oid")
        if type(key[0]) is not str or type(key[1]) is not str:
            return self._malformed(message, "cls/field")
        if oid is not None and type(oid) is not int:
            return self._malformed(message, "oid")
        placement = self.split.fields.get(key)
        if placement is None or placement.host != self.name:
            self.network.audit(self.name, f"setField for absent field {key}")
            return _REJECTED
        if message.src != self.name and message.src not in placement.writers:
            self.network.audit(
                self.name,
                f"setField {key} denied to {message.src}: "
                f"I_{message.src} ⋢ I(L_f)",
            )
            return _REJECTED
        try:
            value = payload["value"]
        except KeyError:
            return self._malformed(message, "value")
        store_key = (key[0], key[1], oid)
        self.field_store[store_key] = value
        if self.durable is not None:
            self.durable.log("field", store_key, value)
        return True

    def _handle_forward(self, message: Message) -> Any:
        try:
            vars_payload = message.payload["vars"]
        except KeyError:
            vars_payload = None
        if type(vars_payload) is not dict:
            return self._malformed(message, "vars")
        return self._apply_vars(message.src, vars_payload)

    def _apply_vars(self, src: str, vars_payload: Dict) -> Any:
        """Apply frame variables ``src`` forwarded (a forward request,
        or the data an rgoto/lgoto carries) after an integrity check.

        A denied variable rejects the request (the accepted ones are
        still applied — they passed their own checks); honest senders
        never mix the two.  A sender the configuration does not name is
        rejected outright."""
        frames = self.frames
        durable = self.durable
        image = self._image
        denied_pairs = None
        if src != self.name:
            # The per-variable check I_src ⊑ I(L_var) is static per
            # split: a set lookup into the image's precomputed denials.
            denied_pairs = image.forward_denied.get(src)
            if denied_pairs is None:
                self.network.audit(
                    self.name, f"forward from unknown host {src}"
                )
                return _REJECTED
            if not denied_pairs and src not in image.constant_denied:
                denied_pairs = None
        accepted = True
        for fid, var_values in vars_payload.items():
            if type(fid) is not FrameID or type(var_values) is not dict:
                self.network.audit(
                    self.name, f"malformed vars from {src}: {fid!r}"
                )
                accepted = False
                continue
            frame = frames.get(fid)
            if denied_pairs is None:
                # Nothing this sender forwards can be denied: straight
                # slot stores.
                if frame is None:
                    frame = frames[fid] = {}
                if durable is None:
                    frame.update(var_values)
                    continue
                for var, value in var_values.items():
                    frame[var] = value
                    durable.log("var", fid, var, value)
                continue
            var_labels = self.split.methods[fid.method_key].var_labels
            for var, value in var_values.items():
                if (fid.method_key, var) in denied_pairs or (
                    var not in var_labels and src in image.constant_denied
                ):
                    self.network.audit(
                        self.name,
                        f"forward of {var} denied from {src}: "
                        f"I_{src} ⋢ I(L_var)",
                    )
                    accepted = False
                    continue
                if frame is None:
                    frame = frames[fid] = {}
                frame[var] = value
                if durable is not None:
                    durable.log("var", fid, var, value)
        return True if accepted else _REJECTED

    def _handle_sync(self, message: Message) -> Any:
        payload = message.payload
        try:
            entry = payload["entry"]
            frame = payload["frame"]
        except KeyError as error:
            return self._malformed(message, error.args[0])
        info = self._entry_table.get(entry) if type(entry) is str else None
        if info is None:
            self.network.audit(self.name, f"sync for unknown entry {entry}")
            return _REJECTED
        if message.src != self.name and message.src not in info[1]:
            self.network.audit(
                self.name,
                f"sync {entry} denied to {message.src}: I_i ⋢ I_e",
            )
            return _REJECTED
        if type(frame) is not FrameID:
            return self._malformed(message, "frame")
        previous = payload.get("token")
        if previous is not None and type(previous) is not Token:
            return self._malformed(message, "token")
        token = self.factory.mint(frame, entry)
        if message.src != self.name:
            self.network.charge_hash()
        self.stack.push(token, previous)
        if self.durable is not None:
            self.durable.log("push", token, previous)
        return token

    def _handle_recover(self, message: Message) -> Any:
        """A peer announces it has recovered from a volatile crash.

        The announcement must be sealed by the recovering host itself
        and must actually come from that host — a bad host can neither
        fabricate an announcement for a live peer nor forge one without
        the peer's key.  Stale re-deliveries of genuine announcements
        (nested crashes, duplicated messages) are benign no-ops, never
        violations: an honest host must not get quarantined for
        retransmitting.
        """
        payload = message.payload
        src = message.src
        if src not in self._image.descriptors:
            # No key is registered for an unnamed host: refuse before
            # the seal check would look one up.
            self.network.audit(
                self.name, f"recovery announcement from unknown host {src}"
            )
            return _REJECTED
        claimed = payload.get("host")
        if claimed != src:
            self.network.audit(
                self.name,
                f"recovery announcement for {claimed!r} sent by {src}",
            )
            return _REJECTED
        epoch = payload.get("epoch")
        seq = payload.get("seq")
        if type(epoch) is not int or type(seq) is not int:
            self.network.audit(
                self.name, f"malformed recovery announcement from {src}"
            )
            return _REJECTED
        from .checkpoint import recovery_blob

        if not self.factory.verify_seal(
            src, "recover", recovery_blob(src, epoch, seq), payload.get("seal")
        ):
            self.network.audit(
                self.name, f"forged recovery seal from {src}"
            )
            return _REJECTED
        self.network.charge_hash()
        last = self.peer_epochs.get(src)
        if last is not None and (epoch, seq) <= last:
            return True
        self.peer_epochs[src] = (epoch, seq)
        if self.durable is not None:
            self.durable.log("peer_epoch", src, (epoch, seq))
        self._reforward_pending(src)
        return True

    def _reforward_pending(self, target: str) -> None:
        """Re-flush deferred forwards to a freshly recovered peer.

        The values are the same ones a later control transfer would have
        carried (deferred forwards are computed at defer time), so
        sending them early cannot change any final field or variable —
        it just guarantees the recovered host is not waiting on data.
        """
        slots = self.pending.get(target)
        if not slots:
            return
        vars_payload: Dict[FrameID, Dict[str, Any]] = {}
        labels = []
        for (fid_num, var), (value, label, fid) in slots.items():
            vars_payload.setdefault(fid, {})[var] = value
            labels.append(label)
            self.network.flow(label, target)
        slots.clear()
        self.forwards_pending = any(self.pending.values())
        if self.durable is not None:
            self.durable.log("pending_clear", target)
        self.network.request(
            Message(
                "forward",
                self.name,
                target,
                {"vars": vars_payload, "digest": self.split.digest},
                data_labels=labels,
            )
        )

    # ------------------------------------------------------------------
    # Crash recovery (durable store, checkpoints, WAL replay)
    # ------------------------------------------------------------------

    def ensure_durable(self) -> DurableStore:
        """The host's stable storage, materialized on first use with a
        sealed checkpoint of the current state."""
        if self.durable is None:
            from .checkpoint import DurableStore

            self.durable = DurableStore(self.name, self.factory)
            self.durable.take_checkpoint(self.snapshot_state())
        return self.durable

    def take_checkpoint(self):
        """Seal the current state as a new checkpoint (compacts the WAL)."""
        store = self.ensure_durable()
        checkpoint = store.take_checkpoint(self.snapshot_state())
        # Checkpoint trace events belong to the fault-injection trace;
        # a persistent backend alone checkpoints silently so that
        # storage-backed fault-free runs keep an empty event log.
        if self.network.faults is not None:
            self.network._emit(
                "checkpoint", None, self.name,
                f"epoch {checkpoint.epoch} sealed, WAL compacted",
            )
        return checkpoint

    def attach_storage(self, storage) -> None:
        """Wire this host's durable store to ``storage``'s persistent
        tier (a :class:`~repro.runtime.storage.sqlite_backend.
        SessionStorage`), materializing the store if needed and
        publishing the current checkpoint + WAL through the backend."""
        backend = storage.backend_for(self.name)
        if self.durable is None:
            from .checkpoint import DurableStore

            self.durable = DurableStore(
                self.name, self.factory, backend=backend
            )
            self.durable.take_checkpoint(self.snapshot_state())
        else:
            self.durable.backend = backend
            self.durable.republish()

    def detach_storage(self) -> None:
        """Drop the persistent tier (degradation or explicit detach);
        the in-memory store keeps running fail-closed."""
        if self.durable is not None:
            self.durable.backend = None

    def _maybe_checkpoint(self) -> None:
        store = self.durable
        store.processed += 1
        if store.processed >= store.interval:
            self.take_checkpoint()

    def snapshot_state(self) -> Dict[str, Any]:
        """Everything a bit-identical recovery must restore.  These are
        the live containers, not copies: the store encodes them on the
        spot."""
        return {
            "fields": self.field_store,
            "arrays": self.array_store,
            "array_meta": self.array_meta,
            "frames": self.frames,
            "stack": self.stack._stack,
            "seen": self._seen_requests,
            "pending": self.pending,
            "peer_epochs": self.peer_epochs,
        }

    def crash_wipe(self) -> None:
        """A volatile-state crash: everything outside the durable store
        is lost.  Keys (the token factory) model secure hardware and the
        program text is re-read from the split, so both survive."""
        self.stack = LocalStack()
        self._seen_requests = {}
        self.field_store = {}
        self.array_store = {}
        self.array_meta = {}
        self.frames = {}
        self.pending = {}
        self.forwards_pending = False
        self.peer_epochs = {}

    def recover(self) -> None:
        """Restart after a volatile crash: verify + install the sealed
        checkpoint, replay the WAL, and announce the recovery.

        Tampered stable storage (forged seal, rolled-back epoch) fails
        closed with :class:`~repro.runtime.network.SecurityAbort` —
        running from forged state would hand the storage attacker the
        host's integrity.
        """
        store = self.durable
        if store is None:
            return
        from .checkpoint import CheckpointTamperError

        try:
            self.restore_state()
        except CheckpointTamperError as error:
            self.network.audit(self.name, str(error))
            self.network._emit("quarantine", None, self.name, str(error))
            raise SecurityAbort(None, self.name, str(error)) from error
        store.recoveries += 1
        self.network._emit(
            "recover", None, self.name,
            f"epoch {store.high_water} + {len(store.wal)} WAL entries "
            f"(recovery #{store.recoveries})",
        )
        self._announce_recovery()

    def restore_state(self, ctx=None) -> None:
        """Install the verified checkpoint and replay the WAL on top of
        it.

        The one restore path for in-process recovery and process-death
        rehydration.  ``ctx`` (a
        :class:`~repro.runtime.storage.codec.DecodeContext`) collects
        the ids the checkpoint holds.  Raises
        :class:`~repro.runtime.checkpoint.CheckpointTamperError` when
        the durable store fails verification.
        """
        state, wal = self.durable.load(ctx)
        self.install_state(state)
        for entry in wal:
            self._replay(entry)

    def install_state(self, state: Dict[str, Any]) -> None:
        """Adopt a decoded :meth:`snapshot_state` as this host's state."""
        self.field_store = state["fields"]
        self.array_store = state["arrays"]
        self.array_meta = state["array_meta"]
        self.frames = state["frames"]
        stack = LocalStack()
        stack._stack = state["stack"]
        self.stack = stack
        self._seen_requests = state["seen"]
        self.pending = state["pending"]
        self.forwards_pending = any(self.pending.values())
        self.peer_epochs = state["peer_epochs"]

    def _replay(self, entry: Tuple) -> None:
        """Re-apply one WAL record (state mutations only — no messages
        are sent and no charges accrue; the effects already happened
        before the crash)."""
        op = entry[0]
        if op == "var":
            _, fid, name, value = entry
            self.frame(fid)[name] = value
        elif op == "field":
            self.field_store[entry[1]] = entry[2]
        elif op == "array_new":
            _, oid, length, label = entry
            self.array_store[oid] = [0] * length
            self.array_meta[oid] = label
        elif op == "array_set":
            self.array_store[entry[1]][entry[2]] = entry[3]
        elif op == "push":
            self.stack.push(entry[1], entry[2])
        elif op == "pop":
            self.stack._stack.pop()
        elif op == "seen":
            self._seen_requests[entry[1]] = entry[2]
        elif op == "pending":
            _, target, slot, value, label, fid = entry
            self.pending.setdefault(target, {})[slot] = (value, label, fid)
            self.forwards_pending = True
        elif op == "pending_clear":
            self.pending.get(entry[1], {}).clear()
        elif op == "peer_epoch":
            self.peer_epochs[entry[1]] = entry[2]
        else:
            raise AssertionError(f"unknown WAL record {entry!r}")

    def _announce_recovery(self) -> None:
        """Broadcast a sealed ``recover`` message so peers re-forward
        pending data and accept the host back into the run."""
        from .checkpoint import recovery_blob

        store = self.durable
        # Snapshot epoch/seq: announcing to one peer can trigger
        # re-forwards back to us, and handling those may seal a fresh
        # checkpoint — the remaining peers must still get the payload
        # the seal actually covers.
        epoch, seq = store.high_water, store.recoveries
        seal = self.factory.seal(
            "recover", recovery_blob(self.name, epoch, seq)
        )
        for descriptor in self.split.config.hosts:
            peer = descriptor.name
            if peer == self.name:
                continue
            self.network.request(
                Message(
                    "recover",
                    self.name,
                    peer,
                    {
                        "host": self.name,
                        "epoch": epoch,
                        "seq": seq,
                        "seal": seal,
                        "digest": self.split.digest,
                    },
                )
            )

    def adopt_root(self, token: Token) -> None:
        """Install the root capability t0 (WAL-logged like any push, so
        a crash before the first checkpoint still recovers it)."""
        self.stack.push(token, None)
        if self.durable is not None:
            self.durable.log("push", token, None)

    # ------------------------------------------------------------------
    # Fragment execution
    # ------------------------------------------------------------------

    def run_main(self, frame: FrameID) -> bool:
        """Mint and adopt the root capability t0 for the main frame and
        run the main chain; True when that completed the program."""
        entry = self.split.main_entry
        root = self.factory.mint(frame, entry)
        self.adopt_root(root)
        try:
            self.run_chain(entry, frame, root)
        except HaltSignal:
            return True
        return False

    def run_chain(
        self, entry: str, frame: FrameID, token: Optional[Token]
    ) -> None:
        """Execute fragments locally until control leaves this host.

        The fragments linked by local jumps form components, and each
        component runs as one generated function (:mod:`.compiler`)
        that loops over its members: one call per component entered,
        not per fragment.  A call or return that stays on this host
        hands back the next ``(entry, frame, token)``.  A component is
        compiled the first time any session of the image enters one of
        its members, so a fragment altered before then runs as altered.
        Compiling checks that every member is placed on this host;
        entries reach this loop only from this host's entry table,
        tokens it minted and its own calls and returns.
        """
        compiled = self._compiled
        while True:
            try:
                body = compiled[entry]
            except KeyError:
                members = component(self.split, self.name, entry)
                body = compile_component(
                    self.split, members, self._image.linkage
                )
                for fragment in members:
                    compiled[fragment.entry] = body
            step = body(self, entry, frame, token)
            if step is None:
                return
            entry, frame, token = step

    # -- data forwarding ----------------------------------------------------------

    def defer_forward(
        self, target: str, slot: Tuple[int, str], value: Any, label: Label,
        frame: FrameID,
    ) -> None:
        """Defer a data forward to ``target`` (WAL-logged)."""
        self.pending.setdefault(target, {})[slot] = (value, label, frame)
        self.forwards_pending = True
        if self.durable is not None:
            self.durable.log("pending", target, slot, value, label, frame)

    def flush_forwards(
        self, piggyback_for: Optional[str]
    ) -> Optional[Dict[FrameID, Dict[str, Any]]]:
        """Send all deferred forwards; values destined to
        ``piggyback_for`` are returned for inclusion in the transfer
        message instead of being sent separately."""
        piggyback: Optional[Dict[FrameID, Dict[str, Any]]] = None
        for target in sorted(self.pending):
            slots = self.pending[target]
            if not slots:
                continue
            if target == piggyback_for and self.opt_level >= 1:
                piggyback = {}
                for (fid_num, var), (value, label, fid) in slots.items():
                    piggyback.setdefault(fid, {})[var] = value
                    self.network.flow(label, target)
                self.network.note_eliminated(len(slots))
                slots.clear()
                if self.durable is not None:
                    self.durable.log("pending_clear", target)
                continue
            vars_payload: Dict[FrameID, Dict[str, Any]] = {}
            labels = []
            for (fid_num, var), (value, label, fid) in slots.items():
                vars_payload.setdefault(fid, {})[var] = value
                labels.append(label)
                self.network.flow(label, target)
            if self.opt_level >= 1 and len(slots) > 1:
                self.network.note_eliminated(len(slots) - 1)
            message = Message(
                "forward",
                self.name,
                target,
                {"vars": vars_payload, "digest": self.split.digest},
                data_labels=labels,
            )
            slots.clear()
            if self.durable is not None:
                self.durable.log("pending_clear", target)
            if self.opt_level >= 2:
                # The paper's proposed (unimplemented) optimization:
                # forwards need no acknowledgment.
                self.network.one_way(message)
            else:
                self.network.request(message)
        # A crash and recovery inside a send may have restored slots.
        self.forwards_pending = any(self.pending.values())
        return piggyback

    # -- control transfers ------------------------------------------------------

    def _do_sync(
        self, entry: str, frame: FrameID, token: Optional[Token]
    ) -> Optional[Token]:
        target_host = self.split.fragments[entry].host
        if target_host == self.name and entry in self._entry_table:
            # Local sync fast path: a request to ourselves never touches
            # the network (no counts, no charges — the general path's
            # src == dst case), the entry is ours, and the ACL cannot
            # deny the host itself, so this is exactly _handle_sync
            # minus the Message round trip.
            minted = self.factory.mint(frame, entry)
            self.stack.push(minted, token)
            if self.durable is not None:
                self.durable.log("push", minted, token)
            return minted
        message = Message(
            "sync",
            self.name,
            target_host,
            {
                "entry": entry,
                "frame": frame,
                "token": token,
                "digest": self.split.digest,
            },
        )
        result = self.network.request(message)
        if result is _REJECTED:
            self.network.audit(self.name, f"sync to {entry} was rejected")
            return None
        return result

    # ------------------------------------------------------------------
    # Array element access (counted as getField/setField, like the
    # paper's run-time array support)
    # ------------------------------------------------------------------

    def alloc_array(self, length: int, label: Label) -> ArrayRef:
        """Allocate a local array (WAL-logged so recovery re-creates it
        under the same oid)."""
        ref = ArrayRef(length, self.name, label)
        self.array_store[ref.oid] = [0] * length
        self.array_meta[ref.oid] = label
        if self.durable is not None:
            self.durable.log("array_new", ref.oid, length, label)
        return ref

    def read_element(self, ref, index: int) -> Any:
        if ref is None:
            raise RuntimeError("null dereference in array read")
        if ref.host == self.name:
            store = self.array_store[ref.oid]
            if not 0 <= index < len(store):
                raise RuntimeError(
                    f"array index {index} out of bounds [0, {len(store)})"
                )
            return store[index]
        result = self.network.request(
            Message(
                "getField",
                self.name,
                ref.host,
                {"array": ref, "idx": index, "digest": self.split.digest},
                data_labels=[ref.label],
            )
        )
        if result is _REJECTED:
            raise RuntimeError(f"array read rejected for {self.name}")
        return result

    def write_element(self, ref, index: int, value: Any) -> None:
        if ref is None:
            raise RuntimeError("null dereference in array write")
        if ref.host == self.name:
            store = self.array_store[ref.oid]
            if not 0 <= index < len(store):
                raise RuntimeError(
                    f"array index {index} out of bounds [0, {len(store)})"
                )
            store[index] = value
            if self.durable is not None:
                self.durable.log("array_set", ref.oid, index, value)
            return
        self.network.flow(ref.label, ref.host)
        result = self.network.request(
            Message(
                "setField",
                self.name,
                ref.host,
                {"array": ref, "idx": index, "value": value,
                 "digest": self.split.digest},
            )
        )
        if result is _REJECTED:
            raise RuntimeError(f"array write rejected for {self.name}")

    # ------------------------------------------------------------------
    # Field access
    # ------------------------------------------------------------------

    def read_field(self, cls: str, field: str, oid: Optional[int]) -> Any:
        placement = self.split.fields[(cls, field)]
        if placement.host == self.name:
            store_key = (cls, field, oid)
            if store_key not in self.field_store:
                self.field_store[store_key] = placement.default_value()
                if self.durable is not None:
                    self.durable.log(
                        "field", store_key, self.field_store[store_key]
                    )
            return self.field_store[store_key]
        result = self.network.request(
            Message(
                "getField",
                self.name,
                placement.host,
                {"cls": cls, "field": field, "oid": oid,
                 "digest": self.split.digest},
                data_labels=[placement.label],
            )
        )
        if result is _REJECTED:
            raise RuntimeError(
                f"getField {cls}.{field} rejected for {self.name}"
            )
        return result

    def write_field(
        self, cls: str, field: str, oid: Optional[int], value: Any
    ) -> None:
        placement = self.split.fields[(cls, field)]
        if placement.host == self.name:
            self.field_store[(cls, field, oid)] = value
            if self.durable is not None:
                self.durable.log("field", (cls, field, oid), value)
            return
        self.network.flow(placement.label, placement.host)
        result = self.network.request(
            Message(
                "setField",
                self.name,
                placement.host,
                {"cls": cls, "field": field, "oid": oid, "value": value,
                 "digest": self.split.digest},
            )
        )
        if result is _REJECTED:
            raise RuntimeError(
                f"setField {cls}.{field} rejected for {self.name}"
            )
