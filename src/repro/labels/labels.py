"""The decentralized label model (DLM) with integrity, per Section 2.1.

A full :class:`Label` has two parts:

* a **confidentiality** part (:class:`ConfLabel`): a set of policies
  ``{o: r1, ..., rn}``, each stating that owner ``o`` permits readers
  ``r1..rn`` (and implicitly ``o``) to see the data.  All policies must be
  obeyed simultaneously, so the effective reader set is the intersection
  of the per-owner effective reader sets.

* an **integrity** part (:class:`IntegLabel`): ``{?: p1, ..., pn}`` — the
  set of principals who trust the data to have been computed by the
  program as written.

``L1 ⊑ L2`` ("L1 is less restrictive than L2") holds when L2 specifies at
least as much confidentiality and *at most* as much integrity as L1
(confidentiality and integrity are duals).  The equivalence classes of ⊑
form a distributive lattice with join ``⊔`` and meet ``⊓``.

Both parts support a distinguished extreme element so that the lattice is
bounded without fixing a principal universe:

* ``ConfLabel.top()`` — secret to everyone (no reader suffices);
* ``IntegLabel.bottom()`` — trusted by every principal (maximal trust,
  the integrity of program constants).

**Performance layer.**  All label classes are hash-consed: constructing
a label with the same canonical content yields the same object, so
equality begins with an identity check and hashes are computed once.
Lattice operations are memoized in the tables of :mod:`.cache`, keyed by
operand identities plus — for delegation-sensitive operations — the
acts-for hierarchy's ``cache_key`` version stamp.  A pristine, uncached
re-implementation lives in :mod:`.reference` and the differential tests
in ``tests/labels/test_lattice_differential.py`` hold the two equal.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .cache import MISS, new_cache
from .principals import ActsForHierarchy, EMPTY_HIERARCHY, Principal

_POLICY_READERS = new_cache("policy.effective_readers")
_CONF_FLOWS = new_cache("conf.flows_to")
_CONF_JOIN = new_cache("conf.join")
_CONF_MEET = new_cache("conf.meet")
_CONF_READERS = new_cache("conf.effective_readers")
_INTEG_FLOWS = new_cache("integ.flows_to")
_INTEG_JOIN = new_cache("integ.join")
_INTEG_MEET = new_cache("integ.meet")
_INTEG_TRUSTED = new_cache("integ.trusted_by")
_LABEL_FLOWS = new_cache("label.flows_to")
_LABEL_JOIN = new_cache("label.join")
_LABEL_MEET = new_cache("label.meet")


def _as_principal(p) -> Principal:
    if isinstance(p, Principal):
        return p
    if isinstance(p, str):
        return Principal(p)
    raise TypeError(f"expected Principal or str, got {type(p).__name__}")


class ConfPolicy:
    """A single confidentiality policy ``{owner: readers}``.

    Interned: one object per (owner, reader set).
    """

    _interned: Dict[Tuple[Principal, FrozenSet[Principal]], "ConfPolicy"] = {}

    __slots__ = ("owner", "readers", "_hash")

    def __new__(cls, owner, readers: Iterable = ()) -> "ConfPolicy":
        owner = _as_principal(owner)
        if not isinstance(readers, frozenset):
            readers = frozenset(_as_principal(r) for r in readers)
        key = (owner, readers)
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        policy = super().__new__(cls)
        object.__setattr__(policy, "owner", owner)
        object.__setattr__(policy, "readers", readers)
        object.__setattr__(policy, "_hash", hash(key))
        cls._interned[key] = policy
        return policy

    def __init__(self, owner, readers: Iterable = ()) -> None:
        # All construction happens (once) in __new__.
        pass

    def __setattr__(self, attr, value) -> None:
        raise AttributeError("ConfPolicy is immutable")

    def effective_readers(
        self, hierarchy: ActsForHierarchy = EMPTY_HIERARCHY
    ) -> FrozenSet[Principal]:
        """Principals permitted to read under this policy.

        The owner always may read; with delegation, anyone who acts for a
        permitted reader may read too (the set is upward closed).
        """
        cache = _POLICY_READERS
        key = (id(self), hierarchy.cache_key)
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        base = self.readers | {self.owner}
        closed = set(base)
        for reader in base:
            closed |= hierarchy.superiors_of(reader)
        result = frozenset(closed)
        cache.table[key] = result
        return result

    def covers(
        self, other: "ConfPolicy", hierarchy: ActsForHierarchy = EMPTY_HIERARCHY
    ) -> bool:
        """True when this policy is at least as restrictive as ``other``.

        Requires this owner to act for the other's owner, and every reader
        effectively permitted here to be permitted by ``other``.
        """
        if not hierarchy.acts_for(self.owner, other.owner):
            return False
        return self.effective_readers(hierarchy) <= other.effective_readers(
            hierarchy
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, ConfPolicy):
            return self.owner == other.owner and self.readers == other.readers
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        readers = ", ".join(sorted(r.name for r in self.readers))
        return f"{self.owner}: {readers}" if readers else f"{self.owner}:"

    def __repr__(self) -> str:
        return f"ConfPolicy({str(self)!r})"


class ConfLabel:
    """The confidentiality part of a label: a join of :class:`ConfPolicy`.

    Canonical form keeps one policy per owner (same-owner policies merge
    by intersecting their reader sets, since all must be obeyed).
    Interned: one object per canonical policy set.
    """

    _interned: Dict[FrozenSet[ConfPolicy], "ConfLabel"] = {}
    _top_singleton: Optional["ConfLabel"] = None
    _public_singleton: Optional["ConfLabel"] = None

    #: ``_encoded`` memoizes this label's encoding for the split cache
    #: (:mod:`repro.splitter.serialize`), so every encoded split that
    #: mentions the label shares one immutable tuple.
    __slots__ = ("_policies", "_is_top", "_hash", "_encoded")

    def __new__(cls, policies: Iterable[ConfPolicy] = ()) -> "ConfLabel":
        merged: Dict[Principal, FrozenSet[Principal]] = {}
        for policy in policies:
            existing = merged.get(policy.owner)
            if existing is None:
                merged[policy.owner] = policy.readers
            else:
                merged[policy.owner] = existing & policy.readers
        canon = frozenset(ConfPolicy(o, rs) for o, rs in merged.items())
        found = cls._interned.get(canon)
        if found is not None:
            return found
        label = super().__new__(cls)
        object.__setattr__(label, "_policies", canon)
        object.__setattr__(label, "_is_top", False)
        object.__setattr__(label, "_hash", hash((False, canon)))
        object.__setattr__(label, "_encoded", None)
        cls._interned[canon] = label
        return label

    def __init__(self, policies: Iterable[ConfPolicy] = ()) -> None:
        pass

    def __setattr__(self, attr, value) -> None:
        raise AttributeError("ConfLabel is immutable")

    @classmethod
    def public(cls) -> "ConfLabel":
        """The bottom element: readable by everyone."""
        label = cls._public_singleton
        if label is None:
            label = cls._public_singleton = cls(())
        return label

    @classmethod
    def top(cls) -> "ConfLabel":
        """The top element: too confidential for any host or reader."""
        label = cls._top_singleton
        if label is None:
            label = super().__new__(cls)
            object.__setattr__(label, "_policies", frozenset())
            object.__setattr__(label, "_is_top", True)
            object.__setattr__(label, "_hash", hash((True, frozenset())))
            object.__setattr__(label, "_encoded", None)
            cls._top_singleton = label
        return label

    @property
    def is_top(self) -> bool:
        return self._is_top

    @property
    def is_public(self) -> bool:
        return not self._is_top and not self._policies

    @property
    def policies(self) -> FrozenSet[ConfPolicy]:
        return self._policies

    def owners(self) -> FrozenSet[Principal]:
        return frozenset(p.owner for p in self._policies)

    def readers_for(self, owner: Principal) -> Optional[FrozenSet[Principal]]:
        """Reader set for ``owner``'s policy, or None when unconstrained."""
        for policy in self._policies:
            if policy.owner == owner:
                return policy.readers
        return None

    def effective_readers(
        self, universe: Iterable[Principal],
        hierarchy: ActsForHierarchy = EMPTY_HIERARCHY,
    ) -> FrozenSet[Principal]:
        """Principals in ``universe`` allowed to read under every policy."""
        if not isinstance(universe, frozenset):
            universe = frozenset(universe)
        cache = _CONF_READERS
        key = (id(self), universe, hierarchy.cache_key)
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        if self._is_top:
            allowed = frozenset()
        else:
            allowed = universe
            for policy in self._policies:
                allowed &= policy.effective_readers(hierarchy)
        cache.table[key] = allowed
        return allowed

    def flows_to(
        self, other: "ConfLabel", hierarchy: ActsForHierarchy = EMPTY_HIERARCHY
    ) -> bool:
        """The relabeling rule ``self ⊑ other`` for confidentiality.

        Every policy here must be covered by some policy of ``other``:
        adding owners or removing readers only makes a label more
        restrictive, never less.
        """
        cache = _CONF_FLOWS
        key = (id(self), id(other), hierarchy.cache_key)
        cached = cache.table.get(key, MISS)
        if cached is not MISS:
            cache.hits += 1
            return cached
        cache.misses += 1
        if other._is_top:
            result = True
        elif self._is_top:
            result = False
        else:
            result = all(
                any(theirs.covers(mine, hierarchy) for theirs in other._policies)
                for mine in self._policies
            )
        cache.table[key] = result
        return result

    def join(self, other: "ConfLabel") -> "ConfLabel":
        """Least upper bound: all policies of both labels."""
        if self is other:
            return self
        cache = _CONF_JOIN
        key = (id(self), id(other))
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        if self._is_top or other._is_top:
            result = ConfLabel.top()
        else:
            result = ConfLabel(tuple(self._policies) + tuple(other._policies))
        cache.table[key] = result
        return result

    def meet(self, other: "ConfLabel") -> "ConfLabel":
        """Greatest lower bound: shared owners, union of their readers."""
        if self is other:
            return self
        cache = _CONF_MEET
        key = (id(self), id(other))
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        if self._is_top:
            result = other
        elif other._is_top:
            result = self
        else:
            mine = {p.owner: p.readers for p in self._policies}
            theirs = {p.owner: p.readers for p in other._policies}
            shared = set(mine) & set(theirs)
            result = ConfLabel(
                ConfPolicy(o, mine[o] | theirs[o]) for o in sorted(shared)
            )
        cache.table[key] = result
        return result

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, ConfLabel):
            return (
                self._is_top == other._is_top
                and self._policies == other._policies
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self._is_top:
            return "<top>"
        return "; ".join(sorted(str(p) for p in self._policies))

    def __repr__(self) -> str:
        return f"ConfLabel({str(self)!r})"


class IntegLabel:
    """The integrity part of a label: ``{?: p1, ..., pn}``.

    ``trust`` is the set of principals who believe the data was computed
    by the program as written.  *More* trust means *fewer* restrictions,
    so integrity order is the reverse of trust-set inclusion:
    ``I1 ⊑ I2  iff  trust(I2) ⊆ trust(I1)`` (modulo acts-for).

    Interned: one object per trust set.
    """

    _interned: Dict[FrozenSet[Principal], "IntegLabel"] = {}
    _bottom_singleton: Optional["IntegLabel"] = None
    _untrusted_singleton: Optional["IntegLabel"] = None

    #: ``_encoded``: as for :class:`ConfLabel`.
    __slots__ = ("_trust", "_is_bottom", "_hash", "_encoded")

    def __new__(cls, trust: Iterable = ()) -> "IntegLabel":
        if not isinstance(trust, frozenset):
            trust = frozenset(_as_principal(p) for p in trust)
        existing = cls._interned.get(trust)
        if existing is not None:
            return existing
        label = super().__new__(cls)
        object.__setattr__(label, "_trust", trust)
        object.__setattr__(label, "_is_bottom", False)
        object.__setattr__(label, "_hash", hash((False, trust)))
        object.__setattr__(label, "_encoded", None)
        cls._interned[trust] = label
        return label

    def __init__(self, trust: Iterable = ()) -> None:
        pass

    def __setattr__(self, attr, value) -> None:
        raise AttributeError("IntegLabel is immutable")

    @classmethod
    def untrusted(cls) -> "IntegLabel":
        """The top element: trusted by nobody (maximal restriction)."""
        label = cls._untrusted_singleton
        if label is None:
            label = cls._untrusted_singleton = cls(())
        return label

    @classmethod
    def bottom(cls) -> "IntegLabel":
        """The bottom element: trusted by every principal.

        This is the integrity of program constants — they are literally
        part of the program as written.
        """
        label = cls._bottom_singleton
        if label is None:
            label = super().__new__(cls)
            object.__setattr__(label, "_trust", frozenset())
            object.__setattr__(label, "_is_bottom", True)
            object.__setattr__(label, "_hash", hash((True, frozenset())))
            object.__setattr__(label, "_encoded", None)
            cls._bottom_singleton = label
        return label

    @property
    def is_bottom(self) -> bool:
        return self._is_bottom

    @property
    def is_untrusted(self) -> bool:
        return not self._is_bottom and not self._trust

    @property
    def trust(self) -> FrozenSet[Principal]:
        return self._trust

    def trusted_by(
        self, principal, hierarchy: ActsForHierarchy = EMPTY_HIERARCHY
    ) -> bool:
        """Does ``principal`` trust data carrying this label?"""
        if self._is_bottom:
            return True
        principal = _as_principal(principal)
        cache = _INTEG_TRUSTED
        key = (id(self), principal, hierarchy.cache_key)
        cached = cache.table.get(key, MISS)
        if cached is not MISS:
            cache.hits += 1
            return cached
        cache.misses += 1
        result = any(
            hierarchy.acts_for(witness, principal) for witness in self._trust
        )
        cache.table[key] = result
        return result

    def flows_to(
        self, other: "IntegLabel", hierarchy: ActsForHierarchy = EMPTY_HIERARCHY
    ) -> bool:
        """``self ⊑ other``: other may claim at most as much trust."""
        cache = _INTEG_FLOWS
        key = (id(self), id(other), hierarchy.cache_key)
        cached = cache.table.get(key, MISS)
        if cached is not MISS:
            cache.hits += 1
            return cached
        cache.misses += 1
        if self._is_bottom:
            result = True
        elif other._is_bottom:
            result = False
        else:
            result = all(
                self.trusted_by(principal, hierarchy)
                for principal in other._trust
            )
        cache.table[key] = result
        return result

    def join(self, other: "IntegLabel") -> "IntegLabel":
        """Least upper bound: only trust claims both labels support."""
        if self is other:
            return self
        cache = _INTEG_JOIN
        key = (id(self), id(other))
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        if self._is_bottom:
            result = other
        elif other._is_bottom:
            result = self
        else:
            result = IntegLabel(self._trust & other._trust)
        cache.table[key] = result
        return result

    def meet(self, other: "IntegLabel") -> "IntegLabel":
        """Greatest lower bound: combined trust."""
        if self is other:
            return self
        cache = _INTEG_MEET
        key = (id(self), id(other))
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        if self._is_bottom or other._is_bottom:
            result = IntegLabel.bottom()
        else:
            result = IntegLabel(self._trust | other._trust)
        cache.table[key] = result
        return result

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, IntegLabel):
            return (
                self._is_bottom == other._is_bottom
                and self._trust == other._trust
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self._is_bottom:
            return "?: *"
        names = ", ".join(sorted(p.name for p in self._trust))
        return f"?: {names}" if names else "?:"

    def __repr__(self) -> str:
        return f"IntegLabel({str(self)!r})"


class Label:
    """A full security label: confidentiality and integrity together.

    Interned: one object per (conf, integ) pair.
    """

    _interned: Dict[Tuple[int, int], "Label"] = {}
    _public_untrusted_singleton: Optional["Label"] = None
    _constant_singleton: Optional["Label"] = None

    #: ``_encoded``: as for :class:`ConfLabel`.
    __slots__ = ("conf", "integ", "_hash", "_encoded")

    def __new__(
        cls,
        conf: Optional[ConfLabel] = None,
        integ: Optional[IntegLabel] = None,
    ) -> "Label":
        if conf is None:
            conf = ConfLabel.public()
        if integ is None:
            integ = IntegLabel.untrusted()
        key = (id(conf), id(integ))
        existing = cls._interned.get(key)
        if existing is not None:
            return existing
        label = super().__new__(cls)
        object.__setattr__(label, "conf", conf)
        object.__setattr__(label, "integ", integ)
        object.__setattr__(label, "_hash", hash((conf, integ)))
        object.__setattr__(label, "_encoded", None)
        cls._interned[key] = label
        return label

    def __init__(
        self,
        conf: Optional[ConfLabel] = None,
        integ: Optional[IntegLabel] = None,
    ) -> None:
        pass

    def __setattr__(self, attr, value) -> None:
        raise AttributeError("Label is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def public_untrusted(cls) -> "Label":
        """No confidentiality restriction, no integrity claim."""
        label = cls._public_untrusted_singleton
        if label is None:
            label = cls._public_untrusted_singleton = cls(
                ConfLabel.public(), IntegLabel.untrusted()
            )
        return label

    @classmethod
    def constant(cls) -> "Label":
        """The label of a program constant: public, trusted by all.

        This is the bottom of the full label lattice.
        """
        label = cls._constant_singleton
        if label is None:
            label = cls._constant_singleton = cls(
                ConfLabel.public(), IntegLabel.bottom()
            )
        return label

    @classmethod
    def of(cls, spec: str) -> "Label":
        """Parse a label literal such as ``{Alice: Bob; ?: Alice}``."""
        from .parser import parse_label

        return parse_label(spec)

    # -- lattice operations --------------------------------------------------

    def flows_to(
        self, other: "Label", hierarchy: ActsForHierarchy = EMPTY_HIERARCHY
    ) -> bool:
        """``self ⊑ other``: other is at least as restrictive."""
        cache = _LABEL_FLOWS
        key = (id(self), id(other), hierarchy.cache_key)
        cached = cache.table.get(key, MISS)
        if cached is not MISS:
            cache.hits += 1
            return cached
        cache.misses += 1
        result = self.conf.flows_to(other.conf, hierarchy) and self.integ.flows_to(
            other.integ, hierarchy
        )
        cache.table[key] = result
        return result

    def join(self, other: "Label") -> "Label":
        if self is other:
            return self
        cache = _LABEL_JOIN
        key = (id(self), id(other))
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        result = Label(self.conf.join(other.conf), self.integ.join(other.integ))
        cache.table[key] = result
        return result

    def meet(self, other: "Label") -> "Label":
        if self is other:
            return self
        cache = _LABEL_MEET
        key = (id(self), id(other))
        cached = cache.table.get(key)
        if cached is not None:
            cache.hits += 1
            return cached
        cache.misses += 1
        result = Label(self.conf.meet(other.conf), self.integ.meet(other.integ))
        cache.table[key] = result
        return result

    def with_conf(self, conf: ConfLabel) -> "Label":
        return Label(conf, self.integ)

    def with_integ(self, integ: IntegLabel) -> "Label":
        return Label(self.conf, integ)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Label):
            return self.conf == other.conf and self.integ == other.integ
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = []
        if not self.conf.is_public:
            parts.append(str(self.conf))
        if not self.integ.is_untrusted:
            parts.append(str(self.integ))
        return "{" + "; ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"Label({str(self)!r})"


def C(label: Label) -> ConfLabel:
    """Extract the confidentiality part of a label (paper notation)."""
    return label.conf


def I(label: Label) -> IntegLabel:  # noqa: E743 - paper notation
    """Extract the integrity part of a label (paper notation)."""
    return label.integ


def join_all(labels: Iterable[Label]) -> Label:
    """⊔ of a collection of labels (identity: the constant label ⊥).

    Accumulates confidentiality policies and integrity trust in one pass
    and canonicalizes exactly once, instead of rebuilding a canonical
    label per element.
    """
    conf_top = False
    policies: list = []
    trust: Optional[FrozenSet[Principal]] = None  # None while all ⊥
    integ_untrusted = False
    for label in labels:
        conf = label.conf
        if conf._is_top:
            conf_top = True
        elif not conf_top:
            policies.extend(conf._policies)
        integ = label.integ
        if not integ._is_bottom and not integ_untrusted:
            if trust is None:
                trust = integ._trust
            else:
                trust = trust & integ._trust
            if not trust:
                integ_untrusted = True
    conf = ConfLabel.top() if conf_top else ConfLabel(policies)
    if trust is None:
        integ = IntegLabel.bottom()
    else:
        integ = IntegLabel(trust)
    return Label(conf, integ)


def meet_all(labels: Iterable[Label]) -> Label:
    """⊓ of a collection of labels (identity: the top label ⊤).

    Same single-pass accumulation as :func:`join_all`, for the dual
    direction: shared confidentiality owners with unioned readers, and
    unioned integrity trust (⊥ absorbs).
    """
    conf_readers: Optional[Dict[Principal, FrozenSet[Principal]]] = None
    integ_bottom = False
    trust: FrozenSet[Principal] = frozenset()
    for label in labels:
        conf = label.conf
        if not conf._is_top:
            theirs = {p.owner: p.readers for p in conf._policies}
            if conf_readers is None:
                conf_readers = theirs
            else:
                conf_readers = {
                    owner: readers | theirs[owner]
                    for owner, readers in conf_readers.items()
                    if owner in theirs
                }
        integ = label.integ
        if integ._is_bottom:
            integ_bottom = True
        elif not integ_bottom:
            trust = trust | integ._trust
    if conf_readers is None:
        conf = ConfLabel.top()
    else:
        conf = ConfLabel(
            ConfPolicy(o, rs) for o, rs in sorted(conf_readers.items())
        )
    integ = IntegLabel.bottom() if integ_bottom else IntegLabel(trust)
    return Label(conf, integ)
