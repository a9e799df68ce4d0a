#!/usr/bin/env python
"""The paper's running example (Figure 2 / Figure 4): oblivious transfer.

Alice has two secrets; Bob may request exactly one, and Alice must not
learn which.  This script walks the whole Section 4 story:

 1. the *naive* program fails to split with only Alice's and Bob's
    machines — the splitter pinpoints the read channel;
 2. adding the partially trusted host T makes even the naive code split;
 3. the strict Figure 2 program (with temporaries) splits into the
    Figure 4 partition when Alice pins her fields to her own machine;
 4. the partitioned program runs, and Bob's machine — subverted — tries
    to race for both secrets and is stonewalled by the dynamic checks.

Run:  python examples/oblivious_transfer.py
"""

from repro import Adversary, RuntimeImage, Session, SplitError, split_source
from repro.reporting import fig4
from repro.trust import TrustConfiguration, example_hosts

NAIVE = """
class OTExample authority(Alice) {
  int{Alice:; ?:Alice} m1;
  int{Alice:; ?:Alice} m2;
  boolean{Alice: Bob; ?:Alice} isAccessed;
  int{Bob:; ?:Bob} request = 1;

  int{Bob:} transfer{?:Alice}(int{Bob:} n) where authority(Alice) {
    if (!isAccessed) {
      isAccessed = true;
      if (endorse(n, {?:Alice}) == 1)
        return declassify(m1, {Bob:});
      else
        return declassify(m2, {Bob:});
    }
    else return declassify(0, {Bob:});
  }

  void main{?:Alice}() where authority(Alice) {
    m1 = 100;
    m2 = 200;
    isAccessed = false;
    int{Bob:} choice = request;
    int r = transfer(choice);
  }
}
"""

STRICT = NAIVE.replace(
    """    if (!isAccessed) {
      isAccessed = true;
      if (endorse(n, {?:Alice}) == 1)
        return declassify(m1, {Bob:});
      else
        return declassify(m2, {Bob:});
    }""",
    """    int tmp1 = m1;
    int tmp2 = m2;
    if (!isAccessed) {
      isAccessed = true;
      if (endorse(n, {?:Alice}) == 1)
        return declassify(tmp1, {Bob:});
      else
        return declassify(tmp2, {Bob:});
    }""",
)


def main() -> None:
    hosts = example_hosts()

    print("=" * 70)
    print("Step 1: naive OT with only hosts A and B (Section 4.2)")
    print("=" * 70)
    config_ab = TrustConfiguration([hosts["A"], hosts["B"]])
    try:
        split_source(NAIVE, config_ab)
        raise SystemExit("unexpectedly split an insecure program!")
    except SplitError as error:
        print("splitter rejected the program:")
        print(error)

    print()
    print("=" * 70)
    print("Step 2: add the partially trusted T — even the naive code splits")
    print("=" * 70)
    config_abt = TrustConfiguration([hosts["A"], hosts["B"], hosts["T"]])
    naive_result = split_source(NAIVE, config_abt)
    m1_host = naive_result.split.fields[("OTExample", "m1")].host
    print(f"m1 now lives on {m1_host}, out of Alice's sight of the read")

    print()
    print("=" * 70)
    print("Step 3: the strict Figure 2 program with Alice's preference")
    print("=" * 70)
    config_fig4 = TrustConfiguration([hosts["A"], hosts["B"], hosts["T"]])
    config_fig4.set_preference("Alice", "A", 0.5)
    config_fig4.set_preference("Bob", "B", 0.5)
    result = split_source(STRICT, config_fig4)
    print(fig4.render(result))

    print("=" * 70)
    print("Step 4: run it while Bob's machine, hostile, keeps every")
    print("capability it receives")
    print("=" * 70)
    session = Session(RuntimeImage.for_split(result.split))
    adversary = Adversary(session, "B")
    outcome = session.run()
    print(f"Bob received: {outcome.main_var('r')} "
          f"(asked for secret #1 = 100)")
    print(f"message profile: {outcome.counts}")

    print("\nBob races for the second secret:")
    print(" ", adversary.try_get_field("OTExample", "m2"))
    print(" ", adversary.try_set_field("OTExample", "isAccessed", False))
    transfer_entry = result.split.methods[("OTExample", "transfer")].entry
    print(" ", adversary.try_rgoto(transfer_entry))
    for token in adversary.captured_tokens:
        print(" ", adversary.try_replay(token))
    assert adversary.all_rejected()
    print("\nall attacks rejected — audit log:")
    for entry in session.network.audit_log:
        print("  *", entry)


if __name__ == "__main__":
    main()
