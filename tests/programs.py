"""Shared mini-Jif programs and trust configurations used across tests."""

import contextlib
from unittest import mock

from repro.splitter import cache, optimizer
from repro.trust import HostDescriptor, TrustConfiguration, example_hosts

#: Figure 2, written strictly (every flow to Bob is declassified and
#: isAccessed is readable by Bob, since Bob observably learns whether
#: his request was first).
OT_SOURCE = """
class OTExample authority(Alice) {
  int{Alice:; ?:Alice} m1;
  int{Alice:; ?:Alice} m2;
  boolean{Alice: Bob; ?:Alice} isAccessed;
  int{Bob:; ?:Bob} request = 1;

  int{Bob:} transfer{?:Alice}(int{Bob:} n) where authority(Alice) {
    int tmp1 = m1;
    int tmp2 = m2;
    if (!isAccessed) {
      isAccessed = true;
      if (endorse(n, {?:Alice}) == 1)
        return declassify(tmp1, {Bob:});
      else
        return declassify(tmp2, {Bob:});
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

#: The naive oblivious transfer of Section 4.2: declassifies the fields
#: directly inside the branch on Bob's request, creating a read channel.
OT_NAIVE_SOURCE = """
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

#: Oblivious transfer restructured for the Section 4.2 "host S"
#: scenario: Bob's request is a field read inside transfer (so the call
#: itself carries no Bob-confidential argument), and the temporaries let
#: the splitter copy Alice's values to S instead of locating her fields
#: there.
OT_S_SOURCE = """
class OTExample authority(Alice) {
  int{Alice:; ?:Alice} m1;
  int{Alice:; ?:Alice} m2;
  boolean{Alice: Bob; ?:Alice} isAccessed;
  int{Bob:} request = 1;

  int{Bob:} transfer{?:Alice}() where authority(Alice) {
    int tmp1 = m1;
    int tmp2 = m2;
    if (!isAccessed) {
      isAccessed = true;
      if (endorse(request, {?:Alice}) == 1)
        return declassify(tmp1, {Bob:});
      else
        return declassify(tmp2, {Bob:});
    }
    else return declassify(0, {Bob:});
  }

  void main{?:Alice}() where authority(Alice) {
    m1 = 100;
    m2 = 200;
    isAccessed = false;
    int r = transfer();
  }
}
"""

#: A single-principal compute kernel (no distribution pressure).
SIMPLE_SOURCE = """
class Simple {
  int{Alice:; ?:Alice} total;

  void main{?:Alice}() {
    int{Alice:; ?:Alice} acc = 0;
    int{Alice:; ?:Alice} i = 0;
    while (i < 10) {
      acc = acc + i * i;
      i = i + 1;
    }
    total = acc;
  }
}
"""

#: Two principals with a loop whose body touches both hosts: Bob's
#: seed is public but carries only his integrity, so Alice endorses each
#: contribution before accumulating it into her trusted total.
PINGPONG_SOURCE = """
class PingPong authority(Alice) {
  int{Alice:; ?:Alice} aliceTotal;
  int{?:Bob} bobSeed = 7;

  void main{?:Alice}() where authority(Alice) {
    int{Alice:; ?:Alice} acc = 0;
    int{?:Alice} i = 0;
    while (i < 5) {
      int contribution = bobSeed + i;
      acc = acc + endorse(contribution, {?:Alice});
      i = i + 1;
    }
    aliceTotal = acc;
  }
}
"""


def config_ab() -> TrustConfiguration:
    """Just Alice's and Bob's machines (no trusted third party)."""
    hosts = example_hosts()
    return TrustConfiguration([hosts["A"], hosts["B"]])


def config_abt(prefer_alice_a: bool = True) -> TrustConfiguration:
    """A, B and the trusted T of Section 3.1; optionally Alice pins her
    data to her own machine (the Figure 4 setup)."""
    hosts = example_hosts()
    config = TrustConfiguration([hosts["A"], hosts["B"], hosts["T"]])
    if prefer_alice_a:
        config.set_preference("Alice", "A", 0.5)
    return config


def config_abs() -> TrustConfiguration:
    """A, B and the confidentiality-only S of Section 3.1."""
    hosts = example_hosts()
    return TrustConfiguration([hosts["A"], hosts["B"], hosts["S"]])


def single_host_config(name: str = "H") -> TrustConfiguration:
    """One universally trusted host (the degenerate single-host case)."""
    return TrustConfiguration(
        [HostDescriptor.of(name, "{Alice:; Bob:}", "{?:Alice, Bob}")]
    )


@contextlib.contextmanager
def heuristic_placement():
    """Split with the chain-DP heuristic alone: the exact cut declines
    every instance, and the split cache starts empty and gets its
    entries back afterwards, so no split the cut placed is served inside
    and no heuristic split outlives the block."""
    with mock.patch.object(optimizer, "try_exact", lambda model: None):
        with mock.patch.dict(cache._MEMORY, clear=True):
            yield
