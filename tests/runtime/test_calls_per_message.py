"""Guard the cost of the protocol path in Python calls per message.

The run time the paper measures (Section 5) is the rgoto/lgoto/sync
protocol plus data forwarding, and in this reproduction its cost is
mostly Python function calls: receiving a message, admitting it,
entering the generated component and building and posting the next
transfer.  cProfile counts every call, C functions included, so the
count per message is deterministic for one interpreter and does not
depend on the machine's speed.

The runs are pooled sessions of the five Table 1 programs, the way
``repro serve``'s workers run them, after one warm-up run of each that
compiles their components.  Every session gets no storage tier, since a
durable tier's WAL writes are not protocol cost.
"""

import cProfile
import pstats

from repro.runtime import RuntimeImage, SessionPool
from repro.splitter import split_source
from repro.workloads import listcompare, medical, ot, tax, work

#: Calls per message the protocol path may cost.  Routing every exit
#: through generic host methods cost 41.6; generated exits with an
#: ``ExecutionState`` per transfer and ``hmac`` copy chains cost 28.0,
#: and without them 26.5, then 24.7.  Direct access to fields placed on
#: the executing host, deferred forwards kept as ready payloads and
#: buffered token nonces cost 23.9 (Python 3.10 to 3.13 alike).
LIMIT = 24
#: Pooled runs of each program that are counted.
RUNS = 5


def run(pool):
    session = pool.acquire()
    messages = session.run().network.counts["messages"]
    pool.release(session)
    return messages


def test_calls_per_message():
    pools = [
        SessionPool(
            RuntimeImage.for_split(
                split_source(module.source(), module.config()).split
            ),
            storage=None,
        )
        for module in (listcompare, ot, tax, work, medical)
    ]
    for pool in pools:
        run(pool)
    profile = cProfile.Profile()
    messages = 0
    profile.enable()
    for _ in range(RUNS):
        for pool in pools:
            messages += run(pool)
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert messages
    assert calls / messages <= LIMIT, (calls, messages)
