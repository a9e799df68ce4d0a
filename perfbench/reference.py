"""The machine's speed, timed on a fixed kernel in a child process.

On a shared host the same pure-Python code runs up to 2x slower for
seconds to minutes at a time, as neighbours load the machine; on a
2-vCPU VM this kernel's median over a 45-second run ranged from 3.3 to
7.9 ms within an hour, and the program's per-op times moved with it.  The benchmark therefore
times this kernel next to its ops and states every end-to-end time in
reference time: a measured time times ``REF_MS`` over the kernel's
time measured beside it, i.e. the time on a machine on which the
kernel takes ``REF_MS``.

The kernel is benchmark code and never calls the program.  It runs in
its own process, so the program's heap cannot change what it measures,
and the benchmark waits while it runs, so the two never overlap.

Run as a script it is that child: each line on stdin runs the kernel
once and prints its time in ms; end of input ends it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

#: The kernel's time on the reference machine: a fixed constant within
#: the 3.3 to 7.9 ms it took on the 2-vCPU VM the benchmark was tuned on.
REF_MS = 5.0
#: Kernel rounds per timing (about ``REF_MS`` on the reference machine).
ROUNDS = 3000
TIMEOUT_S = 10.0


class _Message:
    def __init__(self, seq, key, body):
        self.seq = seq
        self.key = key
        self.body = body


def kernel(rounds: int = ROUNDS) -> int:
    """Objects, dicts, lists, strings, sorting and small hashes: the
    kinds of work the program's interpreter loop does."""
    table = {}
    log = []
    acc = 0
    for i in range(rounds):
        key = f"h{i % 97}.f{i % 13}"
        message = _Message(i, key, [i, i + 1, key])
        previous = table.get(key)
        table[key] = message
        if previous is not None:
            acc += previous.seq + len(previous.body)
        log.append(message)
        if i % 6 == 0:
            acc ^= hashlib.sha256(key.encode()).digest()[0]
        if i % 200 == 199:
            log.sort(key=lambda m: (m.key, -m.seq))
            acc += sum(m.seq for m in log[:50])
            log = log[-100:]
    return acc


class Reference:
    """The kernel's child process; ``time_ms`` runs it once."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def time_ms(self) -> float:
        from common import InvalidRun

        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise InvalidRun("the reference kernel's process ended")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _child() -> int:
    kernel(ROUNDS // 6)
    for _line in sys.stdin:
        start = time.perf_counter()
        kernel()
        sys.stdout.write(f"{(time.perf_counter() - start) * 1e3:.6f}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(_child())
