"""Set-up time of a workload, from a fresh process.

``setup_times`` launches this file as a child process several times
and times each launch until the child reports that the first op of
every program in the workload came back correct.  Each time is stated
in reference time (see ``reference.py``), scaled by the mean of the
reference kernel's times just before and just after the launch.  Run
as a script it is that child: ``python3 perfbench/setup_probe.py
<workload>`` from the repository root.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

#: Launches per run; ``setup_s`` is their median.
LAUNCHES = 12
TIMEOUT_S = 120.0


def setup_times(root: str, workload: str, launches: int, reference) -> list:
    from common import InvalidRun
    from reference import REF_MS

    times = []
    for _ in range(launches):
        before = reference.time_ms()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), workload],
            cwd=root,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise InvalidRun(f"{workload} set-up probe timed out")
        if proc.returncode != 0 or line.strip() != b"ready":
            raise InvalidRun(
                f"{workload} set-up probe failed ({proc.returncode}): "
                f"{(line + out + err).decode('utf-8', 'replace')[-800:]}"
            )
        machine = (before + reference.time_ms()) / 2
        times.append((ready - start) * REF_MS / machine)
    return times


def _first_ops_compile() -> str:
    import corpus
    from compile_wl import check, compile_op

    oracles: dict = {}
    for spec in corpus.first_of_each_family():
        source, config = corpus.materialize(spec)
        _split, image = compile_op(source, config)
        why = check(spec, source, image, oracles)
        if why:
            return f"{spec}: {why}"
    return ""


def _first_ops_sessions() -> str:
    from sessions_wl import check, prepare, serve_op

    prepared, _compiled = prepare()
    for name, (pool, _solo, _fields) in prepared.items():
        session, observables = serve_op(pool)
        why = check(name, session, observables, prepared)
        pool.release(session)
        if why:
            return why
    return ""


def _child(workload: str) -> int:
    sys.path[:0] = [
        os.path.join(os.getcwd(), "src"),
        os.path.dirname(os.path.abspath(__file__)),
    ]
    first_ops = {"compile": _first_ops_compile, "sessions": _first_ops_sessions}
    why = first_ops[workload]()
    if why:
        print(f"wrong: {why}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(_child(sys.argv[1]))
