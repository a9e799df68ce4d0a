"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``compile``   -- ``split_source`` + ``RuntimeImage.for_split`` over a
  seeded stream of (source, trust configuration) pairs;
* ``sessions`` -- requests on pooled sessions of the five Table 1
  programs, in process, the way the gateway's workers run them.

``--trace 0`` measures the end-to-end metrics with no span code on the
timed path.  ``--trace 1`` measures half the time untraced and half
traced (their gap is ``bench.trace_overhead_frac``), then runs the layer
census (every layer, the ``repro serve`` gateway under an open-loop
probe, TCP transport and SQLite storage included, timed through public
functions), and prints the per-layer metrics; its spans, with each layer's
self time, go to ``.perfbench/trace-<workload>-seed<n>.json``.

Throughput (``ops_per_s``) counts correct ops per second of op time:
the benchmark's own correctness checks between ops are not counted.
Every end-to-end time is stated in reference time, scaled by a fixed
kernel timed beside the ops in a child process (see ``reference.py``),
because this kind of shared host changes speed by up to 2x between
runs; the unscaled p50 and the kernel's median time are printed as
notes.
Every op's output is checked; the last stdout line is the JSON result.
Exit codes: 0 measured, 2 no ``src/repro`` under the working directory,
3 the measurement broke one of its own validity rules.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("compile", "sessions")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _measure(root: str, args) -> dict:
    import compile_wl
    import sessions_wl
    from common import median
    from reference import Reference
    from setup_probe import LAUNCHES, setup_times

    module = {"compile": compile_wl, "sessions": sessions_wl}[args.workload]
    with Reference() as reference:
        if args.trace:
            return module.measure(args.seed, args.seconds, True, reference)
        # Half the set-up launches come before the timed loop and half
        # after, so that ``setup_s`` samples the machine at two moments
        # a run apart rather than in one window of a few seconds.
        times = setup_times(root, args.workload, LAUNCHES // 2, reference)
        out = module.measure(args.seed, args.seconds, False, reference)
        times += setup_times(root, args.workload, LAUNCHES - LAUNCHES // 2,
                             reference)
    out["setup_s"] = median(times)
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    # A launcher may start this process with SIGINT ignored, as a shell
    # does a background job.  An ignored signal stays ignored across
    # exec, so the gateway would ignore the SIGINT that stops it; a
    # handled one is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # The program sees only the generated inputs: no inherited knobs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [os.path.join(root, "src"), HERE]

    from common import END_TO_END, PER_LAYER, InvalidRun, emit

    try:
        out = _measure(root, args)
        if args.trace:
            import layers

            metrics = layers.per_layer(root, args.workload, args.seed, out)
            units = PER_LAYER
        else:
            metrics = {name: out[name] for name in END_TO_END}
            units = END_TO_END
    except InvalidRun as err:
        print(f"perfbench: invalid run: {err}", file=sys.stderr)
        return 3
    emit(metrics, units, out["tally"], out["notes"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
