"""Command-line interface: check, split, run, and report.

Usage (also via ``python -m repro``)::

    python -m repro check program.jif
    python -m repro split program.jif --hosts hosts.json [--graph]
    python -m repro run program.jif --hosts hosts.json [--opt-level N]
                       [--storage sqlite [--storage-dir DIR]]
    python -m repro faultsweep [program.jif --hosts hosts.json]
                               [--schedules N] [--seed S]
                               [--storage sqlite]
    python -m repro faultsweep [program.jif --hosts hosts.json]
                               --crash-points [--crash-mode MODE]
                               [--per-point K] [--storage sqlite]
    python -m repro faultsweep [program.jif --hosts hosts.json]
                               --storage-faults [--schedules N] [--seed S]
    python -m repro rehydrate --smoke
    python -m repro rehydrate program.jif --hosts hosts.json
                              --storage-dir DIR
    python -m repro serve [--host H] [--port P] [--rate R] [--burst B]
    python -m repro serve --smoke
    python -m repro table1
    python -m repro fig4

Failures follow one error contract, shared with the serve gateway: a
program rejected by the frontend or splitter prints ``REJECTED: ...``
and exits 1; every *operational* failure (missing input file, corrupt
hosts JSON, unusable --storage-dir, tampered artifact) prints exactly
one structured line to stderr —
``error: {"error": "<code>", "detail": "..."}`` with a code from
:data:`repro.runtime.gateway.ERROR_CODES` — and exits non-zero, never
a traceback.

Host placement minimises one cost model with two solvers (an exact
min-cut where the instance reduces to two hosts, else the chain-DP
heuristic); there is no option choosing between them.  Repeated splits
of the same (program, trust configuration) pair are served from the
whole-pipeline split cache (``repro.splitter.cache``), which lives in
the process and has no switch.  The package reads no environment
variables; durable storage is chosen per command (``run --storage
sqlite``, ``faultsweep --storage sqlite``, which gives each schedule or
crash point its own temporary SQLite tier).

Performance is measured from outside the package by the repo
benchmark (``python3 perfbench/run.py``, declared in
``BENCHMARK.json``).

The hosts file is JSON::

    {
      "hosts": [
        {"name": "A", "conf": "{Alice:}", "integ": "{?:Alice}"},
        {"name": "B", "conf": "{Bob:}",   "integ": "{?:Bob}"}
      ],
      "preferences": [{"principal": "Alice", "host": "A", "weight": 0.5}],
      "pins": [{"class": "C", "field": "f", "host": "A"}]
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .lang import JifError, check_source
from .runtime import RuntimeImage, Session
from .splitter import SplitError, split_source
from .trust import HostDescriptor, TrustConfiguration


class CliError(Exception):
    """An operational CLI failure with a structured one-line rendering.

    Mirrors the gateway's error contract (same closed code set), so a
    script driving ``repro run`` and a client driving ``repro serve``
    parse failures identically.
    """

    def __init__(self, code: str, detail: str, exit_code: int = 2) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.exit_code = exit_code

    def report(self) -> int:
        line = json.dumps(
            {"error": self.code, "detail": self.detail},
            separators=(", ", ": "),
        )
        print(f"error: {line}", file=sys.stderr)
        return self.exit_code


def read_program(path: str) -> str:
    """Read a program source file, or fail with a structured error."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise CliError(
            "bad-request",
            f"cannot read program {path!r}: "
            f"{error.strerror or error}".strip(),
        ) from error


def load_trust_configuration(path: str) -> TrustConfiguration:
    """Build a :class:`TrustConfiguration` from a JSON hosts file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise CliError(
            "bad-request",
            f"cannot read hosts file {path!r}: "
            f"{error.strerror or error}".strip(),
        ) from error
    except json.JSONDecodeError as error:
        raise CliError(
            "bad-request", f"hosts file {path!r} is not valid JSON: {error}"
        ) from error
    try:
        config = TrustConfiguration(
            HostDescriptor.of(h["name"], h["conf"], h["integ"])
            for h in data["hosts"]
        )
        for pref in data.get("preferences", ()):
            config.set_preference(
                pref["principal"], pref["host"], pref["weight"]
            )
        for pin in data.get("pins", ()):
            config.pin_field(pin["class"], pin["field"], pin["host"])
        for link in data.get("links", ()):
            config.set_link_cost(link["a"], link["b"], link["cost"])
    except (KeyError, TypeError, ValueError) as error:
        raise CliError(
            "bad-request",
            f"hosts file {path!r} is malformed: "
            f"{type(error).__name__}: {error}",
        ) from error
    return config


def cmd_check(args: argparse.Namespace) -> int:
    source = read_program(args.program)
    try:
        checked = check_source(source)
    except JifError as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    print(f"OK: {len(checked.classes)} classes, "
          f"{len(checked.methods)} methods, {len(checked.fields)} fields")
    if args.verbose:
        for key, info in sorted(checked.fields.items()):
            print(f"  field {key[0]}.{key[1]}: {info.label} "
                  f"(Loc = {{{info.loc_label}}})")
        for key, method in sorted(checked.methods.items()):
            print(f"  method {key[0]}.{key[1]}: begin {method.begin_label}, "
                  f"returns {method.return_label}")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    source = read_program(args.program)
    config = load_trust_configuration(args.hosts)
    try:
        result = split_source(source, config)
    except (JifError, SplitError) as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    split = result.split
    print(f"split into {len(split.fragments)} fragments over "
          f"{', '.join(split.hosts_used())}")
    for placement in split.fields.values():
        print(f"  field {placement.cls}.{placement.field} -> "
              f"{placement.host}")
    if args.graph:
        from .reporting import fig4

        print()
        print(fig4.render(result))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = read_program(args.program)
    config = load_trust_configuration(args.hosts)
    try:
        result = split_source(source, config)
    except (JifError, SplitError) as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    storage = None
    if args.storage == "sqlite":
        import tempfile

        from .runtime.storage import SessionStorage

        directory = args.storage_dir or tempfile.mkdtemp(
            prefix="repro-storage-"
        )
        storage = SessionStorage(directory)
        if args.storage_dir and not storage.available:
            # An *explicit* storage directory that cannot host the
            # durable tier is an operator error: fail fast with the
            # structured contract instead of silently running
            # memory-only against their stated intent.  (The tempdir
            # default degrades gracefully as before.)
            storage.close()
            raise CliError(
                "storage-degraded",
                f"--storage-dir {directory!r} unusable: "
                f"{storage.degraded_reason}",
                exit_code=1,
            )
        print(f"durable storage: sqlite at {directory}")
    outcome = Session(
        RuntimeImage.for_split(result.split), opt_level=args.opt_level,
        storage=storage,
    ).run()
    if storage is not None:
        if storage.available:
            from .runtime.storage import stats as storage_stats

            counters = storage_stats()
            print(f"durability: {counters['appends']} appends, "
                  f"{counters['checkpoints']} checkpoints, "
                  f"{counters['boundaries']} boundaries, "
                  f"{counters['fsyncs']} fsyncs")
        else:
            print(f"durable tier DEGRADED: {storage.degraded_reason}")
        storage.close()
    print(f"completed in {outcome.elapsed:.4f} simulated seconds")
    print(f"messages: {outcome.counts}")
    for (cls, field), placement in sorted(result.split.fields.items()):
        try:
            value = outcome.field_value(cls, field)
        except KeyError:
            continue
        print(f"  {cls}.{field} = {value}")
    if outcome.audits:
        print("audit log:")
        for entry in outcome.audits:
            print(f"  * {entry}")
    return 0


def cmd_faultsweep(args: argparse.Namespace) -> int:
    from .runtime.faultsweep import (
        crash_point_sweep,
        storage_fault_sweep,
        sweep,
    )
    from .workloads import ot

    if args.storage_faults and (args.crash_points or args.storage != "memory"):
        raise CliError(
            "bad-request",
            "faultsweep: --storage-faults runs its own sqlite tier and "
            "cannot be combined with --crash-points or --storage sqlite",
        )
    # Each option applies to one kind of sweep; an explicit value for
    # another kind is refused rather than ignored.
    if args.crash_points:
        other = (("--schedules", args.schedules), ("--seed", args.seed))
        why = "cannot be combined with --crash-points"
    else:
        other = (("--per-point", args.per_point),
                 ("--crash-mode", args.crash_mode))
        why = "applies only with --crash-points"
    given = [flag for flag, value in other if value is not None]
    if given:
        raise CliError(
            "bad-request", f"faultsweep: {' and '.join(given)} {why}"
        )
    schedules = 50 if args.schedules is None else args.schedules
    seed = 0 if args.seed is None else args.seed
    per_point = 2 if args.per_point is None else args.per_point
    crash_mode = args.crash_mode or "volatile"
    if args.program:
        if not args.hosts:
            raise CliError(
                "bad-request", "faultsweep: --hosts is required with a program"
            )
        targets = [(args.program,
                    read_program(args.program),
                    load_trust_configuration(args.hosts))]
    else:
        # Default target: the Figure 4 partition (one OT round).
        targets = [("fig4-ot", ot.source(rounds=1), ot.config())]
        if args.crash_points:
            # The crash-point sweep is deterministic per target, so it
            # is cheap enough to also cover the other Table 1 workloads
            # (at reduced sizes — boundary coverage, not load).
            from .workloads import listcompare, medical, tax, work

            targets.extend([
                ("tax", tax.source(records=3), tax.config()),
                ("work", work.source(rounds=2, inner=2), work.config()),
                ("listcompare", listcompare.source(elements=3),
                 listcompare.config()),
                ("medical", medical.source(patients=3), medical.config()),
            ])
    exit_code = 0
    for name, source, config in targets:
        try:
            split = split_source(source, config).split
        except (JifError, SplitError) as error:
            print(f"REJECTED: {error}", file=sys.stderr)
            return 1
        if args.storage_faults:
            report = storage_fault_sweep(
                split,
                schedules=schedules,
                base_seed=seed,
                opt_level=args.opt_level,
                name=name,
            )
            print(f"storage fault sweep over {name} "
                  f"(base seed {seed}):")
        elif args.crash_points:
            report = crash_point_sweep(
                split,
                opt_level=args.opt_level,
                per_point=per_point,
                crash_mode=crash_mode,
                name=name,
                storage=args.storage,
            )
            print(f"crash-point sweep over {name} "
                  f"(mode {crash_mode}):")
        else:
            report = sweep(
                split,
                schedules=schedules,
                base_seed=seed,
                opt_level=args.opt_level,
                name=name,
                storage=args.storage,
            )
            print(f"fault sweep over {name} (base seed {seed}):")
        print(report.summary())
        if report.failures:
            exit_code = 1
    return exit_code


def cmd_rehydrate(args: argparse.Namespace) -> int:
    """Rehydrate a dead process's session (or run the SIGKILL smoke)."""
    if args.smoke:
        from .runtime.storage.harness import kill_and_rehydrate
        from .workloads import listcompare, medical, ot, tax, work

        targets = [
            ("ot", ot.source(rounds=2), ot.config()),
            ("tax", tax.source(records=3), tax.config()),
            ("work", work.source(rounds=2, inner=2), work.config()),
            ("listcompare", listcompare.source(elements=3),
             listcompare.config()),
            ("medical", medical.source(patients=3), medical.config()),
        ]
        exit_code = 0
        for name, source, config in targets:
            split = split_source(source, config).split
            for kill_after in (2, 6):
                outcome, child = kill_and_rehydrate(
                    split, kill_after_boundaries=kill_after
                )
                verdict = "ok"
                if outcome.status != "ok":
                    verdict = f"MISMATCH: {outcome.detail}"
                    exit_code = 1
                print(f"  {name}: SIGKILL after boundary {kill_after} "
                      f"(child exit {child}) -> rehydrated {verdict}")
        print("kill-and-rehydrate smoke "
              + ("passed" if exit_code == 0 else "FAILED"))
        return exit_code
    if not (args.program and args.hosts and args.storage_dir):
        raise CliError(
            "bad-request",
            "rehydrate: program, --hosts, and --storage-dir are required "
            "(or use --smoke)",
        )
    from .runtime.checkpoint import CheckpointTamperError
    from .runtime.storage import StorageUnavailableError, rehydrate_session

    source = read_program(args.program)
    config = load_trust_configuration(args.hosts)
    try:
        result = split_source(source, config)
    except (JifError, SplitError) as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 1
    try:
        session = rehydrate_session(result.split, args.storage_dir)
    except CheckpointTamperError as error:
        # A tampered or corrupt artifact fails closed as a security
        # rejection — same code the gateway uses for quarantine.
        raise CliError("quarantine", str(error), exit_code=1) from error
    except StorageUnavailableError as error:
        raise CliError(
            "storage-degraded", str(error), exit_code=1
        ) from error
    outcome = session.run()
    print(f"rehydrated and completed in {outcome.elapsed:.4f} "
          f"simulated seconds")
    for (cls, field), placement in sorted(result.split.fields.items()):
        try:
            value = outcome.field_value(cls, field)
        except KeyError:
            continue
        print(f"  {cls}.{field} = {value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve execution requests over TCP (or run the CI smoke)."""
    from .runtime import gateway as gateway_mod

    if args.smoke:
        return gateway_mod.smoke(verbose=not args.quiet)

    import asyncio

    async def _serve() -> None:
        gw = gateway_mod.Gateway(
            host=args.host,
            port=args.port,
            rate=args.rate,
            burst=args.burst,
            opt_level=args.opt_level,
        )
        host, port = await gw.start()
        print(f"serving on {host}:{port} "
              f"(workloads: {', '.join(gateway_mod.WORKLOAD_NAMES)}; "
              f"rate {args.rate}/s, burst {args.burst} per principal)")
        try:
            await gw.serve_forever()
        finally:
            await gw.close()
            snapshot = gw.stats.snapshot()
            print(f"served {snapshot['requests']} requests over "
                  f"{snapshot['connections']} connections "
                  f"({snapshot['errors']} errors); "
                  f"p50 {snapshot['latency']['p50']:.4f}s, "
                  f"p99 {snapshot['latency']['p99']:.4f}s")

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .reporting.table1 import render

    print(render())
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    from .reporting import fig4
    from .workloads import ot

    result = split_source(ot.source(rounds=1), ot.config())
    print(fig4.render(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure program partitioning (Jif/split, SOSP 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check a mini-Jif program")
    check.add_argument("program")
    check.add_argument("-v", "--verbose", action="store_true")
    check.set_defaults(func=cmd_check)

    split = sub.add_parser("split", help="partition a program")
    split.add_argument("program")
    split.add_argument("--hosts", required=True, help="hosts JSON file")
    split.add_argument("--graph", action="store_true",
                       help="print the Figure 4-style fragment graph")
    split.set_defaults(func=cmd_split)

    run = sub.add_parser("run", help="partition and execute a program")
    run.add_argument("program")
    run.add_argument("--hosts", required=True)
    run.add_argument("--opt-level", type=int, default=1, choices=(0, 1, 2))
    run.add_argument(
        "--storage", choices=("memory", "sqlite"), default="memory",
        help="durable storage backend: 'sqlite' persists every "
             "checkpoint/WAL boundary to a write-ahead-logged database "
             "a rehydrated process can resume from",
    )
    run.add_argument(
        "--storage-dir",
        help="directory for --storage sqlite (default: a fresh tempdir)",
    )
    run.set_defaults(func=cmd_run)

    faultsweep = sub.add_parser(
        "faultsweep",
        help="run seeded fault-injection schedules; verify the run "
             "completes with the fault-free result or fails closed",
    )
    faultsweep.add_argument(
        "program", nargs="?", default=None,
        help="mini-Jif program (default: the Figure 4 OT example)",
    )
    faultsweep.add_argument("--hosts", help="hosts JSON file")
    faultsweep.add_argument(
        "--schedules", type=int, default=None,
        help="seeded schedules to run (default 50); not with --crash-points",
    )
    faultsweep.add_argument(
        "--seed", type=int, default=None,
        help="base seed of the schedules (default 0); not with "
             "--crash-points",
    )
    faultsweep.add_argument("--opt-level", type=int, default=1,
                            choices=(0, 1, 2))
    faultsweep.add_argument(
        "--crash-points", action="store_true",
        help="instead of random schedules, crash each host at each "
             "message-kind receipt boundary and verify recovery is "
             "bit-identical to the fault-free run",
    )
    faultsweep.add_argument(
        "--crash-mode", choices=("durable", "volatile"), default=None,
        help="with --crash-points, what a crash destroys: 'volatile' "
             "(the default) wipes everything but the checkpointed store "
             "and recovers via WAL replay",
    )
    faultsweep.add_argument(
        "--per-point", type=int, default=None,
        help="with --crash-points, receipt indices sampled per (host, "
             "kind) crash point (default 2)",
    )
    faultsweep.add_argument(
        "--storage", choices=("memory", "sqlite"), default="memory",
        help="with 'sqlite', run each schedule or crash point over its "
             "own SQLite tier in a temporary directory (removed "
             "afterwards), so protocol faults also exercise the "
             "write-through persistence path; the fault-free reference "
             "runs without one",
    )
    faultsweep.add_argument(
        "--storage-faults", action="store_true",
        help="sweep seeded *storage* fault schedules instead (injected "
             "busy/locked errors, disk-full, post-run tampering); "
             "verifies graceful degradation and fail-closed rehydration; "
             "not with --crash-points or --storage sqlite",
    )
    faultsweep.set_defaults(func=cmd_faultsweep)

    rehydrate = sub.add_parser(
        "rehydrate",
        help="resume a SIGKILLed run from its sqlite storage directory, "
             "or (--smoke) fork+SIGKILL workers over the Table 1 "
             "workloads and verify rehydrated results are bit-identical",
    )
    rehydrate.add_argument("program", nargs="?", default=None)
    rehydrate.add_argument("--hosts", help="hosts JSON file")
    rehydrate.add_argument("--storage-dir",
                           help="storage directory of the dead process")
    rehydrate.add_argument(
        "--smoke", action="store_true",
        help="kill-and-rehydrate harness over all Table 1 workloads",
    )
    rehydrate.set_defaults(func=cmd_rehydrate)

    serve = sub.add_parser(
        "serve",
        help="run the TCP gateway: clients multiplex Table 1 workload "
             "executions (pooled sessions or real forked host "
             "processes) with per-principal rate limiting and "
             "structured error frames",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: OS-assigned)")
    serve.add_argument("--rate", type=float, default=16.0,
                       help="requests/second refill per principal")
    serve.add_argument("--burst", type=float, default=32.0,
                       help="token-bucket burst capacity per principal")
    serve.add_argument("--opt-level", type=int, default=1,
                       choices=(0, 1, 2))
    serve.add_argument(
        "--smoke", action="store_true",
        help="CI acceptance sequence: all five Table 1 workloads over "
             "real TCP host processes bit-identical to the simulated "
             "oracle, 16 concurrent multiplexed clients, rate-limit "
             "shedding with structured errors",
    )
    serve.add_argument("--quiet", action="store_true")
    serve.set_defaults(func=cmd_serve)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.set_defaults(func=cmd_table1)

    fig4 = sub.add_parser("fig4", help="print the Figure 4 partition")
    fig4.set_defaults(func=cmd_fig4)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as error:
        return error.report()


if __name__ == "__main__":
    raise SystemExit(main())
