"""The traced run's layer census: every layer timed from outside.

A workload's own traced phase exercises only some layers.  The census
calls the public functions of every layer, on the workload's own
programs wherever a layer takes programs, so that each traced run
reports every per-layer metric.  Spans go to the tracer the caller
passes; nothing here runs on an untraced timed path.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, Sequence, Tuple

from repro.lang import check_program, parse_program, tokenize
from repro.reporting import throughput
from repro.runtime import (
    RuntimeImage,
    Session,
    SessionPool,
    SessionStorage,
    TokenFactory,
)
from repro.runtime import storage as storage_mod
from repro.runtime.transport.tcp import run_split_over_tcp
from repro.runtime.values import FrameID
from repro.splitter import (
    assign_hosts,
    compute_candidates,
    lower_program,
    split_program,
    split_source,
    translate,
    validate_split,
)
from repro.trust import KeyRegistry, TrustConfiguration

import corpus
from common import Tally, Tracer, clear_cache, work_dir

Program = Tuple[str, TrustConfiguration]

#: Repeats of each census probe; metrics take medians over them.
REPEATS = 3
#: Tokens minted (then verified) per timed token batch.
TOKEN_BATCH = 2000
#: Durable runs per request-sized program in the storage probe.
STORAGE_REPEATS = 3


def stage_probe(tracer: Tracer, programs: Sequence[Program]) -> None:
    """Each frontend and splitter stage through its public function,
    on a cold frontend cache, beside one whole ``split_program`` on the
    checked program with the split cache off, so an unattributed
    remainder (forwarding, ACLs, assembly) shows."""
    for rep in range(REPEATS):
        for index, (source, config) in enumerate(programs):
            clear_cache("lang")
            with tracer.span("census.stages", op=f"stages:{rep}:{index}"):
                with tracer.span("lang.lexer.tokenize") as span:
                    tokens = tokenize(source)
                span[6]["tokens"] = len(tokens)
                # Tokens are now cached, so this span is the parser alone.
                with tracer.span("lang.parser.parse"):
                    ast = parse_program(source)
                with tracer.span("lang.typecheck.check"):
                    checked = check_program(ast, config.hierarchy)
                os.environ["REPRO_SPLIT_CACHE"] = "0"
                try:
                    with tracer.span("splitter.split") as span:
                        split = split_program(checked, config).split
                finally:
                    del os.environ["REPRO_SPLIT_CACHE"]
                span[6]["fragments"] = len(split.fragments)
                with tracer.span("splitter.lower"):
                    program = lower_program(checked)
                with tracer.span("splitter.candidates"):
                    candidates = compute_candidates(checked, program, config)
                with tracer.span("splitter.assign_hosts"):
                    assignment = assign_hosts(
                        checked, program, config, candidates
                    )
                with tracer.span("splitter.translate"):
                    translate(program, assignment, config)
                with tracer.span("splitter.validate"):
                    validate_split(split)
                with tracer.span("runtime.session.image_build"):
                    RuntimeImage(split)


def run_probe(
    tracer: Tracer, programs: Dict[str, Program], span_name: str
) -> None:
    """Pooled ``Session.run`` per program, as the gateway runs it."""
    for name, (source, config) in programs.items():
        pool = SessionPool(
            RuntimeImage.for_split(split_source(source, config).split)
        )
        warm = pool.acquire()
        warm.run()
        pool.release(warm)
        for rep in range(REPEATS):
            session = pool.acquire()
            with tracer.span(span_name, op=f"run:{name}:{rep}") as span:
                result = session.run()
            span[6]["program"] = name
            span[6]["messages"] = result.counts["total_messages"]
            pool.release(session)


def token_probe(tracer: Tracer, tally: Tally) -> None:
    """``TokenFactory.mint`` and ``verify`` in timed batches."""
    factory = TokenFactory("census", KeyRegistry())
    frame = FrameID(("Census", "main"))
    for rep in range(REPEATS):
        with tracer.span("runtime.tokens.mint", op=f"tokens:{rep}") as span:
            tokens = [factory.mint(frame, "e") for _ in range(TOKEN_BATCH)]
        span[6]["n"] = TOKEN_BATCH
        with tracer.span("runtime.tokens.verify", op=f"tokens:{rep}") as span:
            verdicts = [factory.verify(token) for token in tokens]
        span[6]["n"] = TOKEN_BATCH
        tally.note(0.0, all(verdicts), "a freshly minted token failed to verify")


def tcp_probe(
    tracer: Tracer, oracles: Dict[str, dict], tally: Tally
) -> None:
    """``run_split_over_tcp`` on each Table 1 program and on the
    13-message ``ot(rounds=1)``; every run checked against the solo
    simulated oracle."""
    programs = {name: corpus.table1_program(name) for name in corpus.TABLE1}
    programs["ot1"] = throughput.request_workloads()["OT"]
    splits = {
        name: split_source(source, config).split
        for name, (source, config) in programs.items()
    }
    small_oracle = session_oracles({"ot1": programs["ot1"]})["ot1"]
    for rep in range(REPEATS):
        for name, split in splits.items():
            with tracer.span(
                "runtime.transport.tcp.run", op=f"tcp:{name}:{rep}"
            ) as span:
                result = run_split_over_tcp(split)
            observables = result.observables()
            span[6]["program"] = name
            span[6]["messages"] = observables["messages"]["total_messages"]
            want = small_oracle if name == "ot1" else oracles[name]
            tally.note(
                span[3] - span[2],
                observables == want,
                f"tcp {name}: observables differ from the solo session",
            )


def session_oracles(programs: Dict[str, Program]) -> Dict[str, dict]:
    """Solo-session observables per program: what every pooled, served
    or TCP run of that program must reproduce exactly."""
    oracles = {}
    for name, (source, config) in programs.items():
        image = RuntimeImage.for_split(split_source(source, config).split)
        session = Session(image)
        session.run()
        oracles[name] = session.observables()
    return oracles


def storage_probe(root: str, tracer: Tracer, tally: Tally) -> Tuple[Dict[str, Any], int]:
    """Sessions over an explicit on-disk ``SessionStorage``, one fresh
    directory per run; returns the storage counters' change and the
    number of runs.  Durability goes through ``SessionStorage`` itself,
    never ``SessionPool`` with ``REPRO_STORAGE=sqlite``, whose recycled
    sessions seal no boundaries.  A run that sealed no boundary, or
    degraded the tier, has failed."""
    programs = throughput.request_workloads()
    base = os.path.join(work_dir(root), f"storage-{os.getpid()}")
    before = storage_mod.stats()
    runs = 0
    try:
        for rep in range(STORAGE_REPEATS):
            for name, (source, config) in programs.items():
                image = RuntimeImage.for_split(split_source(source, config).split)
                oracle = corpus.single_host_fields(source)
                directory = os.path.join(base, f"{name}-{rep}")
                sealed = storage_mod.stats()
                with tracer.span("storage.run", op=f"storage:{name}:{rep}") as span:
                    storage = SessionStorage(directory)
                    result = Session(image, storage=storage).run()
                    storage.close()
                shutil.rmtree(directory)
                after = storage_mod.stats()
                why = corpus.fields_match(result, oracle)
                if after["boundaries"] == sealed["boundaries"]:
                    why = f"{name}: sealed no boundary"
                elif after["degradations"] != sealed["degradations"]:
                    why = f"{name}: the storage tier degraded"
                tally.note(span[3] - span[2], not why, why)
                runs += 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    after = storage_mod.stats()
    delta: Dict[str, Any] = {
        key: after[key] - before[key]
        for key in ("fsyncs", "boundaries", "degradations")
    }
    delta["op_timings"] = {
        op: (
            row["count"] - before["op_timings"].get(op, {"count": 0})["count"],
            row["seconds"] - before["op_timings"].get(op, {"seconds": 0.0})["seconds"],
        )
        for op, row in after["op_timings"].items()
    }
    return delta, runs
