"""What each path loads.

Compiling a split (``split_source`` + ``RuntimeImage.for_split``) and
running it on the simulated network (``Session(image).run()``) import
only the modules they run.  The attack suite, the durable store and
the SQLite tier, the fault sweeps and their forked workers, the TCP
transport and the gateway, the RMI baselines, the report harnesses and
the pretty-printer load on first use: the packages export their names
lazily (PEP 562, :mod:`repro._lazy`).  Both halves are checked in a
fresh interpreter, since this test process has long since imported
everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: Never imported by the compile path or a fault-free simulated run.
NOT_ON_THE_RUN_PATH = [
    "sqlite3",
    "multiprocessing",
    "socket",
    "asyncio",
    "repro.runtime.storage.sqlite_backend",
    "repro.runtime.storage.faultsim",
    "repro.runtime.faultsweep",
    "repro.runtime.attacks",
    "repro.runtime.transport.tcp",
    "repro.runtime.gateway",
    "repro.runtime.rmi",
    "repro.runtime.checkpoint",
    "repro.reporting.experiments",
    "repro.reporting.table1",
    "repro.reporting.fig4",
    "repro.lang.pretty",
]

#: The packages with lazily exported names.
LAZY_PACKAGES = [
    "repro",
    "repro.runtime",
    "repro.runtime.storage",
    "repro.reporting",
    "repro.workloads",
    "repro.lang",
]

_RUN_OT = """
import json, sys
from repro.runtime import RuntimeImage, Session
from repro.splitter import split_source
from repro.workloads import ot
split = split_source(ot.source(), ot.config()).split
session = Session(RuntimeImage.for_split(split))
session.run()
received = session.result().field_value("OTBench", "received")
assert received == 4242 * ot.DEFAULT_ROUNDS, received
print(json.dumps(sorted(sys.modules)))
"""

_EXPORTS = """
import importlib, sys
name = sys.argv[1]
if name == "repro.runtime.storage":
    # The first touch of the package: its own functions read STATS.
    from repro.runtime import storage
    storage.reset_stats()
    assert storage.stats() == storage.STATS.as_dict()
package = importlib.import_module(name)
for export in package.__all__:
    assert getattr(package, export) is not None, export
    assert export in dir(package), export
namespace = {}
exec(f"from {name} import *", namespace)
missing = set(package.__all__) - set(namespace)
assert not missing, missing
try:
    package.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")
print("ok")
"""


def _python(code, *args):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_compile_and_run_load_only_what_they_run():
    loaded = set(json.loads(_python(_RUN_OT)))
    assert "repro.runtime.session" in loaded
    assert sorted(loaded & set(NOT_ON_THE_RUN_PATH)) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_in_a_fresh_interpreter(package):
    assert _python(_EXPORTS, package) == "ok"


def test_lazy_exports_are_the_defining_objects():
    from repro import runtime, workloads
    from repro.runtime import attacks, checkpoint, storage
    from repro.runtime.storage import sqlite_backend
    from repro.workloads import handcoded

    assert repro.Adversary is runtime.Adversary is attacks.Adversary
    assert runtime.DurableStore is checkpoint.DurableStore
    assert runtime.SessionStorage is storage.SessionStorage
    assert storage.SessionStorage is sqlite_backend.SessionStorage
    assert runtime.StorageError is storage.StorageError
    assert workloads.run_ot_handcoded is handcoded.run_ot_handcoded
