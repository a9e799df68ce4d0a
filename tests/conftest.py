"""Suite-wide options.

``--session-storage sqlite`` reruns the whole suite with a durable tier
under every simulated session that did not ask for one: each
``Session`` built without a ``storage`` keyword, and each
``run_split_program``, ``traced_run`` or ``recorded_run`` call given
``storage=None``, gets its own ``SessionStorage`` in the test's
temporary directory, closed when the test tears down.  Write-through persistence must be observably free, so
every assertion of the in-memory run still holds, and pooled sessions
keep their tier through ``reset``.  An explicit ``Session(...,
storage=None)`` (the rehydration path) stays without one, and so does a
TCP session, which has no durable tier.
"""

import itertools
import shutil

import pytest

from repro.runtime import Session, SessionStorage, executor, trace


def pytest_addoption(parser):
    parser.addoption(
        "--session-storage",
        choices=("memory", "sqlite"),
        default="memory",
        help="durable tier for sessions built without one: 'sqlite' "
             "gives each its own SessionStorage under the test's tmp dir",
    )


@pytest.fixture(autouse=True)
def _session_storage(request, monkeypatch):
    if request.config.getoption("session_storage") != "sqlite":
        yield
        return
    base = request.getfixturevalue("tmp_path_factory").mktemp("sessions")
    serial = itertools.count()
    tiers = []

    def tier():
        storage = SessionStorage(str(base / f"s{next(serial)}"))
        tiers.append(storage)
        return storage

    session_init = Session.__init__

    def init_session(self, image, *args, **kwargs):
        if "storage" not in kwargs:
            kwargs["storage"] = tier()
        session_init(self, image, *args, **kwargs)

    def single_run_session(image, *args, storage=None, **kwargs):
        if storage is None:
            storage = tier()
        return Session(image, *args, storage=storage, **kwargs)

    monkeypatch.setattr(Session, "__init__", init_session)
    # The single-run helpers build their session through these module
    # globals; a faultsweep schedule passes storage=None through
    # trace.recorded_run.
    for module in (executor, trace):
        monkeypatch.setattr(module, "Session", single_run_session)
    yield
    for storage in tiers:
        storage.close()
    shutil.rmtree(base, ignore_errors=True)
