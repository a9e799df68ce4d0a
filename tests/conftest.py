"""Suite-wide options.

``--session-storage sqlite`` reruns the whole suite with a durable tier
under every session that did not ask for one: each ``Session`` built
without a ``storage`` keyword, and each ``DistributedExecutor`` (so each
``run_split_program`` call) given ``storage=None``, gets its own
``SessionStorage`` in the test's temporary directory, closed when the
test tears down.  Write-through persistence must be observably free, so
every assertion of the in-memory run still holds, and pooled sessions
keep their tier through ``reset``.  An explicit ``Session(...,
storage=None)`` (the rehydration path) stays without one.
"""

import itertools
import shutil

import pytest

from repro.runtime import DistributedExecutor, Session, SessionStorage


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
    executor_init = DistributedExecutor.__init__

    def init_session(self, image, *args, **kwargs):
        if "storage" not in kwargs:
            kwargs["storage"] = tier()
        session_init(self, image, *args, **kwargs)

    def init_executor(self, split, *args, storage=None, **kwargs):
        if storage is None:
            storage = tier()
        executor_init(self, split, *args, storage=storage, **kwargs)

    monkeypatch.setattr(Session, "__init__", init_session)
    monkeypatch.setattr(DistributedExecutor, "__init__", init_executor)
    yield
    for storage in tiers:
        storage.close()
    shutil.rmtree(base, ignore_errors=True)
