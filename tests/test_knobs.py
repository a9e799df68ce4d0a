"""Census of the ``REPRO_*`` environment knobs the package reads.

Every knob is a second behaviour to keep working, so the set is pinned
here: adding one means adding it to ``ALLOWED`` on purpose.  A knob
counts when its full name appears as a string constant in ``src/repro``
(``os.environ.get("REPRO_X")``, or a module constant such as
``ENV_FLAG = "REPRO_X"`` that is read later); mentions inside
docstrings and messages are prose, not reads, and do not count.
"""

import ast
import pathlib
import re

import repro

ALLOWED = {
    "REPRO_MINCUT",
    "REPRO_SPLIT_CACHE",
    "REPRO_SPLIT_CACHE_DIR",
    "REPRO_VERIFY_MEMO",
    "REPRO_STORAGE",
    "REPRO_STORAGE_DIR",
    "REPRO_STORAGE_SYNC",
}

_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def knobs_in_package():
    found = {}
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _KNOB.fullmatch(node.value)
            ):
                found.setdefault(node.value, str(path.relative_to(root)))
    return found


def test_knob_set_is_the_allowlist():
    found = knobs_in_package()
    assert set(found) == ALLOWED, (
        f"unlisted knobs: {sorted(set(found) - ALLOWED)} "
        f"(first read in {[found[k] for k in sorted(set(found) - ALLOWED)]}); "
        f"listed but unread: {sorted(ALLOWED - set(found))}"
    )
