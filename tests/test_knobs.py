"""Census of the ``REPRO_*`` environment knobs the package reads.

Every knob is a second behaviour to keep working, and the package has
none: any ``REPRO_*`` name that appears as a string constant in
``src/repro`` (``os.environ.get("REPRO_X")``, or a module constant such
as ``FLAG = "REPRO_X"`` that is read later) fails here, so adding one
means adding it to ``ALLOWED`` on purpose.  Mentions inside docstrings
and messages are prose, not reads, and do not count.
"""

import ast
import pathlib
import re

import repro

ALLOWED = set()

_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


def knobs_in_package():
    """Knob name -> every module (relative to ``src/repro``) naming it."""
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
                found.setdefault(node.value, set()).add(
                    path.relative_to(root).as_posix()
                )
    return found


def test_knob_set_is_the_allowlist():
    found = knobs_in_package()
    unlisted = sorted(set(found) - ALLOWED)
    assert set(found) == ALLOWED, (
        f"unlisted knobs: {unlisted} "
        f"(read in {[sorted(found[k]) for k in unlisted]}); "
        f"listed but unread: {sorted(ALLOWED - set(found))}"
    )

