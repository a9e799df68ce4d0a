"""Census of the ``REPRO_*`` environment knobs the package reads.

Every knob is a second behaviour to keep working, so the set is pinned
here: adding one means adding it to ``ALLOWED`` on purpose.  A knob
counts when its full name appears as a string constant in ``src/repro``
(``os.environ.get("REPRO_X")``, or a module constant such as
``ENV_FLAG = "REPRO_X"`` that is read later); mentions inside
docstrings and messages are prose, not reads, and do not count.

Both remaining knobs configure the split cache, so both are read in
that one module and nowhere else.
"""

import ast
import pathlib
import re

import repro

ALLOWED = {"REPRO_SPLIT_CACHE", "REPRO_SPLIT_CACHE_DIR"}

#: The one module allowed to read a knob, relative to ``src/repro``.
READER = "splitter/cache.py"

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


def test_every_knob_is_read_in_one_module():
    found = knobs_in_package()
    elsewhere = {
        knob: sorted(modules - {READER})
        for knob, modules in found.items()
        if modules != {READER}
    }
    assert elsewhere == {}, f"knobs read outside {READER}: {elsewhere}"
