"""tools/reach.py: the recorder and classifier on a three-function package."""

import importlib.util
import runpy
import sys
import textwrap
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = '''
def used(x):
    if x:
        return x + 1
    return 0


def tested():
    return "only a test calls me"


def unused():
    return "nobody calls me"
'''


def test_an_entry_script_a_test_and_nobody(tmp_path, monkeypatch):
    package = tmp_path / "reachfixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    script = tmp_path / "main.py"
    script.write_text("from reachfixture.mod import used\nused(1)\n")
    monkeypatch.syspath_prepend(str(tmp_path))

    with reach.Recorder(package) as entry:
        runpy.run_path(str(script), run_name="__main__")
    with reach.Recorder(package) as tier1:
        sys.modules["reachfixture.mod"].tested()

    classes = reach.classify(package, entry.hits(), tier1.hits())
    assert {key.split(":")[0]: cls for (_file, key), cls in classes.items()} == {
        "used": reach.ENTRY, "tested": reach.TIER1, "unused": reach.NEITHER}

    (row,) = [r for r in reach.line_table(package, entry.hits(), tier1.hits())
              if r[0] == "mod.py"]
    _file, executable, by_entry, only_tier1, neither = row
    # used(1) never takes its `return 0`; each function's def line runs at import
    assert (only_tier1, neither) == (1, 2)
    assert by_entry + only_tier1 + neither == executable
