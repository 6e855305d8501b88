"""Byte-level pins on the driver layer, taken from the commit *before*
the exhibits became registry data behind the CLI (PR 20).

``STDOUT`` pins the sha256 of what each command prints at seed 0 (the
wall-time footer stripped), every sweep command also at ``--jobs 2``:
a serial and a sharded run share one pin (a single ablation section is
one shard item, so it never reaches the pool; ``ablations all`` does).
``SLOW`` holds the three sweeps too long for tier-1 — ``figure4``,
``figure5``, ``ablations all`` (~40 s + 2 x 5 s serial; the ``order``
section alone is 10 s) — run at ``--jobs 2`` under ``-m slow`` by CI's
``exhibits-smoke`` job.  ``HELP``
pins the sha256 of
``<subcommand> --help`` at 80 columns for all fifteen subcommands — every
flag, default, choice and help string.  Twelve are the parent commit's
values; ``check``, ``profile`` and ``diagnose`` differ from it only where
PR 20 unified the wording of the flag groups they now share (``--app``:
"application to run"; ``check --seeds``: "number of consecutive seeds",
listed after ``--workers``).

To re-pin after a *deliberate* change:
``PYTHONPATH=src python tests/test_cli_identity.py``.
"""

import contextlib
import hashlib
import io
import os
from unittest import mock

import pytest

from repro.cli import COMMANDS, main
from repro.experiments import EXHIBITS
from repro.experiments.ablations import SECTIONS

#: pin name -> argv after ``--seed 0``; a trailing "*" marks a sweep
#: command, run again with ``--jobs 2`` against the same pin.
CASES = {
    "table1": ["table1"],
    "table2*": ["table2"],
    "latency*": ["latency"],
    "harvest": ["harvest"],
    "harvest --reps 2*": ["harvest", "--reps", "2"],
    "macro-demo": ["macro-demo"],
    "timeline": ["timeline"],
    "traffic --njobs 200*": ["traffic", "--njobs", "200"],
    "ablations victim": ["ablations", "victim"],
}

STDOUT = {
    "table1": "591dff0c5f2bd437ffeb2c7dd10cfe46844904346764b6903ff445f52b62b1ea",
    "table2*": "ee93174993eb5932973a114287c76c7620a7af22af0a3d86c58430c4691952d7",
    "latency*": "7ec7f68f77dde0b280695cef88681ec3816cdc0e909464479aa2509b8c1642c1",
    "harvest": "e5fa5abd58804d5dff5c37da41b373a8d1ef894247f7d8d9529c7068880a449a",
    "harvest --reps 2*": "7be312b5f336cec3199ca456f2b03bff6dad5d60434819c80cd8b75a8649205a",
    "macro-demo": "0ae37e26b71da7269f1458cc66623ac7c6e5343119c99af860f63a8b724b39bd",
    "timeline": "76db08fbdccf13a4de3e51b6244125b21849ad5a1cd2d64cd4d5dfcb2873f277",
    "traffic --njobs 200*": "e0373daac013929dca960cf609f5e148502707190cabe539077246a4e4652114",
    "ablations victim": "200d55290e684a1271441a9b11155c94ccf2473c51d19528d3be4ff061a835ff",
}

SLOW = {
    "figure4": "a87bfb574ff0bcfa548d09a96dae38caabb20c10b76614ae35f7fc9a39b7813a",
    "figure5": "0be5e4f4b7127c81163154d1634bb741af1973b3946dc33fb641e4df09fbe6d3",
    "ablations all": "7cf5555c662dcc967f72d303126a681cb24ede2ca4b3c151137bcc5e2d27658b",
}

HELP = {
    "ablations": "5cee71bacb0b50666ecd69f014c93229e867d27f699abd9eccf96939032fed8e",
    "bench": "5d44478f4d87a7f634dd88d4c3b318fbc838a13a831034d6bd1ad72aba2c6917",
    "check": "760ad0b001d72608ce85f7f67c789421f591b25966d2da71e92eb0dec038795b",
    "diagnose": "4b10658f03a9884a7bfac3ef021bf966e46bee99b1b6d5d4dde6eee15f4be3cb",
    "figure4": "8739de83248735d2704016d3e4ad443703ffee050d0f112d38a18620cd2b7175",
    "figure5": "ba7dedf57129b19438319dec8a7557fa8fb66a4c9068d16259ce96a00306254d",
    "harvest": "bd1ae38e1d1207f04e636bc64b47792110b45dc037e8b454a5f5c1d155ec6b1f",
    "latency": "26d9718f6cfad19914b1c9717ffc2b570b9c242346b26ab224a67f4e420cfd04",
    "macro-demo": "73a3970e117105f04551826d06ff579d6df26e47808ceaaea4e754ccab428b70",
    "obs": "1c2a2b6af82f97e81b7e5bc6a129f5190d135a22356dd1e0abe5fac0fac34488",
    "profile": "03cf3220e81ad5a16a5ddd9ef708ae10fbf742aa09963fa7b9f5ce4c0b8c090a",
    "table1": "eb163e6aee139b648d431a5d81bcf62cff792e62889824417b92788f92e6c982",
    "table2": "dbfa05fd29e76f2475a879d413520c3d417b1703c5715696884809ac4af9661d",
    "timeline": "d32f3ab3a7496fd2102d48db7f6751314ea74a2e5616f0a7e99a7b0eb2300442",
    "traffic": "4bb3db7f8769b79b7ed44f3f02117f3add610ca98223613b538be622be160953",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--seed", "0", *argv]) == 0
    return _sha("\n".join(line for line in out.getvalue().splitlines()
                          if "regenerated in" not in line))


def help_digest(command):
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main([command, "--help"])
    return _sha(out.getvalue())


RUNS = [(name, argv + extra)
        for name, argv in CASES.items()
        for extra in ([[], ["--jobs", "2"]] if name.endswith("*") else [[]])]


@pytest.mark.parametrize("name,argv", RUNS, ids=[" ".join(a) for _n, a in RUNS])
def test_stdout_is_the_parents(name, argv):
    assert stdout_digest(argv) == STDOUT[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW))
def test_sharded_sweep_stdout_is_the_parents(name):
    assert stdout_digest([*name.split(), "--jobs", "2"]) == SLOW[name]


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_is_pinned(command):
    assert help_digest(command) == HELP[command]


def test_registry_is_the_exhibit_subcommands():
    """Every subcommand is a registry exhibit or one of the seven CLI-only
    commands, and ``ablations`` offers exactly the registered sections."""
    assert list(EXHIBITS) == ["table1", "table2", "figure4", "figure5",
                              "latency", "traffic", "harvest", "ablations"]
    assert sorted([*EXHIBITS, *COMMANDS]) == sorted(HELP)
    assert not set(EXHIBITS) & set(COMMANDS)
    ((flag, keywords),) = EXHIBITS["ablations"].flags
    assert flag == "which"
    assert keywords["choices"] == ["all", *SECTIONS]


if __name__ == "__main__":
    print("STDOUT = {")
    for name, argv in CASES.items():
        print(f'    "{name}": "{stdout_digest(argv)}",')
    print("}\n\nSLOW = {")
    for name in SLOW:
        print(f'    "{name}": "{stdout_digest([*name.split(), "--jobs", "2"])}",')
    print("}\n\nHELP = {")
    for command in sorted([*EXHIBITS, *COMMANDS]):
        print(f'    "{command}": "{help_digest(command)}",')
    print("}")
