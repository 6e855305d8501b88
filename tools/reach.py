#!/usr/bin/env python3
"""Which lines of ``src/repro/`` the program's entry points run.

    PYTHONPATH=src python tools/reach.py run SET --out hits-SET.json
    python tools/reach.py table hits-*.json [--write docs/checking.md]
    python tools/reach.py functions hits-*.json

``run`` executes one entry-point set in this process under a
``sys.settrace`` line recorder filtered to ``src/repro/`` and writes the
lines each code object reached.  The sets:

* ``ci``: every ``python -m repro.cli ...`` line and every inline Python
  snippet of ``.github/workflows/ci.yml``, job by job, parsed from the
  file (``--jobs N`` runs as ``--jobs 1``);
* ``cli``: the ``CASES`` and ``SLOW`` argv and every ``--help`` of
  ``tests/test_cli_identity.py``, plus the ``check --inject-bug`` negative
  controls of ``docs/checking.md`` and ``diagnose --diff`` of two ``obs``
  manifests;
* ``stackbench``: ``stackbench/run.py --smoke`` for each workload, and
  ``--layers``;
* ``examples``: every ``examples/*.py``;
* ``benchmarks``: ``pytest benchmarks/``;
* ``tier1``: the tier-1 suite (``pytest`` with the repository's options).

Sets run one at a time (``tier1`` and ``examples`` take the longest) and
their JSON files merge.  ``table`` prints the per-file table of
``docs/checking.md`` (or rewrites it in place with ``--write``): the
executable lines of each file, those any entry-point set reached, those
only ``tier1`` reached, and those nothing reached.  ``functions`` lists
every function no entry point enters, classed ``tier1`` or ``neither``.

Sweeps run in-process at ``--jobs 1``, so what a ``--jobs 2`` pool runs in
its children is not recorded; ``ShardedRunner``'s pool path is reached by
CI all the same.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import importlib.util
import inspect
import json
import os
import re
import runpy
import shlex
import sys
import tempfile
import threading
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TABLE_BEGIN = "<!-- reach-table:begin -->"
TABLE_END = "<!-- reach-table:end -->"
ENTRY, TIER1, NEITHER = "entry", "tier1", "neither"
TIER1_SET = "tier1"

#: file (relative to the package root) -> code key -> lines reached
Hits = Dict[str, Dict[str, Set[int]]]


def code_key(code) -> str:
    return f"{getattr(code, 'co_qualname', code.co_name)}:{code.co_firstlineno}"


def code_lines(code) -> Set[int]:
    """The lines a run of *code* can report; a function's include its
    ``def`` line, which its call event stands for."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
        lines.add(code.co_firstlineno)
    return lines


def walk_code(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from walk_code(const)


def static_codes(root: Path) -> Dict[str, Dict[str, Tuple[Set[int], bool]]]:
    """file -> code key -> (executable lines, is a named function)."""
    table = {}
    for path in sorted(root.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        codes = table[path.relative_to(root).as_posix()] = {}
        for code in walk_code(module):
            named = bool(code.co_flags & inspect.CO_OPTIMIZED) and not code.co_name.startswith("<")
            lines, _ = codes.get(code_key(code), (set(), named))
            codes[code_key(code)] = (lines | code_lines(code), named)
    return table


class Recorder:
    """A ``sys.settrace`` recorder of the lines run under *root*.

    A code object stops being traced once every line it has was seen, so
    hot, fully covered code runs at the cost of one call event.  Code
    objects are cached by ``id`` (equal code in two files compares equal)
    and kept alive, so that no id is reused while the cache holds it.
    """

    def __init__(self, root: Path):
        self.root = str(Path(root).resolve()) + os.sep
        self._seen: Dict[int, Tuple[object, Set[int]]] = {}
        self._local: Dict[int, object] = {}
        self._alive: List[object] = []
        self._previous = None

    def _start(self, code):
        if not os.path.abspath(code.co_filename).startswith(self.root):
            return None
        missing = code_lines(code) - {code.co_firstlineno}
        self._seen[id(code)] = (code, missing)
        local_of = self._local

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in missing:
                missing.discard(frame.f_lineno)
                if not missing:
                    local_of[id(code)] = None
            return local

        return local if missing else None

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._local[id(code)]
        except KeyError:
            self._alive.append(code)
            local = self._local[id(code)] = self._start(code)
            return local

    def __enter__(self) -> "Recorder":
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)

    def hits(self) -> Hits:
        out: Hits = defaultdict(lambda: defaultdict(set))
        for code, missing in self._seen.values():
            rel = os.path.relpath(os.path.abspath(code.co_filename), self.root)
            out[Path(rel).as_posix()][code_key(code)] |= code_lines(code) - missing
        return out


# -- the entry-point sets ------------------------------------------------------


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@contextlib.contextmanager
def _entry(what: str):
    """Run one entry point; a failure is reported, not fatal to the set."""
    try:
        yield
    except SystemExit:
        pass
    except Exception:  # the recording goes on; the report says so
        print(f"reach: {what} raised:", file=sys.__stderr__)
        traceback.print_exc(file=sys.__stderr__)


def _cli(argv: List[str]) -> None:
    from repro.cli import main

    argv = list(argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    with _entry(f"repro.cli {' '.join(argv)}"):
        main(argv)


def _snippet(source: str, name: str) -> None:
    with _entry(name):
        exec(compile(source, name, "exec"), {"__name__": "__main__"})


def ci_jobs(path: Path) -> Dict[str, List[str]]:
    """CI job name -> the ``run:`` scripts of its steps, in order."""
    jobs: Dict[str, List[str]] = {}
    lines = path.read_text().splitlines()
    job = None
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if m := re.match(r"^  ([\w-]+):\s*$", line):
            job = jobs.setdefault(m.group(1), [])
        if job is None or not (m := re.match(r"^(\s*)(?:- )?run: ?(.*)$", line)):
            continue
        if m.group(2) != "|":
            job.append(m.group(2))
            continue
        indent = len(m.group(1))
        block = []
        while i < len(lines) and (not lines[i].strip()
                                  or len(lines[i]) - len(lines[i].lstrip()) > indent):
            block.append(lines[i])
            i += 1
        width = min(len(b) - len(b.lstrip()) for b in block if b.strip())
        job.append("\n".join(b[width:] for b in block))
    return jobs


def ci_commands(script: str) -> Iterator[Tuple[str, object]]:
    """``("cli", argv)`` and ``("python", source)`` items of one script."""
    lines = script.replace("\\\n", " ").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if heredoc := re.match(r"python3? - <<'?(\w+)'?", line):
            end = heredoc.group(1)
            body = []
            while lines[i].strip() != end:
                body.append(lines[i])
                i += 1
            i += 1
            yield "python", "\n".join(body)
        elif line.startswith("python -m repro.cli "):
            argv = shlex.split(line.split("|")[0])[3:]
            yield "cli", argv


def run_ci() -> None:
    for job, scripts in ci_jobs(ROOT / ".github" / "workflows" / "ci.yml").items():
        with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
            for script in scripts:
                for kind, item in ci_commands(script):
                    if kind == "cli":
                        _cli(item)
                    else:
                        _snippet(item, f"<ci:{job}>")


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli() -> None:
    from repro.check import BUGS

    pins = _load(ROOT / "tests" / "test_cli_identity.py", "_cli_pins")
    for argv in pins.CASES.values():
        _cli(["--seed", "0", *argv])
    for name in pins.SLOW:
        _cli(["--seed", "0", *name.split()])
    for command in pins.HELP:
        _cli([command, "--help"])
    for bug in BUGS:
        _cli(["check", "--seeds", "40", "--inject-bug", bug])
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
        for seed in ("1", "2"):
            _cli(["obs", "--seed", seed, "--app", "fib", "--manifest", f"{seed}.json"])
        _cli(["diagnose", "--diff", "1.json", "2.json"])


def run_stackbench() -> None:
    run = _load(ROOT / "stackbench" / "run.py", "_stackbench_run")
    sys.path.insert(0, str(ROOT / "stackbench"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        run.main(["--workload", workload["name"], "--smoke"])
    run.main(["--layers"])


def run_examples() -> None:
    argv = sys.argv
    try:
        for path in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(path)]  # an example reads its own arguments
            with tempfile.TemporaryDirectory() as tmp, _chdir(tmp), _entry(path.name):
                runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def _pytest(*args: str) -> None:
    import pytest

    with _chdir(ROOT):
        pytest.main(["-p", "no:cacheprovider", *args])


SETS: Dict[str, Callable[[], None]] = {
    "ci": run_ci,
    "cli": run_cli,
    "stackbench": run_stackbench,
    "examples": run_examples,
    "benchmarks": lambda: _pytest("benchmarks/", "-q", "--benchmark-disable"),
    TIER1_SET: lambda: _pytest("-q"),
}


def record(name: str) -> Hits:
    with open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(null), \
            Recorder(SRC) as recorder:
        SETS[name]()
    return recorder.hits()


# -- merging and classifying ---------------------------------------------------


def load(paths: List[str]) -> Tuple[Hits, Hits]:
    """(entry-point hits, tier-1 hits), merged over the JSON files *paths*."""
    entry: Hits = defaultdict(lambda: defaultdict(set))
    tier1: Hits = defaultdict(lambda: defaultdict(set))
    for path in paths:
        doc = json.loads(Path(path).read_text())
        merged = tier1 if doc["set"] == TIER1_SET else entry
        for rel, codes in doc["hits"].items():
            for key, lines in codes.items():
                merged[rel][key] |= set(lines)
    return entry, tier1


def classify(root: Path, entry: Hits, tier1: Hits) -> Dict[Tuple[str, str], str]:
    """(file, code key) -> ENTRY, TIER1 or NEITHER for every named function
    under *root*: the first set whose runs entered it."""
    classes = {}
    for rel, codes in static_codes(root).items():
        for key, (_lines, named) in codes.items():
            if named:
                classes[rel, key] = (ENTRY if key in entry.get(rel, {}) else
                                     TIER1 if key in tier1.get(rel, {}) else NEITHER)
    return classes


def line_table(root: Path, entry: Hits, tier1: Hits) -> List[Tuple[str, int, int, int, int]]:
    """(file, executable, entry points, only tier-1, neither) per file."""
    rows = []
    for rel, codes in static_codes(root).items():
        lines = set().union(*(lines for lines, _ in codes.values()))
        by_entry = set().union(*entry.get(rel, {}).values()) & lines
        by_tier1 = (set().union(*tier1.get(rel, {}).values()) & lines) - by_entry
        rows.append((rel, len(lines), len(by_entry), len(by_tier1),
                     len(lines) - len(by_entry) - len(by_tier1)))
    return rows


def markdown(rows) -> str:
    out = ["| file | executable | entry points | only tier-1 | neither |",
           "|---|---:|---:|---:|---:|"]
    out += [f"| `{rel}` | {a} | {b} | {c} | {d} |" for rel, a, b, c, d in rows]
    total = [sum(row[i] for row in rows) for i in range(1, 5)]
    out.append("| **total** | " + " | ".join(f"**{n}**" for n in total) + " |")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="record one entry-point set")
    run.add_argument("set", choices=list(SETS))
    run.add_argument("--out", required=True)
    for name, text in (("table", "print (or --write) the per-file table"),
                       ("functions", "list the functions no entry point enters")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("hits", nargs="+", help="JSON files written by `run`")
    sub.choices["table"].add_argument("--write", metavar="MARKDOWN",
                                      help="replace the table between the markers")
    args = parser.parse_args(argv)

    if args.command == "run":
        hits = record(args.set)
        doc = {"set": args.set,
               "hits": {rel: {key: sorted(lines) for key, lines in codes.items()}
                        for rel, codes in sorted(hits.items())}}
        Path(args.out).write_text(json.dumps(doc, indent=0, sort_keys=True))
        return 0
    entry, tier1 = load(args.hits)
    if args.command == "functions":
        static = static_codes(SRC)
        for (rel, key), cls in sorted(classify(SRC, entry, tier1).items()):
            if cls != ENTRY:
                print(f"{cls:8s} {len(static[rel][key][0]):4d}  {rel}  {key}")
        return 0
    table = markdown(line_table(SRC, entry, tier1))
    if args.write is None:
        print(table)
        return 0
    doc = Path(args.write).read_text()
    head, rest = doc.split(TABLE_BEGIN)
    _old, tail = rest.split(TABLE_END)
    Path(args.write).write_text(f"{head}{TABLE_BEGIN}\n{table}\n{TABLE_END}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
