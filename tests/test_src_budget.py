"""A line ratchet for ROADMAP's standing guardrail on ``src/``.

Net-negative line counts are a success metric of this round, and three
"<= 0 lines" PRs in a row grew ``src/`` anyway.  So the total is pinned:
a PR that adds under ``src/`` has to raise ``CEILING`` in the same diff,
where review sees the number next to what it bought; a PR that deletes
should lower it to the new total.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Physical lines of ``src/**/*.py`` as of the last PR that moved it.
#: Last lowered by 169: functions that only tests reached at the parent
#: (``tools/reach.py``, docs/checking.md "Reachability") are gone, the two
#: resilience timeouts are one, and drain/shard counts no caller set are
#: constants.
CEILING = 18148


def test_src_does_not_grow_without_saying_so():
    total = sum(len(path.read_text().splitlines()) for path in SRC.rglob("*.py"))
    assert total <= CEILING, (
        f"src/ is {total} physical lines, over the {CEILING}-line ceiling: "
        f"delete {total - CEILING} elsewhere, or raise CEILING in "
        f"tests/test_src_budget.py in this diff and say what it buys"
    )
