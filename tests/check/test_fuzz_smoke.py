"""Schedule-space fuzzing: a bounded smoke run in the default suite,
deeper sweeps behind the ``fuzz`` marker (``pytest -m fuzz``)."""

import pytest

from repro.check import APPS, fuzz
from repro.errors import ReproError


def test_fuzz_smoke_fib_25_seeds():
    """The default-suite guarantee: 25 perturbed fib schedules — random
    tie-breaks, jitter, crashes, reclaims — all complete correctly and
    violate no invariant."""
    result = fuzz(app="fib", n_seeds=25, start_seed=0)
    assert result.ok, result.summary()
    assert "all schedules clean" in result.summary()


def test_fuzz_smoke_shrink_retirement_10_seeds():
    result = fuzz(app="shrink", n_seeds=10, start_seed=0)
    assert result.ok, result.summary()


def test_fuzz_detects_injected_bug_and_reports_shrunk_schedule():
    """With the redo protocol deliberately broken, the sweep over seeds
    25..33 must fail and name a shrunk reproducing schedule."""
    result = fuzz(app="fib", n_seeds=8, start_seed=25, bug="skip-redo")
    assert not result.ok
    text = result.summary()
    assert "injected bug: skip-redo" in text
    assert "shrunk schedule" in text
    assert "reproduce:" in text
    for failure in result.failures:
        # Shrinking must never lose the failure's reproduction.
        assert failure.shrunk.crashes or failure.shrunk.reclaims


def test_fuzz_unknown_app_rejected():
    with pytest.raises(ReproError, match="unknown app"):
        fuzz(app="quicksort")


def test_app_registry():
    assert set(APPS) == {"fib", "knary", "shrink"}


@pytest.mark.fuzz
def test_fuzz_deep_fib_100_seeds():
    result = fuzz(app="fib", n_seeds=100, start_seed=0)
    assert result.ok, result.summary()


@pytest.mark.fuzz
def test_fuzz_deep_knary_50_seeds():
    result = fuzz(app="knary", n_seeds=50, start_seed=0)
    assert result.ok, result.summary()


@pytest.mark.fuzz
def test_fuzz_deep_shrink_100_seeds():
    result = fuzz(app="shrink", n_seeds=100, start_seed=0)
    assert result.ok, result.summary()


@pytest.mark.fuzz
def test_fuzz_deep_eight_workers():
    result = fuzz(app="fib", n_seeds=30, start_seed=0, n_workers=8)
    assert result.ok, result.summary()


def test_every_printed_reproduce_line_reproduces_its_failure():
    """The ``reproduce:`` recipe carries the app, scenario and bug: eval'd
    as printed, each one fails again (shrink retires after 4 failed
    steals — the app's own worker config rides along too)."""
    from repro.check import app_spec

    result = fuzz(app="shrink", n_seeds=3, bug="dup-exec", shrink=False,
                  scenario="spike")
    recipes = [line.split("reproduce: ", 1)[1]
               for line in result.summary().splitlines() if "reproduce: " in line]
    assert len(recipes) == len(result.failures) == 3
    for recipe in recipes:
        assert not eval(recipe, {"app_spec": app_spec}).ok, recipe
