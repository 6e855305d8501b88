"""General-purpose utilities: deterministic RNG streams, statistics, tracing."""

from repro.util.rng import RngRegistry
from repro.util.stats import Histogram
from repro.util.trace import TraceEvent, TraceLog

__all__ = [
    "RngRegistry",
    "Histogram",
    "TraceEvent",
    "TraceLog",
]
