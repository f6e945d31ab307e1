"""Measurement utilities: latency distributions, counters, result tables."""

from repro.stats.latency import LatencyRecorder
from repro.stats.meters import Counter
from repro.stats.results import Row, Table, format_table

__all__ = [
    "Counter",
    "LatencyRecorder",
    "Row",
    "Table",
    "format_table",
]
