"""Critical-path analysis: which span explains the p50 → p99 gap?

The span tracer (:mod:`repro.obs.spans`) records *what happened* to each
sampled request; this module computes *what matters*: it splits the
completed trees into a fast cohort (total latency ≤ the p50) and a slow
cohort (total ≥ the p99) and, for every span name, compares the mean
time spent in that span across the two cohorts.  The span with the
largest gap is the tail's critical path — "SCAN-Avoid collapses
``socket_wait``" as a computed table instead of folklore.

Entry points: :func:`critical_path` produces the analysis dict (JSON
safe), :func:`render_critical_path` the operator table
(``syrupctl tail`` and ``python -m repro figure_tail`` render it).
Cohort edges are nearest-rank (:func:`repro.stats.latency.nearest_rank`)
over the exact sampled totals, so each edge is a real request and paired
runs with identical simulations produce identical analyses.
:func:`stage_percentiles` is the per-stage latency breakdown over the
same trees ("only ``socket_wait`` moves", examples/latency_breakdown.py).
"""

from repro.stats.latency import nearest_rank
from repro.stats.latency import percentile as linear_percentile
from repro.stats.results import Table

__all__ = ["critical_path", "render_critical_path", "stage_percentiles"]


def _span_totals(tree):
    """Per-name total duration inside one tree (repeat names summed)."""
    totals = {}
    end = tree["end"]
    for span in tree["spans"]:
        span_end = span["end"] if span["end"] is not None else end
        duration = max(0.0, span_end - span["start"])
        totals[span["name"]] = totals.get(span["name"], 0.0) + duration
    return totals


def stage_percentiles(trees, q=99.0):
    """``{span name: p-q us, ..., "total": p-q of end - start}`` over the
    complete trees.  A span missing from a tree counts as 0 us there, as in
    :func:`critical_path`; percentiles are linear, the rule for printed
    numbers.  Filter warm-up first: ``t["start"] >= warmup_us``."""
    complete = [t for t in trees if t.get("complete")]
    per_tree = [_span_totals(t) for t in complete]
    result = {
        name: linear_percentile(sorted(d.get(name, 0.0) for d in per_tree), q)
        for name in sorted(set().union(*per_tree))
    }
    result["total"] = linear_percentile(
        sorted(t["end"] - t["start"] for t in complete), q)
    return result


def critical_path(trees, lo_pct=50.0, hi_pct=99.0):
    """Split complete trees into latency cohorts; attribute the gap.

    Returns a JSON-safe dict::

        {
          "count": ...,                # complete trees analyzed
          "lo_pct": 50.0, "hi_pct": 99.0,
          "lo_us": ..., "hi_us": ...,  # the cohort boundary totals
          "lo_count": ..., "hi_count": ...,
          "gap_us": ...,               # hi cohort mean total - lo cohort mean
          "rows": [
            {"span": ..., "lo_mean_us": ..., "hi_mean_us": ...,
             "gap_us": ..., "gap_share": ...},   # sorted by gap desc
          ],
        }

    ``gap_share`` is each span's gap as a fraction of the total-latency
    gap between cohort means (can exceed 1.0 when spans overlap, e.g.
    ghOSt ``placement`` nested in ``runqueue_wait``).
    """
    complete = [t for t in trees if t.get("complete")]
    if not complete:
        return {
            "count": 0, "lo_pct": lo_pct, "hi_pct": hi_pct,
            "lo_us": 0.0, "hi_us": 0.0, "lo_count": 0, "hi_count": 0,
            "gap_us": 0.0, "rows": [],
        }
    totals = [t["end"] - t["start"] for t in complete]
    ordered = sorted(totals)
    lo_edge = nearest_rank(ordered, lo_pct)
    hi_edge = nearest_rank(ordered, hi_pct)
    lo_cohort = [t for t, total in zip(complete, totals) if total <= lo_edge]
    hi_cohort = [t for t, total in zip(complete, totals) if total >= hi_edge]

    def cohort_means(cohort):
        sums = {}
        for tree in cohort:
            for name, duration in _span_totals(tree).items():
                sums[name] = sums.get(name, 0.0) + duration
        n = len(cohort) or 1
        return {name: total / n for name, total in sums.items()}

    lo_means = cohort_means(lo_cohort)
    hi_means = cohort_means(hi_cohort)
    lo_total = (sum(t["end"] - t["start"] for t in lo_cohort)
                / (len(lo_cohort) or 1))
    hi_total = (sum(t["end"] - t["start"] for t in hi_cohort)
                / (len(hi_cohort) or 1))
    total_gap = hi_total - lo_total
    rows = []
    for name in sorted(set(lo_means) | set(hi_means)):
        lo_mean = lo_means.get(name, 0.0)
        hi_mean = hi_means.get(name, 0.0)
        gap = hi_mean - lo_mean
        rows.append({
            "span": name,
            "lo_mean_us": lo_mean,
            "hi_mean_us": hi_mean,
            "gap_us": gap,
            "gap_share": (gap / total_gap) if total_gap > 0 else 0.0,
        })
    rows.sort(key=lambda r: (-r["gap_us"], r["span"]))
    return {
        "count": len(complete),
        "lo_pct": lo_pct,
        "hi_pct": hi_pct,
        "lo_us": lo_edge,
        "hi_us": hi_edge,
        "lo_count": len(lo_cohort),
        "hi_count": len(hi_cohort),
        "gap_us": total_gap,
        "rows": rows,
    }


def render_critical_path(analysis, title=None):
    """The analysis as an operator table (one row per span name)."""
    if title is None:
        title = (
            f"critical path: p{analysis['lo_pct']:g} vs "
            f"p{analysis['hi_pct']:g} cohorts"
        )
    table = Table(
        title,
        ["span", "p50_mean_us", "p99_mean_us", "gap_us", "gap_share_pct"],
    )
    for row in analysis["rows"]:
        table.add(
            span=row["span"],
            p50_mean_us=row["lo_mean_us"],
            p99_mean_us=row["hi_mean_us"],
            gap_us=row["gap_us"],
            gap_share_pct=100.0 * row["gap_share"],
        )
    footer = (
        f"{analysis['count']} sampled requests; "
        f"p{analysis['lo_pct']:g} <= {analysis['lo_us']:.1f}us "
        f"(n={analysis['lo_count']}), "
        f"p{analysis['hi_pct']:g} >= {analysis['hi_us']:.1f}us "
        f"(n={analysis['hi_count']}); "
        f"cohort-mean gap {analysis['gap_us']:.1f}us"
    )
    return table.render() + "\n" + footer
