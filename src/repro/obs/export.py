"""Exporters: registry snapshots in OpenMetrics text, shared file plumbing.

Two things live here:

- :func:`open_destination` — the one way every exporter in the tree
  accepts output targets.  A *destination* is either a filesystem path
  (``str`` / ``os.PathLike``; opened, then closed) or an already-open
  file-like object with ``write`` (used as-is, left open — the caller
  owns it).  :meth:`repro.obs.events.EventTrace.to_jsonl`, the span
  tracer's ``to_chrome_trace`` and the OpenMetrics exporter below all
  route through it.
- :func:`to_openmetrics` / :func:`write_openmetrics` — a
  :class:`~repro.obs.registry.MetricsRegistry` snapshot in the
  OpenMetrics / Prometheus text exposition format, so a registry dump
  can be thrown straight at ``promtool``, a Pushgateway, or any of the
  text-format parsers.  Counters become ``syrup_<metric>_total``, gauges
  ``syrup_<metric>``, and sketches (:mod:`repro.obs.sketch`) a
  ``summary`` family with one series per ``quantile`` label
  (:data:`SUMMARY_QUANTILES`) plus ``_sum``/``_count``; the
  ``(app, scope)`` key becomes ``app``/``scope`` labels.
"""

import contextlib
import re

__all__ = ["open_destination", "to_openmetrics", "write_openmetrics"]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles emitted for ``sketch`` series (the ``quantile`` label of a
#: ``summary`` family, per the exposition-format convention).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


@contextlib.contextmanager
def open_destination(destination, mode="w"):
    """Yield a writable file handle for a path or file-like destination.

    Paths are opened with ``mode`` and closed on exit; objects with a
    ``write`` method are yielded unchanged and **not** closed (the caller
    owns their lifetime).  This is the uniform contract for every
    exporter (``to_jsonl``, OpenMetrics, bench results).
    """
    if hasattr(destination, "write"):
        yield destination
    else:
        with open(destination, mode) as fh:
            yield fh


def _sanitize(name):
    """A metric name in the OpenMetrics grammar: [a-zA-Z0-9_:]."""
    name = _INVALID.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape(value):
    """A label value escaped per the exposition-format grammar.

    Backslash, double quote, and newline are the three characters the
    OpenMetrics/Prometheus text format requires escaping inside quoted
    label values; everything else passes through verbatim (app names
    like ``(root)`` are legal as-is).
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(app, scope, quantile=None):
    """Label set for one series.

    Scopes of the form ``tenant:<name>`` (the per-tenant accounting
    convention, see :mod:`repro.obs.accounting`) split into
    ``scope="tenant",tenant="<name>"`` so tenant-labeled series group
    per tenant in any Prometheus-compatible consumer; the tenant name
    is escaped like every other label value.
    """
    tenant = None
    if isinstance(scope, str) and scope.startswith("tenant:"):
        tenant = scope[len("tenant:"):]
        scope = "tenant"
    out = f'{{app="{_escape(app)}",scope="{_escape(scope)}"'
    if tenant is not None:
        out += f',tenant="{_escape(tenant)}"'
    if quantile is not None:
        out += f',quantile="{quantile}"'
    return out + "}"


def to_openmetrics(registry, prefix="syrup"):
    """The registry in OpenMetrics text format, as a string.

    One ``# TYPE`` line per distinct metric name; series sharing a name
    across ``(app, scope)`` keys become one family with distinct labels.
    A dark machine's registry (``None``) exports the empty exposition.
    """
    families = {}  # sanitized name -> (kind, [lines])
    for app, scope, name in registry.series() if registry is not None else ():
        metric = registry.get(app, scope, name)
        kind = metric.kind
        base = f"{prefix}_{_sanitize(name)}"
        labels = _labels(app, scope)
        if kind == "counter":
            family = families.setdefault(base, ("counter", []))
            family[1].append(f"{base}_total{labels} {metric.value}")
        elif kind == "gauge":
            family = families.setdefault(base, ("gauge", []))
            family[1].append(f"{base}{labels} {metric.value}")
        else:  # sketch, a summary: one series per tracked quantile
            family = families.setdefault(base, ("summary", []))
            lines = family[1]
            for q in SUMMARY_QUANTILES:
                q_labels = _labels(app, scope, quantile=q)
                lines.append(f"{base}{q_labels} {metric.quantile(q)}")
            lines.append(f"{base}_sum{labels} {metric.sum}")
            lines.append(f"{base}_count{labels} {metric.count}")
    out = []
    for base in sorted(families):
        kind, lines = families[base]
        out.append(f"# TYPE {base} {kind}")
        out.extend(lines)
    out.append("# EOF")
    return "\n".join(out) + "\n"


def write_openmetrics(registry, destination, prefix="syrup"):
    """Write :func:`to_openmetrics` output; returns the line count.

    ``destination`` follows the :func:`open_destination` contract
    (path or open file object).
    """
    text = to_openmetrics(registry, prefix=prefix)
    with open_destination(destination) as fh:
        fh.write(text)
    return text.count("\n")
