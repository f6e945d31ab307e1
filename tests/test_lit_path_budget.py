"""The lit path's fixed costs gated as exact call counts: the twin of
``test_dark_path_budget.py`` for a run with every telemetry tier on.

The benchmark's own ``control_loop`` staging (``benchmarks/perf/
workloads.py``, imported the way ``tools/allocs.py`` imports it, not
copied) at tenth size — 18.5 ms, spans 1-in-16, accounting, time series,
SLOs and the signal bus, ``tenant="bench"`` — under ``cProfile``: how many
Python calls each request makes into the accountant, the span tracer and
the SLO engine, and how many ``<lambda>`` frames ``repro/machine.py``
contributes.  Counts, not seconds, so the gate is deterministic.

Before the flight record, the inlined tree lookup, the attribute clock and
the lazy SLO-bin expiry the same run made 32.8 calls per request into
``obs/accounting.py`` + ``obs/interference.py``, 17.7 into ``obs/spans.py``
and 5.06 into ``obs/slo.py``, and 23.7 ``lambda: self.engine.now`` frames.
A re-added helper hop (``_tenant_of``, ``_tree``, ``charge_wait`` from a
packet seam) costs at least one call per request and a callable clock one
per stamp; either fails this on any machine.
"""

import cProfile
import os
import pstats
import sys

from test_dark_path_budget import calls_into

PERF = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "benchmarks", "perf")
if PERF not in sys.path:
    sys.path.insert(0, PERF)

import workloads   # noqa: E402  (benchmarks/perf/workloads.py)

# Per request, today: the ten packet seams and the two service seams (12),
# opening the flight record (_open + _Flight.__init__), ledger() twice
# (once there, once at service_end), and for the 85% of requests that
# waited behind something, _charge_blame and one BlameMatrix.charge.
ACCOUNTING_CALLS_PER_REQ = 17
# Per request, today: ten seams; the 1 in 16 that is sampled adds its
# _open / _close / _add / _finalize.
SPANS_CALLS_PER_REQ = 11
# Per request, today: two Slo.record and one LatencySlo.observe; the
# signal bus's burn-rate reads every 2 ms are the remainder.
SLO_CALLS_PER_REQ = 3.1


def profile_lit_run():
    staged = workloads.stage_control_loop(3, quick=True)
    profile = cProfile.Profile()
    profile.enable()
    staged.system.run()
    profile.disable()
    outcome = staged.finish()
    assert not outcome.breaches, outcome.breaches
    assert outcome.offered > 5000
    obs = staged.system.obs
    # every tier really was on
    assert obs.acct.ledgers["bench"].completed > 5000
    assert obs.spans.sampled > 300 and len(obs.recorder) > 0
    return pstats.Stats(profile).stats, outcome.offered


def test_lit_path_call_budget():
    stats, requests = profile_lit_run()

    accounting = (calls_into(stats, "/repro/obs/accounting.py")
                  + calls_into(stats, "/repro/obs/interference.py")) / requests
    spans = calls_into(stats, "/repro/obs/spans.py") / requests
    slo = calls_into(stats, "/repro/obs/slo.py") / requests
    assert accounting <= ACCOUNTING_CALLS_PER_REQ, accounting
    assert spans <= SPANS_CALLS_PER_REQ, spans
    assert slo <= SLO_CALLS_PER_REQ, slo

    # the clock is an attribute of the engine, never a call
    assert calls_into(stats, "/repro/machine.py", "<lambda>") == 0
    assert calls_into(stats, "/repro/cluster/fleet.py", "<lambda>") == 0
