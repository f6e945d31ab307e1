"""Tests for the instrumentation seam itself (:mod:`repro.obs.probe`).

Three properties keep the seam narrow: the seam *vocabulary* is declared
once and the tiers conform to it (a misspelt seam fails here instead of
silently recording nothing); each seam is *resolved once* to a no-op,
one tier's own bound method, or both tiers in order; and no component
outside ``repro/obs/`` can grow the old attribute injection back.
"""

import inspect
import pathlib
import re

import pytest

from repro import Machine, set_a
from repro.obs import Observability
from repro.obs.accounting import TenantAccountant
from repro.obs.probe import NULL_PROBE, SEAMS, Probe, noop
from repro.obs.spans import SpanTracer

TIERS = (SpanTracer, TenantAccountant)

#: The tiers' read side (operator views, exports) — not seams.
VIEWS = {
    SpanTracer: {"trees", "to_chrome_trace"},
    TenantAccountant: {"ledger", "tenants", "snapshot", "publish"},
}


def _public_methods(cls):
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }


# ----------------------------------------------------------------------
# (a) Vocabulary conformance
# ----------------------------------------------------------------------
def test_every_seam_is_defined_by_some_tier():
    assert len(set(SEAMS)) == len(SEAMS)
    for name in SEAMS:
        assert any(name in _public_methods(cls) for cls in TIERS), name


@pytest.mark.parametrize("cls", TIERS)
def test_every_public_tier_method_is_a_seam_or_a_view(cls):
    assert _public_methods(cls) - VIEWS[cls] <= set(SEAMS)


def test_tiers_agree_on_each_seam_signature_and_noop_accepts_it():
    for name in SEAMS:
        shapes = set()
        for cls in TIERS:
            method = vars(cls).get(name)
            if method is None:
                continue
            params = list(inspect.signature(method).parameters.values())[1:]
            assert all(
                p.kind is p.POSITIONAL_OR_KEYWORD for p in params
            ), (cls.__name__, name)
            shapes.add(len(params))
        # one unified signature per seam, whichever tiers subscribe
        assert len(shapes) == 1, name
        args = (None,) * shapes.pop()
        assert getattr(NULL_PROBE, name)(*args) is None


def test_probe_rejects_a_misspelt_seam():
    with pytest.raises(AttributeError):
        NULL_PROBE.nic_arival  # noqa: B018 - the typo is the point


# ----------------------------------------------------------------------
# (b) Resolution: no-op, one bound method, or both in order
# ----------------------------------------------------------------------
def test_no_tier_live_resolves_every_seam_to_the_shared_noop():
    for probe in (NULL_PROBE, Observability().probe,
                  Machine(set_a()).obs.probe):
        for name in SEAMS:
            assert getattr(probe, name) is noop, name


def test_one_tier_live_resolves_to_its_own_bound_method():
    spans_only = Observability(spans=1)
    acct_only = Observability(accounting=True)
    for obs, tier in ((spans_only, spans_only.spans),
                      (acct_only, acct_only.acct)):
        for name in SEAMS:
            seam = getattr(obs.probe, name)
            if hasattr(tier, name):
                # the tier's own method: no intermediate frame
                assert seam == getattr(tier, name), name
                assert seam.__self__ is tier
            else:
                assert seam is noop, name
    assert spans_only.probe.drop == spans_only.spans.drop
    assert acct_only.probe.policy_exec == acct_only.acct.policy_exec


class _CountingTier:
    """Defines every seam; logs (tier, seam, args) into a shared list."""

    def __init__(self, label, log):
        for name in SEAMS:
            setattr(self, name, self._seam(label, name, log))

    @staticmethod
    def _seam(label, name, log):
        return lambda *args: log.append((label, name, args))


def test_both_tiers_live_each_sees_each_seam_once_spans_first():
    log = []
    probe = Probe(_CountingTier("spans", log), _CountingTier("acct", log))
    for name in SEAMS:
        del log[:]
        getattr(probe, name)("x", 7)
        assert log == [("spans", name, ("x", 7)), ("acct", name, ("x", 7))]


def test_machine_with_both_tiers_feeds_both_through_one_probe():
    obs = Machine(set_a(), spans=1, accounting=True).obs
    assert obs.probe.decision == obs.spans.decision      # spans only
    assert obs.probe.socket_dequeued == obs.acct.socket_dequeued
    both = obs.probe.drop                                # the closure
    assert both not in (noop, obs.spans.drop, obs.acct.drop)


# ----------------------------------------------------------------------
# (c) Source guard: injection cannot re-accrete
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
INJECTION = re.compile(
    r"\.(spans|acct|profiler)\s*=[^=]|\bNULL_SPANS\b|\bNULL_ACCOUNTING\b"
)


def test_no_module_outside_obs_injects_or_imports_null_twins():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "obs" in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if INJECTION.search(line):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
                )
    assert not offenders, "\n".join(offenders)
