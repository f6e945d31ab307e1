"""Tests for the instrumentation seam itself (:mod:`repro.obs.probe`).

Four properties keep the seam narrow: :class:`Probe`'s public methods
*are* the seam vocabulary, each one has a call site in the datapath, and
no tier defines a seam of its own (a tier is its read side); a machine
or fleet with no tier live holds *no probe*, and every use of a tier
outside its own module (the probe, the registry and its metric groups,
the event trace, the recorder, the signal bus, the tracer, the
accountant) is guarded by ``is not None``, since a tier that is off is
``None``; and no component outside ``repro/obs/`` can grow the old
attribute injection or a null twin back.
"""

import ast
import inspect
import pathlib
import re

import pytest

from repro import Hook, Machine, set_a
from repro.apps import RocksDbServer
from repro.cluster.fleet import Fleet
from repro.obs import Observability
from repro.obs.accounting import TenantAccountant
from repro.obs.probe import Probe
from repro.obs.spans import SpanTracer
from repro.policies import ROUND_ROBIN

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: The tiers' read side (operator views, exports): all they define.
VIEWS = {
    SpanTracer: {"trees", "to_chrome_trace"},
    TenantAccountant: {"ledger", "tenants", "snapshot", "publish"},
}


def _public_methods(cls):
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }


#: Every seam: Probe's public methods are the vocabulary.
SEAMS = sorted(_public_methods(Probe))


# ----------------------------------------------------------------------
# (a) Vocabulary: one definition, one call site or more, no tier seams
# ----------------------------------------------------------------------
def _seam_calls_outside_obs():
    called = set()
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "obs" not in path.parents:
            called.update(re.findall(r"\bprobe\.(\w+)\(", path.read_text()))
    return called


def test_every_seam_has_a_call_site_outside_obs_and_every_call_a_seam():
    assert len(SEAMS) == 26
    assert _seam_calls_outside_obs() == set(SEAMS)


@pytest.mark.parametrize("cls", list(VIEWS))
def test_every_public_tier_method_is_a_seam_or_a_view(cls):
    assert _public_methods(cls) - VIEWS[cls] <= set(SEAMS)


def test_no_tier_defines_a_seam():
    for cls in VIEWS:
        assert not _public_methods(cls) & set(SEAMS), cls


def test_each_seam_has_one_positional_signature():
    for name in SEAMS:
        params = list(
            inspect.signature(getattr(Probe, name)).parameters.values())[1:]
        assert params, name
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params), name


def test_probe_rejects_a_misspelt_seam():
    with pytest.raises(AttributeError):
        Probe().nic_arival  # noqa: B018 - the typo is the point


# ----------------------------------------------------------------------
# (b) One probe over whichever tiers are live
# ----------------------------------------------------------------------
def test_no_tier_live_builds_no_probe():
    # no tier live: no probe at all, so the datapath makes no seam call
    assert Observability().probe is None
    assert Machine(set_a()).obs.probe is None
    assert Fleet(num_machines=2, seed=1).obs.probe is None


def test_one_tier_live_the_probe_holds_only_that_tier():
    spans_only = Machine(set_a(), spans=1).obs
    assert spans_only.probe.spans is spans_only.spans is not None
    assert spans_only.probe.acct is None
    acct_only = Machine(set_a(), accounting=True).obs
    assert acct_only.probe.acct is acct_only.acct is not None
    assert acct_only.probe.spans is None


def test_machine_with_both_tiers_feeds_both_through_one_probe():
    machine = Machine(set_a(), spans=1, accounting=True)
    obs = machine.obs
    assert (obs.probe.spans, obs.probe.acct) == (obs.spans, obs.acct)
    assert None not in (obs.spans, obs.acct)
    assert obs.probe.clock is machine.engine


# ----------------------------------------------------------------------
# (c) Source guard: injection cannot re-accrete
# ----------------------------------------------------------------------
INJECTION = re.compile(r"\.(spans|acct|profiler)\s*=[^=]")
#: A tier that is off is None: no null twin, singleton or flag anywhere.
NULL_TWIN = re.compile(r"\bclass Null|\bNULL_|\bDISABLED\b|\.enabled\b")


def test_no_module_outside_obs_injects_or_imports_null_twins():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        outside_obs = SRC / "obs" not in path.parents
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if NULL_TWIN.search(line) or (outside_obs
                                          and INJECTION.search(line)):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
                )
    assert not offenders, "\n".join(offenders)


# ----------------------------------------------------------------------
# (d) A dark datapath holds no probe and calls no seam
# ----------------------------------------------------------------------
def _machine_components(**telemetry):
    machine = Machine(set_a(), seed=1, **telemetry)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, num_threads=6)
    app.deploy_policy(ROUND_ROBIN, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    sites = list(machine.syrupd._sites.values())
    assert sites
    return machine.obs, [machine.nic, machine.netstack, machine.scheduler,
                         *server.sockets, *sites]


def _fleet_components(**telemetry):
    fleet = Fleet(num_machines=2, seed=1, **telemetry)
    return fleet.obs, [fleet]


@pytest.mark.parametrize("build", [_machine_components, _fleet_components])
def test_dark_components_hold_no_probe_lit_ones_share_one(build):
    obs, components = build()
    assert obs.probe is None
    assert all(c.probe is None for c in components), components
    lit = [{"spans": 1}]
    if build is _machine_components:
        lit.append({"accounting": True})
    for telemetry in lit:
        obs, components = build(**telemetry)
        assert isinstance(obs.probe, Probe)
        assert all(c.probe is obs.probe for c in components), telemetry


#: Attributes that hold a telemetry tier, or a metric group resolved
#: from the registry: each is ``None`` when its tier is off.
TIER_ATTRS = {"probe", "registry", "events", "recorder", "signals", "spans",
              "acct", "metrics", "_metrics", "_registry", "_events"}
#: The tiers' own modules, where these names are the tier itself.
TIER_MODULES = {"core/signals.py"}


def _compares(test, receiver, op):
    """Does ``test`` read ``<receiver> <op> None``?"""
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], op)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and ast.dump(test.left) == receiver)


def _operands(test, op):
    return (test.values if isinstance(test, ast.BoolOp)
            and isinstance(test.op, op) else [test])


def _is_not_none(test, receiver):
    """``<receiver> is not None``, alone or as one operand of an ``and``."""
    return any(_compares(t, receiver, ast.IsNot)
               for t in _operands(test, ast.And))


def _is_none(test, receiver):
    """``<receiver> is None``, alone or as one operand of an ``or``."""
    return any(_compares(t, receiver, ast.Is)
               for t in _operands(test, ast.Or))


def _exits(stmt, receiver):
    """``if <receiver> is None: ... return`` (or raise / continue), or
    ``assert <receiver> is not None``: what follows may use it."""
    if isinstance(stmt, ast.Assert):
        return _is_not_none(stmt.test, receiver)
    return (isinstance(stmt, ast.If) and not stmt.orelse
            and _is_none(stmt.test, receiver)
            and isinstance(stmt.body[-1], (ast.Return, ast.Raise,
                                           ast.Continue)))


def _names_a_probe(node):
    return (isinstance(node, ast.Name) and node.id == "probe"
            or isinstance(node, ast.Attribute) and node.attr == "probe")


class _TierUseGuard(ast.NodeVisitor):
    """Collects uses of a tier receiver — an attribute in
    :data:`TIER_ATTRS`, a member of a metric group, or a local bound to
    either — not guarded by ``is not None`` in the same function, and
    aliases of a probe bound to any other name."""

    def __init__(self, module):
        self.module = module
        self.stack = []
        self.aliases = [set()]
        self.offenders = []
        self.calls = 0

    def _tier(self, node):
        if isinstance(node, ast.Name):
            return node.id in self.aliases[-1]
        if not isinstance(node, ast.Attribute) or node.attr not in TIER_ATTRS:
            return False
        owner = node.value
        owner = owner.attr if isinstance(owner, ast.Attribute) else getattr(
            owner, "id", None)
        # syrupd.registry is the pinned-map registry, never None
        return not (node.attr == "registry" and (
            owner == "syrupd"
            or self.module == "core/syrupd.py" and owner == "self"))

    def generic_visit(self, node):
        self.stack.append(node)
        super().generic_visit(node)
        self.stack.pop()

    def _scope(self, node):
        self.aliases.append(set())
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                pairs = [(t, child.value) for t in child.targets]
                if isinstance(child.value, ast.Tuple):
                    pairs += [(t, v) for target in child.targets
                              if isinstance(target, ast.Tuple)
                              for t, v in zip(target.elts,
                                              child.value.elts)]
                for target, value in pairs:
                    if isinstance(target, ast.Name) and self._tier(value):
                        self.aliases[-1].add(target.id)
        self.generic_visit(node)
        self.aliases.pop()

    visit_FunctionDef = visit_Lambda = _scope

    def visit_Assign(self, node):
        if _names_a_probe(node.value):
            for target in node.targets:
                if not _names_a_probe(target):
                    self.offenders.append((node.lineno, "alias"))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in SEAMS
                and _names_a_probe(func.value)):
            self.calls += 1
        self.generic_visit(node)

    def _use(self, node, receiver):
        if self._tier(receiver) and not self._guarded(
                node, ast.dump(receiver)):
            self.offenders.append((node.lineno, ast.unparse(node)[:40]))

    def visit_Attribute(self, node):
        self._use(node, node.value)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        self._use(node, node.value)
        self.generic_visit(node)

    def _guarded(self, node, receiver):
        child = node
        for parent in reversed(self.stack):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(parent, field, None)
                if isinstance(block, list) and child in block:
                    if any(_exits(stmt, receiver)
                           for stmt in block[:block.index(child)]):
                        return True
            if isinstance(parent, (ast.FunctionDef, ast.Lambda)):
                return False
            if isinstance(parent, (ast.If, ast.IfExp)):
                body = (parent.body if isinstance(parent.body, list)
                        else [parent.body])
                orelse = (parent.orelse if isinstance(parent.orelse, list)
                          else [parent.orelse])
                if (any(child is n for n in body)
                        and _is_not_none(parent.test, receiver)
                        or any(child is n for n in orelse)
                        and _is_none(parent.test, receiver)):
                    return True
            if (isinstance(parent, ast.BoolOp)
                    and isinstance(parent.op, ast.And)):
                index = parent.values.index(child)
                if any(_is_not_none(test, receiver)
                       for test in parent.values[:index]):
                    return True
            child = parent
        return False


def test_every_tier_use_outside_its_module_is_guarded_by_is_not_none():
    # A tier that is off is None (a dark machine's probe, registry,
    # events, recorder, spans, accountant and signal bus; the metric
    # groups a dark registry would resolve): an unguarded use on a rare
    # path (a drop, a revocation, a dead machine) would raise
    # AttributeError in a user's run, so it fails here first.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("obs/") or module in TIER_MODULES:
            continue
        guard = _TierUseGuard(module)
        source = path.read_text()
        guard.visit(ast.parse(source))
        offenders += [f"{module}:{line}: {what}"
                      for line, what in guard.offenders]
        # the guard saw every seam call the text holds
        assert guard.calls == len(re.findall(
            r"probe\.(?:%s)\(" % "|".join(SEAMS), source)), path
    assert not offenders, "\n".join(offenders)
