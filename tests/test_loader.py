"""Tests for policy loading (repro.core.loader) and the subset it defers to.

The compiler (repro.ebpf.compiler) is the one definition of what a policy
may say.  A generated family of escapes — attribute chains, dunders,
comprehension scopes, lambdas, decorators, annotations, default
arguments, imports and rebound builtins — must each be refused by the
compiler alone, through both entry points, while the same file without
the escape compiles.  The loader adds only the ceilings on outside input
and reports the compiler's refusal as its issue list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_policy_source
from repro import Hook, Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.core.loader import (
    MAX_BYTES,
    MAX_LINES,
    PolicyLoadError,
    PolicyValidationError,
    check_policy_source,
    load_policy_file,
)
from repro.ebpf import CompileError, VerifierError
from repro.ebpf.compiler import compile_policy, compile_rank
from repro.policies.builtin import ROUND_ROBIN
from repro.qdisc.policies import SRPT_BY_SIZE, SRPT_TIERED

CLEAN = """
def schedule(pkt):
    return PASS
"""

#: The names docs/policy-language.md gives one meaning in every policy.
BUILTIN_NAMES = (
    "PASS", "DROP", "pkt_len", "load_u8", "load_u16", "load_u32",
    "load_u64", "map_lookup", "map_has", "map_update", "map_delete",
    "atomic_add", "get_random", "syr_map",
)


def _check(source, compiler=compile_policy, constants=None):
    return check_policy_source(source, compiler, constants)


# ----------------------------------------------------------------------
# The happy path: every shipped policy is inside the subset
# ----------------------------------------------------------------------
def test_builtin_policies_validate_clean():
    assert _check(CLEAN) is CLEAN
    assert _check(ROUND_ROBIN, constants={"NUM_THREADS": 4}) is ROUND_ROBIN
    for rank in (SRPT_BY_SIZE, SRPT_TIERED):
        assert _check(rank, compile_rank, {"SHORT_US": 100}) is rank


# ----------------------------------------------------------------------
# Rejections carry the compiler's message
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source,needle", [
    ("import os\ndef schedule(pkt):\n    return PASS\n", "only import"),
    ("from subprocess import run\n", "only import"),
    ("def schedule(pkt):\n    return eval('1')\n", "unknown function 'eval'"),
    ("def schedule(pkt):\n    return open('/etc/passwd')\n",
     "unknown function 'open'"),
    ("def schedule(pkt):\n    return getattr(pkt, 'x')\n",
     "unknown function 'getattr'"),
    ("def schedule(pkt):\n    return pkt.__class__\n",
     "unsupported expression Attribute"),
    ("class Sneaky:\n    pass\n", "module-level statement ClassDef"),
    ("f = lambda pkt: 0\n", "must be a constant integer"),
    ("def schedule(pkt):\n    yield 1\n", "unsupported expression Yield"),
    ("def schedule(pkt):\n    def inner():\n        nonlocal pkt\n"
     "        return pkt\n    return 0\n",
     "unsupported statement FunctionDef"),
    ("def schedule(pkt):\n    try:\n        return 0\n"
     "    finally:\n        pass\n", "unsupported statement Try"),
    ("def schedule(pkt):\n    with pkt:\n        return 0\n",
     "unsupported statement With"),
    ("def schedule(pkt):\n    return max(*pkt)\n", "unknown function 'max'"),
    ("def schedule(pkt)\n    return 0\n", "not valid Python"),
], ids=["import", "from-import", "eval", "open", "getattr", "dunder",
        "class", "lambda", "yield", "nonlocal", "try", "with", "starargs",
        "syntax"])
def test_hostile_sources_are_rejected(source, needle):
    with pytest.raises(CompileError, match=needle):
        compile_policy(source)
    with pytest.raises(PolicyValidationError) as err:
        _check(source)
    assert len(err.value.issues) == 1 and needle in err.value.issues[0]


@pytest.mark.parametrize("source", [
    '5\n"note"\ndef {entry}(pkt):\n    "mid"\n    7\n    return 1\n',
    '5\ndef {entry}(pkt):\n    return 1\n',
    '"doc"\n"second"\ndef {entry}(pkt):\n    return 1\n',
    'def {entry}(pkt):\n    7\n    return 1\n',
    'def {entry}(pkt):\n    x = 1\n    "late"\n    return x\n',
    'def {entry}(pkt):\n    if pkt_len(pkt) > 1:\n        "inner"\n'
    '    return 1\n',
], ids=["mixed", "module-int", "second-string", "function-int",
        "late-string", "nested-string"])
def test_only_a_leading_docstring_may_be_a_bare_constant(source):
    # a bare constant does nothing; outside the docstring slot it is
    # refused, not silently dropped
    for entry, compiler in (("schedule", compile_policy),
                            ("rank", compile_rank)):
        with pytest.raises(CompileError, match="leading docstring"):
            compiler(source.format(entry=entry))


def test_leading_docstrings_compile_to_nothing():
    plain = compile_policy("def schedule(pkt):\n    return 1\n")
    documented = compile_policy(
        '"""Module."""\ndef schedule(pkt):\n    """Entry."""\n    return 1\n')
    assert [str(i) for i in documented.insns] \
        == [str(i) for i in plain.insns]


def test_shadowing_does_not_launder_denied_names():
    # a module-level name holds an integer or a map, nothing else
    with pytest.raises(PolicyValidationError, match="constant integer"):
        _check("e = eval\ndef schedule(pkt):\n    return e()\n")
    with pytest.raises(PolicyValidationError, match="rebind the builtin"):
        _check("get_random = 1\ndef schedule(pkt):\n    return 0\n")


def test_allow_list_admits_declared_imports_only():
    """The one import: PASS / DROP from repro.constants, unaliased."""
    ok = "from repro.constants import DROP, PASS\n" + CLEAN
    assert _check(ok) is ok
    for line in ("import math", "from repro.constants import DROP as PASS",
                 "from repro.constants import *", "import repro.constants",
                 "from repro import constants"):
        with pytest.raises(PolicyValidationError, match="only import"):
            _check(line + "\n" + CLEAN)


def test_size_ceilings():
    with pytest.raises(PolicyValidationError, match="lines"):
        _check("x = 0\n" * MAX_LINES)
    with pytest.raises(PolicyValidationError, match="bytes"):
        _check("# " + "a" * MAX_BYTES)
    with pytest.raises(PolicyValidationError, match="not valid Python"):
        _check("x\x00= 0")
    with pytest.raises(PolicyValidationError, match="must be str"):
        _check(b"not text")


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------
def test_load_policy_file_roundtrip_and_rejections(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(CLEAN)
    assert load_policy_file(str(good)) == CLEAN

    # what a file says is the compiler's to refuse, where it is deployed
    bad = tmp_path / "bad.py"
    bad.write_text("import socket\n")
    with pytest.raises(PolicyValidationError, match="only import"):
        _check(load_policy_file(str(bad)))

    long = tmp_path / "long.py"
    long.write_text("x = 0\n" * MAX_LINES)
    with pytest.raises(PolicyValidationError, match="lines"):
        load_policy_file(str(long))

    binary = tmp_path / "binary.py"
    binary.write_bytes(b"\xff\xfe policy")
    with pytest.raises(PolicyLoadError, match="UTF-8"):
        load_policy_file(str(binary))

    huge = tmp_path / "huge.py"
    huge.write_bytes(b"#" * (MAX_BYTES + 1))
    with pytest.raises(PolicyLoadError, match="exceeds"):
        load_policy_file(str(huge))

    with pytest.raises(PolicyLoadError, match="cannot read"):
        load_policy_file(str(tmp_path / "missing.py"))


# ----------------------------------------------------------------------
# Integration: where each refusal is booked
# ----------------------------------------------------------------------
def _machine():
    machine = Machine(set_a(), seed=3, metrics=True)
    app = machine.register_app("rocksdb", ports=[8080])
    RocksDbServer(machine, app, 8080, 4)
    return machine, app


def test_deploy_shadow_rejects_denied_source_before_compile():
    machine, app = _machine()
    app.deploy_qdisc(SRPT_BY_SIZE, layer="socket", backend="pifo")
    hostile = "import os\ndef rank(pkt):\n    return PASS\n"
    with pytest.raises(PolicyValidationError):
        app.deploy_shadow(hostile, layer="socket")
    # the rejection is observable: counter + structured event, no record
    rejects = machine.obs.events.events(kind="loader_reject")
    assert len(rejects) == 1
    assert any("only import" in issue for issue in rejects[0]["issues"])
    assert machine.syrupd.promotions() == []
    counter = machine.obs.registry.counter(
        "rocksdb", "syrupd", "loader_rejections"
    )
    assert counter.value == 1


def test_deploy_shadow_checks_with_the_compiler_its_load_uses():
    machine, app = _machine()
    app.deploy_qdisc(SRPT_BY_SIZE, layer="socket", backend="pifo")
    # a policy file is not a rank file: refused before any hook check
    with pytest.raises(PolicyValidationError, match="'rank'"):
        app.deploy_shadow(CLEAN, layer="socket")
    # what compiles but does not verify is the load's to book
    leaky = "def rank(pkt):\n    return load_u32(pkt, 0)\n"
    with pytest.raises(VerifierError):
        app.deploy_shadow(leaky, layer="socket")
    events = machine.obs.events
    assert len(events.events(kind="loader_reject")) == 1
    assert len(events.events(kind="verifier_reject")) == 1


def test_a_nul_byte_is_one_verifier_reject_on_plain_deploy():
    # Python 3.9 and 3.10 parse a NUL byte to ValueError, not SyntaxError
    machine, app = _machine()
    with pytest.raises(CompileError, match="not valid Python"):
        app.deploy_policy("x\x00= 0", Hook.SOCKET_SELECT)
    rejects = machine.obs.events.events(kind="verifier_reject")
    assert [event["error"] for event in rejects] == ["CompileError"]


def test_a_function_without_source_is_one_verifier_reject():
    # defined through exec: inspect has no source to give the compiler,
    # which is a CompileError the load books, not an OSError escaping it
    machine, app = _machine()
    namespace = {}
    exec("def schedule(pkt):\n    return 0\n", namespace)
    with pytest.raises(CompileError, match="no readable source"):
        app.deploy_policy(namespace["schedule"], Hook.SOCKET_SELECT)
    rejects = machine.obs.events.events(kind="verifier_reject")
    assert [event["error"] for event in rejects] == ["CompileError"]


def _rank_function(tmp_path, monkeypatch, module, body):
    """A ``def rank`` written to a module file, so inspect can read it."""
    (tmp_path / f"{module}.py").write_text(f"def rank(pkt):\n{body}")
    monkeypatch.syspath_prepend(str(tmp_path))
    return __import__(module).rank


def test_deploy_shadow_checks_a_function_as_its_text(tmp_path, monkeypatch):
    machine, app = _machine()
    app.deploy_qdisc(SRPT_BY_SIZE, layer="socket", backend="pifo")
    body = "    while pkt_len(pkt):\n        pass\n    return 1\n"
    refused = _rank_function(tmp_path, monkeypatch, "shadow_refused", body)
    long = _rank_function(tmp_path, monkeypatch, "shadow_long",
                          "    x = 1\n" * MAX_LINES + "    return x\n")
    for policy in (refused, "def rank(pkt):\n" + body, long):
        with pytest.raises(PolicyValidationError):
            app.deploy_shadow(policy, layer="socket")
    events = machine.obs.events
    issues = [event["issues"] for event in events.events(kind="loader_reject")]
    assert issues[0] == issues[1] and "'while'" in issues[0][0]
    assert "lines (limit" in issues[2][0]
    assert events.events(kind="verifier_reject") == []
    clean = _rank_function(tmp_path, monkeypatch, "shadow_clean",
                           "    return 1\n")
    record = app.deploy_shadow(clean, layer="socket")
    assert record.name == "rank" and record.stage == "shadow"


# ----------------------------------------------------------------------
# Generated escapes: refused by the compiler alone, through both entries
# ----------------------------------------------------------------------
def _policy(entry, module="", decorator="", params="pkt", returns="",
            body="pass", value="0"):
    """A policy file that compiles until one part holds an escape."""
    return (f"{module}\n"
            'm = syr_map("m", 8)\n'
            "g = 0\n\n"
            f"{decorator}def {entry}({params}){returns}:\n"
            "    global g\n"
            f"    {body}\n"
            f"    return {value}\n")


_PAYLOADS = st.sampled_from([
    "0", "pkt", "PASS", "eval", "__import__('os')",
    "__import__('os').system('true')", "open('f')", "getattr(pkt, 'a')",
])
_ATTRS = st.sampled_from([
    "__class__", "__globals__", "__builtins__", "__dict__", "__init__",
    "__subclasses__", "real", "get", "system", "f_back",
])


@st.composite
def _placed(draw, exprs):
    """An escape expression where a return, a local, a bare call or a
    module-level value would hold it."""
    expr = draw(exprs)
    return draw(st.sampled_from([
        {"value": expr}, {"body": f"x = {expr}"}, {"body": expr},
        {"module": f"y = {expr}"},
    ]))


_ATTRIBUTE_CHAINS = _placed(st.builds(
    lambda root, attrs, call: root + "." + ".".join(attrs) + call,
    st.sampled_from(["pkt", "m", "g", "PASS", "get_random", "(1)",
                     "pkt_len(pkt)"]),
    st.lists(_ATTRS, min_size=1, max_size=4),
    st.sampled_from(["", "()"]),
))
_DUNDERS = _placed(st.sampled_from([
    "__import__('os')", "__builtins__", "__loader__", "__spec__",
    "__name__", "__debug__", "globals()", "vars()", "exec('x = 1')",
    "type(pkt)", "breakpoint()", "compile('1', '', 'eval')",
]))
_COMPREHENSIONS = _placed(st.builds(
    lambda shape, elt, it: shape.format(e=elt, it=it),
    st.sampled_from(["[{e} for v in {it}]", "{{{e}: v for v in {it}}}",
                     "{{{e} for v in {it}}}", "({e} for v in {it})",
                     "sum({e} for v in {it})", "len([{e} for v in {it}])"]),
    st.sampled_from(["v", "v.__class__", "pkt_len(pkt)", "__import__('os')"]),
    st.sampled_from(["range(3)", "pkt", "m"]),
))
_LAMBDAS = _placed(st.builds(
    lambda params, body, call: f"(lambda {params}: {body}){call}",
    st.sampled_from(["", "pkt", "x=1", "*a"]),
    _PAYLOADS,
    st.sampled_from(["", "()", "(pkt)"]),
))
_DECORATORS = st.builds(
    lambda exprs: {"decorator": "".join(f"@{e}\n" for e in exprs)},
    st.lists(st.sampled_from([
        "staticmethod", "__import__('os').system", "PASS", "get_random",
        "m", "functools.lru_cache()", "(lambda f: f)",
    ]), min_size=1, max_size=2),
)
_ANNOTATIONS = st.builds(
    lambda where, ann: ({"params": f"pkt: {ann}"} if where == "arg"
                        else {"returns": f" -> {ann}"}),
    st.sampled_from(["arg", "return"]),
    st.sampled_from(["int", "None", "'str'", "PASS",
                     "__import__('os').system('true')"]),
)
_DEFAULTS = st.builds(
    lambda shape, expr: {"params": shape.format(e=expr)},
    st.sampled_from(["pkt, x={e}", "pkt=({e})", "pkt, *, x={e}",
                     "x, /, pkt", "pkt, *rest", "pkt, **kw"]),
    _PAYLOADS,
)
_ALIASED_CONSTANT_IMPORTS = st.builds(
    lambda first, rest: "from repro.constants import " + ", ".join(
        [f"{first[0]} as {first[1]}"] + rest),
    st.tuples(st.sampled_from(["PASS", "DROP"]),
              st.sampled_from(["PASS", "DROP", "x"])),
    st.lists(st.sampled_from(["PASS", "DROP", "DROP as PASS"]), max_size=2),
)
_IMPORTS = st.builds(
    lambda line, where: {where: line},
    st.one_of(_ALIASED_CONSTANT_IMPORTS, st.sampled_from([
        "import os", "import repro.constants", "import repro.constants as c",
        "from repro.constants import *", "from repro import constants",
        "from os import system", "from . import constants",
        "from .constants import PASS", "from __future__ import annotations",
        "from repro.constants import PASS, NUM_THREADS",
    ])),
    st.sampled_from(["module", "body"]),
)
_BINDINGS = st.builds(
    lambda name, shape: {"module": f"{name} = 1"} if shape == "module" else
    {"module": f'{name} = syr_map("x", 4)'} if shape == "map" else
    {"params": name} if shape == "param" else
    {"body": shape.format(n=name)},
    st.sampled_from(BUILTIN_NAMES),
    st.sampled_from(["module", "map", "param", "{n} = 1", "{n} += 1",
                     "for {n} in range(2):\n        pass", "global {n}"]),
)

ESCAPES = st.one_of(_ATTRIBUTE_CHAINS, _DUNDERS, _COMPREHENSIONS, _LAMBDAS,
                    _DECORATORS, _ANNOTATIONS, _DEFAULTS, _IMPORTS, _BINDINGS)


def test_the_escape_template_compiles_clean():
    assert compile_policy(_policy("schedule")).name == "schedule"
    assert compile_rank(_policy("rank")).name == "rank"


@settings(deadline=None)
@given(ESCAPES)
def test_generated_escapes_are_refused_by_the_compiler_alone(parts):
    for entry, compiler in (("schedule", compile_policy),
                            ("rank", compile_rank)):
        source = _policy(entry, **parts)
        with pytest.raises(CompileError):
            compiler(source)


@settings(deadline=None)
@given(st.integers(0, 2**32))
def test_random_subset_policies_still_compile(seed):
    source = random_policy_source(seed)
    compile_policy(source)
    compile_rank(source.replace("def schedule(", "def rank(", 1))
