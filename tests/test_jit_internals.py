"""JIT internals: generated-source inspection, semantic corners, and the
bound form (one stateless factory per image, one closure per binding)."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cluster import steering
from repro.constants import PASS
from repro.ebpf import helpers
from repro.ebpf.compiler import compile_policy
from repro.ebpf.jit import jit_compile
from repro.ebpf.program import LoadedProgram, image_of, load_program
from repro.ebpf.maps import ArrayMap
from repro.net.packet import FiveTuple, Packet, PacketView
from repro.policies import adaptive, builtin
from repro.qdisc import policies as qdisc_policies
from repro.qdisc.discipline import ThreadCtx, compile_rank
from repro.workload.requests import Request


def source_of(policy_src, constants=None):
    program = compile_policy(policy_src, constants=constants)
    fn = jit_compile(program)
    return fn.jit_source, program


def test_jit_masks_wrapping_arithmetic():
    src, _ = source_of("def schedule(pkt):\n    x = 1\n    return x + 2\n")
    assert str((1 << 64) - 1) in src


def test_jit_uses_helpers_for_division():
    # A divisor that is not a literal may be zero: it keeps the helpers.
    src, _ = source_of("def schedule(pkt):\n    x = 9\n    y = pkt_len(pkt)\n"
                       "    return x // y + x % y\n")
    assert "_div(" in src and "_mod(" in src
    # A nonzero literal divisor is inlined; zero still goes through them.
    src, _ = source_of("def schedule(pkt):\n    x = 9\n    return x // 3 + x % 2\n")
    assert "_div(" not in src and "_mod(" not in src
    assert "// 3) & " in src and "% 2)" in src
    src, _ = source_of("def schedule(pkt):\n    x = 9\n    return x // 0 + x % 0\n")
    assert "_div(" in src and "_mod(" in src


def test_jit_maps_globals_to_slots():
    src, _ = source_of(
        "g = 5\n\ndef schedule(pkt):\n    global g\n    g += 1\n    return g\n"
    )
    assert "G[0]" in src
    assert "u_g" not in src


def test_jit_locals_are_prefixed():
    src, _ = source_of("def schedule(pkt):\n    value = 3\n    return value\n")
    assert "u_value" in src


def test_jit_packet_ops():
    src, _ = source_of("""
def schedule(pkt):
    if pkt_len(pkt) < 8:
        return PASS
    return load_u32(pkt, 4)
""")
    assert "u_pkt.length" in src
    assert "u_pkt.load(4, 4)" in src


def test_jit_loop_values_are_masked_literals():
    src, _ = source_of("""
def schedule(pkt):
    t = 0
    for i in range(-2, 2):
        t += i
    return t
""")
    mask = (1 << 64)
    assert str(mask - 2) in src  # -2 masked
    # and the semantics match the interpreter exactly
    program = compile_policy("""
def schedule(pkt):
    t = 0
    for i in range(-2, 2):
        t += i
    return t
""")
    loaded = load_program(program)
    assert loaded.run_interp(None).value == loaded.run_jit(None)


def test_jit_empty_loop_body_is_valid_python():
    loaded = load_program(compile_policy("""
def schedule(pkt):
    for i in range(0):
        pass
    return 7
"""))
    assert loaded.run_jit(None) == 7


def test_jit_shift_masking():
    program = compile_policy("""
def schedule(pkt):
    a = 1
    b = 200
    return (a << b) + (a >> b)
""")
    loaded = load_program(program)
    # shift amounts masked to 6 bits: 200 & 63 == 8
    expected = (1 << 8) + 0
    assert loaded.run_interp(None).value == expected
    assert loaded.run_jit(None) == expected


def test_jit_name_collisions_with_runtime_are_impossible():
    # user variables named like the JIT runtime's internals must not clash
    src = """
def schedule(pkt):
    G = 1
    M = 2
    _rng = 3
    _div = 4
    return G + M + _rng + _div
"""
    loaded = load_program(compile_policy(src))
    assert loaded.run_jit(None) == 10
    assert loaded.run_interp(None).value == 10


def test_jit_rng_stream_matches_interpreter():
    program = compile_policy(
        "def schedule(pkt):\n    return get_random() + get_random()\n"
    )
    a = load_program(program, rng=random.Random(77))
    b = load_program(program, rng=random.Random(77))
    assert a.run_interp(None).value == b.run_jit(None)


def test_jit_source_is_attached_for_debugging():
    program = compile_policy("def schedule(pkt):\n    return 1\n")
    factory = jit_compile(program)
    assert factory.jit_source.startswith("def _bind(M):\n")
    assert "    def _policy(u_pkt, G, _rng):\n" in factory.jit_source
    # code size counts the policy function alone, not the binding prologue
    assert factory.jit_n_lines == 3


# ----------------------------------------------------------------------
# The bound JIT: one stateless factory per image, one closure per binding
# ----------------------------------------------------------------------
SHIPPED_CONSTANTS = {
    "NUM_THREADS": 6, "NUM_EXECUTORS": 6, "SHED_RTYPE": 2,
    "THRESHOLD_US": 100, "SHORT_US": 50, "LONG_PENALTY": 1000,
    "SCAN_TYPE": 2, "NUM_MACHINES": 100, "TAIL_LOAD_WEIGHT_US": 10,
    "SPILL_THRESHOLD": 8,
}
#: ``jit_n_lines`` of every shipped policy and rank text, as generated
#: before maps were bound in the JIT.  It is the ``jit_code_lines`` gauge
#: the all-tiers telemetry digest pins, so binding must not move it.
SHIPPED_JIT_LINES = {
    (builtin, "DYNAMIC_ROUND_ROBIN"): 7, (builtin, "HASH_BY_FLOW"): 7,
    (builtin, "MICA_HASH"): 6, (builtin, "RFS_STEERING"): 9,
    (builtin, "ROUND_ROBIN"): 4, (builtin, "SCAN_AVOID"): 9,
    (builtin, "SITA"): 9, (builtin, "TOKEN_BASED"): 11,
    (adaptive, "ADAPTIVE_SELECT"): 16, (adaptive, "TENANT_SHED"): 10,
    (adaptive, "SRPT_FIXED_THRESHOLD"): 11,
    (adaptive, "SRPT_AUTO_THRESHOLD"): 13,
    (steering, "STEER_LOCALITY"): 10, (steering, "STEER_POWER_OF_TWO"): 9,
    (steering, "STEER_TAIL_P2C"): 11,
    (qdisc_policies, "EDF_BY_DEADLINE"): 8, (qdisc_policies, "FIFO_RANK"): 3,
    (qdisc_policies, "RANK_BY_FLAG"): 8, (qdisc_policies, "SRPT_BY_SIZE"): 8,
    (qdisc_policies, "SRPT_MISRANK_GETS"): 15,
    (qdisc_policies, "SRPT_TIERED"): 11,
}


@pytest.mark.parametrize(
    "module, name", sorted(SHIPPED_JIT_LINES, key=lambda k: k[1]),
    ids=lambda v: v if isinstance(v, str) else v.__name__.rsplit(".")[-1],
)
def test_jit_code_lines_of_every_shipped_text_are_unchanged(module, name):
    text = getattr(module, name)
    compiler = compile_rank if "def rank" in text else compile_policy
    image = image_of(text, compiler, SHIPPED_CONSTANTS)
    assert image.jit.jit_n_lines == SHIPPED_JIT_LINES[module, name]


def test_every_shipped_text_is_pinned():
    shipped = {
        (module, name)
        for module in (builtin, adaptive, steering, qdisc_policies)
        for name in dir(module)
        if name.isupper() and isinstance(getattr(module, name), str)
        and ("def schedule" in getattr(module, name)
             or "def rank" in getattr(module, name))
    }
    assert shipped == set(SHIPPED_JIT_LINES)


FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)
BOUND_READS = """
m = syr_map("m", 64)
n_array = syr_map("n_array", 8)

def schedule(pkt):
    k = pkt_len(pkt)
    if map_has(m, k):
        return map_lookup(m, k) % 6
    return map_lookup(n_array, map_lookup(m, k + 1)) + map_has(n_array, k)
"""


def test_two_bindings_of_one_image_share_no_closure_state():
    image = image_of(BOUND_READS)
    first, second = LoadedProgram(image), LoadedProgram(image)
    assert first.maps[0] is not second.maps[0]
    packet = Packet(FLOW, bytes(3))
    k = packet.length  # 11: past n_array's last index
    assert first.run_jit(packet) == second.run_jit(packet) == 0
    first.maps[0].update(k, 10)
    first.maps[0].update(k + 1, 2)
    first.maps[1].update(2, 7)
    # map_has(m, k) is true through the first binding only
    assert first.run_jit(packet) == 10 % 6
    assert second.run_jit(packet) == 0
    first.maps[0].delete(k)
    assert first.run_jit(packet) == 7
    assert first.run_jit(packet) == first.run_interp(packet).value
    assert second.maps[0].items() == [] and second.maps[1].items() == [
        (i, 0) for i in range(8)]


@settings(max_examples=100, deadline=None)
@given(
    fill=st.dictionaries(st.integers(0, 70), st.integers(0, 2**64 - 1),
                         max_size=20),
    length=st.integers(0, 70),
)
def test_bound_reads_equal_the_interpreter(fill, length):
    """map_lookup / map_has inlined on the bound read: the & U64 mask,
    the absent-key 0 and an out-of-range array index all match."""
    image = image_of(BOUND_READS)
    jitted, interp = LoadedProgram(image), LoadedProgram(image)
    for loaded in (jitted, interp):
        for key, value in fill.items():
            loaded.maps[0].update(key, value)
            if key < 8:
                loaded.maps[1].update(key, value)
    packet = Packet(FLOW, bytes(length))
    assert jitted.run_jit(packet) == interp.run_interp(packet).value


U64 = (1 << 64) - 1


@settings(max_examples=200, deadline=None)
@given(value=st.integers(0, U64), divisor=st.sampled_from([1, 6, U64]))
def test_constant_divisors_equal_the_helpers(value, divisor):
    src = (f"def schedule(pkt):\n    x = V\n"
           f"    return (x // {divisor}) ^ (x % {divisor})\n")
    source, _ = source_of(src, constants={"V": value})
    assert "_div(" not in source and "_mod(" not in source
    expected = (helpers.div_u64(value, divisor)
                ^ helpers.mod_u64(value, divisor))
    loaded = load_program(compile_policy(src, constants={"V": value}))
    assert loaded.run_jit(None) == expected == loaded.run_interp(None).value


class _MapWrites(ast.NodeVisitor):
    """Every statement that rebinds ``<x>.<attr>`` or, with ``in_place``,
    an entry of it or calls a list mutator on it, as ``Class.function``
    qualnames."""

    MUTATORS = ("append", "insert", "extend", "pop", "remove", "clear",
                "sort", "reverse", "__setitem__")

    def __init__(self, attr="maps", in_place=True):
        self.attr = attr
        self.in_place = in_place
        self.scope = []
        self.writers = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _is_maps(self, target):
        while self.in_place and isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr == self.attr

    def _check(self, node, targets):
        if any(self._is_maps(target) for target in targets):
            self.writers.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Assign(self, node):
        self._check(node, node.targets)

    def visit_AugAssign(self, node):
        self._check(node, [node.target])

    visit_AnnAssign = visit_AugAssign

    def visit_Delete(self, node):
        self._check(node, node.targets)

    def visit_Call(self, node):
        func = node.func
        mutator = (self.in_place and isinstance(func, ast.Attribute)
                   and func.attr in self.MUTATORS)
        self._check(node, [func.value] if mutator else [])


def src_writers(attr, in_place=True):
    root = Path(repro.__file__).parent
    writers = set()
    for path in sorted(root.rglob("*.py")):
        visitor = _MapWrites(attr, in_place)
        visitor.visit(ast.parse(path.read_text()))
        writers.update(f"{path.relative_to(root).as_posix()}:{name}"
                       for name in visitor.writers)
    return writers


def test_nothing_in_src_reassigns_a_bound_map():
    """A binding's policy holds each read map's slots ``get`` from bind
    time, so only ``LoadedProgram.__init__`` — before it calls the image's
    factory — may write ``.maps`` or an entry of it, and a map's slots dict
    is bound once, by its constructor."""
    assert src_writers("maps") == {"ebpf/program.py:LoadedProgram.__init__"}
    assert src_writers("_values", in_place=False) == {
        "ebpf/maps.py:ArrayMap.__init__", "ebpf/maps.py:HashMap.__init__"}


# ----------------------------------------------------------------------
# Packet loads in the JIT: the bounds check is the one WireView.load makes
# ----------------------------------------------------------------------
LOAD_AT = "def schedule(pkt):\n    return load_u64(pkt, OFF)\n"


@pytest.mark.parametrize("make", [
    lambda: Packet(FLOW, bytes(3)),
    lambda: Packet(FLOW, None, request=Request(5, 1, 1.0)),
    lambda: PacketView(1, 2, 3, 4),
    lambda: ThreadCtx(7),
], ids=["packet", "lazy_packet", "packet_view", "thread_ctx"])
@pytest.mark.parametrize("past_end", [-3, -1, 0, 1, 8])
def test_jit_load_bounds_are_wireview_load(make, past_end):
    """An unverified program (``jit_compile`` on the compiler's output) that
    loads at or past ``length`` raises WireView.load's own IndexError; an
    in-bounds load reads what WireView.load reads."""
    view = make()
    offset = view.length - 8 + past_end
    policy = jit_compile(compile_policy(LOAD_AT, constants={"OFF": offset}))([])
    if past_end <= 0:
        assert policy(make(), [], None) == make().load(offset, 8)
        return
    with pytest.raises(IndexError) as jitted:
        policy(view, [], None)
    with pytest.raises(IndexError) as direct:
        make().load(offset, 8)
    assert str(jitted.value) == str(direct.value)


def test_array_map_api_is_unchanged():
    """Slots in a dict: lookup / update / items / assign / atomic_add / len
    read and refuse exactly as the list-backed array did."""
    array = ArrayMap("a_array", 4)
    assert len(array) == 4 and array.items() == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert [array.lookup(k) for k in (-1, 0, 3, 4, 1 << 70)] == [
        None, 0, 0, None, None]
    array.update(2, (1 << 64) + 5)
    assert array.lookup(2) == 5 and array.has(2) and not array.has(4)
    for key in (-1, 4):
        with pytest.raises(KeyError):
            array.update(key, 1)
    with pytest.raises(KeyError):
        array.delete(0)
    assert array.atomic_add(3, 7) == 7 and array.atomic_add(3, U64) == 6
    with pytest.raises(KeyError):
        array.atomic_add(9, 1)
    array.assign([9, 8, 7, U64 + 2])
    assert array.items() == [(0, 9), (1, 8), (2, 7), (3, 1)]
    with pytest.raises(ValueError):
        array.assign([1, 2])
    assert array.items() == [(0, 9), (1, 8), (2, 7), (3, 1)] and len(array) == 4
