"""JIT internals: generated-source inspection, semantic corners, the
layout of the verified IR, and the bound form (one stateless factory per
image, one closure per binding)."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cluster import steering
from repro.constants import PASS
from repro.ebpf import helpers
from ir_reference import assert_matches_reference
from test_dark_path_budget import bytecodes_of

from repro.ebpf.compiler import compile_policy
from repro.ebpf.vm import jit_compile
from repro.ebpf.program import LoadedProgram, image_of, load_program
from repro.ebpf.maps import ArrayMap
from repro.net.packet import FiveTuple, Packet, PacketView, build_payload
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
    assert "g[0] = ((g[0] + 1) & " in src
    assert "return g[0]\n" in src


def test_jit_locals_are_prefixed():
    """The JIT compiles IR, so a local is its slot, ``l<slot>``: no policy
    name reaches the generated source."""
    src, _ = source_of("def schedule(pkt):\n    value = 3\n    return value\n")
    assert "l0 = 3" in src and "value" not in src


def test_jit_packet_ops():
    src, _ = source_of("""
def schedule(pkt):
    if pkt_len(pkt) < 8:
        return PASS
    return load_u32(pkt, 4)
""")
    assert "if (packet.length < 8):" in src
    assert "[4:8], 'little') if 8 <= packet.length else packet.load(4, 4))" in src


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
    assert factory.jit_source.startswith("def _bind(maps):\n")
    assert "    def _policy(packet, g, rng):\n" in factory.jit_source
    # code size counts the policy function alone, not the binding prologue
    assert factory.jit_n_lines == 2


# ----------------------------------------------------------------------
# The bound JIT: one stateless factory per image, one closure per binding
# ----------------------------------------------------------------------
SHIPPED_CONSTANTS = {
    "NUM_THREADS": 6, "NUM_EXECUTORS": 6, "SHED_RTYPE": 2,
    "THRESHOLD_US": 100, "SHORT_US": 50, "LONG_PENALTY": 1000,
    "SCAN_TYPE": 2, "NUM_MACHINES": 100, "TAIL_LOAD_WEIGHT_US": 10,
    "SPILL_THRESHOLD": 8,
}
#: ``jit_n_lines`` of every shipped policy and rank text: the
#: ``jit_code_lines`` gauge, which the telemetry and control-plane digests
#: and three views pin.  It counts the policy function compiled from the
#: verified IR, so an unrolled loop counts once per iteration (SCAN Avoid).
SHIPPED_JIT_LINES = {
    (builtin, "DYNAMIC_ROUND_ROBIN"): 6, (builtin, "HASH_BY_FLOW"): 6,
    (builtin, "MICA_HASH"): 5, (builtin, "RFS_STEERING"): 8,
    (builtin, "ROUND_ROBIN"): 3, (builtin, "SCAN_AVOID"): 27,
    (builtin, "SITA"): 8, (builtin, "TOKEN_BASED"): 10,
    (adaptive, "ADAPTIVE_SELECT"): 15, (adaptive, "TENANT_SHED"): 12,
    (adaptive, "SRPT_FIXED_THRESHOLD"): 10,
    (adaptive, "SRPT_AUTO_THRESHOLD"): 13,
    (steering, "STEER_LOCALITY"): 9, (steering, "STEER_POWER_OF_TWO"): 8,
    (steering, "STEER_TAIL_P2C"): 10,
    (qdisc_policies, "EDF_BY_DEADLINE"): 7, (qdisc_policies, "FIFO_RANK"): 2,
    (qdisc_policies, "RANK_BY_FLAG"): 7, (qdisc_policies, "SRPT_BY_SIZE"): 7,
    (qdisc_policies, "SRPT_MISRANK_GETS"): 14,
    (qdisc_policies, "SRPT_TIERED"): 10,
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
    assert shipped == set(AST_JIT_BYTECODES)


#: CPython 3.11 bytecodes per run of the AST JIT this one replaced (it
#: regenerated Python from the policy's AST), as measured by
#: :func:`jit_bytecodes_per_run`.  The JIT of the verified IR may cost at
#: most 10% more, which also leaves room for 3.9 and 3.12.
AST_JIT_BYTECODES = {
    (builtin, "DYNAMIC_ROUND_ROBIN"): 51.0, (builtin, "HASH_BY_FLOW"): 45.0,
    (builtin, "MICA_HASH"): 32.0, (builtin, "RFS_STEERING"): 59.0,
    (builtin, "ROUND_ROBIN"): 25.0, (builtin, "SCAN_AVOID"): 124.5,
    (builtin, "SITA"): 55.25, (builtin, "TOKEN_BASED"): 81.75,
    (adaptive, "ADAPTIVE_SELECT"): 134.0, (adaptive, "TENANT_SHED"): 52.5,
    (adaptive, "SRPT_FIXED_THRESHOLD"): 56.0,
    (adaptive, "SRPT_AUTO_THRESHOLD"): 70.625,
    (steering, "STEER_LOCALITY"): 48.5, (steering, "STEER_POWER_OF_TWO"): 56.0,
    (steering, "STEER_TAIL_P2C"): 96.0,
    (qdisc_policies, "EDF_BY_DEADLINE"): 44.75, (qdisc_policies, "FIFO_RANK"): 11.0,
    (qdisc_policies, "RANK_BY_FLAG"): 45.875,
    (qdisc_policies, "SRPT_BY_SIZE"): 49.375,
    (qdisc_policies, "SRPT_MISRANK_GETS"): 63.375,
    (qdisc_policies, "SRPT_TIERED"): 55.5,
}


def jit_bytecodes_per_run(text):
    """Mean bytecodes of one JIT run of ``text`` — the policy closure
    alone — over eight packets (six request types and users, two too
    short for any header) with seeded map contents and draws."""
    compiler = compile_rank if "def rank" in text else compile_policy
    loaded = LoadedProgram(image_of(text, compiler, SHIPPED_CONSTANTS))
    fill = random.Random(5)
    for bpf_map in loaded.maps:
        for key in range(min(bpf_map.max_entries, 8)):
            bpf_map.update(key, fill.choice((0, 0, 1, 2, 9, 40, 75, 2000)))
    policy = loaded.image.jit(loaded.maps)
    rng = random.Random(7)
    packets = [Packet(FLOW, build_payload(rtype, user, key, rid))
               for rid, (rtype, user, key) in enumerate(
                   [(1, 0, 16), (2, 1, 5), (1, 3, 32), (3, 2, 7),
                    (2, 4, 48), (1, 5, 9)])]
    packets += [Packet(FLOW, b""), Packet(FLOW, bytes(12))]
    for packet in packets:  # warm: first-call effects stay out
        policy(packet, loaded.globals, rng)
    return sum(bytecodes_of(lambda: policy(packet, loaded.globals, rng))
               for packet in packets) / len(packets)


@pytest.mark.parametrize(
    "module, name", sorted(AST_JIT_BYTECODES, key=lambda k: k[1]),
    ids=lambda v: v if isinstance(v, str) else v.__name__.rsplit(".")[-1],
)
def test_jit_bytecodes_per_run_of_every_shipped_text(module, name):
    measured = jit_bytecodes_per_run(getattr(module, name))
    assert measured <= 1.10 * AST_JIT_BYTECODES[module, name], measured


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


# ----------------------------------------------------------------------
# The layout of the verified IR: nested at each join, flat past CPython's
# indentation limit, and always the interpreter's semantics
# ----------------------------------------------------------------------
def assert_jit_agrees(text, constants=None, packets=(), fills=(0, 1, 2)):
    """JIT and interpreter bindings of ``text`` agree on value, globals
    and maps over ``packets``, for each seeded map fill; returns the JIT
    source."""
    image = image_of(text, constants=constants)
    for seed in fills:
        interp, jitted = LoadedProgram(image), LoadedProgram(image)
        for loaded in (interp, jitted):
            fill = random.Random(seed)
            for bpf_map in loaded.maps:
                for key in range(bpf_map.max_entries):
                    if fill.random() < 0.3:
                        bpf_map.update(key, fill.choice((0, 1, 2, 3, 9, 200)))
        for packet in packets:
            assert jitted.run_jit(packet) == interp.run_interp(packet).value
        assert jitted.globals == interp.globals
        assert [m.items() for m in jitted.maps] == [
            m.items() for m in interp.maps]
    return image.jit.jit_source


def deepest_indent(source):
    return max(len(line) - len(line.lstrip()) for line in source.splitlines()
               if line.strip()) // 4


PACKETS = [Packet(FLOW, build_payload(rtype, 7, 3, rtype) + bytes(extra))
           for rtype in (0, 1, 2, 3, 101) for extra in (0, 30)]
PACKETS += [Packet(FLOW, b""), Packet(FLOW, bytes(9))]

#: Two ``break``s per iteration, with more than a ``return`` after the
#: loop: every break adds one level of nesting, so N = 64 (the unroll
#: limit) would need 128 and CPython allows 100.
TWO_BREAKS = """
m = syr_map("m", 256)

def schedule(pkt):
    hits = 0
    for i in range(N):
        if map_lookup(m, i) == 1:
            break
        if map_lookup(m, i + 64) == 2:
            break
        hits += 1
    if hits > 3:
        return hits
    return PASS
"""


@pytest.mark.parametrize("trips", [40, 64])
def test_two_breaks_per_iteration_deploy_and_jit(trips):
    source = assert_jit_agrees(TWO_BREAKS, {"N": trips}, PACKETS[:2],
                               fills=range(8))
    if trips == 64:  # past the limit: the program is laid out flat
        assert "if b == " in source and deepest_indent(source) == 3
    else:
        assert "if b == " not in source and deepest_indent(source) > 40


def test_a_break_before_a_return_stays_flat():
    """A jump to a returning block is a copy of it: 64 ``break``s into
    ``return hits`` nest nothing."""
    text = TWO_BREAKS.replace("    if hits > 3:\n        return hits\n", "")
    source = assert_jit_agrees(text.replace("return PASS", "return hits"),
                               {"N": 64}, PACKETS[:2], fills=range(8))
    assert "if b == " not in source and deepest_indent(source) == 3
    assert source.count("return l0") == 129


def test_continue_at_the_unroll_limit():
    source = assert_jit_agrees("""
m = syr_map("m", 128)

def schedule(pkt):
    total = 0
    for i in range(64):
        if map_lookup(m, i) == 0:
            continue
        total += map_lookup(m, i)
        if total > 40:
            continue
        total += 1
    return total
""", packets=PACKETS[:2], fills=range(8))
    # a continue's join is the end of its iteration: nesting does not grow
    assert "if b == " not in source and deepest_indent(source) <= 5


def test_elif_chains():
    assert_jit_agrees("""
m = syr_map("m", 16)

def schedule(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    t = load_u64(pkt, 8)
    if t == 1:
        r = 10
    elif t == 2:
        r = 20
    elif t == 3 and map_has(m, t):
        r = 30
    elif t > 100 or map_lookup(m, 5) == 9:
        return 40
    else:
        r = 50
    return r + t
""", packets=PACKETS)


def test_boolean_and_conditional_values_live_across_joins():
    """``a and b``, ``a or b`` and ``x if c else y`` leave their value on
    the stack at a join: each branch stores it in the same slot."""
    source = assert_jit_agrees("""
m = syr_map("m", 16)
g = 3

def schedule(pkt):
    global g
    n = pkt_len(pkt)
    a = map_lookup(m, 1)
    v = (a and n) + (a or 7) * 3 + (n if a > 5 else a + 1)
    w = ((n > 30) and (a < 50)) + (not a) + (a and (n or g))
    g = (g + 1 if w else g * 2) % 1000
    return v * 2 + w + (map_has(m, 2) and map_lookup(m, 2) or 11)
""", packets=PACKETS)
    assert "s0 = " in source and "if b == " not in source


def test_a_break_under_two_ifs_is_laid_out_flat():
    """Nesting would need the rest of the loop under both ifs: the
    program is laid out flat, in both modes, with the same semantics."""
    text = """
m = syr_map("m", 64)

def schedule(pkt):
    total = 0
    for i in range(4):
        if map_lookup(m, i) > 1:
            if map_lookup(m, i + 8) == 0:
                break
        total += map_lookup(m, i + 16)
    if total > 5:
        return total
    return PASS
"""
    source = assert_jit_agrees(text, packets=PACKETS[:2], fills=range(12))
    image = image_of(text)
    assert "if b == " in source and "if b == " in image.interp.ir_source
    assert_matches_reference(image.program, PACKETS[:2] + [None],
                             [ArrayMap("m", 64)])
