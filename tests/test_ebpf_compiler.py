"""Compiler tests: subset acceptance, rejection, and IR correctness."""

import pytest

from repro.constants import DROP, PASS
from repro.ebpf.compiler import compile_policy, count_loc, fold_const
from repro.ebpf.errors import CompileError
from repro.ebpf.program import load_program


def run_src(source, packet=None, constants=None, maps=None, runs=1):
    loaded = load_program(
        compile_policy(source, constants=constants), maps=maps
    )
    value = None
    for _ in range(runs):
        value = loaded.run_interp(packet).value
    return value, loaded


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------
def test_constant_return():
    value, _ = run_src("def schedule(pkt):\n    return 3\n")
    assert value == 3


def test_implicit_pass_on_fallthrough():
    value, _ = run_src("def schedule(pkt):\n    x = 1\n")
    assert value == PASS


def test_bare_return_is_pass():
    value, _ = run_src("def schedule(pkt):\n    return\n")
    assert value == PASS


def test_arithmetic():
    src = """
def schedule(pkt):
    a = 7
    b = 3
    return (a * b + 1) // 2 - a % b
"""
    value, _ = run_src(src)
    assert value == (7 * 3 + 1) // 2 - 7 % 3


def test_division_by_zero_is_zero():
    value, _ = run_src("def schedule(pkt):\n    z = 0\n    return 5 // z\n")
    assert value == 0


def test_mod_by_zero_is_zero():
    value, _ = run_src("def schedule(pkt):\n    z = 0\n    return 5 % z\n")
    assert value == 0


def test_unsigned_wraparound():
    value, _ = run_src("def schedule(pkt):\n    return 0 - 1\n")
    assert value == (1 << 64) - 1


def test_globals_persist_across_invocations():
    src = """
idx = 0

def schedule(pkt):
    global idx
    idx += 1
    return idx
"""
    value, loaded = run_src(src, runs=3)
    assert value == 3
    assert loaded.globals == [3]


def test_constants_are_compile_time():
    src = "def schedule(pkt):\n    return N * 2\n"
    value, _ = run_src(src, constants={"N": 21})
    assert value == 42


def test_if_elif_else():
    src = """
def schedule(pkt):
    x = SEL
    if x == 1:
        return 10
    elif x == 2:
        return 20
    else:
        return 30
"""
    assert run_src(src, constants={"SEL": 1})[0] == 10
    assert run_src(src, constants={"SEL": 2})[0] == 20
    assert run_src(src, constants={"SEL": 3})[0] == 30


def test_bool_ops_short_circuit_values():
    src = """
def schedule(pkt):
    a = A
    b = B
    return (a and b) + (a or b) * 100
"""
    for a in (0, 2):
        for b in (0, 3):
            value, _ = run_src(src, constants={"A": a, "B": b})
            assert value == ((a and b) + (a or b) * 100)


def test_ternary():
    src = "def schedule(pkt):\n    x = X\n    return 1 if x > 5 else 2\n"
    assert run_src(src, constants={"X": 9})[0] == 1
    assert run_src(src, constants={"X": 3})[0] == 2


def test_loop_unrolling_and_break():
    src = """
def schedule(pkt):
    total = 0
    for i in range(10):
        if i == 4:
            break
        total += i
    return total
"""
    assert run_src(src)[0] == 0 + 1 + 2 + 3


def test_loop_continue():
    src = """
def schedule(pkt):
    total = 0
    for i in range(6):
        if i % 2 == 0:
            continue
        total += i
    return total
"""
    assert run_src(src)[0] == 1 + 3 + 5


def test_range_with_start_stop_step():
    src = """
def schedule(pkt):
    total = 0
    for i in range(2, 12, 3):
        total += i
    return total
"""
    assert run_src(src)[0] == 2 + 5 + 8 + 11


def test_nested_loops():
    src = """
def schedule(pkt):
    total = 0
    for i in range(3):
        for j in range(3):
            total += i * j
    return total
"""
    assert run_src(src)[0] == sum(i * j for i in range(3) for j in range(3))


def test_map_declaration_and_ops():
    src = """
m = syr_map("m", 32)

def schedule(pkt):
    map_update(m, 1, 41)
    atomic_add(m, 1, 1)
    if map_has(m, 1):
        return map_lookup(m, 1)
    return 0
"""
    value, loaded = run_src(src)
    assert value == 42
    assert loaded.maps[0].lookup(1) == 42


def test_map_delete():
    src = """
m = syr_map("m", 32)

def schedule(pkt):
    map_update(m, 7, 1)
    existed = map_delete(m, 7)
    return existed * 10 + map_has(m, 7)
"""
    assert run_src(src)[0] == 10


def test_map_lookup_missing_is_zero():
    src = """
m = syr_map("m", 32)

def schedule(pkt):
    return map_lookup(m, 99)
"""
    assert run_src(src)[0] == 0


def test_pass_drop_builtins():
    assert run_src("def schedule(pkt):\n    return PASS\n")[0] == PASS
    assert run_src("def schedule(pkt):\n    return DROP\n")[0] == DROP


def test_imports_are_ignored():
    src = """
from repro.constants import PASS

def schedule(pkt):
    return PASS
"""
    assert run_src(src)[0] == PASS


def test_loc_counts_nonblank_noncomment():
    source = "# comment\n\nx = 1\n  # another\ny = 2\n"
    assert count_loc(source) == 2


# ----------------------------------------------------------------------
# Rejection: outside the safe subset
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "source, fragment",
    [
        ("def schedule(pkt):\n    while True:\n        pass\n", "while"),
        ("def schedule(pkt):\n    return 1.5\n", "literal"),
        ("def schedule(pkt):\n    return 'str'\n", "literal"),
        ("def schedule(pkt):\n    return pkt.field\n", "expression"),
        ("def schedule(pkt):\n    return open('x')\n", "unknown function"),
        ("def schedule(pkt):\n    return [1, 2]\n", "expression"),
        ("def schedule(pkt):\n    x, y = 1, 2\n", "assignment"),
        ("def schedule(pkt):\n    return 1 / 2\n", "operator"),
        ("def schedule(pkt):\n    return 1 < 2 < 3\n", "chained"),
        ("def schedule(pkt):\n    return undefined_name\n", "unknown name"),
        ("def schedule(pkt, extra):\n    return 0\n", "exactly one"),
        ("def other():\n    return 0\n", "schedule"),
        ("x = 'text'\ndef schedule(pkt):\n    return 0\n", "constant"),
        ("import os\nos.getcwd()\ndef schedule(pkt):\n    return 0\n",
         "only import"),
        ("def schedule(pkt):\n    for i in [1, 2]:\n        pass\n", "range"),
        ("def schedule(pkt):\n    global nope\n    return 0\n",
         "module-level definition"),
        ("def schedule(pkt):\n    return x\n    x = 1\n", "before assignment"),
        ("def schedule(pkt):\n    pkt = 1\n    return 0\n", "packet"),
        ("def schedule(pkt):\n    return pkt\n", "packet"),
    ],
)
def test_rejections(source, fragment):
    with pytest.raises(CompileError) as err:
        compile_policy(source)
    assert fragment.lower() in str(err.value).lower()


def test_unroll_limit_enforced():
    src = "def schedule(pkt):\n    for i in range(1000):\n        pass\n    return 0\n"
    with pytest.raises(CompileError) as err:
        compile_policy(src, unroll_limit=64)
    assert "unroll" in str(err.value)


def test_variable_range_bound_rejected():
    src = """
def schedule(pkt):
    n = 5
    for i in range(n):
        pass
    return 0
"""
    with pytest.raises(CompileError):
        compile_policy(src)


def test_variable_packet_offset_rejected():
    src = """
def schedule(pkt):
    off = 8
    return load_u8(pkt, off)
"""
    with pytest.raises(CompileError) as err:
        compile_policy(src)
    assert "constant" in str(err.value)


def test_syr_map_inside_function_rejected():
    src = """
def schedule(pkt):
    m = syr_map("m", 8)
    return 0
"""
    with pytest.raises(CompileError):
        compile_policy(src)


def test_duplicate_schedule_rejected():
    src = "def schedule(pkt):\n    return 0\n\ndef schedule(pkt):\n    return 1\n"
    with pytest.raises(CompileError):
        compile_policy(src)


# ----------------------------------------------------------------------
# fold_const
# ----------------------------------------------------------------------
def test_fold_const_arithmetic():
    import ast

    node = ast.parse("3 * (N + 1)", mode="eval").body
    assert fold_const(node, {"N": 4}) == 15


def test_fold_const_unknown_name_is_none():
    import ast

    node = ast.parse("x + 1", mode="eval").body
    assert fold_const(node, {}) is None


# ----------------------------------------------------------------------
# A Program is frozen: verified images are shared between loads
# ----------------------------------------------------------------------
def test_a_compiled_program_cannot_be_edited_or_repointed():
    program = compile_policy("def schedule(pkt):\n    return 3\n")
    insn = program.insns[0]
    with pytest.raises(AttributeError):
        program.insns.append(insn)
    with pytest.raises(TypeError):
        del program.insns[0]
    with pytest.raises(AttributeError):
        program.insns = [insn]
    with pytest.raises(AttributeError):
        program.name = "other"
    assert load_program(program).run_interp(None).value == 3
