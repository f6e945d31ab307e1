"""Verifier tests: the safety properties Syrup relies on (paper §4.3)."""

import pytest

from repro.ebpf.compiler import compile_policy
from repro.ebpf.errors import VerifierError
from repro.ebpf.insn import Insn, Program
from repro.ebpf.verifier import verify


def make_program(insns, n_locals=0, n_globals=0, n_maps=0):
    return Program(
        name="handmade",
        insns=insns,
        n_locals=n_locals,
        global_names=[f"g{i}" for i in range(n_globals)],
        globals_init=[0] * n_globals,
        map_names=[f"m{i}" for i in range(n_maps)],
        map_sizes=[16] * n_maps,
        map_vars=[f"m{i}" for i in range(n_maps)],
        source="",
        loc=0,
    )


# ----------------------------------------------------------------------
# Compiled-program acceptance
# ----------------------------------------------------------------------
def test_guarded_load_verifies():
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 16:
        return PASS
    return load_u64(pkt, 8)
"""
    stats = verify(compile_policy(src))
    assert stats.n_insns > 0


def test_guard_with_ge_comparison():
    src = """
def schedule(pkt):
    if pkt_len(pkt) >= 16:
        return load_u64(pkt, 8)
    return PASS
"""
    verify(compile_policy(src))


def test_guard_with_gt_comparison():
    src = """
def schedule(pkt):
    if pkt_len(pkt) > 15:
        return load_u64(pkt, 8)
    return PASS
"""
    verify(compile_policy(src))


def test_guard_with_reversed_operands():
    src = """
def schedule(pkt):
    if 16 <= pkt_len(pkt):
        return load_u64(pkt, 8)
    return PASS
"""
    verify(compile_policy(src))


def test_guard_survives_intervening_code():
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 24:
        return PASS
    x = 1
    y = x + 2
    return load_u64(pkt, 16) + y
"""
    verify(compile_policy(src))


def test_nested_guards_accumulate():
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 8:
        return PASS
    a = load_u32(pkt, 4)
    if pkt_len(pkt) < 32:
        return a
    return load_u64(pkt, 24)
"""
    verify(compile_policy(src))


# ----------------------------------------------------------------------
# Rejections
# ----------------------------------------------------------------------
def test_unguarded_load_rejected():
    src = "def schedule(pkt):\n    return load_u32(pkt, 0)\n"
    with pytest.raises(VerifierError) as err:
        verify(compile_policy(src))
    assert "out-of-bounds" in str(err.value)


def test_insufficient_guard_rejected():
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 8:
        return PASS
    return load_u64(pkt, 8)
"""
    with pytest.raises(VerifierError):
        verify(compile_policy(src))


def test_guard_on_wrong_branch_rejected():
    src = """
def schedule(pkt):
    if pkt_len(pkt) >= 16:
        return PASS
    return load_u64(pkt, 8)
"""
    with pytest.raises(VerifierError):
        verify(compile_policy(src))


def test_guard_lost_at_join_rejected():
    # One path proves 16 bytes, the other proves nothing; after the join
    # the load must be rejected (minimum over paths).
    src = """
def schedule(pkt):
    x = 0
    if pkt_len(pkt) >= 16:
        x = 1
    return load_u64(pkt, 8)
"""
    with pytest.raises(VerifierError):
        verify(compile_policy(src))


def test_width_matters():
    ok = """
def schedule(pkt):
    if pkt_len(pkt) < 9:
        return PASS
    return load_u8(pkt, 8)
"""
    verify(compile_policy(ok))
    bad = ok.replace("load_u8", "load_u16")
    with pytest.raises(VerifierError):
        verify(compile_policy(bad))


def test_backward_jump_rejected():
    prog = make_program([
        Insn("CONST", 0),
        Insn("JZ", 0),       # backward
        Insn("CONST", 1),
        Insn("RET"),
    ])
    with pytest.raises(VerifierError) as err:
        verify(prog)
    assert "backward" in str(err.value)


def test_jump_out_of_range_rejected():
    prog = make_program([Insn("JMP", 99), Insn("CONST", 0), Insn("RET")])
    with pytest.raises(VerifierError):
        verify(prog)


def test_stack_underflow_rejected():
    prog = make_program([Insn("RET")])
    with pytest.raises(VerifierError) as err:
        verify(prog)
    assert "underflow" in str(err.value)


def test_fall_off_end_rejected():
    prog = make_program([Insn("CONST", 1), Insn("POP")])
    with pytest.raises(VerifierError) as err:
        verify(prog)
    assert "fall off" in str(err.value)


def test_inconsistent_join_depth_rejected():
    prog = make_program([
        Insn("CONST", 1),
        Insn("JZ", 4),        # taken: stack []
        Insn("CONST", 5),     # fallthrough: stack [5]
        Insn("CONST", 0),     # [5, 0]
        Insn("CONST", 9),     # join at 4 with different depths
        Insn("RET"),
    ])
    with pytest.raises(VerifierError) as err:
        verify(prog)
    assert "stack depth" in str(err.value)


def test_invalid_map_slot_rejected():
    prog = make_program([
        Insn("CONST", 0),
        Insn("MAPLOOKUP", 3),
        Insn("RET"),
    ], n_maps=1)
    with pytest.raises(VerifierError):
        verify(prog)


def test_invalid_global_slot_rejected():
    prog = make_program([Insn("LOADG", 2), Insn("RET")], n_globals=1)
    with pytest.raises(VerifierError):
        verify(prog)


def test_insn_limit_rejected():
    insns = [Insn("CONST", 0), Insn("POP")] * 3000 + [Insn("CONST", 0), Insn("RET")]
    prog = make_program(insns)
    with pytest.raises(VerifierError) as err:
        verify(prog, insn_limit=4096)
    assert "limit" in str(err.value)


def test_empty_program_rejected():
    with pytest.raises(VerifierError):
        verify(make_program([]))


def test_unreachable_code_is_skipped_not_fatal():
    prog = make_program([
        Insn("CONST", 1),
        Insn("RET"),
        Insn("CONST", 2),   # unreachable
        Insn("RET"),
    ])
    stats = verify(prog)
    assert stats.analyzed == 2


def test_builtin_policies_all_verify():
    from repro.policies.builtin import (
        HASH_BY_FLOW, MICA_HASH, ROUND_ROBIN, SCAN_AVOID, SITA, TOKEN_BASED,
    )

    consts = {"NUM_THREADS": 6, "NUM_EXECUTORS": 8, "SCAN_TYPE": 2}
    for source in (HASH_BY_FLOW, MICA_HASH, ROUND_ROBIN, SCAN_AVOID, SITA,
                   TOKEN_BASED):
        verify(compile_policy(source, constants=consts))
