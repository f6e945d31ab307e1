"""Assembler tests: parsing, round-trip with the disassembler, execution."""

import pytest

from conftest import random_policy_source
from hypothesis import given, settings, strategies as st
from ir_reference import assert_matches_reference, datagram

from repro.ebpf.asm import AsmError, assemble
from repro.ebpf.compiler import compile_policy
from repro.ebpf.disasm import disassemble
from repro.ebpf.maps import HashMap
from repro.ebpf.program import load_program
from repro.ebpf.verifier import verify

MINIMAL = "CONST 7\nRET\n"

DEMO = """
; program demo: hand-written
; a plain comment
     0: CONST 5      ; push five
     1: CONST 2
     2: ADD
L    3: RET
"""

METADATA = """
; globals: idx, total
; map[0] scan_map max_entries=64
LOADG 0
CONST 1
ADD
STOREG 0
LOADG 0
MAPLOOKUP 0
RET
"""

#: Every IR-authored program in this file, for the interpreter oracle.
ASM_PROGRAMS = (MINIMAL, DEMO, METADATA, "CONST 1\nRET\n")


def test_assemble_minimal():
    program = assemble(MINIMAL)
    verify(program)
    assert load_program(program).run(None) == 7


def test_assemble_with_pc_prefixes_and_comments():
    program = assemble(DEMO)
    assert program.name == "demo"
    assert load_program(program).run(None) == 7


def test_assemble_metadata_directives():
    program = assemble(METADATA)
    assert program.global_names == ["idx", "total"]
    assert program.map_names == ["scan_map"]
    assert program.map_sizes == [64]
    loaded = load_program(program)
    loaded.maps[0].update(1, 42)
    assert loaded.run(None) == 42
    assert loaded.globals[0] == 1


@pytest.mark.parametrize("text", ASM_PROGRAMS)
def test_assembled_programs_jit_and_agree_with_the_interpreter(text):
    """The JIT compiles verified IR, so a program authored as IR has one:
    run() switches to it after the profiled runs, and it agrees with the
    interpreter on value, globals and maps."""
    interp, jitted = (load_program(assemble(text)) for _ in range(2))
    for loaded in (interp, jitted):
        for bpf_map in loaded.maps:
            bpf_map.update(1, 42)
    for _ in range(3):
        assert jitted.run_jit(None) == interp.run_interp(None).value
    assert jitted.globals == interp.globals
    assert [m.items() for m in jitted.maps] == [m.items() for m in interp.maps]
    assert jitted.image.jit.jit_source.startswith("def _bind(maps):")
    mixed = load_program(assemble(text))
    for _ in range(mixed.profile_runs + 5):
        mixed.run(None)
    assert mixed._profiled_count == mixed.profile_runs  # then the JIT ran


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no instructions"),
        ("FROB 1\nRET", "unknown opcode"),
        ("CONST\nRET", "immediate"),
        ("CONST 1 2\nRET", "immediate"),
        ("!!!\n", "cannot parse"),
        ("; map[1] m max_entries=4\nCONST 0\nRET", "contiguous"),
    ],
)
def test_assemble_rejections(text, fragment):
    with pytest.raises(AsmError) as err:
        assemble(text)
    assert fragment in str(err.value)


def test_round_trip_fixed_policy():
    src = """
m = syr_map("m", 16)
idx = 0

def schedule(pkt):
    global idx
    if pkt_len(pkt) < 8:
        return PASS
    idx += 1
    map_update(m, idx % 4, idx)
    return idx % 3
"""
    program = compile_policy(src)
    rebuilt = assemble(disassemble(program))
    assert rebuilt.insns == program.insns
    assert rebuilt.global_names == program.global_names
    assert rebuilt.map_names == program.map_names
    assert rebuilt.map_sizes == program.map_sizes


@settings(max_examples=60, deadline=None)
@given(prog_seed=st.integers(0, 10**9))
def test_round_trip_random_programs(prog_seed):
    program = compile_policy(random_policy_source(prog_seed))
    rebuilt = assemble(disassemble(program))
    assert rebuilt.insns == program.insns
    assert rebuilt.n_locals >= program.n_locals or program.n_locals == 0


@pytest.mark.parametrize("text", ASM_PROGRAMS)
def test_assembled_programs_match_the_reference_stepper(text):
    program = assemble(text)
    verify(program)
    maps = [HashMap(name, size)
            for name, size in zip(program.map_names, program.map_sizes)]
    for bpf_map in maps:
        bpf_map.update(1, 42)
    assert_matches_reference(program, [None, datagram(0), datagram(40)] * 2,
                             maps)
