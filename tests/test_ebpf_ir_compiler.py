"""The compiled interpreter (:func:`repro.ebpf.vm.compile_ir`) against its
oracle, the per-instruction reference stepper in ``ir_reference.py``.

Every policy text the package ships runs compiled and stepped on twin
state: value, cycles, instructions, faults, maps, globals and the RNG
must agree after every run.  IR that no bounded run could execute is a
``VmFault`` when it is compiled, before any state is touched.
"""

import random

import pytest

from ir_reference import assert_matches_reference, datagram

from repro.ebpf.compiler import compile_policy
from repro.ebpf.errors import VmFault
from repro.ebpf.insn import Insn, Program
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.program import image_of
from repro.ebpf.vm import compile_ir, execute
from repro.policies import adaptive, builtin
from repro.qdisc import policies as qdisc_policies
from repro.qdisc.discipline import compile_rank

CONSTANTS = {"NUM_THREADS": 6, "NUM_EXECUTORS": 4, "SCAN_TYPE": 2,
             "SHED_RTYPE": 2, "THRESHOLD_US": 50, "SHORT_US": 40}


def policy_texts():
    for module in (builtin, adaptive, qdisc_policies):
        for name in module.__all__:
            text = getattr(module, name)
            if isinstance(text, str) and "def schedule" in text:
                yield name, text, compile_policy
            elif isinstance(text, str) and "def rank" in text:
                yield name, text, compile_rank


POLICIES = {name: (text, compiler) for name, text, compiler in policy_texts()}


def populated_maps(program, seed):
    """A map per declared slot, pre-filled with seeded small keys."""
    rng = random.Random(seed)
    maps = []
    for name, size in zip(program.map_names, program.map_sizes):
        kind = ArrayMap if name.endswith("_array") else HashMap
        bpf_map = kind(name, size)
        for key in range(min(size, 8)):
            bpf_map.update(key, rng.choice((0, 0, 1, 2, 75, 2**40)))
        maps.append(bpf_map)
    return maps


def test_every_shipped_policy_is_covered():
    assert {"SCAN_AVOID", "ROUND_ROBIN", "SITA", "TOKEN_BASED",
            "ADAPTIVE_SELECT", "SRPT_AUTO_THRESHOLD",
            "SRPT_BY_SIZE"} <= set(POLICIES)
    assert len(POLICIES) >= 18


@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("populate", [False, True],
                         ids=["empty_maps", "populated_maps"])
def test_policy_matches_reference(name, populate):
    text, compiler = POLICIES[name]
    program = compiler(text, constants=CONSTANTS)
    packets = [datagram(length, rtype=rtype, seed=length + rtype)
               for length in (0, 8, 24, 80) for rtype in (1, 2)]
    packets.append(None)
    maps = populated_maps(program, seed=len(name)) if populate else [
        (ArrayMap if map_name.endswith("_array") else HashMap)(map_name, size)
        for map_name, size in zip(program.map_names, program.map_sizes)
    ]
    outcomes = assert_matches_reference(program, packets * 2, maps)
    assert any(outcome[0][0] == "ok" for outcome in outcomes), name


def test_image_runner_is_the_compiled_ir():
    image = image_of(builtin.SCAN_AVOID, constants=CONSTANTS)
    assert image.interp.ir_source == compile_ir(image.program).ir_source
    # execute() without a runner compiles, then runs: same result
    packet = datagram(40)
    direct = execute(image.program, packet, [HashMap("scan_map", 64)],
                     [], random.Random(4))
    held = execute(image.program, packet, [HashMap("scan_map", 64)],
                   [], random.Random(4), image.interp)
    assert vars_of(direct) == vars_of(held)


def vars_of(result):
    return result.value, result.cycles, result.insns_executed


def ir_program(insns, n_locals=1):
    return Program(name="hand", insns=insns, n_locals=n_locals,
                   global_names=["g"], globals_init=[0], map_names=[],
                   map_sizes=[], map_vars=[], source="",
                   loc=len(insns))


@pytest.mark.parametrize("insns, fragment", [
    ([Insn("CONST", 1), Insn("STOREG", 0), Insn("JMP", 0)],
     "backward jump to 0"),
    ([Insn("CONST", 1), Insn("ADD"), Insn("RET")], "stack underflow"),
    ([Insn("CONST", 1), Insn("JZ", 4), Insn("CONST", 5), Insn("CONST", 0),
      Insn("RET")], "inconsistent stack depth"),
    ([Insn("LOADL", 3), Insn("RET")], "invalid local slot 3"),
    ([Insn("CONST", "0; import os"), Insn("RET")], "non-integer immediate"),
])
def test_unrunnable_ir_faults_at_build_time(insns, fragment):
    program = ir_program(insns)
    with pytest.raises(VmFault, match=fragment):
        compile_ir(program)
    state = [0]
    with pytest.raises(VmFault, match=fragment):
        execute(program, None, [], state, random.Random(0))
    assert state == [0]  # nothing ran


def test_unreachable_ir_is_not_compiled():
    """Dead code may hold anything the verifier would reject if live."""
    program = ir_program([Insn("CONST", 7), Insn("RET"), Insn("JMP", 0),
                          Insn("ADD")])
    source = compile_ir(program).ir_source
    assert "b = 0" not in source and "s1" not in source  # no JMP, no ADD
    assert vars_of(execute(program, None, [], [0], random.Random(0))) == \
        (7, 2, 2)


def test_falling_off_the_end_faults_when_reached():
    program = ir_program([Insn("CONST", 0), Insn("JZ", 4), Insn("CONST", 1),
                          Insn("RET")])
    run = compile_ir(program)
    with pytest.raises(VmFault, match="fell off the end"):
        run(None, [], [0], random.Random(0))
    flipped = ir_program([Insn("CONST", 1), Insn("JZ", 4), Insn("CONST", 1),
                          Insn("RET")])
    assert vars_of(compile_ir(flipped)(None, [], [0], random.Random(0))) == \
        (1, 5, 4)
