"""Interpreter/JIT agreement and execution semantics."""

import random
import struct

import pytest

from repro.constants import PASS
from repro.ebpf.compiler import compile_policy
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.program import LoadedProgram, image_of, load_program
from repro.ebpf.vm import execute
from repro.net.packet import FiveTuple, Packet, build_payload
from repro.qdisc.discipline import compile_rank


FLOW = FiveTuple(0x0A000002, 40000, 0x0A000001, 8080, 17)


def make_packet(rtype=1, user=0, key_hash=0):
    return Packet(FLOW, build_payload(rtype, user, key_hash, 1))


def both(source, packet=None, constants=None, maps=None):
    """Run via interpreter and JIT on *independent* loads; assert equal."""
    program = compile_policy(source, constants=constants)

    def fresh_maps():
        if maps is None:
            return None
        return {k: _clone_map(v) for k, v in maps.items()}

    interp = load_program(program, maps=fresh_maps())
    jitted = load_program(program, maps=fresh_maps())
    a = interp.run_interp(packet).value
    b = jitted.run_jit(packet)
    assert a == b, f"interp={a} jit={b}"
    return a


def _clone_map(m):
    clone = type(m)(m.name, m.max_entries)
    for k, v in m.items():
        clone.update(k, v)
    return clone


# ----------------------------------------------------------------------
def test_packet_loads_agree():
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 32:
        return PASS
    return load_u64(pkt, 8) * 1000 + load_u64(pkt, 16)
"""
    assert both(src, make_packet(rtype=2, user=7)) == 2 * 1000 + 7


def test_short_packet_takes_guard():
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 64:
        return 111
    return load_u64(pkt, 8)
"""
    assert both(src, make_packet()) == 111


def test_load_widths():
    src_template = """
def schedule(pkt):
    if pkt_len(pkt) < 8:
        return PASS
    return load_u{width}(pkt, 0)
"""
    packet = make_packet()
    for width in (8, 16, 32, 64):
        value = both(src_template.format(width=width), packet)
        raw = int.from_bytes(packet.data[: width // 8], "little")
        assert value == raw


def test_globals_evolve_identically():
    src = """
counter = 5

def schedule(pkt):
    global counter
    counter = counter * 3 + 1
    return counter
"""
    program = compile_policy(src)
    interp = load_program(program)
    jitted = load_program(program)
    for _ in range(5):
        a = interp.run_interp(None).value
        b = jitted.run_jit(None)
        assert a == b
    assert interp.globals == jitted.globals


def test_map_side_effects_agree():
    src = """
m = syr_map("m", 64)

def schedule(pkt):
    for i in range(8):
        atomic_add(m, i % 3, i)
    return map_lookup(m, 0) * 10000 + map_lookup(m, 1) * 100 + map_lookup(m, 2)
"""
    assert both(src) == both(src)


def test_random_uses_given_rng():
    src = "def schedule(pkt):\n    return get_random() % 100\n"
    program = compile_policy(src)
    a = load_program(program, rng=random.Random(9))
    b = load_program(program, rng=random.Random(9))
    assert [a.run_interp(None).value for _ in range(5)] == [
        b.run_jit(None) for _ in range(5)
    ]


def test_profile_then_jit_transition():
    src = """
idx = 0

def schedule(pkt):
    global idx
    idx += 1
    return idx % 7
"""
    loaded = load_program(compile_policy(src), profile_runs=3)
    values = [loaded.run(None) for _ in range(10)]
    assert values == [(i + 1) % 7 for i in range(10)]
    assert loaded.cycle_estimate > 0
    assert loaded.invocations == 10


def test_cycle_accounting_monotone_in_work():
    short = compile_policy("def schedule(pkt):\n    return 1\n")
    long = compile_policy(
        "def schedule(pkt):\n    t = 0\n    for i in range(20):\n"
        "        t += i * i\n    return t\n",
        unroll_limit=64,
    )
    a = load_program(short).run_interp(None)
    b = load_program(long).run_interp(None)
    assert b.cycles > a.cycles
    assert b.insns_executed > a.insns_executed


def test_executed_insns_bounded_by_program_length():
    src = """
def schedule(pkt):
    t = 0
    for i in range(10):
        t += 1
    return t
"""
    program = compile_policy(src)
    result = load_program(program).run_interp(None)
    assert result.insns_executed <= program.n_insns


def test_array_map_binding():
    src = """
arr = syr_map("arr_array", 8)

def schedule(pkt):
    map_update(arr, 3, 99)
    return map_lookup(arr, 3)
"""
    loaded = load_program(compile_policy(src))
    assert isinstance(loaded.maps[0], ArrayMap)
    assert loaded.run_interp(None).value == 99


def test_out_of_range_array_update_is_helper_error_not_crash():
    src = """
arr = syr_map("arr_array", 4)

def schedule(pkt):
    return map_update(arr, 100, 1)
"""
    value = both(src)
    assert value == (1 << 64) - 1  # helper error code


def test_shared_map_between_programs():
    shared = HashMap("shared", 16)
    writer = load_program(
        compile_policy(
            's = syr_map("shared", 16)\n\ndef schedule(pkt):\n'
            "    map_update(s, 1, 77)\n    return 0\n"
        ),
        maps={"shared": shared},
    )
    reader = load_program(
        compile_policy(
            's = syr_map("shared", 16)\n\ndef schedule(pkt):\n'
            "    return map_lookup(s, 1)\n"
        ),
        maps={"shared": shared},
    )
    writer.run(None)
    assert reader.run(None) == 77


def test_vm_requires_packet_for_pkt_ops():
    from repro.ebpf.errors import VmFault

    src = "def schedule(pkt):\n    return pkt_len(pkt)\n"
    loaded = load_program(compile_policy(src))
    with pytest.raises(VmFault):
        loaded.run_interp(None)


def test_paper_sita_policy_end_to_end():
    from repro.policies.builtin import SITA

    loaded = load_program(
        compile_policy(SITA, constants={"NUM_THREADS": 6, "SCAN_TYPE": 2})
    )
    scan_target = loaded.run(make_packet(rtype=2))
    assert scan_target == 0
    get_targets = {loaded.run(make_packet(rtype=1)) for _ in range(50)}
    assert get_targets == {1, 2, 3, 4, 5}


def test_paper_round_robin_cycles_through_all():
    from repro.policies.builtin import ROUND_ROBIN

    loaded = load_program(
        compile_policy(ROUND_ROBIN, constants={"NUM_THREADS": 4})
    )
    assert [loaded.run(None) for _ in range(8)] == [1, 2, 3, 0, 1, 2, 3, 0]


def test_paper_token_policy_drops_on_empty_bucket():
    from repro.constants import DROP
    from repro.policies.builtin import TOKEN_BASED

    loaded = load_program(
        compile_policy(TOKEN_BASED, constants={"NUM_THREADS": 6})
    )
    token_map = loaded.map_by_name("token_map")
    token_map.update(1, 2)
    packet = make_packet(rtype=1, user=1)
    first = loaded.run(packet)
    second = loaded.run(packet)
    third = loaded.run(packet)
    assert first != DROP and second != DROP
    assert third == DROP
    assert token_map.lookup(1) == 0


# ----------------------------------------------------------------------
# image_of: what the memo keys on, and what never enters it
# ----------------------------------------------------------------------
def test_image_memo_keys_on_everything_compile_reads():
    src = "def schedule(pkt):\n    return N\n"
    image = image_of(src, constants={"N": 4})
    assert image_of(src, constants={"N": 4}) is image
    assert image_of(src, constants={"N": 5}) is not image
    # every supplied constant, used or not: sound and simple beats clever
    assert image_of(src, constants={"N": 4, "UNUSED": 1}) is not image
    # the entry point: rank files and policy files never alias
    rank = image_of("def rank(pkt):\n    return N\n", compile_rank,
                    {"N": 4})
    assert rank is not image and LoadedProgram(rank).run_jit(None) == 4

    def schedule(pkt):
        return 7

    # a function is resolved to its text first, and keyed on that
    assert image_of(schedule) is image_of(schedule)
    assert image_of(schedule).program.name == "schedule"


def test_image_memo_never_holds_a_callers_program_or_unhashable_key():
    src = "def schedule(pkt):\n    return N\n"
    program = compile_policy(src, constants={"N": 4})
    assert image_of(program) is not image_of(program)
    assert image_of(program).program is program
    # an unhashable value cannot key the memo; it reaches the compiler,
    # which here never reads it
    odd = {"N": 4, "TABLE": [1, 2]}
    assert image_of(src, constants=odd) is not image_of(src, constants=odd)
    assert LoadedProgram(image_of(src, constants=odd)).run_jit(None) == 4
    with pytest.raises(TypeError, match="int()"):
        image_of(src, constants={"N": [4]})
