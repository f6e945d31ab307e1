"""Property-based tests (hypothesis) for the eBPF toolchain.

The central property: for any program in the safe subset and any input, the
interpreter and the JIT produce the same return value, the same global
state, and the same map contents.  Programs are generated as random ASTs in
the subset, so this also fuzzes the compiler and the verifier.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import random_packet, random_policy_source

from repro.constants import PASS
from repro.ebpf.compiler import compile_policy
from repro.ebpf.errors import CompileError, VerifierError
from repro.ebpf.program import (
    LoadedProgram,
    ProgramImage,
    image_of,
    load_program,
)
from repro.net.packet import FiveTuple, Packet

FLOW = FiveTuple(0x0A000002, 40001, 0x0A000001, 8080, 17)

# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(prog_seed=st.integers(0, 10**9), pkt_seed=st.integers(0, 10**9))
def test_interp_and_jit_agree_on_random_programs(prog_seed, pkt_seed):
    source = random_policy_source(prog_seed)
    program = compile_policy(source)
    packet = random_packet(pkt_seed)
    interp = load_program(program, rng=random.Random(1))
    jitted = load_program(program, rng=random.Random(1))
    for _ in range(3):
        a = interp.run_interp(packet).value
        b = jitted.run_jit(packet)
        assert a == b, f"\n{source}\ninterp={a} jit={b}"
    assert interp.globals == jitted.globals
    assert interp.maps[0].items() == jitted.maps[0].items()


@settings(max_examples=150, deadline=None)
@given(prog_seed=st.integers(0, 10**9))
def test_random_programs_verify_and_terminate(prog_seed):
    from repro.ebpf.verifier import verify

    source = random_policy_source(prog_seed)
    program = compile_policy(source)
    stats = verify(program)
    loaded = load_program(program)
    result = loaded.run_interp(random_packet(prog_seed))
    # forward-only jumps: execution is bounded by program length
    assert result.insns_executed <= stats.n_insns


def _image_or_rejection(build):
    try:
        return build()
    except (CompileError, VerifierError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    prog_seed=st.integers(0, 10**9),
    pkt_seeds=st.lists(st.integers(0, 10**9), min_size=1, max_size=6),
    k0=st.integers(0, 2**20),
    k1=st.integers(0, 2**20),
    flaw=st.sampled_from(["none", "none", "missing_constant",
                          "unchecked_load"]),
)
def test_memoised_load_equals_cold_load(prog_seed, pkt_seeds, k0, k1, flaw):
    """ROADMAP 5(a): an image served from the memo is indistinguishable
    from one built cold, and its bindings share no state."""
    source = random_policy_source(
        prog_seed, constants=("K0", "K1"),
        unchecked_load=(flaw == "unchecked_load"),
    )
    constants = {"K0": k0, "K1": k1}
    if flaw == "missing_constant":
        del constants["K1"]
    packets = [random_packet(seed) for seed in pkt_seeds]

    cold = _image_or_rejection(lambda: ProgramImage.build(
        compile_policy(source, constants=constants)))
    warm = _image_or_rejection(lambda: image_of(source, constants=constants))
    again = _image_or_rejection(lambda: image_of(source, constants=constants))
    if isinstance(cold, type):
        # rejected cold: rejected again on every memoised attempt
        assert warm is cold and again is cold, source
        return
    assert warm is again and warm is not cold
    assert vars(warm.verifier_stats) == vars(cold.verifier_stats)
    assert warm.static_cycles == cold.static_cycles
    assert warm.jit.jit_source == cold.jit.jit_source

    def drive(image):
        """Interpreter, JIT, and the profiling path, one binding each."""
        interp, jitted, mixed = (
            LoadedProgram(image, rng=random.Random(1),
                          profile_runs=len(packets))
            for _ in range(3)
        )
        values = [(interp.run_interp(p).value, jitted.run_jit(p), mixed.run(p))
                  for p in packets]
        after_window = mixed.cycle_estimate
        values.append(mixed.run(packets[0]))  # past the window: JIT
        assert mixed.cycle_estimate == after_window
        return values, after_window, [
            (b.globals, b.maps[0].items()) for b in (interp, jitted, mixed)
        ]

    expected = drive(cold)
    assert drive(warm) == expected, source
    # The first drive wrote globals and maps and exhausted a profiling
    # window through three bindings of ``warm``; a later binding of the
    # same image starts from scratch and reproduces the run exactly.
    fresh = LoadedProgram(warm)
    assert fresh.globals == warm.program.globals_init
    assert fresh.invocations == 0 and fresh.maps[0].items() == []
    assert fresh.cycle_estimate == float(warm.static_cycles)
    assert drive(warm) == expected, source


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        max_size=30,
    )
)
def test_expression_semantics_match_python_model(values):
    """Compiled arithmetic over pairs equals the masked Python model."""
    mask = (1 << 64) - 1
    src = """
def schedule(pkt):
    return ((A * 3 + B) ^ (A >> 2) | (B & 255)) % 1000003
"""
    for a, b in values:
        expected = ((((a * 3 + b) & mask) ^ (a >> 2)) | (b & 255)) % 1000003
        loaded = load_program(compile_policy(src, constants={"A": a, "B": b}))
        assert loaded.run_interp(None).value == expected
        assert loaded.run_jit(None) == expected


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=96))
def test_verified_policies_never_read_out_of_bounds(data):
    """A verified program cannot fault on any packet contents/length."""
    src = """
def schedule(pkt):
    if pkt_len(pkt) < 32:
        return PASS
    return load_u64(pkt, 24) % 7
"""
    loaded = load_program(compile_policy(src))
    packet = Packet(FLOW, data)
    value = loaded.run_interp(packet).value
    if packet.length < 32:
        assert value == PASS
    else:
        assert value == packet.load(24, 8) % 7
