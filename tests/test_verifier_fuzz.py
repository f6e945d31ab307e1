"""Adversarial verifier fuzzing.

The compiler only emits well-formed IR; an attacker loading hand-crafted
bytecode is the case the verifier exists for.  Property: for *arbitrary*
instruction sequences, either the verifier rejects, or execution on
arbitrary packets completes without any fault — no stack underflow, no
out-of-bounds packet read, no unbounded run.

Uniformly random instructions almost never verify (about 0.5% at lengths
1-40), so the properties also draw from :func:`acceptable_insns`, a
generator biased toward programs the verifier accepts; its accepted
programs are the fuzz corpus of the compiled-interpreter oracle too.
"""

import random

from hypothesis import given, settings, strategies as st

from ir_reference import assert_matches_reference, datagram

from repro.ebpf.errors import VerifierError, VmFault
from repro.ebpf.insn import Insn, OPCODES, Program
from repro.ebpf.maps import HashMap
from repro.ebpf.verifier import verify
from repro.ebpf.vm import execute
from repro.net.packet import FiveTuple, Packet

FLOW = FiveTuple(0x0A000002, 40002, 0x0A000001, 8080, 17)

_OPS = sorted(OPCODES)
N_LOCALS = 4
N_GLOBALS = 2
N_MAPS = 1


def random_insns(rng, length):
    insns = []
    for _ in range(length):
        op = rng.choice(_OPS)
        arity = OPCODES[op][0]
        a = b = None
        if op in ("JMP", "JZ", "JNZ"):
            a = rng.randrange(0, length + 2)  # may be backward / OOB
        elif op in ("LOADL", "STOREL"):
            a = rng.randrange(0, N_LOCALS + 2)
        elif op in ("LOADG", "STOREG"):
            a = rng.randrange(0, N_GLOBALS + 2)
        elif op.startswith("MAP") or op == "ATOMICADD":
            a = rng.randrange(0, N_MAPS + 2)
        elif op == "LDPKT":
            a = rng.randrange(0, 64)
            b = rng.choice([1, 2, 4, 8])
        elif op == "CONST":
            a = rng.randrange(0, 2**32)
        elif arity >= 1:
            a = rng.randrange(0, 16)
        if arity >= 2 and b is None:
            b = rng.randrange(0, 16)
        insns.append(Insn(op, a, b))
    return insns


#: Straight-line opcodes :func:`acceptable_insns` draws from.
_STRAIGHT = [op for op in _OPS
             if op not in ("JMP", "JZ", "JNZ", "RET", "LDPKT")]
#: Stack height above which the generator stops pushing.
_MAX_HEIGHT = 8


def _straight(rng, height):
    """One straight-line instruction valid at ``height``, in-range slots."""
    op = rng.choice([op for op in _STRAIGHT if OPCODES[op][1] <= height
                     and (height < _MAX_HEIGHT or OPCODES[op][2] <= 1)])
    a = None
    if op == "CONST":
        a = rng.choice((0, 1, 2, 63, 64, rng.randrange(2**64)))
    elif op in ("LOADL", "STOREL"):
        a = rng.randrange(N_LOCALS)
    elif op in ("LOADG", "STOREG"):
        a = rng.randrange(N_GLOBALS)
    elif op.startswith("MAP") or op == "ATOMICADD":
        a = rng.randrange(N_MAPS)
    return Insn(op, a)


def _balance(height, target):
    """Instructions taking the stack from ``height`` to ``target``."""
    if height > target:
        return [Insn("POP")] * (height - target)
    return [Insn("CONST", 0)] * (target - height)


def _region(rng, insns, height, stop, depth):
    """Append IR until ``len(insns) >= stop``; returns the exit height.
    Branches skip forward over height-balanced (or returning) bodies, so
    every join sees one depth."""
    while len(insns) < stop:
        roll = rng.random()
        if roll < 0.12 and height >= 1 and depth < 3:
            at = len(insns)
            insns.append(None)
            height -= 1
            body = _region(rng, insns, height,
                           len(insns) + rng.randrange(1, 10), depth + 1)
            if rng.random() < 0.25:  # the body returns early
                insns.extend(_balance(body, max(body, 1)) + [Insn("RET")])
            else:
                insns.extend(_balance(body, height))
            insns[at] = Insn(rng.choice(("JZ", "JNZ")), len(insns))
        elif roll < 0.18:
            # a packet load under its guard: pkt_len >= need, need >= end
            width = rng.choice((1, 2, 4, 8))
            offset = rng.randrange(0, 40)
            need = offset + width + rng.randrange(0, 3)
            ge = rng.random() < 0.5
            insns += [Insn("PKTLEN"), Insn("CONST", need),
                      Insn("CMPGE" if ge else "CMPLT")]
            at = len(insns)
            insns += [None, Insn("LDPKT", offset, width),
                      Insn("STOREL", rng.randrange(N_LOCALS))]
            insns[at] = Insn("JZ" if ge else "JNZ", len(insns))
        elif roll < 0.21:
            # dead code: never analysed, never compiled, so anything goes
            at = len(insns)
            insns.append(None)
            insns += random_insns(rng, rng.randrange(1, 4))
            insns[at] = Insn("JMP", len(insns))
        else:
            insn = _straight(rng, height)
            insns.append(insn)
            _arity, pops, pushes = OPCODES[insn.op]
            height += pushes - pops
    return height


def acceptable_insns(rng, length):
    """Random IR biased toward what the verifier accepts: forward jumps
    only, a ``PKTLEN`` guard before each ``LDPKT``, balanced stack effects
    at every join, in-range map, local and global slots.  One program in
    three gets one instruction overwritten at random, so rejections stay
    in the mix."""
    insns = []
    height = _region(rng, insns, 0, length, 0)
    insns += _balance(height, max(height, 1)) + [Insn("RET")]
    if rng.random() < 1 / 3:
        insns[rng.randrange(len(insns))] = random_insns(rng, 1)[0]
    return insns


def make_program(insns):
    return Program(
        name="fuzz",
        insns=insns,
        n_locals=N_LOCALS,
        global_names=[f"g{i}" for i in range(N_GLOBALS)],
        globals_init=[0] * N_GLOBALS,
        map_names=["m"],
        map_sizes=[16],
        map_vars=["m"],
        source="",
        loc=0,
    )


def generator(biased):
    return acceptable_insns if biased else random_insns


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 10**9), length=st.integers(1, 40),
       pkt_len=st.integers(0, 80), biased=st.booleans())
def test_accepted_programs_never_fault(seed, length, pkt_len, biased):
    rng = random.Random(seed)
    program = make_program(generator(biased)(rng, length))
    try:
        stats = verify(program)
    except VerifierError:
        return  # rejected: exactly what the verifier is for
    packet = Packet(FLOW, bytes(pkt_len))
    # Accepted: execution must terminate cleanly within the proven bound.
    result = execute(program, packet, [HashMap("m", 16)],
                     [0] * N_GLOBALS, random.Random(1))
    assert result.insns_executed <= stats.n_insns


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), length=st.integers(1, 40),
       biased=st.booleans())
def test_accepted_programs_safe_without_packet_guards_lying(seed, length,
                                                            biased):
    """Same property against the shortest possible packet (length 0):
    any accepted LDPKT must be guarded, so a 0-length packet can never be
    read — only PKTLEN-guarded paths run."""
    rng = random.Random(seed + 7)
    program = make_program(generator(biased)(rng, length))
    try:
        verify(program)
    except VerifierError:
        return
    empty = datagram(0)
    result = execute(program, empty, [HashMap("m", 16)],
                     [0] * N_GLOBALS, random.Random(2))
    assert result.value >= 0


def accepted(generate, seeds, lengths=range(1, 41)):
    """(seed, Program) for every generated program the verifier accepts."""
    for seed in seeds:
        program = make_program(
            generate(random.Random(seed), lengths[seed % len(lengths)]))
        try:
            verify(program)
        except VerifierError:
            continue
        yield seed, program


def test_biased_generator_reaches_accepted_programs():
    """Acceptance floor: a fuzz corpus the verifier rejects wholesale
    checks nothing after the verifier."""
    seeds = range(2000)
    share = sum(1 for _ in accepted(acceptable_insns, seeds)) / len(seeds)
    assert share >= 0.25, share


def test_compiled_interpreter_matches_reference_on_fuzz_corpus():
    """The compiled IR equals the per-instruction stepper on every
    accepted fuzz program, packets of length 0-80 and none at all."""
    packets = [datagram(length, seed=length) for length in (0, 8, 24, 80)]
    packets += [None, Packet(FLOW, bytes(range(40)))]
    checked = 0
    for seed, program in accepted(acceptable_insns, range(500)):
        maps = [HashMap("m", 16)]
        for key in range(seed % 5):
            maps[0].update(key, key * 7)
        assert_matches_reference(program, packets, maps, seed=seed)
        checked += 1
    assert checked >= 125, checked


def test_handcrafted_attacks_rejected():
    attacks = {
        "infinite loop": [Insn("JMP", 0)],
        "stack leak at join": [
            Insn("CONST", 1),
            Insn("JZ", 3),
            Insn("CONST", 2),
            Insn("CONST", 0),
            Insn("RET"),
        ],
        "read past guard": [
            Insn("PKTLEN"),
            Insn("CONST", 4),
            Insn("CMPGE"),
            Insn("JZ", 6),
            Insn("LDPKT", 0, 8),   # proved only 4 bytes
            Insn("RET"),
            Insn("CONST", 0),
            Insn("RET"),
        ],
        "underflow": [Insn("ADD"), Insn("RET")],
        "escape via map slot": [
            Insn("CONST", 0),
            Insn("MAPLOOKUP", 5),
            Insn("RET"),
        ],
    }
    import pytest

    for name, insns in attacks.items():
        with pytest.raises(VerifierError):
            verify(make_program(insns))
