"""Per-instruction reference stepper for the policy IR: the oracle for
:func:`repro.ebpf.vm.compile_ir`.

``reference_execute`` is the dispatch loop the interpreter used to be —
one instruction per step, cycles and instructions counted one at a time —
kept here so the compiled interpreter in ``src/`` can be checked against
an independent statement of the same semantics.
``assert_matches_reference`` runs both on twin copies of all state and
compares everything observable.
"""

import copy
import random

from repro.ebpf import helpers
from repro.ebpf.errors import VmFault
from repro.ebpf.insn import U64
from repro.ebpf.vm import CYCLE_COSTS, ExecutionResult, compile_ir
from repro.net.packet import (
    FiveTuple,
    WireView,
    build_payload,
    wire_bytes,
)

_FLOW = FiveTuple(0x0A000002, 40003, 0x0A000001, 8080, 17)

_BINARY = {
    "ADD": lambda x, y: (x + y) & U64,
    "SUB": lambda x, y: (x - y) & U64,
    "MUL": lambda x, y: (x * y) & U64,
    "DIV": helpers.div_u64,
    "MOD": helpers.mod_u64,
    "AND": lambda x, y: x & y,
    "OR": lambda x, y: x | y,
    "XOR": lambda x, y: x ^ y,
    "SHL": lambda x, y: (x << (y & 63)) & U64,
    "SHR": lambda x, y: x >> (y & 63),
    "CMPEQ": lambda x, y: 1 if x == y else 0,
    "CMPNE": lambda x, y: 1 if x != y else 0,
    "CMPLT": lambda x, y: 1 if x < y else 0,
    "CMPLE": lambda x, y: 1 if x <= y else 0,
    "CMPGT": lambda x, y: 1 if x > y else 0,
    "CMPGE": lambda x, y: 1 if x >= y else 0,
}
_UNARY = {
    "NEG": lambda x: (-x) & U64,
    "INV": lambda x: (~x) & U64,
    "BOOL": lambda x: 1 if x else 0,
    "NOT": lambda x: 0 if x else 1,
}
_MAP_UNARY = {"MAPLOOKUP": helpers.map_lookup, "MAPHAS": helpers.map_has,
              "MAPDELETE": helpers.map_delete}
_MAP_BINARY = {"MAPUPDATE": helpers.map_update,
               "ATOMICADD": helpers.atomic_add}


class Datagram(WireView):
    """Exactly ``data`` on the wire — lengths a :class:`Packet` (UDP header
    included) cannot have, down to 0."""

    __slots__ = ("length",)

    def __init__(self, data):
        self._data = data
        self.length = len(data)


def datagram(length, rtype=1, seed=0):
    """A ``length``-byte datagram: UDP header, the standard application
    header with ``rtype``, then seeded random bytes; truncated to fit."""
    rng = random.Random(seed)
    extra = bytes(rng.getrandbits(8) for _ in range(max(0, length - 40)))
    payload = build_payload(rtype, rng.randrange(64), rng.getrandbits(64),
                            seed, extra)
    return Datagram(wire_bytes(_FLOW.src_port, _FLOW.dst_port,
                               payload)[:length])


def reference_execute(program, packet, maps, globals_state, rng):
    """Step ``program`` one instruction at a time; same contract as
    :func:`repro.ebpf.vm.execute`."""
    insns = program.insns
    n = len(insns)
    locals_ = [0] * program.n_locals
    stack = []
    pc = cycles = executed = 0
    while pc < n:
        insn = insns[pc]
        op, a = insn.op, insn.a
        cycles += CYCLE_COSTS[op]
        executed += 1
        if executed > n:
            raise VmFault("instruction budget exceeded (verifier bug?)")
        pc += 1
        if op in _BINARY:
            y = stack.pop()
            stack[-1] = _BINARY[op](stack[-1], y)
        elif op in _MAP_UNARY:
            stack[-1] = _MAP_UNARY[op](maps[a], stack[-1])
        elif op in _MAP_BINARY:
            y = stack.pop()
            stack[-1] = _MAP_BINARY[op](maps[a], stack[-1], y)
        elif op in _UNARY:
            stack[-1] = _UNARY[op](stack[-1])
        elif op == "CONST":
            stack.append(a)
        elif op == "LOADL":
            stack.append(locals_[a])
        elif op == "STOREL":
            locals_[a] = stack.pop()
        elif op == "LOADG":
            stack.append(globals_state[a])
        elif op == "STOREG":
            globals_state[a] = stack.pop()
        elif op in ("PKTLEN", "LDPKT"):
            if packet is None:
                raise VmFault(f"{op} with no packet context")
            stack.append(packet.length if op == "PKTLEN"
                         else packet.load(a, insn.b))
        elif op == "DUP":
            stack.append(stack[-1])
        elif op == "POP":
            stack.pop()
        elif op == "RANDOM":
            stack.append(rng.getrandbits(32))
        elif op == "JMP":
            pc = a
        elif op == "JZ":
            if not stack.pop():
                pc = a
        elif op == "JNZ":
            if stack.pop():
                pc = a
        elif op == "RET":
            return ExecutionResult(stack.pop(), cycles, executed)
        else:  # pragma: no cover - opcode table is closed
            raise AssertionError(f"unknown opcode {op}")
    raise VmFault("control fell off the end (verifier bug?)")


def _outcome(run, program, packet, maps, globals_state, rng):
    """Everything observable about one run, as comparable values."""
    try:
        result = run(program, packet, maps, globals_state, rng)
        outcome = ("ok", result.value, result.cycles, result.insns_executed)
    except VmFault as fault:
        outcome = ("fault", type(fault), str(fault))
    return outcome, [bpf_map.items() for bpf_map in maps], \
        list(globals_state), rng.getrandbits(32)


def assert_matches_reference(program, packets, maps=(), seed=1):
    """Run ``program`` over ``packets`` in sequence, compiled and stepped,
    each on its own deep copy of ``maps`` / globals / RNG; assert equal
    value, cycles, instructions, fault type and message, map contents,
    globals and the RNG's next draw after every run.  Returns the
    compiled outcomes."""
    runner = compile_ir(program)

    def compiled(program, packet, maps, globals_state, rng):
        return runner(packet, maps, globals_state, rng)

    twins = []
    for _ in range(2):
        twins.append((copy.deepcopy(list(maps)),
                      list(program.globals_init), random.Random(seed)))
    outcomes = []
    for packet in packets:
        got = _outcome(compiled, program, packet, *twins[0])
        want = _outcome(reference_execute, program, packet, *twins[1])
        assert got == want, (program.name, packet, got, want)
        outcomes.append(got)
    return outcomes
