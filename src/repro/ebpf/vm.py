"""IR execution with exact cycle accounting: verified IR compiled once.

Each verified :class:`~repro.ebpf.insn.Program` is compiled by
:func:`compile_ir` into one generated Python function per program image
(:class:`repro.ebpf.program.ProgramImage` holds it).  That function is the
interpreter: it has the IR's exact semantics and returns the exact
executed instruction and cycle counts, so it is the ground truth for
program semantics and the source of the cycle numbers in Table 2.  The
datapath normally runs the JIT (:mod:`repro.ebpf.jit`); the two are
checked for agreement by property tests, and the tests keep a
per-instruction reference stepper as the oracle for this compiler.

How the IR compiles.  The verifier proves forward-only jumps and one
stack depth at every join, so one linear pass finds the stack height at
each reachable pc and the stack becomes the locals ``s0 .. sK``.  Basic
blocks are emitted in pc order, each behind ``if b == leader:``; every
jump is forward, so one top-to-bottom pass executes any path.  A block
opens with ``c += <its cycles>; e += <its instructions>`` — integers, so
the totals equal per-instruction counting — and keeps one statement per
instruction, in order, so side effects before a fault are unchanged.  A
reachable backward jump, stack underflow or inconsistent join depth is a
:class:`VmFault` at build time, before anything runs.

Cycle costs are a calibrated model of JIT-compiled eBPF on the paper's
2.3 GHz Xeon: ~2 cycles per simple ALU op, more for packet loads, map
helpers, and atomics.  Decision *enforcement* cost (packet redirection etc.)
is charged separately by the hook (paper §5.5: "most of this time is spent
on enforcing ... rather than making ... each scheduling decision").

Observability: each interpreted run returns its exact executed
instruction and cycle counts in :class:`ExecutionResult`;
:class:`repro.ebpf.program.LoadedProgram` feeds them into the
per-``(app, hook)`` ``insns_interp`` / ``cycles_interp`` counters when
the machine runs with metrics enabled (JIT runs, which have no
per-instruction accounting by construction, are counted as ``jit_runs``).
The generated source is the runner's ``ir_source``.
"""

from repro.ebpf import helpers
from repro.ebpf.errors import VmFault
from repro.ebpf.insn import OPCODES, U64

__all__ = ["CYCLE_COSTS", "ExecutionResult", "compile_ir", "execute"]

#: Modeled cycles per instruction.
CYCLE_COSTS = {
    "CONST": 1,
    "LOADL": 1,
    "STOREL": 1,
    "LOADG": 2,
    "STOREG": 2,
    "PKTLEN": 2,
    "LDPKT": 4,
    "ADD": 1, "SUB": 1, "MUL": 3, "DIV": 20, "MOD": 20,
    "AND": 1, "OR": 1, "XOR": 1, "SHL": 1, "SHR": 1,
    "NEG": 1, "INV": 1,
    "CMPEQ": 1, "CMPNE": 1, "CMPLT": 1, "CMPLE": 1, "CMPGT": 1, "CMPGE": 1,
    "BOOL": 1, "NOT": 1, "DUP": 1, "POP": 1,
    "JMP": 1, "JZ": 2, "JNZ": 2,
    "MAPLOOKUP": 25, "MAPHAS": 25, "MAPUPDATE": 30, "MAPDELETE": 30,
    "ATOMICADD": 45,  # locked RMW
    "RANDOM": 20,
    "RET": 1,
}


class ExecutionResult:
    """Outcome of one interpreted program run."""

    __slots__ = ("value", "cycles", "insns_executed")

    def __init__(self, value, cycles, insns_executed):
        self.value = value
        self.cycles = cycles
        self.insns_executed = insns_executed

    def as_dict(self):
        """JSON-safe form, e.g. for the structured event trace."""
        return {
            "value": self.value,
            "cycles": self.cycles,
            "insns": self.insns_executed,
        }

    def __repr__(self):
        return (
            f"<ExecutionResult value={self.value} cycles={self.cycles} "
            f"insns={self.insns_executed}>"
        )


#: One statement per opcode: ``{top}`` is the stack top, ``{under}`` the
#: slot below it, ``{push}`` the slot a push fills, ``{a}``/``{b}`` the
#: immediates, ``{next}`` the fall-through pc, ``{mask}`` the u64 mask.
_STATEMENTS = {
    "CONST": "{push} = {a}",
    "LOADL": "{push} = l{a}",
    "STOREL": "l{a} = {top}",
    "LOADG": "{push} = g[{a}]",
    "STOREG": "g[{a}] = {top}",
    "PKTLEN": "if packet is None: raise VmFault("
              "'PKTLEN with no packet context')\n{push} = packet.length",
    "LDPKT": "if packet is None: raise VmFault("
             "'LDPKT with no packet context')\n{push} = packet.load({a}, {b})",
    "ADD": "{under} = ({under} + {top}) & {mask}",
    "SUB": "{under} = ({under} - {top}) & {mask}",
    "MUL": "{under} = ({under} * {top}) & {mask}",
    "DIV": "{under} = _div({under}, {top})",
    "MOD": "{under} = _mod({under}, {top})",
    "AND": "{under} &= {top}",
    "OR": "{under} |= {top}",
    "XOR": "{under} ^= {top}",
    "SHL": "{under} = ({under} << ({top} & 63)) & {mask}",
    "SHR": "{under} >>= {top} & 63",
    "NEG": "{top} = -{top} & {mask}",
    "INV": "{top} = ~{top} & {mask}",
    "CMPEQ": "{under} = 1 if {under} == {top} else 0",
    "CMPNE": "{under} = 1 if {under} != {top} else 0",
    "CMPLT": "{under} = 1 if {under} < {top} else 0",
    "CMPLE": "{under} = 1 if {under} <= {top} else 0",
    "CMPGT": "{under} = 1 if {under} > {top} else 0",
    "CMPGE": "{under} = 1 if {under} >= {top} else 0",
    "BOOL": "{top} = 1 if {top} else 0",
    "NOT": "{top} = 0 if {top} else 1",
    "DUP": "{push} = {top}",
    "POP": "",
    "JMP": "b = {a}",
    "JZ": "b = {next} if {top} else {a}",
    "JNZ": "b = {a} if {top} else {next}",
    "MAPLOOKUP": "{top} = _ml(maps[{a}], {top})",
    "MAPHAS": "{top} = _mh(maps[{a}], {top})",
    "MAPUPDATE": "{under} = _mu(maps[{a}], {under}, {top})",
    "MAPDELETE": "{top} = _md(maps[{a}], {top})",
    "ATOMICADD": "{under} = _ma(maps[{a}], {under}, {top})",
    "RANDOM": "{push} = rng.getrandbits(32)",
    "RET": "return _Result({top}, c, e)",
}

_JUMPS = ("JMP", "JZ", "JNZ")

_NAMESPACE = {
    "VmFault": VmFault,
    "_Result": ExecutionResult,
    "_div": helpers.div_u64,
    "_mod": helpers.mod_u64,
    "_ml": helpers.map_lookup,
    "_mh": helpers.map_has,
    "_mu": helpers.map_update,
    "_md": helpers.map_delete,
    "_ma": helpers.atomic_add,
}


def _stack_heights(program):
    """Stack height before each reachable pc (None: unreachable), and the
    block leaders; raises VmFault on IR no bounded run could execute."""
    insns = program.insns
    n = len(insns)
    heights = [None] * (n + 1)
    heights[0] = 0
    leaders = {0}
    for pc, insn in enumerate(insns):
        height = heights[pc]
        if height is None:
            continue
        op = insn.op
        arity, pops, pushes = OPCODES[op]
        immediates = (insn.a, insn.b)[:arity]
        if not all(type(imm) is int for imm in immediates):
            raise VmFault(f"pc {pc}: non-integer immediate in {insn}")
        if op in ("LOADL", "STOREL") and not 0 <= insn.a < program.n_locals:
            raise VmFault(f"pc {pc}: invalid local slot {insn.a}")
        if height < pops:
            raise VmFault(f"pc {pc}: stack underflow at {insn}")
        height += pushes - pops
        if op == "RET":
            targets = ()
        elif op == "JMP":
            targets = (insn.a,)
        elif op in _JUMPS:
            targets = (insn.a, pc + 1)
        else:
            targets = (pc + 1,)
        if op == "RET" or op in _JUMPS:
            leaders.update(targets)
            leaders.add(pc + 1)
        for target in targets:
            if target <= pc:
                raise VmFault(
                    f"pc {pc}: backward jump to {target} (unbounded execution)"
                )
            target = min(target, n)  # past the end: falls off
            if heights[target] is None:
                heights[target] = height
            elif heights[target] != height:
                raise VmFault(
                    f"pc {pc}: inconsistent stack depth at {target} "
                    f"({heights[target]} vs {height})"
                )
    return heights, leaders


def compile_ir(program):
    """Compile ``program``'s IR into
    ``runner(packet, maps, globals_state, rng) -> ExecutionResult``;
    raises VmFault on IR that cannot run (see module docstring)."""
    insns = program.insns
    n = len(insns)
    heights, leaders = _stack_heights(program)
    slots = sorted({insn.a for pc, insn in enumerate(insns)
                    if insn.op in ("LOADL", "STOREL")
                    and heights[pc] is not None})
    lines = ["def _interp(packet, maps, g, rng):"]
    if slots:
        lines.append("    " + " = ".join(f"l{slot}" for slot in slots) + " = 0")
    starts = [pc for pc in range(n) if pc in leaders and heights[pc] is not None]
    for start in starts:
        stop = start + 1
        while stop < n and stop not in leaders:
            stop += 1
        block = insns[start:stop]
        indent = "    " if start == 0 else "        "
        if start:
            lines.append(f"    if b == {start}:")
        cycles = sum(CYCLE_COSTS[insn.op] for insn in block)
        assign = "=" if start == 0 else "+="
        lines.append(f"{indent}c {assign} {cycles}; e {assign} {len(block)}")
        for pc, insn in enumerate(block, start):
            height = heights[pc]
            statement = _STATEMENTS[insn.op].format(
                a=insn.a, b=insn.b, next=pc + 1, top=f"s{height - 1}",
                under=f"s{height - 2}", push=f"s{height}", mask=U64,
            )
            lines.extend(indent + line for line in statement.splitlines())
        last = block[-1].op
        if last != "RET" and last not in _JUMPS:
            lines.append(f"{indent}b = {stop}")
    lines.append("    raise VmFault('control fell off the end (verifier bug?)')")
    source = "\n".join(lines) + "\n"
    namespace = dict(_NAMESPACE)
    exec(compile(source, f"<ir:{program.name}>", "exec"), namespace)
    runner = namespace["_interp"]
    runner.ir_source = source
    return runner


def execute(program, packet, maps, globals_state, rng, runner=None):
    """Run ``program`` against ``packet``.

    Args:
        program: a verified :class:`~repro.ebpf.insn.Program`.
        packet: object with ``.length`` and ``.load(offset, width)``, or None.
        maps: list of BpfMap in map-slot order.
        globals_state: mutable list of the program's global values.
        rng: ``random.Random`` used by the RANDOM instruction.
        runner: ``compile_ir(program)``, if the caller holds it (a program
            image does); compiled here otherwise.  Bindings pass their
            image's runner rather than calling it, so every interpreted
            run is one ``execute`` call, which the perf harness counts.

    Returns an :class:`ExecutionResult`.
    """
    if runner is None:
        runner = compile_ir(program)
    return runner(packet, maps, globals_state, rng)
