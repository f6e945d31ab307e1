"""IR execution: verified IR compiled once, by one code generator in two modes.

Each verified :class:`~repro.ebpf.insn.Program` is compiled into Python
once per program image (:class:`repro.ebpf.program.ProgramImage` holds
both results):

- :func:`compile_ir`, the interpreter, returns the exact executed
  instruction and cycle counts in an :class:`ExecutionResult`: the ground
  truth for program semantics and the source of Table 2's cycles.  The
  tests keep a per-instruction reference stepper as its oracle.
- :func:`jit_compile`, the JIT, is the same code without the counting, as
  the kernel's eBPF JIT translates *verified bytecode* so a decision costs
  "as cheap as a regular function call" (paper §4.1).  It is a stateless
  factory ``bind(maps) -> policy`` closing each binding's policy over the
  slots dict ``get`` of every map it reads.  So the datapath runs exactly
  what :func:`~repro.ebpf.verifier.verify` checked and what
  :func:`~repro.ebpf.optimizer.optimize` emitted.

How the IR compiles.  The verifier proves forward-only jumps and one
stack depth at every join, so one linear pass finds the stack height at
each reachable pc and the locals every path to it has stored.  Inside a
basic block the stack is symbolic: each push/pop chain becomes one
Python expression, a compare feeding a branch becomes ``if a < b:``, and
``%`` / ``//`` by a literal in ``1 .. U64`` are plain operators.  A value
is stored early only when a later statement could change what it reads
or overtake its side effects (random draws, map writes and packet faults
keep their order); stack slots are the locals ``s0 .. sK`` only across
block boundaries.  Blocks nest as ``if``/``else`` at each conditional's
join, the first later block that no edge from the conditional's reach
jumps over.  A jump to a returning block is a copy of that block, so
``break`` followed by ``return x`` stays flat.  A program whose nesting
would pass CPython's indentation limit, need a non-returning block twice
or copy more instructions than it has runs flat instead: every block
behind ``if b == leader:``, in pc order.  A reachable backward jump,
stack underflow or inconsistent join depth is a :class:`VmFault` at build
time, before anything runs.

The modes differ where counting and faults live.  The interpreter opens
each block with ``c += <its cycles>; e += <its instructions>`` (integers,
so the totals equal per-instruction counting), raises :class:`VmFault`
on a packet instruction with no packet, and calls
:mod:`repro.ebpf.helpers` for map reads.  The JIT writes a map read out
on the bound ``get`` (the helpers' ``& U64`` mask, absent keys read 0)
and slices a packet load in place behind ``WireView.load``'s bounds check
(past the end it calls ``load``, for its ``IndexError``).  Both call the
helpers for map writes, which carry an error code, and for a divisor that
may be zero.

Cycle costs are a calibrated model of JIT-compiled eBPF on the paper's
2.3 GHz Xeon: ~2 cycles per simple ALU op, more for packet loads, map
helpers, and atomics.  Decision *enforcement* cost (packet redirection etc.)
is charged separately by the hook (paper §5.5: "most of this time is spent
on enforcing ... rather than making ... each scheduling decision").

Observability: :class:`repro.ebpf.program.LoadedProgram` feeds each
interpreted run's counts into the ``insns_interp`` / ``cycles_interp``
counters when metrics are on (JIT runs count as ``jit_runs``).  The
source is the runner's ``ir_source`` and the factory's ``jit_source``;
the factory's ``jit_n_lines`` (the policy function, binding prologue
excluded) is the ``jit_code_lines`` gauge.
"""

from collections import namedtuple

from repro.ebpf import helpers
from repro.ebpf.errors import VmFault
from repro.ebpf.insn import OPCODES, U64

__all__ = ["CYCLE_COSTS", "ExecutionResult", "compile_ir", "execute",
           "jit_compile"]

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


_JUMPS = ("JMP", "JZ", "JNZ")

#: CPython's tokenizer limits: indentation levels (MAXINDENT) and nested
#: brackets (MAXLEVEL).
_MAX_INDENT = 100
_MAX_PARENS = 200
#: Brackets any expression template below adds around its operands.
_DEPTH_STEP = 3

#: Expression templates over the operands ``{x}`` (under) and ``{y}`` (top).
_BINARY = {
    "ADD": f"(({{x}} + {{y}}) & {U64})",
    "SUB": f"(({{x}} - {{y}}) & {U64})",
    "MUL": f"(({{x}} * {{y}}) & {U64})",
    "DIV": "_div({x}, {y})",
    "MOD": "_mod({x}, {y})",
    "AND": "({x} & {y})",
    "OR": "({x} | {y})",
    "XOR": "({x} ^ {y})",
    "SHL": f"(({{x}} << ({{y}} & 63)) & {U64})",
    "SHR": "({x} >> ({y} & 63))",
    "NEG": f"((-{{y}}) & {U64})",
    "INV": f"((~{{y}}) & {U64})",
}
#: By a literal divisor in ``1 .. U64`` neither can fault, and ``%``
#: needs no mask.
_BY_LITERAL = {"DIV": f"(({{x}} // {{y}}) & {U64})", "MOD": "({x} % {y})"}
_COMPARE = {"CMPEQ": "==", "CMPNE": "!=", "CMPLT": "<", "CMPLE": "<=",
            "CMPGT": ">", "CMPGE": ">="}
_WRITES = {"MAPUPDATE": "_mu", "MAPDELETE": "_md", "ATOMICADD": "_ma"}
_FELL_OFF = "raise VmFault('control fell off the end (verifier bug?)')"

_NAMESPACE = {
    "VmFault": VmFault,
    "_Result": ExecutionResult,
    "_fb": int.from_bytes,
    "_div": helpers.div_u64,
    "_mod": helpers.mod_u64,
    "_ml": helpers.map_lookup,
    "_mh": helpers.map_has,
    "_mu": helpers.map_update,
    "_md": helpers.map_delete,
    "_ma": helpers.atomic_add,
}

_NONE = frozenset()
#: Every side effect and fault writes ``io``, so they keep their order.
_IO = frozenset({"io"})


#: A value on the symbolic stack: its Python text, the state it reads and
#: writes (``l3``, ``g[0]``, ``m1``, ``rng``, ``io``), its text as a branch
#: condition when that is cheaper, and a bound on its bracket depth.
_Expr = namedtuple("_Expr", "text reads writes cond depth",
                   defaults=(_NONE, _NONE, None, 0))


class _Flat(Exception):
    """The program cannot nest: lay it out flat."""


def _analyse(program):
    """Stack height before each reachable pc (None: unreachable), the
    locals stored on every path to it (a bit mask) and the block leaders;
    raises VmFault on IR no bounded run could execute."""
    insns = program.insns
    n = len(insns)
    heights = [None] * (n + 1)
    stored = [0] * (n + 1)
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
        done = stored[pc] | (1 << insn.a if op == "STOREL" else 0)
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
                stored[target] = done
            elif heights[target] != height:
                raise VmFault(
                    f"pc {pc}: inconsistent stack depth at {target} "
                    f"({heights[target]} vs {height})"
                )
            else:
                stored[target] &= done
    return heights, stored, leaders


class _Codegen:
    """One program's source, in interpreter (``jit=False``) or JIT mode."""

    def __init__(self, program, jit):
        heights, stored, leaders = _analyse(program)
        self.insns = insns = program.insns
        self.n = n = len(insns)
        self.jit = jit
        self.heights = heights
        #: Indentation level of the function body.
        self.base = 2 if jit else 1
        ordered = sorted(pc for pc in leaders if pc < n)
        #: Reachable blocks: start -> stop, in pc order.
        self.stops = {start: stop for start, stop
                      in zip(ordered, ordered[1:] + [n])
                      if heights[start] is not None}
        self.starts = list(self.stops)
        self.index = {start: i for i, start in enumerate(self.starts)}
        #: Successors of each block, (if true, if false) for a branch;
        #: pc ``n`` is falling off the end.
        self.succ = {}
        for start, stop in self.stops.items():
            last = insns[stop - 1]
            target = min(last.a, n) if last.op in _JUMPS else None
            self.succ[start] = {
                "RET": (), "JMP": (target,), "JZ": (stop, target),
                "JNZ": (target, stop),
            }.get(last.op, (stop,))
        live = [pc for pc in range(n) if heights[pc] is not None]
        loads = [(pc, insns[pc].a) for pc in live
                 if insns[pc].op == "LOADL"]
        self.read_locals = {slot for _pc, slot in loads}
        self.unset = sorted({slot for pc, slot in loads
                             if not stored[pc] >> slot & 1})
        self.read_maps = sorted({insns[pc].a for pc in live
                                 if insns[pc].op in ("MAPLOOKUP", "MAPHAS")})

    def body(self):
        """The function body's lines: nested if the program nests."""
        self.emitted = set()
        self.spare = self.n  # instructions returning-block copies may add
        lines = []
        try:
            self._nested(0, None, 0, lines)
        except _Flat:
            lines = []
            self._flat(lines)
        return lines

    # ------------------------------------------------------------------
    # Layouts
    # ------------------------------------------------------------------
    def _nested(self, pc, stop, depth, lines):
        """Emit what runs from block ``pc`` until control reaches block
        ``stop``; returns False when every path returns first."""
        if self.base + depth >= _MAX_INDENT:
            raise _Flat
        pad = "    " * (self.base + depth)
        while pc != stop:
            if pc == self.n:
                lines.append(pad + _FELL_OFF)
                return False
            succ = self.succ[pc]
            if pc in self.emitted:
                self.spare -= self.stops[pc] - pc
                if succ or self.spare < 0:
                    raise _Flat
            self.emitted.add(pc)
            cond = self._block(pc, lines, pad)
            if len(succ) < 2:
                if not succ:
                    return False
                pc = succ[0]
                continue
            join = self._join(pc)
            body, other = [], []
            body_falls = self._nested(succ[0], join, depth + 1, body)
            other_falls = self._nested(succ[1], join, depth + 1, other)
            test = cond.cond or cond.text
            # Never an empty ``if`` body; a body that returns needs no else.
            if not body or (other and body_falls and not other_falls):
                test = f"not {test}"
                body, other = other, body
                body_falls, other_falls = other_falls, body_falls
            if body:
                lines.append(f"{pad}if {test}:")
                lines += body
                if other and body_falls:
                    lines.append(pad + "else:")
                    lines += other
                else:
                    lines += [line[4:] for line in other]
            elif cond.writes:
                lines.append(pad + cond.text)
            if not (body_falls or other_falls):
                return False
            pc = join
        return True

    def _join(self, pc):
        """The first block after branch ``pc`` that no edge from its
        reach jumps over; None when every path returns first.  Returning
        blocks are copied, so edges into them do not count."""
        reach = {s for s in self.succ[pc] if self.succ.get(s)}
        if not reach:
            return None
        far = max(reach)
        for start in self.starts[self.index[pc] + 1:]:
            if start == far:
                return far
            if start in reach:
                for s in self.succ[start]:
                    if self.succ.get(s):
                        reach.add(s)
                        far = max(far, s)
        return None  # pragma: no cover - ``far`` is a block start

    def _flat(self, lines):
        """Every block behind ``if b == leader:``, in pc order."""
        for start in self.starts:
            pad = "    " * (self.base + (start > 0))
            if start:
                lines.append(f"{pad[4:]}if b == {start}:")
            cond = self._block(start, lines, pad)
            succ = self.succ[start]
            if len(succ) == 1:
                lines.append(f"{pad}b = {succ[0]}")
            elif succ:
                lines.append(f"{pad}b = {succ[0]} if {cond.cond or cond.text}"
                             f" else {succ[1]}")
        lines.append("    " * self.base + _FELL_OFF)

    # ------------------------------------------------------------------
    # One block
    # ------------------------------------------------------------------
    def _block(self, start, lines, pad):
        """Emit block ``start`` with every value it leaves on the stack in
        its slot; returns its branch condition, if it ends in one."""
        stop = self.stops[start]
        insns = self.insns[start:stop]
        if not self.jit:
            cycles = sum(CYCLE_COSTS[insn.op] for insn in insns)
            assign = "+=" if start else "="
            lines.append(f"{pad}c {assign} {cycles}; e {assign} {len(insns)}")
        stack = [_Expr(f"s{k}") for k in range(self.heights[start])]
        for insn in insns[:-1]:
            self._step(insn, stack, lines, pad)
        last = insns[-1]
        if last.op == "RET":
            value = stack.pop()
            text = value.text if self.jit else f"_Result({value.text}, c, e)"
            self._emit(stack, lines, pad, f"return {text}", value.reads,
                       value.writes | _IO)
            return None
        if last.op in _JUMPS:
            cond = stack.pop() if last.op != "JMP" else None
        else:
            self._step(last, stack, lines, pad)
            cond = None
        self._store(stack, len(stack) - 1, lines, pad)
        return cond

    def _emit(self, stack, lines, pad, text, reads, writes):
        """Emit statement ``text``, storing first every stack value it
        must not overtake."""
        top = -1
        for k, value in enumerate(stack):
            if value.writes & (reads | writes) or value.reads & writes:
                top = k
        self._store(stack, top, lines, pad)
        lines.append(pad + text)

    @staticmethod
    def _store(stack, top, lines, pad):
        """Store ``stack[0 .. top]`` in their slots, bottom first.  A value
        reads a slot below its own only as a copy of that slot's unstored
        name, so no store clobbers a slot a later value reads."""
        for k in range(top + 1):
            if stack[k].text != f"s{k}":
                lines.append(f"{pad}s{k} = {stack[k].text}")
                stack[k] = _Expr(f"s{k}")

    def _step(self, insn, stack, lines, pad):
        """One straight-line instruction on the symbolic stack."""
        op, a = insn.op, insn.a
        if op == "CONST":
            stack.append(_Expr(str(a)))
            return
        if op == "LOADL":
            stack.append(_Expr(f"l{a}", frozenset({f"l{a}"})))
            return
        if op == "LOADG":
            stack.append(_Expr(f"g[{a}]", frozenset({f"g[{a}]"}), depth=1))
            return
        if op in ("PKTLEN", "LDPKT"):
            if not self.jit:
                self._emit(stack, lines, pad, "if packet is None: raise "
                           f"VmFault('{op} with no packet context')", _NONE, _IO)
            if op == "PKTLEN":
                stack.append(_Expr("packet.length"))
                return
            end = a + insn.b
            text = (f"(_fb((packet._data or packet.data)[{a}:{end}], 'little')"
                    f" if {end} <= packet.length else packet.load({a}, {insn.b}))"
                    if self.jit else f"packet.load({a}, {insn.b})")
            stack.append(_Expr(text, writes=_IO, depth=_DEPTH_STEP))
            return
        pops = OPCODES[op][1]
        if pops and (max(value.depth for value in stack[-pops:])
                     + _DEPTH_STEP >= _MAX_PARENS):
            self._store(stack, len(stack) - 1, lines, pad)
        operands = stack[len(stack) - pops:]
        del stack[len(stack) - pops:]
        reads = frozenset().union(*(value.reads for value in operands))
        writes = frozenset().union(*(value.writes for value in operands))
        depth = max((value.depth for value in operands), default=0) + _DEPTH_STEP
        x, y = ([None, None] + [value.text for value in operands])[-2:]
        if op == "DUP":
            stack.append(operands[0])
            if operands[0].depth or writes:  # not a name: evaluate it once
                self._store(stack, len(stack) - 1, lines, pad)
            stack.append(stack[-1])
            return
        if op in ("POP", "STOREL", "STOREG"):  # a dead store is a POP
            if op == "STOREG" or op == "STOREL" and a in self.read_locals:
                target = f"l{a}" if op == "STOREL" else f"g[{a}]"
                y, writes = f"{target} = {y}", writes | {target}
            if writes:
                self._emit(stack, lines, pad, y, reads, writes)
            return
        cond = None
        if op in _BY_LITERAL and y.isdigit() and 0 < int(y) <= U64:
            text = _BY_LITERAL[op].format(x=x, y=y)
        elif op in _BINARY:
            text = _BINARY[op].format(x=x, y=y)
        elif op in _COMPARE:
            cond = f"({x} {_COMPARE[op]} {y})"
            text = f"(1 if {cond} else 0)"
        elif op == "BOOL":
            if operands[0].cond:  # already 0 or 1
                stack.append(operands[0])
                return
            cond = y
            text = f"(1 if {y} else 0)"
        elif op == "NOT":
            test = operands[0].cond or y
            cond = f"(not {test})"
            text = f"(0 if {test} else 1)"
        elif op == "RANDOM":
            text = "rng.getrandbits(32)"
            writes = frozenset({"rng", "io"})
        elif op in ("MAPLOOKUP", "MAPHAS"):
            reads |= {f"m{a}"}
            key = y if y.isdigit() and int(y) <= U64 else f"{y} & {U64}"
            if not self.jit:
                helper = "_ml" if op == "MAPLOOKUP" else "_mh"
                text = f"{helper}(maps[{a}], {y})"
            elif op == "MAPLOOKUP":
                text = f"_l{a}({key}, 0)"
            else:
                cond = f"(_l{a}({key}) is not None)"
                text = f"(0 if _l{a}({key}) is None else 1)"
        else:  # a map write: the helper returns its error code
            args = y if pops == 1 else f"{x}, {y}"
            text = f"{_WRITES[op]}(maps[{a}], {args})"
            reads |= {f"m{a}"}
            writes |= {f"m{a}", "io"}
        if not (reads or writes) and all(v.isdigit() for v in (x, y) if v):
            text, cond, depth = str(eval(text, _NAMESPACE)), None, 0
        stack.append(_Expr(text, reads, writes, cond, depth))


def _generate(program, jit):
    gen = _Codegen(program, jit)
    body = gen.body()
    unset = ["    " * gen.base + " = ".join(f"l{slot}" for slot in gen.unset)
             + " = 0"] if gen.unset else []
    namespace = dict(_NAMESPACE)
    if not jit:
        source = "\n".join(["def _interp(packet, maps, g, rng):"] + unset
                           + body) + "\n"
        exec(compile(source, f"<ir:{program.name}>", "exec"), namespace)
        runner = namespace["_interp"]
        runner.ir_source = source
        return runner
    policy = ["    def _policy(packet, g, rng):"] + unset + body
    source = "\n".join(
        ["def _bind(maps):"]
        + [f"    _l{slot} = maps[{slot}]._values.get" for slot in gen.read_maps]
        + policy + ["    return _policy"]) + "\n"
    exec(compile(source, f"<jit:{program.name}>", "exec"), namespace)
    factory = namespace["_bind"]
    factory.jit_source = source
    factory.jit_n_lines = len(policy)
    return factory


def compile_ir(program):
    """The interpreter: ``program``'s IR compiled into
    ``runner(packet, maps, globals_state, rng) -> ExecutionResult``;
    raises VmFault on IR that cannot run (see module docstring)."""
    return _generate(program, jit=False)


def jit_compile(program):
    """The JIT: ``program``'s IR compiled into the stateless factory
    ``bind(maps_list) -> policy``, where
    ``policy(packet, globals_list, rng) -> int`` is closed over the slots
    dict's ``get`` of every map the program reads."""
    return _generate(program, jit=True)


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
